//! Trace-propagation integration: sampled request traces through a
//! live sharded cluster server.
//!
//! The acceptance invariants (DESIGN §7i):
//!
//! * every sampled query produces one complete span tree — a `server`
//!   root whose `router` child carries the route outcome, with the
//!   cache probe (and, on a cache miss, the shard engine dispatch)
//!   recorded beneath it;
//! * route tags are exact: the shard index on exact-route spans equals
//!   what the partition plan assigns to the hostname's suffix, the
//!   generation is the shard's reload count, and uncovered hostnames
//!   tag `route_miss` with no shard;
//! * the sampler is deterministic: a fixed seed and request script
//!   reproduce the same trace ids and the same span sets (modulo
//!   timestamps) across fresh server instances;
//! * dumps round-trip: the `TRACES` JSONL reparses, and converts to
//!   non-empty Chrome trace JSON and collapsed flamegraph stacks.

use hoiho_repro::cluster::{plan, ClusterBackend, ShardRouter};
use hoiho_repro::hoiho::classify::NcClass;
use hoiho_repro::hoiho::regex::Regex;
use hoiho_repro::hoiho::taxonomy::Taxonomy;
use hoiho_repro::obs::span::{self, detail, trace_id_for, Layer, ReqSpan, NO_PARENT, NO_SHARD};
use hoiho_repro::serve::model::{EvalCounts, Model, ModelEntry};
use hoiho_repro::serve::server::Client;
use hoiho_repro::serve::ServerHandle;
use std::sync::Arc;

const SEED: u64 = 0xDECAF;
const SHARDS: u32 = 2;

/// The fixed request script. Shapes covered: a cache-miss extract hit,
/// a repeat of the same hostname (cache hit, no engine span), a hit on
/// a different suffix, an uncovered hostname (route miss), and a
/// covered hostname the regexes reject (extract miss).
const SCRIPT: [&str; 5] = [
    "as64500.example.com",
    "as64500.example.com",
    "r1.as65000.example.net",
    "nope.example.io",
    "wat.example.com",
];

fn entry(suffix: &str, rx: &str) -> ModelEntry {
    ModelEntry {
        suffix: suffix.to_string(),
        class: NcClass::Good,
        single: false,
        taxonomy: Taxonomy::Start,
        hostnames: 5,
        counts: EvalCounts::default(),
        regexes: vec![Regex::parse(rx).unwrap()],
    }
}

fn model() -> Model {
    Model {
        entries: vec![
            entry("example.com", r"^as(\d+)\.example\.com$"),
            entry("example.net", r"^r\d+\.as(\d+)\.example\.net$"),
            entry("example.org", r"^[a-z]+-as(\d+)\.example\.org$"),
        ],
    }
}

/// Starts a fresh sharded server with every-request sampling under
/// `SEED`, runs `SCRIPT`, and returns the parsed `TRACES` dump.
fn run_script() -> Vec<ReqSpan> {
    let router = ShardRouter::from_model(&model(), SHARDS, 64).expect("router");
    router.obs().sampler().configure(1, SEED);
    let backend = Arc::new(ClusterBackend::new(Arc::new(router)));
    let srv = ServerHandle::start_with_backend("127.0.0.1:0", backend, 1).expect("bind");
    let mut client = Client::connect(srv.local_addr()).expect("connect");
    for host in SCRIPT {
        let resp = client.request(host).expect("query");
        assert!(resp.starts_with(host), "echo intact: {resp:?}");
    }
    let jsonl = client.listing("TRACES").expect("traces").join("\n");
    srv.shutdown();
    span::parse_jsonl(&jsonl).expect("TRACES dump reparses")
}

/// The spans of one trace, keyed by layer-independent queries.
struct Tree<'a> {
    spans: Vec<&'a ReqSpan>,
}

impl<'a> Tree<'a> {
    fn of(spans: &'a [ReqSpan], trace: u64) -> Tree<'a> {
        Tree { spans: spans.iter().filter(|s| s.trace == trace).collect() }
    }

    fn root(&self) -> &ReqSpan {
        let roots: Vec<_> = self.spans.iter().filter(|s| s.parent == NO_PARENT).collect();
        assert_eq!(roots.len(), 1, "exactly one root per trace");
        roots[0]
    }

    fn only(&self, layer: Layer) -> Option<&ReqSpan> {
        let hits: Vec<_> = self.spans.iter().filter(|s| s.layer == layer).collect();
        assert!(hits.len() <= 1, "at most one {} span per query trace", layer.name());
        hits.first().map(|s| **s)
    }
}

#[test]
fn sampled_queries_record_complete_span_trees_with_exact_route_tags() {
    let spans = run_script();
    let map = plan(&model(), SHARDS).expect("plan");
    let com = map.shard_of("example.com").expect("example.com assigned");
    let net = map.shard_of("example.net").expect("example.net assigned");

    // Request i is the i-th sampler slot, so its trace id is pure in
    // (seed, i) — the dump must contain exactly the script's traces
    // (the trailing TRACES request's own root closes after the dump).
    for (i, _) in SCRIPT.iter().enumerate() {
        let id = trace_id_for(SEED, i as u64);
        assert!(spans.iter().any(|s| s.trace == id), "trace for request {i} present");
    }

    // Request 0: cache miss, routed exactly, engine extract hit.
    let t = Tree::of(&spans, trace_id_for(SEED, 0));
    let root = t.root();
    assert_eq!(root.layer, Layer::Server);
    assert_eq!(root.detail, detail::QUERY);
    let router = t.only(Layer::Router).expect("router span");
    assert_eq!(router.parent, root.id, "router is a child of the server root");
    assert_eq!(router.detail, detail::EXACT);
    assert_eq!(router.shard, com, "route tag matches the partition plan");
    assert_eq!(router.generation, 0, "fresh shard generation");
    let cache = t.only(Layer::Cache).expect("cache span");
    assert_eq!(cache.parent, router.id, "cache probe is inside the router span");
    assert_eq!(cache.detail, detail::MISS);
    assert_eq!(cache.shard, NO_SHARD, "a cold probe has no route tag yet");
    let engine = t.only(Layer::Engine).expect("engine span on a cache miss");
    assert_eq!(engine.parent, router.id, "shard dispatch is inside the router span");
    assert_eq!(engine.detail, detail::EXTRACT_HIT);
    assert_eq!(engine.shard, com);
    assert_eq!(engine.generation, 0);
    assert!(root.start_ns <= router.start_ns && router.end_ns <= root.end_ns);
    assert!(router.start_ns <= engine.start_ns && engine.end_ns <= router.end_ns);

    // Request 1: same hostname again — a cache hit carrying the cached
    // route tag, and no engine dispatch.
    let t = Tree::of(&spans, trace_id_for(SEED, 1));
    let router = t.only(Layer::Router).expect("router span");
    assert_eq!(router.detail, detail::EXACT);
    assert_eq!(router.shard, com);
    let cache = t.only(Layer::Cache).expect("cache span");
    assert_eq!(cache.detail, detail::HIT);
    assert_eq!(cache.shard, com, "a hit revalidates and reports the cached route");
    assert_eq!(cache.generation, 0);
    assert!(t.only(Layer::Engine).is_none(), "a cache hit never reaches a shard engine");

    // Request 2: a different suffix lands on its own planned shard.
    let t = Tree::of(&spans, trace_id_for(SEED, 2));
    let engine = t.only(Layer::Engine).expect("engine span");
    assert_eq!(engine.detail, detail::EXTRACT_HIT);
    assert_eq!(engine.shard, net);
    assert_eq!(t.only(Layer::Router).expect("router span").shard, net);

    // Request 3: no suffix covers the hostname — route_miss, shardless,
    // no engine.
    let t = Tree::of(&spans, trace_id_for(SEED, 3));
    let router = t.only(Layer::Router).expect("router span");
    assert_eq!(router.detail, detail::ROUTE_MISS);
    assert_eq!(router.shard, NO_SHARD);
    assert!(t.only(Layer::Engine).is_none(), "a route miss dispatches to no shard");

    // Request 4: covered suffix, but every regex rejects the name.
    let t = Tree::of(&spans, trace_id_for(SEED, 4));
    let engine = t.only(Layer::Engine).expect("engine span");
    assert_eq!(engine.detail, detail::EXTRACT_MISS);
    assert_eq!(engine.shard, com);
}

/// The sampler contract: identical seed + script ⇒ identical span sets
/// across fresh servers. Timestamps and thread ids differ between
/// runs; everything the trace *means* must not.
#[test]
fn fixed_seed_reproduces_identical_span_sets() {
    let shape = |spans: &[ReqSpan]| -> Vec<(u64, u32, u32, Layer, u8, u32, u64)> {
        let mut v: Vec<_> = spans
            .iter()
            .map(|s| (s.trace, s.id, s.parent, s.layer, s.detail, s.shard, s.generation))
            .collect();
        v.sort_unstable();
        v
    };
    let a = run_script();
    let b = run_script();
    assert!(!a.is_empty(), "sampled runs record spans");
    assert_eq!(shape(&a), shape(&b), "same seed and script, same spans");
}

#[test]
fn dump_converts_to_chrome_and_collapsed_forms() {
    let spans = run_script();
    let chrome = span::to_chrome_json(&spans);
    assert!(chrome.starts_with("{\"traceEvents\":["), "Chrome trace document wrapper");
    assert!(chrome.contains("server:query"), "frames are layer:detail");
    assert!(chrome.contains("\"ph\":\"X\""), "complete events");
    let collapsed = span::to_collapsed(&spans);
    assert!(
        collapsed.lines().any(|l| l.starts_with("server:query;router:exact;engine:extract_hit ")),
        "collapsed stacks walk root→leaf: {collapsed:?}"
    );
    for line in collapsed.lines() {
        let (_, self_ns) = line.rsplit_once(' ').expect("stack + self-time");
        assert!(self_ns.parse::<u64>().is_ok(), "self-times are integral ns: {line:?}");
    }
}
