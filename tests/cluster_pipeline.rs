//! Cluster-tier integration: synthetic Internet → learner → model
//! artifact → shard planner → shard router, asserting the sharded
//! cluster's answers are indistinguishable from a single engine and
//! from the learner's own conventions, for every shard count — then
//! the same invariant over a live TCP cluster server with per-shard
//! reload and `STATS CLUSTER`.

use hoiho_repro::cluster::{
    shard_file_name, split, ClusterBackend, ShardRouter, SHARDMAP_FILE_NAME,
};
use hoiho_repro::hoiho::learner::{learn_all, LearnConfig, LearnedConvention};
use hoiho_repro::itdk::{BuiltSnapshot, Method, SnapshotSpec};
use hoiho_repro::netsim::SimConfig;
use hoiho_repro::psl::PublicSuffixList;
use hoiho_repro::serve::server::Client;
use hoiho_repro::serve::{Engine, Model, ServerHandle};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::Arc;

fn learn(seed: u64) -> (BuiltSnapshot, Vec<LearnedConvention>) {
    let snap = BuiltSnapshot::build(&SnapshotSpec {
        label: format!("cluster-it-{seed}"),
        method: Method::BdrmapIt,
        cfg: SimConfig::tiny(seed),
        alias_split: 0.3,
    });
    let groups = snap.training_set().by_suffix(&PublicSuffixList::builtin());
    let learned = learn_all(&groups, &LearnConfig::default());
    (snap, learned)
}

fn scratch(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("hoiho-cluster-{}-{name}", std::process::id()))
}

/// The acceptance invariant: for every hostname in the sim-trained
/// corpus, shard(N)+router extraction == single-engine extraction ==
/// the learner's direct extraction, for N ∈ {1, 2, 4} — with the
/// shard artifacts round-tripped through disk and the manifest written
/// beside them.
#[test]
fn sharded_cluster_matches_single_engine_and_learner() {
    let (snap, learned) = learn(20807);
    assert!(!learned.is_empty());
    let model = Model::from_learned(&learned);
    let single = Engine::new(&model);
    let by_suffix: BTreeMap<&str, &LearnedConvention> =
        learned.iter().map(|l| (l.convention.suffix.as_str(), l)).collect();
    let groups = snap.training_set().by_suffix(&PublicSuffixList::builtin());

    for shards in [1u32, 2, 4] {
        // Split through the disk artifacts, the way `hoiho-serve
        // shard` + a clustered server would consume them.
        let dir = scratch(&format!("pipeline-{shards}"));
        std::fs::create_dir_all(&dir).expect("scratch dir");
        let (parts, map) = split(&model, shards).expect("split");
        for (k, p) in parts.iter().enumerate() {
            p.save(dir.join(shard_file_name(k as u32))).expect("save shard");
        }
        map.save(dir.join(SHARDMAP_FILE_NAME)).expect("save manifest");

        let manifest = std::fs::read_to_string(dir.join(SHARDMAP_FILE_NAME)).expect("read manifest");
        assert_eq!(manifest, map.render(), "the manifest on disk is not the rendered plan");
        let reloaded: Vec<Model> = (0..shards)
            .map(|k| Model::load(dir.join(shard_file_name(k))).expect("load shard"))
            .collect();
        assert_eq!(reloaded, parts, "shard artifact disk round trip changed a model");
        std::fs::remove_dir_all(&dir).ok();

        let router = ShardRouter::new(&reloaded, 256).expect("build router");
        let (mut checked, mut extracted) = (0usize, 0usize);
        for st in &groups {
            let lc = by_suffix.get(st.suffix.as_str());
            for h in &st.hosts {
                let routed = router.lookup(&h.hostname);
                let direct = single.extract(&h.hostname);
                assert_eq!(
                    routed.asn, direct.asn,
                    "router(shards={shards}) != single engine for {}",
                    h.hostname
                );
                if let Some(lc) = lc {
                    assert_eq!(
                        routed.asn,
                        lc.convention.extract(&h.hostname),
                        "router(shards={shards}) != learner for {}",
                        h.hostname
                    );
                    checked += 1;
                    extracted += usize::from(routed.asn.is_some());
                }
                // Second pass through the cache must agree too.
                assert_eq!(router.lookup(&h.hostname), routed, "cached re-read diverged");
            }
        }
        assert!(checked > 20, "only {checked} hostnames exercised (shards={shards})");
        assert!(extracted > 0, "no hostname extracted at all (shards={shards})");
        assert!(router.cache_stats().hits > 0, "cache never hit (shards={shards})");
    }
}

/// A live clustered TCP server: queries answered identically to the
/// local router, `STATS CLUSTER` reports shard and cache counters,
/// `RELOAD SHARD` hot-swaps one shard over the wire, `SHUTDOWN` works.
#[test]
fn live_tcp_cluster_server_smoke() {
    let (snap, learned) = learn(991);
    let model = Model::from_learned(&learned);
    let single = Engine::new(&model);
    let router = Arc::new(ShardRouter::from_model(&model, 2, 128).expect("build router"));
    let backend = Arc::new(ClusterBackend::new(Arc::clone(&router)));
    let srv = ServerHandle::start_with_backend("127.0.0.1:0", backend, 2).expect("bind");
    let addr = srv.local_addr();

    let hostnames: Vec<String> = snap
        .training_set()
        .observations()
        .iter()
        .take(150)
        .map(|o| o.hostname.clone())
        .collect();
    let mut client = Client::connect(addr).expect("connect");
    let mut served_hits = 0usize;
    for h in &hostnames {
        let over_tcp = client.query(h).expect("query");
        assert_eq!(over_tcp, single.extract(h).asn, "TCP cluster answer diverged for {h}");
        served_hits += usize::from(over_tcp.is_some());
    }
    assert!(served_hits > 0, "smoke test never extracted an ASN");
    // Repeat a few to generate cache hits visible in STATS CLUSTER.
    for h in hostnames.iter().take(10) {
        client.query(h).expect("repeat query");
    }

    let rest = client.listing("STATS CLUSTER").expect("stats cluster");
    assert!(rest[0].starts_with("shard\t0\t"), "bad STATS CLUSTER first line: {rest:?}");
    assert!(rest.iter().any(|l| l.starts_with("shard\t1\t")), "missing shard 1: {rest:?}");
    let cache_line = rest
        .iter()
        .find(|l| l.starts_with("cache\t"))
        .unwrap_or_else(|| panic!("missing cache line: {rest:?}"));
    assert!(cache_line.contains("capacity=128"), "bad cache line: {cache_line}");
    let hits: u64 = cache_line
        .split('\t')
        .find_map(|f| f.strip_prefix("hits="))
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| panic!("unparseable cache line: {cache_line}"));
    assert!(hits >= 10, "repeated queries produced only {hits} cache hits");

    // Hot-reload shard 0 over the wire with an emptied model: its
    // former suffixes stop answering; the other shard is untouched.
    let empty_path = scratch("empty.model");
    Model::default().save(&empty_path).expect("save empty model");
    let resp = client
        .request(&format!("RELOAD SHARD 0 {}", empty_path.display()))
        .expect("reload shard");
    std::fs::remove_file(&empty_path).ok();
    assert_eq!(resp, "ok\treloaded\tshard=0\tconventions=0", "bad reload response: {resp}");
    for h in &hostnames {
        let after = client.query(h).expect("post-reload query");
        assert_eq!(after, router.lookup(h).asn, "post-reload TCP diverged for {h}");
    }

    // A malformed cluster reload is refused without killing the server.
    let bad = client.request("RELOAD /nonexistent.model").expect("bad reload");
    assert!(bad.starts_with("err\t"), "bad reload accepted: {bad}");

    let bye = client.request("SHUTDOWN").expect("shutdown");
    assert_eq!(bye, "ok\tbye");
    srv.join();
}
