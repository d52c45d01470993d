//! Serving-subsystem integration: synthetic Internet → learner → model
//! artifact on disk → extraction engine → TCP server, asserting the
//! served answers are indistinguishable from running the learner's
//! conventions directly.

use hoiho_devkit::rng::StdRng;
use hoiho_devkit::{RngExt, SeedableRng};
use hoiho_repro::cluster::{ClusterBackend, ShardRouter};
use hoiho_repro::hoiho::learner::{learn_all, LearnConfig, LearnedConvention};
use hoiho_repro::itdk::{BuiltSnapshot, Method, SnapshotSpec};
use hoiho_repro::netsim::SimConfig;
use hoiho_repro::psl::PublicSuffixList;
use hoiho_repro::serve::server::Client;
use hoiho_repro::serve::{Engine, Model, ServerHandle};
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::sync::Arc;

fn learn(seed: u64) -> (BuiltSnapshot, Vec<LearnedConvention>) {
    let snap = BuiltSnapshot::build(&SnapshotSpec {
        label: format!("serve-it-{seed}"),
        method: Method::BdrmapIt,
        cfg: SimConfig::tiny(seed),
        alias_split: 0.3,
    });
    let groups = snap.training_set().by_suffix(&PublicSuffixList::builtin());
    let learned = learn_all(&groups, &LearnConfig::default());
    (snap, learned)
}

fn scratch(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("hoiho-serve-{}-{name}", std::process::id()))
}

#[test]
fn saved_model_serves_the_learners_extractions() {
    // Accumulate over several simulated Internets so the threshold below
    // is meaningful (any single tiny snapshot yields a few dozen
    // hostnames under learned suffixes).
    let (mut checked, mut extracted) = (0usize, 0usize);
    for seed in [20807, 4242, 991] {
        let (snap, learned) = learn(seed);
        assert!(!learned.is_empty());

        // Save → load round trip through the on-disk artifact.
        let model = Model::from_learned(&learned);
        let path = scratch(&format!("pipeline-{seed}.model"));
        model.save(&path).expect("save model");
        let loaded = Model::load(&path).expect("load model");
        std::fs::remove_file(&path).ok();
        assert_eq!(loaded, model, "artifact round trip changed the model");

        // Every training hostname: the served extraction must equal the
        // learner's direct extraction through its own convention.
        let engine = Engine::new(&loaded);
        let by_suffix: BTreeMap<&str, &LearnedConvention> =
            learned.iter().map(|l| (l.convention.suffix.as_str(), l)).collect();
        let groups = snap.training_set().by_suffix(&PublicSuffixList::builtin());
        for st in &groups {
            let Some(lc) = by_suffix.get(st.suffix.as_str()) else { continue };
            for h in &st.hosts {
                let direct = lc.convention.extract(&h.hostname);
                let served = engine.extract(&h.hostname);
                assert_eq!(
                    served.asn, direct,
                    "served {:?} != direct {:?} for {}",
                    served.asn, direct, h.hostname
                );
                let nc = served.nc.expect("training hostname must dispatch");
                assert_eq!(*engine.conventions()[nc].suffix, *st.suffix);
                checked += 1;
                extracted += usize::from(direct.is_some());
            }
        }
    }
    assert!(checked > 60, "only {checked} hostnames exercised");
    assert!(extracted > 0, "no hostname extracted at all");
}

#[test]
fn live_tcp_server_smoke() {
    // Serve the learned model on an ephemeral port, query it over real
    // sockets, read STATS, and shut down cleanly.
    let (snap, learned) = learn(991);
    let engine = Arc::new(Engine::new(&Model::from_learned(&learned)));
    let srv = ServerHandle::start("127.0.0.1:0", Arc::clone(&engine), 2).expect("bind");
    let addr = srv.local_addr();

    let hostnames: Vec<String> = snap
        .training_set()
        .observations()
        .iter()
        .take(200)
        .map(|o| o.hostname.clone())
        .collect();
    let mut client = Client::connect(addr).expect("connect");
    let mut served_hits = 0usize;
    for h in &hostnames {
        let direct = engine.extract(h).asn;
        let over_tcp = client.query(h).expect("query");
        assert_eq!(over_tcp, direct, "TCP answer diverged for {h}");
        served_hits += usize::from(over_tcp.is_some());
    }
    assert!(served_hits > 0, "smoke test never extracted an ASN");

    let stats = client.request("STATS").expect("stats");
    assert!(stats.starts_with("stats\t"), "bad STATS response: {stats}");
    let snapshot = srv.stats();
    assert_eq!(
        (snapshot.hits + snapshot.misses) as usize,
        hostnames.len(),
        "counters disagree with queries sent"
    );
    assert_eq!(snapshot.hits as usize, served_hits);

    let bye = client.request("SHUTDOWN").expect("shutdown");
    assert_eq!(bye, "ok\tbye");
    srv.join();
}

/// Property: a pipelined stream of N query lines, written to the socket
/// split at arbitrary (RNG-driven) byte boundaries, yields exactly N
/// responses in request order, each identical to the answer a
/// one-request-at-a-time client gets. Exercises the event loop's
/// partial-line buffering at every cut point a TCP segmentation could
/// produce.
#[test]
fn pipelined_stream_split_at_arbitrary_boundaries_answers_in_order() {
    let (snap, learned) = learn(4242);
    let engine = Arc::new(Engine::new(&Model::from_learned(&learned)));
    let srv = ServerHandle::start("127.0.0.1:0", engine, 2).expect("bind");
    let addr = srv.local_addr();

    let hostnames: Vec<String> = snap
        .training_set()
        .observations()
        .iter()
        .take(60)
        .map(|o| o.hostname.clone())
        .collect();
    assert!(hostnames.len() >= 40, "sim too small for the property");

    // Reference answers over a plain one-at-a-time connection.
    let mut single = Client::connect(addr).expect("connect");
    let expected: Vec<String> =
        hostnames.iter().map(|h| single.request(h).expect("single query")).collect();

    for seed in [1u64, 7, 20807] {
        let mut rng = StdRng::seed_from_u64(seed);
        let stream: Vec<u8> =
            hostnames.iter().flat_map(|h| h.bytes().chain([b'\n'])).collect();
        let mut sock = TcpStream::connect(addr).expect("connect");
        sock.set_nodelay(true).expect("nodelay");
        let reader_sock = sock.try_clone().expect("clone");
        // Read concurrently with the fragmented writes so neither side's
        // socket buffer has to hold the whole conversation.
        let expected_ref = &expected;
        std::thread::scope(|scope| {
            let reader = scope.spawn(move || {
                let mut r = BufReader::new(reader_sock);
                let mut got = Vec::with_capacity(expected_ref.len());
                for _ in 0..expected_ref.len() {
                    let mut line = String::new();
                    r.read_line(&mut line).expect("response line");
                    got.push(line.trim_end().to_string());
                }
                got
            });
            let mut sent = 0usize;
            while sent < stream.len() {
                let n = rng.random_range(1..=9usize).min(stream.len() - sent);
                sock.write_all(&stream[sent..sent + n]).expect("fragment write");
                sent += n;
                if rng.random_bool(0.06) {
                    // An occasional real pause forces the server to see
                    // a partial line across epoll wakeups.
                    std::thread::sleep(std::time::Duration::from_millis(1));
                }
            }
            let got = reader.join().expect("reader thread");
            assert_eq!(&got, expected_ref, "seed {seed}: pipelined responses diverged");
        });
    }
    srv.shutdown();
}

/// `BATCH` answers are byte-identical to one-at-a-time queries, for
/// both the single-engine backend and the sharded cluster backend —
/// and sharded batches agree with the single engine host for host.
#[test]
fn batch_matches_single_queries_on_engine_and_cluster_backends() {
    let (snap, learned) = learn(991);
    let model = Model::from_learned(&learned);
    let hostnames: Vec<String> = snap
        .training_set()
        .observations()
        .iter()
        .take(150)
        .map(|o| o.hostname.clone())
        .collect();

    let single_engine_answers;
    {
        let engine = Arc::new(Engine::new(&model));
        let srv = ServerHandle::start("127.0.0.1:0", engine, 2).expect("bind");
        let mut c = Client::connect(srv.local_addr()).expect("connect");
        let singles: Vec<String> =
            hostnames.iter().map(|h| c.request(h).expect("query")).collect();
        // Several batch sizes, including one that does not divide N.
        for size in [1usize, 7, 64, hostnames.len()] {
            let mut batched = Vec::with_capacity(hostnames.len());
            for chunk in hostnames.chunks(size) {
                batched.extend(c.batch(chunk).expect("batch"));
            }
            assert_eq!(batched, singles, "engine backend, batch size {size}");
        }
        single_engine_answers = singles;
        srv.shutdown();
    }

    for shards in [2u32, 4] {
        let router =
            Arc::new(ShardRouter::from_model(&model, shards, 256).expect("router"));
        let backend = Arc::new(ClusterBackend::new(router));
        let srv =
            ServerHandle::start_with_backend("127.0.0.1:0", backend, 2).expect("bind");
        let mut c = Client::connect(srv.local_addr()).expect("connect");
        let singles: Vec<String> =
            hostnames.iter().map(|h| c.request(h).expect("query")).collect();
        assert_eq!(
            singles, single_engine_answers,
            "shards={shards}: sharded single queries diverged from the single engine"
        );
        let mut batched = Vec::with_capacity(hostnames.len());
        for chunk in hostnames.chunks(32) {
            batched.extend(c.batch(chunk).expect("batch"));
        }
        assert_eq!(batched, singles, "shards={shards}: batch diverged");
        srv.shutdown();
    }
}

/// `name` in the seven hostile spellings the serving routes must agree
/// on: uppercase, a trailing dot, a leading dot, an empty label, every
/// digit run overflowing the 32-bit ASN space, a non-ASCII label, and
/// 60 extra labels.
fn hostile_spellings(name: &str) -> [String; 7] {
    let mut overflow = String::with_capacity(name.len() + 16);
    let mut in_digits = false;
    for c in name.chars() {
        let digit = c.is_ascii_digit();
        if digit && !in_digits {
            overflow.push_str("99999999999");
        } else if !digit {
            overflow.push(c);
        }
        in_digits = digit;
    }
    [
        name.to_ascii_uppercase(),
        format!("{name}."),
        format!(".{name}"),
        name.replacen('.', "..", 1),
        overflow,
        format!("ñ.{name}"),
        format!("{}{name}", "x.".repeat(60)),
    ]
}

/// Every serving route answers every named interface of a default-scale
/// world, in its own and seven hostile spellings, with the learner's
/// `NamingConvention::extract` for the convention the engine dispatched
/// to, and no ASN on a miss: `Engine::extract`, and 1- and 3-shard
/// routers through `lookup` twice (the second read is the cache's) and
/// `lookup_uncached`.
#[test]
fn every_route_answers_every_named_interface_as_the_learner() {
    let snap = BuiltSnapshot::build(&SnapshotSpec {
        label: "routes-991".into(),
        method: Method::BdrmapIt,
        cfg: SimConfig { seed: 991, ..SimConfig::default() },
        alias_split: 0.3,
    });
    let groups = snap.training_set().by_suffix(&PublicSuffixList::builtin());
    let learned = learn_all(&groups, &LearnConfig::default());
    let model = Model::from_learned(&learned);
    let engine = Engine::new(&model);
    let by_suffix: BTreeMap<&str, &LearnedConvention> =
        learned.iter().map(|l| (l.convention.suffix.as_str(), l)).collect();
    let routers: Vec<ShardRouter> = [1u32, 3]
        .iter()
        .map(|&n| ShardRouter::from_model(&model, n, 1024).expect("router"))
        .collect();

    let (mut names, mut dispatched, mut extracted) = (0u64, 0usize, 0usize);
    for (iface, _) in snap.internet.named_interfaces() {
        let name = iface.hostname.as_deref().expect("named");
        names += 1;
        let spellings = hostile_spellings(name);
        for host in std::iter::once(name).chain(spellings.iter().map(String::as_str)) {
            let x = engine.extract(host);
            let suffix = x.nc.map(|i| Arc::clone(&engine.conventions()[i].suffix));
            let want = suffix.as_deref().and_then(|s| by_suffix[s].convention.extract(host));
            assert_eq!(x.asn, want, "engine on {host:?} (suffix {suffix:?})");
            dispatched += usize::from(suffix.is_some());
            extracted += usize::from(want.is_some());
            for router in &routers {
                let answers =
                    [router.lookup(host), router.lookup(host), router.lookup_uncached(host)];
                let routes = ["lookup", "cached lookup", "lookup_uncached"];
                for (route, a) in routes.iter().zip(answers) {
                    assert_eq!(
                        (a.asn, &a.suffix),
                        (want, &suffix),
                        "{}-shard router {route} on {host:?}",
                        router.shards()
                    );
                }
            }
        }
    }
    // Every second lookup of a (name, spelling) pair reads the cache.
    for router in &routers {
        assert!(router.cache_stats().hits >= names * 8, "{:?}", router.cache_stats());
    }
    assert!(names > 2000, "only {names} named interfaces");
    assert!(dispatched > 0 && extracted > 0, "dispatched {dispatched}, extracted {extracted}");
}
