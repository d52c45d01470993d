//! Benchmarks for the suffix-sharded serving tier: cached vs uncached
//! lookup latency on a Zipf-skewed hostname stream (the shape of real
//! rDNS query traffic — a small hot set dominates), hot-key repeat
//! latency, and plan/split cost.
//!
//! The model is learned from the default-size simulated snapshot
//! (`SimConfig::default()`, tens of conventions), so the routed rows
//! spread real suffixes over the shards.
//!
//! Results land in `BENCH_cluster.json`; alongside the timings the
//! file records a `cluster/hit_rate_pct` metric — the response-cache
//! hit rate observed on the skewed stream. It is a record to read
//! beside the timings; no gate checks it.

use hoiho::learner::{learn_all, LearnConfig};
use hoiho_cluster::{split, ShardRouter};
use hoiho_devkit::bench::{Harness, Throughput};
use hoiho_devkit::rng::StdRng;
use hoiho_devkit::SeedableRng;
use hoiho_itdk::{BuiltSnapshot, Method, SnapshotSpec};
use hoiho_netsim::SimConfig;
use hoiho_psl::PublicSuffixList;
use hoiho_serve::{Engine, Model};
use std::hint::black_box;

/// Hostname universe size (distinct keys the stream draws from).
const UNIVERSE: usize = 8192;
/// Lookup stream length per timed iteration.
const STREAM: usize = 16384;
/// Response-cache capacity for the cached configurations: a quarter of
/// the universe, so the cache only wins through the Zipf skew.
const CACHE_CAPACITY: usize = 2048;
/// Shards for the routed configurations.
const SHARDS: u32 = 4;

/// A learned model plus the universe of lookup keys: every training
/// hostname, then synthetic siblings under the same suffixes (same
/// dispatch work, mostly regex misses — the realistic cold tail).
fn workload() -> (Model, Vec<String>) {
    let snap = BuiltSnapshot::build(&SnapshotSpec {
        label: "bench-cluster".into(),
        method: Method::BdrmapIt,
        cfg: SimConfig::default(),
        alias_split: 0.3,
    });
    let training = snap.training_set();
    let groups = training.by_suffix(&PublicSuffixList::builtin());
    let learned = learn_all(&groups, &LearnConfig::default());
    let base: Vec<String> = training.observations().iter().map(|o| o.hostname.clone()).collect();
    let mut universe = base.clone();
    let mut j = 0usize;
    while universe.len() < UNIVERSE {
        universe.push(format!("h{j}.{}", base[j % base.len()]));
        j += 1;
    }
    universe.truncate(UNIVERSE);
    (Model::from_learned(&learned), universe)
}

/// A Zipf(s=1) stream of universe indices, drawn by inverse CDF over
/// the precomputed cumulative harmonic weights.
fn zipf_stream(n_items: usize, len: usize, seed: u64) -> Vec<usize> {
    let mut cdf: Vec<f64> = Vec::with_capacity(n_items);
    let mut acc = 0.0f64;
    for rank in 1..=n_items {
        acc += 1.0 / rank as f64;
        cdf.push(acc);
    }
    let total = acc;
    let mut rng = StdRng::seed_from_u64(seed);
    (0..len)
        .map(|_| {
            let u = (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64 * total;
            cdf.partition_point(|&c| c < u).min(n_items - 1)
        })
        .collect()
}

/// Sum of extracted ASNs over one pass of the stream, to keep the
/// optimizer honest across configurations.
fn drain<F: FnMut(&str) -> Option<u32>>(universe: &[String], stream: &[usize], mut f: F) -> u64 {
    let mut acc = 0u64;
    for &i in stream {
        acc = acc.wrapping_add(f(&universe[i]).unwrap_or(0) as u64);
    }
    acc
}

fn main() {
    let (model, universe) = workload();
    let stream = zipf_stream(universe.len(), STREAM, 77);
    let single = Engine::new(&model);
    let uncached = ShardRouter::from_model(&model, SHARDS, 0).expect("build uncached router");
    let cached =
        ShardRouter::from_model(&model, SHARDS, CACHE_CAPACITY).expect("build cached router");

    let mut h = Harness::new("cluster");

    let mut g = h.benchmark_group("cluster/lookup");
    g.throughput(Throughput::Elements(stream.len() as u64));
    g.sample_size(10);
    g.bench_function("single_engine_zipf", |b| {
        b.iter(|| black_box(drain(&universe, &stream, |hn| single.extract(hn).asn)))
    });
    g.bench_function("uncached_zipf", |b| {
        b.iter(|| black_box(drain(&universe, &stream, |hn| uncached.lookup(hn).asn)))
    });
    g.bench_function("cached_zipf", |b| {
        b.iter(|| black_box(drain(&universe, &stream, |hn| cached.lookup(hn).asn)))
    });
    g.finish();

    // The steady-state hit rate on the skewed stream (counters span
    // every warmup and timed pass above — all steady-state after the
    // first pass warms the cache).
    let s = cached.cache_stats();
    let hit_rate = 100.0 * s.hits as f64 / (s.hits + s.misses).max(1) as f64;
    h.metric("cluster/hit_rate_pct", (hit_rate * 10.0).round() / 10.0, "percent");

    // Hot-key repeat: the cache's best case against the full regex
    // path. The key is a training hostname, so the uncached path does
    // real extraction work every time.
    let hot = universe
        .iter()
        .find(|h| single.extract(h).asn.is_some())
        .expect("some training hostname must extract");
    let mut g = h.benchmark_group("cluster/hot");
    g.throughput(Throughput::Elements(1));
    g.bench_function("uncached_repeat", |b| {
        b.iter(|| black_box(uncached.lookup(black_box(hot)).asn))
    });
    g.bench_function("cached_repeat", |b| {
        b.iter(|| black_box(cached.lookup(black_box(hot)).asn))
    });
    g.finish();

    let mut g = h.benchmark_group("cluster/plan");
    g.throughput(Throughput::Elements(model.len() as u64));
    g.bench_function("split_4", |b| {
        b.iter(|| black_box(split(black_box(&model), SHARDS).expect("split")))
    });
    g.finish();

    h.finish();
}
