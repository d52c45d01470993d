//! Benchmarks for the serving subsystem: model artifact round trips,
//! extraction through the suffix-indexed engine, and full lookups over
//! a live TCP server.
//!
//! Runs on the devkit micro-benchmark harness; results land in
//! `BENCH_serve.json` at the workspace root.

use hoiho::learner::{learn_all, LearnConfig};
use hoiho_devkit::bench::{Harness, Throughput};
use hoiho_itdk::{BuiltSnapshot, Method, SnapshotSpec};
use hoiho_netsim::SimConfig;
use hoiho_psl::PublicSuffixList;
use hoiho_serve::server::Client;
use hoiho_serve::{Engine, Model, ServerHandle};
use std::hint::black_box;
use std::sync::Arc;

/// A learned model plus every training hostname, the serving workload:
/// the default-size simulated snapshot, so the artifact rows time a
/// model of tens of conventions.
fn workload() -> (Model, Vec<String>) {
    let snap = BuiltSnapshot::build(&SnapshotSpec {
        label: "bench-serve".into(),
        method: Method::BdrmapIt,
        cfg: SimConfig::default(),
        alias_split: 0.3,
    });
    let training = snap.training_set();
    let groups = training.by_suffix(&PublicSuffixList::builtin());
    let learned = learn_all(&groups, &LearnConfig::default());
    let hostnames: Vec<String> =
        training.observations().iter().map(|o| o.hostname.clone()).collect();
    (Model::from_learned(&learned), hostnames)
}

fn bench_artifact(h: &mut Harness, model: &Model) {
    let text = model.render();
    let mut g = h.benchmark_group("serve/artifact");
    g.throughput(Throughput::Elements(model.len() as u64));
    g.bench_function("render", |b| b.iter(|| black_box(black_box(model).render())));
    g.bench_function("parse", |b| {
        b.iter(|| black_box(Model::parse(black_box(&text)).expect("parse")))
    });
    g.bench_function("compile_engine", |b| {
        b.iter(|| black_box(Engine::new(black_box(model))))
    });
    g.finish();
}

fn bench_extraction(h: &mut Harness, model: &Model, hostnames: &[String]) {
    let engine = Engine::new(model);
    let mut g = h.benchmark_group("serve/extract");
    g.throughput(Throughput::Elements(hostnames.len() as u64));
    g.bench_function("single_loop", |b| {
        b.iter(|| {
            let mut hits = 0usize;
            for hn in hostnames {
                hits += usize::from(engine.extract(black_box(hn)).asn.is_some());
            }
            black_box(hits)
        })
    });
    g.finish();
}

fn bench_tcp(h: &mut Harness, model: &Model, hostnames: &[String]) {
    let engine = Arc::new(Engine::new(model));
    let srv = ServerHandle::start("127.0.0.1:0", engine, 2).expect("bind bench server");
    let mut client = Client::connect(srv.local_addr()).expect("connect");
    let batch: Vec<&String> = hostnames.iter().take(256).collect();
    let mut g = h.benchmark_group("serve/tcp");
    g.sample_size(20);
    g.throughput(Throughput::Elements(batch.len() as u64));
    g.bench_function("query_roundtrip", |b| {
        b.iter(|| {
            let mut hits = 0usize;
            for hn in &batch {
                hits += usize::from(client.query(black_box(hn)).expect("query").is_some());
            }
            black_box(hits)
        })
    });
    g.finish();

    // One framed BATCH request amortizes the socket round trip over the
    // whole batch instead of paying it per lookup. 1024 names (the
    // workload cycled) keeps the pipe full well past the server's
    // per-event read chunk, so the cost converges on raw extraction.
    let bulk: Vec<&String> =
        (0..1024).map(|i| &hostnames[i % hostnames.len()]).collect();
    let mut g = h.benchmark_group("serve");
    g.sample_size(20);
    g.throughput(Throughput::Elements(bulk.len() as u64));
    g.bench_function("socket_batch", |b| {
        b.iter(|| black_box(client.batch(black_box(&bulk)).expect("batch")))
    });
    g.finish();

    drop(client);
    srv.shutdown();

    // The same bulk batch against a server tracing 1 in 64 requests —
    // the sampled-tracing overhead row the --slo bench diff pairs with
    // socket_batch (DESIGN §7i budgets it at <5%). A fresh server so
    // the untraced run above never shares a sampler branch.
    let engine = Arc::new(Engine::new(model));
    let srv = ServerHandle::start("127.0.0.1:0", engine, 2).expect("bind traced bench server");
    srv.obs().sampler().configure(64, 2020);
    let mut client = Client::connect(srv.local_addr()).expect("connect");
    // Warmup: the untraced server above entered its socket_batch
    // rounds with regexes already compiled by the earlier roundtrip
    // bench; give this fresh server the same head start so the pair
    // measures tracing, not lazy compilation.
    for _ in 0..4 {
        client.batch(&bulk).expect("warmup batch");
    }
    let mut g = h.benchmark_group("serve");
    g.sample_size(20);
    g.throughput(Throughput::Elements(bulk.len() as u64));
    g.bench_function("socket_batch_traced", |b| {
        b.iter(|| black_box(client.batch(black_box(&bulk)).expect("batch")))
    });
    g.finish();

    drop(client);
    srv.shutdown();
}

fn main() {
    let (model, hostnames) = workload();
    let mut h = Harness::new("serve");
    bench_artifact(&mut h, &model);
    bench_extraction(&mut h, &model, &hostnames);
    bench_tcp(&mut h, &model, &hostnames);
    h.finish();
}
