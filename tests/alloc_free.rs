//! Allocation gates, read from a per-thread counting global allocator:
//!
//! * the serving lookup path: every layer a query crosses — PSL
//!   dispatch, the engine, answer building and a router cache hit —
//!   allocates nothing per call;
//! * the learner: one `learn_suffix` call on the Figure 4 data and on a
//!   400-hostname synthetic suffix stays within a fixed allocation
//!   budget and a fixed number of compiled-program runs, the
//!   deterministic work counts behind the learner's speed.
//!
//! Counts are deterministic, so unlike timings they gate hard on a
//! noisy host.

use hoiho::classify::NcClass;
use hoiho::learner::{learn_suffix, learn_suffix_traced, LearnConfig};
use hoiho::regex::Regex;
use hoiho::taxonomy::Taxonomy;
use hoiho::training::{Observation, SuffixTraining};
use hoiho_cluster::ShardRouter;
use hoiho_obs::{Registry, Tracer};
use hoiho_psl::PublicSuffixList;
use hoiho_serve::engine::EngineObs;
use hoiho_serve::model::{EvalCounts, Model, ModelEntry};
use hoiho_serve::{Engine, Generation};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::hint::black_box;
use std::sync::Arc;

/// The system allocator, counting the allocations each thread makes, so
/// a probe is exact however many test threads run beside it.
struct CountingAlloc;

thread_local! {
    static THREAD_ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count_alloc() {
    // `try_with`: a thread being torn down has no TLS left to count in.
    let _ = THREAD_ALLOCS.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: every method forwards to `System` with the caller's layout
// unchanged; the bookkeeping touches only a const-initialised
// thread-local `Cell`, which does not allocate.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_alloc();
        // SAFETY: same contract as the caller's.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_alloc();
        // SAFETY: same contract as the caller's.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was allocated by `System` with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_alloc();
        // SAFETY: same contract as the caller's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Allocations `f` makes on this thread over 64 calls, after one
/// warm-up call.
fn allocs_in_64_calls(mut f: impl FnMut()) -> u64 {
    f();
    let before = THREAD_ALLOCS.with(Cell::get);
    for _ in 0..64 {
        f();
    }
    THREAD_ALLOCS.with(Cell::get) - before
}

fn entry(suffix: &str, rx: &str) -> ModelEntry {
    ModelEntry {
        suffix: suffix.to_string(),
        class: NcClass::Good,
        single: false,
        taxonomy: Taxonomy::Start,
        hostnames: 10,
        counts: EvalCounts::default(),
        regexes: vec![Regex::parse(rx).unwrap()],
    }
}

fn model() -> Model {
    Model {
        entries: vec![
            entry("equinix.com", r"^(?:p|s)?(\d+)\.[a-z\d]+\.equinix\.com$"),
            // Keyed deeper than its registrable domain: reached only by
            // the label-suffix fallback.
            entry("net.example.com", r"^as(\d+)\.net\.example\.com$"),
        ],
    }
}

/// Lowercase names covering every dispatch outcome and the degenerate
/// shapes.
const HOSTS: &[(&str, &str)] = &[
    ("exact", "p714.sgw.equinix.com"),
    ("fallback", "as100.net.example.com"),
    ("miss", "core1.example.org"),
    ("empty", ""),
    ("trailing dot", "p714.sgw.equinix.com."),
    ("empty label", "a..b.equinix.com"),
];

#[test]
fn engine_extract_allocates_nothing() {
    let registry = Registry::new();
    let mut engine = Engine::new(&model());
    engine.attach_obs(EngineObs::register(&registry));
    assert_eq!(engine.extract("p714.sgw.equinix.com").asn, Some(714));
    assert_eq!(engine.extract("as100.net.example.com").asn, Some(100));
    for &(shape, h) in HOSTS {
        let n = allocs_in_64_calls(|| {
            black_box(engine.extract(black_box(h)));
        });
        assert_eq!(n, 0, "Engine::extract on the {shape} name {h:?}");
    }
}

#[test]
fn psl_dispatch_allocates_nothing() {
    let psl = PublicSuffixList::builtin();
    let keys = ["equinix.com", "net.example.com"];
    for &(shape, h) in HOSTS {
        let n = allocs_in_64_calls(|| {
            black_box(psl.dispatch(black_box(h), |k| keys.iter().position(|&key| key == k)));
        });
        assert_eq!(n, 0, "PublicSuffixList::dispatch on the {shape} name {h:?}");
    }
}

#[test]
fn answer_building_allocates_nothing() {
    let gen = Generation::new(Arc::new(Engine::new(&model())));
    for &(shape, h) in HOSTS {
        let x = gen.engine.extract(h);
        let n = allocs_in_64_calls(|| {
            black_box(gen.answer_of(black_box(x)));
        });
        assert_eq!(n, 0, "Generation::answer_of on the {shape} name {h:?}");
    }
}

#[test]
fn router_cache_hit_allocates_nothing() {
    let router = ShardRouter::from_model(&model(), 2, 64).unwrap();
    for &(shape, h) in HOSTS {
        let first = router.lookup(h);
        let n = allocs_in_64_calls(|| {
            assert_eq!(router.lookup(black_box(h)), first);
        });
        assert_eq!(n, 0, "ShardRouter::lookup cache hit on the {shape} name {h:?}");
    }
    let stats = router.cache_stats();
    assert_eq!(stats.misses, HOSTS.len() as u64, "every repeat must hit the cache");
}

/// The Figure 4 Equinix training data (as in the learning bench).
fn figure4() -> SuffixTraining {
    let rows: &[(u32, &str)] = &[
        (109, "109.sgw.equinix.com"),
        (714, "714.os.equinix.com"),
        (714, "714.me1.equinix.com"),
        (714, "p714.sgw.equinix.com"),
        (714, "s714.sgw.equinix.com"),
        (24115, "p24115.mel.equinix.com"),
        (24115, "s24115.tyo.equinix.com"),
        (22282, "22822-2.tyo.equinix.com"),
        (24482, "24482-fr5-ix.equinix.com"),
        (54827, "54827-dc5-ix2.equinix.com"),
        (55247, "55247-ch3-ix.equinix.com"),
        (2906, "netflix.zh2.corp.eu.equinix.com"),
        (19324, "ipv4.dosarrest.eqix.equinix.com"),
        (8075, "8069.tyo.equinix.com"),
        (8075, "8074.hkg.equinix.com"),
        (55923, "45437-sy1-ix.equinix.com"),
    ];
    let obs: Vec<Observation> =
        rows.iter().map(|&(a, h)| Observation::new(h, [198, 51, 100, 9], a)).collect();
    SuffixTraining::build("equinix.com", &obs)
}

/// The learning bench's `as<asn>-<iface>.<pop>.bigco.net` suffix, large
/// enough that the sets and classes phases take the literal-dispatch
/// path.
fn big_suffix(hostnames: usize) -> SuffixTraining {
    let pops = ["fra", "lhr", "ams", "nyc", "sin"];
    let ifaces = ["ae1", "xe-0-0-1", "te0-7", "ge2-0"];
    let obs: Vec<Observation> = (0..hostnames)
        .map(|i| {
            let asn = 60000 + (i as u32 % 700);
            let h = format!(
                "as{asn}-{}.{}{}.bigco.net",
                ifaces[i % ifaces.len()],
                pops[i % pops.len()],
                i % 3
            );
            Observation::new(&h, [192, 0, 2, (i % 250) as u8], asn)
        })
        .collect();
    SuffixTraining::build("bigco.net", &obs)
}

/// Allocations one `learn_suffix` call makes on this thread, after one
/// warm-up call (which registers the learner's process-global
/// counters).
fn learn_allocs(st: &SuffixTraining) -> u64 {
    let cfg = LearnConfig::default();
    assert!(learn_suffix(st, &cfg).is_some(), "{} must learn a convention", st.suffix);
    let before = THREAD_ALLOCS.with(Cell::get);
    black_box(learn_suffix(black_box(st), &cfg));
    THREAD_ALLOCS.with(Cell::get) - before
}

/// The learner keys, dedups and scores regexes by their elements,
/// keeps sparse hits, and builds a base regex only for a variant not
/// seen before, so one suffix costs a fixed number of allocations. The
/// budgets are this design's counts plus under 5%; building every
/// generated variant, as the learner once did, blows the second.
#[test]
fn learn_suffix_allocations_stay_within_budget() {
    const FIGURE4_BUDGET: u64 = 2_200;
    const BIG_SUFFIX_BUDGET: u64 = 8_600;
    let figure4 = learn_allocs(&figure4());
    let big = learn_allocs(&big_suffix(400));
    eprintln!("learn_suffix allocations: figure4 {figure4}, big_suffix(400) {big}");
    assert!(figure4 <= FIGURE4_BUDGET, "Figure 4: {figure4} allocations > {FIGURE4_BUDGET}");
    assert!(big <= BIG_SUFFIX_BUDGET, "big_suffix(400): {big} allocations > {BIG_SUFFIX_BUDGET}");
}

/// Compiled-program runs of one `learn_suffix` call: the `dispatched`
/// args of its `classes` and `sets` spans, read from a tracer of the
/// call's own (the process-global counters are shared with tests
/// running in parallel).
fn learn_runs(st: &SuffixTraining) -> u64 {
    let tracer = Tracer::new();
    let learned = learn_suffix_traced(st, &LearnConfig::default(), Some(&tracer));
    assert!(learned.is_some(), "{} must learn a convention", st.suffix);
    let spans = tracer.records();
    ["classes", "sets"]
        .iter()
        .map(|&phase| {
            let span = spans.iter().find(|s| s.name == phase).expect("one span per phase");
            let (_, runs) = span
                .args
                .iter()
                .find(|(k, _)| k == "dispatched")
                .unwrap_or_else(|| panic!("the {phase} span carries no dispatched arg"));
            runs.parse::<u64>().expect("dispatched is a count")
        })
        .sum()
}

/// The classes phase hands the hits it traced to the sets phase, and
/// runs each specialised regex only on the hosts its parent matched, so
/// one suffix costs a fixed number of program runs. The budgets are
/// this design's counts plus under 5%; evaluating the pool a second
/// time in the sets phase, as the learner once did, reads 1,008 and
/// 17,300.
#[test]
fn learn_suffix_evaluations_stay_within_budget() {
    const FIGURE4_BUDGET: u64 = 430;
    const BIG_SUFFIX_BUDGET: u64 = 11_000;
    let figure4 = learn_runs(&figure4());
    let big = learn_runs(&big_suffix(400));
    eprintln!("learn_suffix program runs: figure4 {figure4}, big_suffix(400) {big}");
    assert!(figure4 <= FIGURE4_BUDGET, "Figure 4: {figure4} runs > {FIGURE4_BUDGET}");
    assert!(big <= BIG_SUFFIX_BUDGET, "big_suffix(400): {big} runs > {BIG_SUFFIX_BUDGET}");
}
