//! Allocation gate for the serving lookup path: a counting global
//! allocator asserts that every layer a query crosses — PSL dispatch,
//! the engine, answer building and a router cache hit — allocates
//! nothing per call. Counts are deterministic, so unlike timings they
//! gate hard on a noisy host.

use hoiho::classify::NcClass;
use hoiho::regex::Regex;
use hoiho::taxonomy::Taxonomy;
use hoiho_cluster::ShardRouter;
use hoiho_obs::Registry;
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
