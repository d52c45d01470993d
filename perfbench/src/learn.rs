//! `learn_snapshot`: repeated single-threaded `learn_all` passes over the
//! training sets of the seed's world and the fixed reference worlds, the
//! offline user's job.
//!
//! Set-up is `training_set()` + `by_suffix`. Each pass must render a
//! byte-identical model artifact. The traced run replays the learner's
//! phases per suffix, in `learn_suffix_traced`'s order, timing each one
//! and asserting the replica's output equals `learn_all`'s, so the
//! per-phase rows cannot drift from what the learner really does.

use crate::calib;
use crate::catalog::Report;
use crate::layers::{self, Budget};
use crate::stats::{median, quantile, tail_q};
use crate::sys;
use crate::world::{references, score, World};
use crate::Args;
use hoiho::classify::{classify, is_single};
use hoiho::learner::{learn_all, LearnConfig, LearnedConvention};
use hoiho::phases::base;
use hoiho::phases::classes::embed_classes;
use hoiho::phases::merge::merge;
use hoiho::phases::sets::{build_sets_stats, SetsConfig};
use hoiho::quality::QualityCounts;
use hoiho::regex::Regex;
use hoiho::select::select_best;
use hoiho::taxonomy::taxonomy_of;
use hoiho::training::SuffixTraining;
use hoiho::NamingConvention;
use hoiho_itdk::BuiltSnapshot;
use hoiho_obs::Tracer;
use hoiho_psl::PublicSuffixList;
use hoiho_serve::Model;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Set-up repetitions; `setup_s` is their median.
const SETUP_REPS: usize = 5;
/// Passes measured even when `--seconds` is shorter than that.
const MIN_PASSES: usize = 3;

fn config() -> LearnConfig {
    LearnConfig {
        threads: 1,
        ..LearnConfig::default()
    }
}

/// One snapshot's learner input.
struct Input {
    observations: usize,
    groups: Vec<SuffixTraining>,
}

/// The system's set-up: PSL + training set + per-suffix groups, of
/// every snapshot.
fn setup(snaps: &[&BuiltSnapshot]) -> Vec<Input> {
    let psl = PublicSuffixList::builtin();
    snaps
        .iter()
        .map(|snap| {
            let ts = snap.training_set();
            Input {
                observations: ts.len(),
                groups: ts.by_suffix(&psl),
            }
        })
        .collect()
}

/// What one pass learned and cost, at reference-host speed.
struct Pass {
    learned: Vec<Vec<LearnedConvention>>,
    wall_ns: f64,
    cpu_ns: f64,
    /// Allocations `learn_all` made.
    allocs: u64,
}

/// One pass: `learn_all` of each snapshot in turn, each one's times
/// scaled by the mean of host-speed samples taken just before and just
/// after it (see `calib`).
fn pass(inputs: &[Input]) -> Pass {
    let mut p = Pass {
        learned: Vec::with_capacity(inputs.len()),
        wall_ns: 0.0,
        cpu_ns: 0.0,
        allocs: 0,
    };
    let mut before = calib::speed();
    for input in inputs {
        let (allocs, cpu, t) = (sys::thread_allocs(), sys::process_cpu_ns(), Instant::now());
        p.learned
            .push(learn_all(black_box(&input.groups), &config()));
        let wall = t.elapsed().as_nanos() as f64;
        let cpu = (sys::process_cpu_ns() - cpu) as f64;
        p.allocs += sys::thread_allocs() - allocs;
        let after = calib::speed();
        let speed = (before + after) / 2.0;
        p.wall_ns += wall * speed;
        p.cpu_ns += cpu * speed;
        before = after;
    }
    p
}

fn render(learned: &[Vec<LearnedConvention>]) -> Vec<String> {
    learned
        .iter()
        .map(|l| Model::from_learned(l).render())
        .collect()
}

pub fn run(world: &World, args: &Args) -> Report {
    let mut r = Report::default();
    let references = references(args.scale);
    let snaps: Vec<&BuiltSnapshot> = std::iter::once(&world.snap).chain(&references).collect();

    let base_heap = sys::live_bytes();
    sys::reset_peak();
    let mut setup_s = Vec::new();
    let mut inputs = Vec::new();
    for _ in 0..SETUP_REPS {
        drop(std::mem::take(&mut inputs));
        let speed = calib::speed();
        let t = Instant::now();
        inputs = setup(&snaps);
        setup_s.push(t.elapsed().as_secs_f64() * speed);
    }
    let observations: usize = inputs.iter().map(|i| i.observations).sum();

    // Warm-up pass: the reference artifacts every measured pass must
    // reproduce byte for byte. The run's own world, learned
    // single-threaded, must also reproduce the (threaded) serving model.
    let reference = pass(&inputs).learned;
    let artifacts = render(&reference);
    r.check(artifacts[0] == world.artifact, || {
        "single-threaded learn_all differs from the threaded serving model".into()
    });
    let mut quality = QualityCounts::default();
    for (snap, learned) in snaps.iter().zip(&reference) {
        score(&mut quality, snap, &Model::from_learned(learned));
    }
    r.set_quality(&quality);

    if args.trace {
        traced(&snaps, args, &inputs, &reference, observations, &mut r);
        return r;
    }

    // A request is one pass: learning the whole snapshot series. Its
    // tail is over passes, never over the five snapshots of one pass,
    // so the slowest world of the series does not become the tail.
    let deadline = Instant::now() + Duration::from_secs_f64(args.seconds);
    let (mut rates, mut pass_ns, mut cpu) = (Vec::new(), Vec::new(), 0.0f64);
    while rates.len() < MIN_PASSES || Instant::now() < deadline {
        let Pass {
            learned,
            wall_ns,
            cpu_ns,
            ..
        } = pass(&inputs);
        rates.push(observations as f64 / (wall_ns / 1e9));
        pass_ns.push(wall_ns);
        cpu += cpu_ns;
        r.attempted += observations as u64;
        for ((got, want), input) in render(&learned).iter().zip(&artifacts).zip(&inputs) {
            if got != want {
                r.failed += input.observations as u64;
            }
        }
    }
    let passes = rates.len();
    r.set("setup_s", median(&mut setup_s));
    r.set("peak_heap_mb", (sys::peak_bytes() - base_heap) as f64 / 1e6);
    r.set("cpu_ns_per_op", cpu / (passes * observations) as f64);
    r.set("ops_per_s", median(&mut rates));
    r.set("latency_p50_us", median(&mut pass_ns) / 1e3);
    r.set(
        "latency_tail_us",
        quantile(&mut pass_ns, tail_q(passes)) / 1e3,
    );
    r.notes.push(format!(
        "learn_snapshot: {} snapshots, {observations} observations in {} suffix groups, {passes} passes",
        snaps.len(),
        inputs.iter().map(|i| i.groups.len()).sum::<usize>(),
    ));
    r
}

/// Per-phase self time and work of one replica pass, summed over
/// suffixes.
#[derive(Debug, Default, Clone, Copy)]
struct Phases {
    ns: [u64; 5],
    /// Host-speed factor of the pass (see `calib`).
    speed: f64,
    base_regexes: u64,
    merge_regexes: u64,
    classes_regexes: u64,
    cells: u64,
    dispatched: u64,
    skipped: u64,
}

const PHASES: [&str; 5] = ["base", "merge", "classes", "sets", "select"];
const PHASE_METRICS: [&str; 5] = [
    "base.self_ms",
    "merge.self_ms",
    "classes.self_ms",
    "sets.self_ms",
    "select.self_ms",
];

fn dedup(pool: &mut Vec<Regex>) {
    let mut seen = std::collections::BTreeSet::new();
    pool.retain(|r| seen.insert(r.to_string()));
}

/// `learn_suffix_traced`'s phase sequence, spelled out so each call
/// into a phase can be timed and spanned from here.
fn replica(
    st: &SuffixTraining,
    cfg: &LearnConfig,
    tracer: &Tracer,
    acc: &mut Phases,
) -> Option<LearnedConvention> {
    let suffix = st.suffix.as_str();
    let _outer = tracer.span("learn_suffix", &[("suffix", suffix)]);
    if st.apparent_count() < cfg.min_apparent {
        return None;
    }
    let timed = |phase: usize, f: &mut dyn FnMut()| {
        let _s = tracer.span(PHASES[phase], &[("suffix", suffix)]);
        let t = Instant::now();
        f();
        t.elapsed().as_nanos() as u64
    };
    let mut pool = Vec::new();
    acc.ns[0] += timed(0, &mut || pool = base::generate(st, &cfg.base));
    acc.base_regexes += pool.len() as u64;
    if pool.is_empty() {
        return None;
    }
    if cfg.enable_merge {
        let mut produced = 0;
        acc.ns[1] += timed(1, &mut || {
            let merged = merge(&pool);
            produced = merged.len();
            pool.extend(merged);
            dedup(&mut pool);
        });
        acc.merge_regexes += produced as u64;
    }
    if cfg.enable_classes {
        let mut produced = 0;
        acc.ns[2] += timed(2, &mut || {
            let classed = embed_classes(&pool, &st.hosts);
            produced = classed.len();
            pool.extend(classed);
            dedup(&mut pool);
        });
        acc.classes_regexes += produced as u64;
    }
    let sets_cfg = if cfg.enable_sets {
        cfg.sets
    } else {
        SetsConfig {
            max_set_size: 1,
            max_starts: 0,
            ..cfg.sets
        }
    };
    let (mut candidates, mut stats) = (Vec::new(), Default::default());
    let cells = (pool.len() * st.hosts.len()) as u64;
    acc.ns[3] += timed(3, &mut || {
        (candidates, stats) = build_sets_stats(&pool, &st.hosts, &sets_cfg)
    });
    let stats: hoiho::phases::sets::SetsStats = stats;
    acc.cells += cells;
    acc.dispatched += stats.dispatched;
    acc.skipped += stats.skipped;
    let mut best = None;
    acc.ns[4] += timed(4, &mut || best = select_best(&candidates).cloned());
    let best = best?;
    let convention = NamingConvention::new(&st.suffix, best.regexes);
    let counts = best.counts;
    Some(LearnedConvention {
        class: classify(&counts),
        single: is_single(&counts),
        taxonomy: taxonomy_of(&convention),
        hostnames: st.hosts.len(),
        convention,
        counts,
    })
}

fn same(a: &LearnedConvention, b: &LearnedConvention) -> bool {
    a.convention == b.convention
        && a.counts == b.counts
        && a.class == b.class
        && a.single == b.single
        && a.taxonomy == b.taxonomy
        && a.hostnames == b.hostnames
}

fn traced(
    snaps: &[&BuiltSnapshot],
    args: &Args,
    inputs: &[Input],
    reference: &[Vec<LearnedConvention>],
    observations: usize,
    r: &mut Report,
) {
    let groups: Vec<&SuffixTraining> = inputs.iter().flat_map(|i| &i.groups).collect();
    let reference: Vec<&LearnedConvention> = reference.iter().flatten().collect();
    let budget = Budget::new(args.seconds);
    // Untraced passes: the end-to-end figure the phases must add up to,
    // and the allocation count of one pass.
    let mut untraced = Vec::new();
    let until = budget.slice(0.3);
    while untraced.len() < MIN_PASSES || Instant::now() < until {
        let Pass {
            learned,
            wall_ns,
            allocs,
            ..
        } = pass(inputs);
        if untraced.is_empty() {
            r.set("learn.allocs_per_op", allocs as f64 / observations as f64);
        }
        untraced.push(wall_ns);
        r.attempted += observations as u64;
        let learned: Vec<&LearnedConvention> = learned.iter().flatten().collect();
        if learned.len() != reference.len()
            || !learned.iter().zip(&reference).all(|(a, b)| same(a, b))
        {
            r.failed += observations as u64;
        }
    }

    // Replica passes, each with a fresh tracer; the first pass's spans
    // are the ones written out.
    let cfg = config();
    let until = budget.slice(0.9);
    let mut first_spans = None;
    let (mut pass_ns, mut per_phase): (Vec<f64>, Vec<Phases>) = (Vec::new(), Vec::new());
    while pass_ns.len() < MIN_PASSES || Instant::now() < until {
        let tracer = Tracer::new();
        let mut acc = Phases::default();
        let t = Instant::now();
        let (learned, speed) = calib::paired(|| {
            groups
                .iter()
                .filter_map(|st| replica(st, &cfg, &tracer, &mut acc))
                .collect::<Vec<_>>()
        });
        pass_ns.push(t.elapsed().as_nanos() as f64 * speed);
        acc.speed = speed;
        r.check(
            learned.len() == reference.len()
                && learned.iter().zip(&reference).all(|(a, b)| same(a, b)),
            || "the traced phase replica diverged from learn_all".into(),
        );
        per_phase.push(acc);
        if first_spans.is_none() {
            first_spans = Some(tracer);
        }
    }
    let acc = per_phase[0];
    let mut self_ns = [0.0f64; 5];
    for (i, metric) in PHASE_METRICS.into_iter().enumerate() {
        let mut v: Vec<f64> = per_phase.iter().map(|p| p.ns[i] as f64 * p.speed).collect();
        self_ns[i] = median(&mut v);
        r.set(metric, self_ns[i] / 1e6);
    }
    r.set("base.regexes", acc.base_regexes as f64);
    r.set("merge.regexes", acc.merge_regexes as f64);
    r.set("classes.regexes", acc.classes_regexes as f64);
    r.set("sets.cells", acc.cells as f64);
    r.set("sets.dispatched", acc.dispatched as f64);
    r.set(
        "sets.skip_pct",
        100.0 * acc.skipped as f64 / acc.cells.max(1) as f64,
    );
    r.set(
        "learn.usable_conventions",
        reference.iter().filter(|l| l.class.usable()).count() as f64,
    );

    let e2e = median(&mut untraced);
    r.set(
        "trace.overhead_pct",
        100.0 * (median(&mut pass_ns) - e2e) / e2e,
    );

    // The PSL runs in set-up only (grouping by registrable domain).
    let psl = PublicSuffixList::builtin();
    let hosts: Vec<String> = snaps[0]
        .training_set()
        .observations()
        .iter()
        .map(|o| o.hostname.clone())
        .collect();
    let (ns, allocs) = layers::per_item(&hosts, budget.slice(1.0), |h| {
        black_box(psl.registrable_domain(black_box(h)));
    });
    r.set("psl.registrable_domain_ns", ns);
    r.set("psl.allocs_per_call", allocs);

    let shares: Vec<(&str, f64)> = PHASES.iter().copied().zip(self_ns).collect();
    layers::reconcile(r, "learn_snapshot", "learn pass", e2e, &shares);
    if let Some(tracer) = first_spans {
        layers::write_spans(r, &tracer, "learn_snapshot", args.seed);
    }
}
