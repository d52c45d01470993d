//! Regenerates every table and figure in the paper's evaluation.
//!
//! ```text
//! experiments [fig5|fig6|table1|table2|sec5|overlap|sweep|asname|ablation|dump|all]
//! ```
//!
//! `all` (the default) runs every experiment: Figures 5 and 6, Tables 1
//! and 2, §5, the §4 ITDK/PeeringDB overlap, the §7 PTR sweep and
//! AS-name census, the phase ablation, and `dump`, which writes the two
//! 2020 convention sets to `data/`.
//!
//! Each experiment prints the measured series/rows next to the paper's
//! reported values; absolute counts differ (the substrate is a synthetic
//! Internet, not the authors' testbed) but the shapes are the claim.
//! An unknown name exits 2 before anything is built.

use hoiho::classify::NcClass;
use hoiho::cli;
use hoiho::learner::LearnConfig;
use hoiho_bench::futurework::{ablation, asname_census, ptr_sweep};
use hoiho_bench::overlap::overlap;
use hoiho_bench::pipeline::{snapshot_stats, SnapshotStats};
use hoiho_bench::taxonomy::table1;
use hoiho_bench::validation::{run_sec5, run_table2};
use hoiho_bench::{error_rate, pct};
use hoiho_itdk::{timeline, Method};
use std::process::ExitCode;

const EXPERIMENTS: [&str; 11] = [
    "fig5", "fig6", "table1", "table2", "sec5", "overlap", "sweep", "asname", "ablation", "dump",
    "all",
];

fn main() -> ExitCode {
    let usage = format!("usage: experiments [{}]\n", EXPERIMENTS.join("|"));
    cli::run("experiments", &usage, |args| {
        let arg: String = args.opt_positional("<experiment>")?.unwrap_or_else(|| "all".into());
        args.done()?;
        if !EXPERIMENTS.contains(&arg.as_str()) {
            return Err(args.error(format_args!("unknown experiment {arg:?}")));
        }
        run(&arg);
        Ok(Ok(()))
    })
}

fn run(arg: &str) {
    let run_all = arg == "all";

    // Figures 5 and 6 share the 19 timeline builds; Table 1, Table 2,
    // §5 and the overlap reuse the two 2020 snapshots.
    println!("building the 19 training-set snapshots (this is the whole pipeline:");
    println!("synthetic Internet -> traceroute -> alias resolution -> ownership");
    println!("inference -> Hoiho learning) ...\n");
    let t0 = std::time::Instant::now();
    let stats: Vec<SnapshotStats> = timeline()
        .iter()
        .map(|spec| snapshot_stats(spec, &LearnConfig::default()))
        .collect();
    println!("built in {:.1?}\n", t0.elapsed());

    if run_all || arg == "fig5" {
        fig5(&stats);
    }
    if run_all || arg == "fig6" {
        fig6(&stats);
    }
    if run_all || arg == "table1" {
        table1_exp(&stats);
    }
    if run_all || arg == "sec5" || arg == "table2" {
        sec5_and_table2(&stats, run_all || arg == "sec5", run_all || arg == "table2");
    }
    if run_all || arg == "overlap" {
        overlap_exp(&stats);
    }
    if run_all || arg == "sweep" {
        sweep_exp(&stats);
    }
    if run_all || arg == "asname" {
        asname_exp(&stats);
    }
    if run_all || arg == "ablation" {
        ablation_exp(&stats);
    }
    if run_all || arg == "dump" {
        dump_conventions(&stats);
    }
}

/// Writes the learned conventions of the two 2020 training sets to
/// `data/` — the analogue of the paper's public data supplement.
fn dump_conventions(stats: &[SnapshotStats]) {
    std::fs::create_dir_all("data").expect("create data/");
    for s in [latest_itdk(stats), latest_pdb(stats)] {
        let path = format!("data/conventions-{}.txt", s.spec.label);
        let mut text = String::new();
        text.push_str(&format!(
            "# naming conventions learned from the {} training set\n",
            s.spec.label
        ));
        text.push_str("# (regenerate: cargo run --release -p hoiho-bench --bin experiments dump)\n");
        for lc in &s.learned {
            text.push_str(&format!(
                "# class={} single={} tp={} fp={} fn={} atp={} ppv={:.3}\n",
                lc.class.label(),
                lc.single,
                lc.counts.tp,
                lc.counts.fp,
                lc.counts.fnn,
                lc.counts.atp(),
                lc.counts.ppv(),
            ));
            text.push_str(&lc.convention.to_string());
        }
        std::fs::write(&path, &text).expect("write conventions");
        // The dump must survive a round-trip through the public parser.
        let parsed = hoiho::convention::parse_conventions(&text).expect("reparse dump");
        assert_eq!(parsed.len(), s.learned.len());
        println!("wrote {} conventions to {path}", s.learned.len());
    }
    println!();
}

fn sweep_exp(stats: &[SnapshotStats]) {
    println!("== §7 PTR sweep (OpenINTEL analogue) ==");
    println!("paper: applying learned regexes to all delegated PTR space grew");
    println!("matching hostnames 5.4K -> 22.5K, hinting at unseen interconnections\n");
    let latest = latest_itdk(stats);
    let r = ptr_sweep(latest);
    println!("hostnames matched, traceroute-observed corpus: {}", r.matched_observed);
    println!("hostnames matched, full PTR corpus:            {}", r.matched_full);
    println!(
        "newly revealed: {} ({} carry correct operator evidence, {})\n",
        r.new_total,
        r.new_correct,
        pct(r.new_correct, r.new_total)
    );
}

fn asname_exp(stats: &[SnapshotStats]) {
    println!("== §7 AS-name census ==");
    println!("paper: at least 3x more suffixes embed AS names than AS numbers;");
    println!("(here the ratio is set by the simulator's style mixture — the");
    println!("measurement of interest is the dictionary matcher's accuracy)\n");
    let latest = latest_itdk(stats);
    let c = asname_census(latest);
    println!("suffixes embedding AS numbers: {}", c.number_suffixes);
    println!("suffixes embedding AS names:   {}", c.name_suffixes);
    println!(
        "dictionary attribution on name-embedding hostnames: {}/{} ({})\n",
        c.dict_correct,
        c.dict_total,
        pct(c.dict_correct, c.dict_total)
    );
}

fn ablation_exp(stats: &[SnapshotStats]) {
    println!("== ablation: which learning phase earns its keep ==");
    println!("(latest ITDK snapshot, re-learned with one phase disabled)\n");
    let latest = latest_itdk(stats);
    println!("{:<20} {:>8} {:>10}", "configuration", "usable", "total ATP");
    for row in ablation(latest) {
        println!("{:<20} {:>8} {:>10}", row.name, row.usable, row.total_atp);
    }
    println!();
}

/// The latest ITDK-style snapshot (January 2020 analogue).
fn latest_itdk(stats: &[SnapshotStats]) -> &SnapshotStats {
    stats
        .iter().rfind(|s| s.spec.method == Method::BdrmapIt)
        .expect("timeline has bdrmapIT snapshots")
}

/// The latest PeeringDB snapshot (February 2020 analogue).
fn latest_pdb(stats: &[SnapshotStats]) -> &SnapshotStats {
    stats
        .iter().rfind(|s| s.spec.method == Method::PeeringDb)
        .expect("timeline has PeeringDB snapshots")
}

fn fig5(stats: &[SnapshotStats]) {
    println!("== Figure 5: classification of NCs per training set ==");
    println!("paper: 12-55 good NCs per ITDK, growing over time; 55 good for PeeringDB\n");
    println!(
        "{:<20} {:>9} {:>6} {:>10} {:>6} {:>7} {:>8}",
        "snapshot", "method", "good", "promising", "poor", "single", "suffixes"
    );
    for s in stats {
        println!(
            "{:<20} {:>9} {:>6} {:>10} {:>6} {:>7} {:>8}",
            s.spec.label,
            s.spec.method.label(),
            s.count(NcClass::Good),
            s.count(NcClass::Promising),
            s.count(NcClass::Poor),
            s.singles(),
            s.suffixes,
        );
    }
    let first_good = stats.first().map(|s| s.count(NcClass::Good)).unwrap_or(0);
    let last_good = latest_itdk(stats).count(NcClass::Good);
    println!("\nshape check: good NCs grew {first_good} -> {last_good} across the ITDK era\n");
}

fn fig6(stats: &[SnapshotStats]) {
    println!("== Figure 6: PPV of usable NCs on training data ==");
    println!("paper: RTAA 74.8-80.7%, bdrmapIT 83.7-87.4%, PeeringDB 96.0%;");
    println!("siblings add ~1% (RTAA) / ~2% (bdrmapIT)\n");
    println!(
        "{:<20} {:>9} {:>8} {:>12} {:>10}",
        "snapshot", "method", "PPV", "PPV+siblings", "train-acc"
    );
    for s in stats {
        println!(
            "{:<20} {:>9} {:>7.1}% {:>11.1}% {:>9.1}%",
            s.spec.label,
            s.spec.method.label(),
            s.ppv_usable * 100.0,
            s.ppv_usable_siblings * 100.0,
            s.training_accuracy * 100.0,
        );
    }
    let band = |m: Method| {
        let vals: Vec<f64> = stats
            .iter()
            .filter(|s| s.spec.method == m && s.ppv_usable > 0.0)
            .map(|s| s.ppv_usable * 100.0)
            .collect();
        let lo = vals.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = vals.iter().cloned().fold(0.0, f64::max);
        (lo, hi)
    };
    let (rl, rh) = band(Method::Rtaa);
    let (bl, bh) = band(Method::BdrmapIt);
    let (pl, ph) = band(Method::PeeringDb);
    println!(
        "\nshape check: RTAA {rl:.1}-{rh:.1}% < bdrmapIT {bl:.1}-{bh:.1}% < PeeringDB {pl:.1}-{ph:.1}%\n"
    );
}

fn table1_exp(stats: &[SnapshotStats]) {
    println!("== Table 1: taxonomy of ASN placement in hostnames ==");
    println!("paper (usable): simple 17.7% start 50.8% end 10.8% bare 5.4% complex 15.4%");
    println!("paper (single): simple  4.6% start 23.1% end 43.1% bare 7.7% complex 21.5%\n");
    // The paper characterises the union of the latest ITDK and
    // PeeringDB training sets.
    let (usable, single) = table1([latest_itdk(stats), latest_pdb(stats)]);
    println!("{:<10} {:>12} {:>12}", "shape", "usable", "single");
    for (name, u, s) in [
        ("simple", usable.simple, single.simple),
        ("start", usable.start, single.start),
        ("end", usable.end, single.end),
        ("bare", usable.bare, single.bare),
        ("complex", usable.complex, single.complex),
    ] {
        println!(
            "{:<10} {:>6.1}% ({u:>2}) {:>6.1}% ({s:>2})",
            name,
            usable.share(u),
            single.share(s)
        );
    }
    println!(
        "\nshape check: 'start' dominates usable NCs; own-ASN (single) NCs favour 'end'\n"
    );
}

fn sec5_and_table2(stats: &[SnapshotStats], print_sec5: bool, print_table2: bool) {
    let latest = latest_itdk(stats);
    let rep = run_sec5(latest);
    if print_sec5 {
        println!("== §5: using conventions in bdrmapIT ==");
        println!("paper: agreement 87.4% -> 97.1%; error rate 1/7.9 -> 1/34.5;");
        println!("adoption: good 82.5%, promising 44.0%, poor 18.2%\n");
        println!(
            "annotated interfaces: {}  (snapshot {})",
            rep.annotated, latest.spec.label
        );
        println!(
            "agreement: {:.1}% -> {:.1}%",
            rep.agree_before * 100.0,
            rep.agree_after * 100.0
        );
        println!(
            "ground-truth error rate: {} -> {}",
            error_rate(rep.err_before.0, rep.err_before.1),
            error_rate(rep.err_after.0, rep.err_after.1)
        );
        println!(
            "incongruent hostnames: {}; adopted {}",
            rep.result.decisions.len(),
            rep.result.decisions.iter().filter(|d| d.used).count()
        );
        for (class, used, total) in &rep.by_class {
            println!(
                "  {:<10} adopted {:>3}/{:<3} ({})",
                class.label(),
                used,
                total,
                pct(*used, *total)
            );
        }
        println!();
    }
    if print_table2 {
        println!("== Table 2: validation of the modified bdrmapIT ==");
        println!("paper: 432/467 (92.5%) correct decisions\n");
        let t2 = run_table2(latest, &rep);
        println!(
            "{:<18} {:>8} {:>8} {:>8} {:>8}",
            "", "TP(used)", "FN", "FP(used)", "TN"
        );
        for r in &t2.rows {
            println!("{:<18} {:>8} {:>8} {:>8} {:>8}", r.name, r.tp, r.fnn, r.fp, r.tn);
        }
        let tot = t2.totals();
        println!(
            "{:<18} {:>8} {:>8} {:>8} {:>8}",
            "Total", tot.tp, tot.fnn, tot.fp, tot.tn
        );
        println!(
            "\ncorrect decisions: {}/{} ({}); excluded (3-way disagreement): {}",
            tot.correct_decisions(),
            tot.total(),
            pct(tot.correct_decisions(), tot.total()),
            t2.excluded
        );
        println!(
            "coverage: {}/{} incongruent hostnames validated; PeeringDB row spans {} suffixes\n",
            t2.covered, t2.total_decisions, t2.pdb_suffixes
        );
    }
}

fn overlap_exp(stats: &[SnapshotStats]) {
    println!("== §4 overlap: latest ITDK vs PeeringDB ==");
    println!("paper: 130 usable total, 34 common (24 identical regexes),");
    println!("56 unique to ITDK, 40 unique to PeeringDB\n");
    let o = overlap(latest_itdk(stats), latest_pdb(stats));
    println!("ITDK usable:      {}", o.a_usable);
    println!("PeeringDB usable: {}", o.b_usable);
    println!("common suffixes:  {} (identical regexes: {})", o.common, o.identical);
    println!("ITDK-only:        {}", o.only_a);
    println!("PeeringDB-only:   {}\n", o.only_b);
}
