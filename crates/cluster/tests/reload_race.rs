//! Regression test for a lookup racing `RELOAD SHARD`: a cached answer
//! must always equal the uncached one, whichever reload it raced.
//!
//! Shard 0 owns `rd.com` and shard 1 owns the deeper `a.rd.com`, both
//! matching `x<N>.a.rd.com`. While shard 0 owns `rd.com`, such a name
//! routes exactly (its registrable domain) to shard 0; once a reload
//! drops `rd.com`, it falls back to `a.rd.com` on shard 1. A lookup
//! that routed by the old table but ran the new shard-0 engine and
//! tagged itself with the new generation would cache a miss that
//! validates until shard 0 reloads again — the answer and its tag must
//! come from one routing state.

use hoiho::classify::NcClass;
use hoiho::regex::Regex;
use hoiho::taxonomy::Taxonomy;
use hoiho_cluster::ShardRouter;
use hoiho_serve::model::{EvalCounts, Model, ModelEntry};
use std::sync::{Arc, Barrier};
use std::thread;

const ROUNDS: usize = 5_000;
const NAMES: usize = 64;
const CACHE_CAPACITY: usize = 4_096;

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

#[test]
fn cached_answers_equal_uncached_across_racing_reloads() {
    let shared = r"^x(\d+)\.a\.rd\.com$";
    let with_rd = Model { entries: vec![entry("rd.com", shared)] };
    let without_rd = Model { entries: vec![entry("other.com", r"^as(\d+)\.other\.com$")] };
    let deeper = Model { entries: vec![entry("a.rd.com", shared)] };
    let router = Arc::new(ShardRouter::new(&[with_rd.clone(), deeper], CACHE_CAPACITY).unwrap());
    let names: Arc<Vec<String>> = Arc::new((0..NAMES).map(|i| format!("x{i}.a.rd.com")).collect());

    let mut wrong = Vec::new();
    for round in 0..ROUNDS {
        router.reload_shard(0, &with_rd).unwrap();
        let go = Arc::new(Barrier::new(2));
        let reader = {
            let (router, names, go) = (Arc::clone(&router), Arc::clone(&names), Arc::clone(&go));
            thread::spawn(move || {
                go.wait();
                for h in names.iter() {
                    router.lookup(h);
                }
            })
        };
        go.wait();
        router.reload_shard(0, &without_rd).unwrap();
        reader.join().unwrap();
        for h in names.iter() {
            let (cached, fresh) = (router.lookup(h), router.lookup_uncached(h));
            if cached != fresh {
                wrong.push(format!("round {round}: {h} cached {cached:?}, uncached {fresh:?}"));
            }
        }
    }
    assert!(wrong.is_empty(), "{} wrong cached answers, first: {}", wrong.len(), wrong[0]);
}
