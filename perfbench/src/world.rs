//! The shared benchmark input: one synthetic Internet per seed, the
//! serving model learned from it, its hostname universe, the fixed
//! reference worlds quality is pooled over, and the seeded request
//! streams every workload draws from.
//!
//! Building all of this is input generation, not system set-up: it is
//! done once per run, before any measured phase, and never timed.

use hoiho::learner::{learn_all, LearnConfig};
use hoiho::quality::QualityCounts;
use hoiho_devkit::rngs::StdRng;
use hoiho_devkit::{RngExt, SeedableRng};
use hoiho_itdk::{BuiltSnapshot, Method, SnapshotSpec};
use hoiho_netsim::SimConfig;
use hoiho_psl::PublicSuffixList;
use hoiho_scenario::compile::ground_truth_rows;
use hoiho_scenario::traffic::{universe, Skew, Traffic};
use hoiho_serve::{Engine, Model};

/// World size.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Four times `SimConfig::default()`'s AS counts: the measured size.
    Full,
    /// `SimConfig::tiny`: for smoke tests of the benchmark itself.
    Tiny,
}

/// Independent RNG streams derived from the one workload seed.
const SHUFFLE_STREAM: u64 = 0x5EED_0001;
const PERMUTE_STREAM: u64 = 0x5EED_0002;
const ARRIVAL_STREAM: u64 = 0x5EED_0003;

/// The netsim configuration a seed and scale describe.
fn sim_config(seed: u64, scale: Scale) -> SimConfig {
    match scale {
        Scale::Tiny => SimConfig::tiny(seed),
        Scale::Full => SimConfig {
            seed,
            tier2: 224,
            edge: 1440,
            ixps: 32,
            vantage_points: 48,
            ..SimConfig::default()
        },
    }
}

/// Seeds of the fixed reference worlds. `learn_snapshot` learns them in
/// every pass after the run's own world, the way the paper's learner
/// runs over a series of ITDK snapshots, and every workload pools its
/// precision and recall over them. One world's learning cost and
/// recall hang on a few dozen suffixes and swing by a tenth from seed to
/// seed; with four fixed companions, the seed moves a fifth as much.
pub const REFERENCE_SEEDS: [u64; 4] = [20_200_127, 20_200_128, 20_200_129, 20_200_130];

/// Everything the workloads need, generated from one seed.
pub struct World {
    /// The measurement snapshot (bdrmapIT annotations, alias split 0.3).
    pub snap: BuiltSnapshot,
    /// The serving model: `learn_all` of the snapshot's training set.
    pub model: Model,
    /// `model` rendered as the artifact text servers load.
    pub artifact: String,
    /// Every distinct PTR name of the world, sorted.
    pub universe: Vec<String>,
}

/// The measurement snapshot of the world `seed` describes: bdrmapIT
/// annotations, alias split 0.3.
fn snapshot(seed: u64, scale: Scale) -> BuiltSnapshot {
    BuiltSnapshot::build(&SnapshotSpec {
        label: format!("perfbench-{seed}"),
        method: Method::BdrmapIt,
        cfg: sim_config(seed, scale),
        alias_split: 0.3,
    })
}

/// The snapshots of the fixed reference worlds.
pub fn references(scale: Scale) -> Vec<BuiltSnapshot> {
    REFERENCE_SEEDS
        .iter()
        .map(|&s| snapshot(s, scale))
        .collect()
}

/// `learn_all` of a snapshot's training set, as the serving model.
pub fn learned_model(snap: &BuiltSnapshot) -> Model {
    let groups = snap.training_set().by_suffix(&PublicSuffixList::builtin());
    Model::from_learned(&learn_all(&groups, &LearnConfig::default()))
}

/// Adds `model`'s answers for every named interface of `snap`'s world,
/// scored against its ground truth, into `q`.
pub fn score(q: &mut QualityCounts, snap: &BuiltSnapshot, model: &Model) {
    let engine = Engine::new(model);
    for (hostname, expected) in ground_truth_rows(&snap.internet) {
        q.observe(expected, engine.extract(&hostname).asn);
    }
}

impl World {
    /// Generates the world for `seed`.
    pub fn build(seed: u64, scale: Scale) -> World {
        let snap = snapshot(seed, scale);
        let model = learned_model(&snap);
        let artifact = model.render();
        let universe = universe(&snap.internet);
        World {
            snap,
            model,
            artifact,
            universe,
        }
    }

    /// The serving model's quality on this world, pooled with that of
    /// the models learned from the reference worlds on theirs.
    pub fn pooled_quality(&self, scale: Scale) -> QualityCounts {
        let mut q = QualityCounts::default();
        score(&mut q, &self.snap, &self.model);
        for snap in references(scale) {
            score(&mut q, &snap, &learned_model(&snap));
        }
        q
    }
}

/// A seeded permutation of `0..n` (Fisher–Yates).
pub fn shuffled(n: usize, seed: u64) -> Vec<u32> {
    let mut v = Vec::with_capacity(n);
    shuffle_into(&mut v, n, seed);
    v
}

/// [`shuffled`] into `v`, reusing its allocation.
pub fn shuffle_into(v: &mut Vec<u32>, n: usize, seed: u64) {
    v.clear();
    v.extend(0..n as u32);
    let mut rng = StdRng::seed_from_u64(seed ^ SHUFFLE_STREAM);
    for i in (1..n).rev() {
        let j = rng.random_range(0..=i);
        v.swap(i, j);
    }
}

/// `len` universe indices drawn Zipf(1.1) over a seeded permutation of
/// the universe, so the hot set spans suffixes instead of being the
/// alphabetical head of the sorted universe.
pub fn zipf_stream(n: usize, seed: u64, len: usize) -> Vec<u32> {
    let perm = shuffled(n, seed ^ PERMUTE_STREAM);
    let traffic = Traffic {
        skew: Skew::Zipf(1.1),
        ..Traffic::default()
    };
    traffic
        .sample_indices(n, seed, len)
        .into_iter()
        .map(|r| perm[r])
        .collect()
}

/// Due times (ns from the start) of `count` Poisson arrivals at `rate`
/// per second.
pub fn poisson_schedule(rate: f64, count: usize, seed: u64) -> Vec<u64> {
    let mut rng = StdRng::seed_from_u64(seed ^ ARRIVAL_STREAM);
    let mut t = 0.0f64;
    (0..count)
        .map(|_| {
            let u: f64 = rng.random::<f64>();
            t += -(1.0 - u).ln() / rate * 1e9;
            t as u64
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// FNV-1a over a byte stream.
    fn fnv1a(bytes: impl IntoIterator<Item = u8>) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
        h
    }

    /// Digest of everything a seed generates: the world, the model
    /// learned from it, and every request stream drawn from it.
    fn digest(seed: u64) -> (u64, u64, u64) {
        let w = World::build(seed, Scale::Tiny);
        let n = w.universe.len();
        let world = fnv1a(
            w.snap
                .internet
                .digest()
                .to_le_bytes()
                .into_iter()
                .chain(w.artifact.bytes())
                .chain(w.universe.iter().flat_map(|h| h.bytes().chain([b'\n']))),
        );
        let keys = fnv1a(
            shuffled(n, seed)
                .into_iter()
                .chain(zipf_stream(n, seed, 4096))
                .flat_map(u32::to_le_bytes),
        );
        let due = fnv1a(
            poisson_schedule(50_000.0, 4096, seed)
                .into_iter()
                .flat_map(u64::to_le_bytes),
        );
        (world, keys, due)
    }

    #[test]
    fn a_seed_fixes_the_world_and_every_request_stream() {
        let a = digest(5);
        assert_eq!(
            a,
            digest(5),
            "the same seed must generate byte-identical inputs"
        );
        let b = digest(6);
        assert!(
            a.0 != b.0 && a.1 != b.1 && a.2 != b.2,
            "another seed must change every input: {a:?} {b:?}"
        );
    }
}
