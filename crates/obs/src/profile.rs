//! Continuous profiling: a std-only sampling profiler over phase
//! markers.
//!
//! Instead of unwinding stacks (no libunwind in a hermetic build),
//! every event loop publishes *where it is* into a [`PhaseCell`] — one
//! relaxed byte store per phase transition — and a watcher thread
//! (owned by the server) calls [`Profiler::sample_once`] on a fixed
//! interval, attributing one sample to each cell's current phase.
//! Over time the per-phase sample counts converge on the wall-time
//! split between accepting, reading, parsing, backend work, and
//! writing, with near-zero steady-state overhead on the hot path.
//!
//! The `PROFILE` verb renders [`Profiler::render`] plus per-layer span
//! self-time from the span ring.

use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::{Arc, Mutex};

/// Number of distinct phases.
pub const PHASE_COUNT: usize = 7;

/// What a serving thread is doing right now.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum Phase {
    /// Parked in the poller, no work pending.
    Idle = 0,
    /// Accepting new connections.
    Accept = 1,
    /// Reading request bytes off sockets.
    Read = 2,
    /// Framing/parsing request lines.
    Parse = 3,
    /// Inside `Backend::query`/`query_batch` (router, cache, engine).
    Backend = 4,
    /// Rendering responses into the out-buffer.
    Write = 5,
    /// Flushing the out-buffer to the socket.
    Flush = 6,
}

impl Phase {
    /// All phases in code order.
    pub const ALL: [Phase; PHASE_COUNT] = [
        Phase::Idle,
        Phase::Accept,
        Phase::Read,
        Phase::Parse,
        Phase::Backend,
        Phase::Write,
        Phase::Flush,
    ];

    /// Stable lowercase name (exposition label).
    pub fn name(self) -> &'static str {
        match self {
            Phase::Idle => "idle",
            Phase::Accept => "accept",
            Phase::Read => "read",
            Phase::Parse => "parse",
            Phase::Backend => "backend",
            Phase::Write => "write",
            Phase::Flush => "flush",
        }
    }

    fn from_u8(v: u8) -> Phase {
        *Phase::ALL.get(v as usize).unwrap_or(&Phase::Idle)
    }
}

/// One thread's current-phase marker. Writing is a single relaxed
/// store; the watcher reads it asynchronously.
#[derive(Debug)]
pub struct PhaseCell(AtomicU8);

impl PhaseCell {
    /// A cell starting in [`Phase::Idle`].
    pub fn new() -> PhaseCell {
        PhaseCell(AtomicU8::new(Phase::Idle as u8))
    }

    /// Publishes the current phase.
    #[inline]
    pub fn set(&self, p: Phase) {
        self.0.store(p as u8, Ordering::Relaxed);
    }

    /// The last published phase.
    pub fn get(&self) -> Phase {
        Phase::from_u8(self.0.load(Ordering::Relaxed))
    }
}

impl Default for PhaseCell {
    fn default() -> PhaseCell {
        PhaseCell::new()
    }
}

/// The sampling profiler: a set of registered [`PhaseCell`]s plus
/// per-phase sample tallies. Registration takes a mutex (once per
/// thread); sampling takes the same mutex briefly off the hot path;
/// phase publishing is lock-free.
pub struct Profiler {
    cells: Mutex<Vec<Arc<PhaseCell>>>,
    samples: [AtomicU64; PHASE_COUNT],
    rounds: AtomicU64,
}

impl Profiler {
    /// An empty profiler.
    pub fn new() -> Profiler {
        Profiler {
            cells: Mutex::new(Vec::new()),
            samples: std::array::from_fn(|_| AtomicU64::new(0)),
            rounds: AtomicU64::new(0),
        }
    }

    /// Registers (and returns) a new phase cell for the calling
    /// thread. Cells live as long as the profiler; a thread that exits
    /// simply leaves its cell parked in whatever phase it last set —
    /// park in [`Phase::Idle`] before exiting.
    pub fn register(&self) -> Arc<PhaseCell> {
        let cell = Arc::new(PhaseCell::new());
        self.cells.lock().expect("profiler lock poisoned").push(cell.clone());
        cell
    }

    /// Number of registered cells.
    pub fn cells(&self) -> usize {
        self.cells.lock().expect("profiler lock poisoned").len()
    }

    /// Takes one sampling round: attributes one sample per registered
    /// cell to that cell's current phase. Called by the watcher thread
    /// on a fixed interval.
    pub fn sample_once(&self) {
        let cells = self.cells.lock().expect("profiler lock poisoned");
        for cell in cells.iter() {
            self.samples[cell.get() as usize].fetch_add(1, Ordering::Relaxed);
        }
        drop(cells);
        self.rounds.fetch_add(1, Ordering::Relaxed);
    }

    /// Completed sampling rounds.
    pub fn rounds(&self) -> u64 {
        self.rounds.load(Ordering::Relaxed)
    }

    /// Per-phase sample tallies, indexed by `Phase as usize`.
    pub fn phase_samples(&self) -> [u64; PHASE_COUNT] {
        std::array::from_fn(|i| self.samples[i].load(Ordering::Relaxed))
    }

    /// Renders the profile in the metrics exposition grammar. All
    /// phases appear (zeros included) so consumers can grep
    /// deterministically.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str("# TYPE hoiho_profile_rounds_total counter\n");
        out.push_str(&format!("hoiho_profile_rounds_total {}\n", self.rounds()));
        out.push_str("# TYPE hoiho_profile_cells gauge\n");
        out.push_str(&format!("hoiho_profile_cells {}\n", self.cells()));
        out.push_str("# TYPE hoiho_profile_samples_total counter\n");
        let samples = self.phase_samples();
        for p in Phase::ALL {
            out.push_str(&format!(
                "hoiho_profile_samples_total{{phase=\"{}\"}} {}\n",
                p.name(),
                samples[p as usize]
            ));
        }
        out
    }
}

impl Default for Profiler {
    fn default() -> Profiler {
        Profiler::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phases_round_trip_and_default_idle() {
        for p in Phase::ALL {
            assert_eq!(Phase::from_u8(p as u8), p);
        }
        assert_eq!(Phase::from_u8(200), Phase::Idle);
        let cell = PhaseCell::new();
        assert_eq!(cell.get(), Phase::Idle);
        cell.set(Phase::Backend);
        assert_eq!(cell.get(), Phase::Backend);
    }

    #[test]
    fn samples_attribute_to_current_phase() {
        let prof = Profiler::new();
        let a = prof.register();
        let b = prof.register();
        assert_eq!(prof.cells(), 2);
        a.set(Phase::Backend);
        b.set(Phase::Read);
        prof.sample_once();
        a.set(Phase::Write);
        prof.sample_once();
        let s = prof.phase_samples();
        assert_eq!(prof.rounds(), 2);
        assert_eq!(s[Phase::Backend as usize], 1);
        assert_eq!(s[Phase::Read as usize], 2);
        assert_eq!(s[Phase::Write as usize], 1);
        assert_eq!(s.iter().sum::<u64>(), 4, "one sample per cell per round");
    }

    #[test]
    fn render_lists_every_phase() {
        let prof = Profiler::new();
        let cell = prof.register();
        cell.set(Phase::Parse);
        prof.sample_once();
        let text = prof.render();
        assert!(text.contains("hoiho_profile_rounds_total 1"), "{text}");
        assert!(text.contains("hoiho_profile_cells 1"), "{text}");
        for p in Phase::ALL {
            assert!(
                text.contains(&format!("phase=\"{}\"", p.name())),
                "missing {}: {text}",
                p.name()
            );
        }
        assert!(text.contains("hoiho_profile_samples_total{phase=\"parse\"} 1"), "{text}");
    }

    #[test]
    fn concurrent_publishing_is_safe() {
        let prof = Profiler::new();
        let cells: Vec<_> = (0..4).map(|_| prof.register()).collect();
        std::thread::scope(|s| {
            for cell in &cells {
                s.spawn(move || {
                    for i in 0..1000u32 {
                        cell.set(if i % 2 == 0 { Phase::Read } else { Phase::Write });
                    }
                });
            }
            for _ in 0..50 {
                prof.sample_once();
            }
        });
        assert_eq!(prof.phase_samples().iter().sum::<u64>(), 200);
    }
}
