//! # hoiho-serve — model artifacts and extraction serving
//!
//! The learner (`hoiho`) produces naming conventions; this crate makes
//! them *reusable inference artifacts*, the way the paper's authors
//! ship Hoiho's learned regexes with CAIDA's ITDK for others to apply:
//!
//! * [`model`] — a line-based text artifact serializing a full learned
//!   model (per-suffix regexes, §4 class, single flag, taxonomy, eval
//!   counts), with a strict line-numbered parser and a
//!   render→parse→render fixpoint guarantee.
//! * [`engine`] — a read-optimized in-memory index keyed by PSL-derived
//!   suffix that dispatches hostnames to their convention and runs the
//!   compiled regexes, one hostname per call. The server and the §5
//!   experiments answer through it; the cluster router dispatches once
//!   over all its shards' suffixes and runs the chosen shard engine's
//!   compiled convention ([`engine::CompiledNc`]) directly.
//! * [`server`] — a `std::net` TCP line-protocol server running a small
//!   set of epoll readiness event loops ([`sys`] holds the in-tree
//!   syscall shims), with protocol pipelining, a multi-hostname `BATCH`
//!   verb, hit/miss/error/per-suffix counters, a `STATS` command,
//!   atomic hot model reload, and graceful shutdown.
//! * [`chaos`] — `ChaosConn`, a seeded fault-injecting stream wrapper
//!   (drop / truncate / delay / garbage / fragment) used by
//!   `loadgen --chaos` and the fuzz tier's robustness tests.
//!
//! The `hoiho-serve` binary wires these into the workspace pipeline:
//! `save` (learn → artifact, from a training file or a synthetic
//! snapshot), `inspect`, `query`, `serve`, and `loadgen`.
//!
//! Offline/serving split: learning is minutes-scale and runs offline;
//! lookups are microseconds-scale and run here. Nothing in this crate
//! mutates a model after load, so one [`engine::Engine`] serves any
//! number of threads behind an `Arc`.

pub mod chaos;
pub mod engine;
pub mod model;
pub mod server;
pub mod sys;

pub use chaos::{ChaosConfig, ChaosConn, ChaosStats};
pub use engine::{CompiledNc, Engine, Extraction};
pub use model::{EvalCounts, Model, ModelEntry, ModelError};
pub use server::{
    Backend, Client, EngineBackend, Generation, QueryAnswer, ServerHandle, StatsSnapshot,
    MAX_BATCH, MAX_LINE, MAX_PENDING_OUT,
};
