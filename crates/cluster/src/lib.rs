//! # hoiho-cluster — suffix-sharded serving tier
//!
//! Scales the single-engine serving path ([`hoiho_serve`]) out to N
//! independently reloadable shards with a bounded response cache:
//!
//! * [`plan`] — deterministic greedy partitioning of a model artifact
//!   into N weight-balanced shards by registrable-domain suffix, plus
//!   the shard-map manifest that records it. The manifest is written
//!   for operators and scripts and never parsed.
//! * [`cache`] — a std-only LRU behind one mutex that holds at most its
//!   capacity, with read-time validation hooks. It keeps no counters:
//!   the router counts its hits, misses, evictions and stale entries
//!   into per-shard registry series, the one source of
//!   [`CacheStats`].
//! * [`router`] — the shard router: one immutable routing state (the
//!   shards' engines and a suffix table over all of them), swapped
//!   whole on reload. Each lookup reads it once and dispatches once by
//!   PSL registrable domain with longest-first label-suffix fallback
//!   preserved across shard boundaries, then runs the chosen
//!   convention directly. It serves through the cache with per-shard
//!   generation (and reload epoch) tags taken from the state that
//!   computed the answer, so a reloaded shard can never be answered
//!   from stale cache, and it plugs into the serve protocol loop as a
//!   [`hoiho_serve::Backend`].
//!
//! The `hoiho-serve` binary lives in this crate (the serve crate sits
//! below the cluster layer): `shard` splits an artifact on disk, and
//! `serve --shards N --cache-capacity K` runs the clustered server.
//! See `DESIGN.md` §7c for the manifest format, the cache
//! invalidation rules and the cache series.

pub mod cache;
pub mod plan;
pub mod router;

pub use cache::Lru;
pub use plan::{
    plan, shard_file_name, split, suffix_weight, Assignment, PlanError, ShardMap,
    SHARDMAP_FILE_NAME, SHARDMAP_VERSION,
};
pub use router::{
    CacheStats, CachedAnswer, ClusterBackend, Route, RouterError, ShardRouter, ShardStats,
};
