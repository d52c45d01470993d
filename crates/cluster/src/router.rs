//! The shard router: N independently reloadable engines behind one
//! lookup API, fronted by the bounded response cache.
//!
//! # Dispatch
//!
//! The router's state is one immutable [`Routes`] value: every shard's
//! live generation, one [`SuffixTable`] holding the built-in PSL's
//! rules and every model suffix (valued by its owning shard and the
//! convention's index in that shard's engine), and the counters cache
//! tags are checked against. A lookup lowercases the hostname once,
//! reads the state once, and resolves once through the table by the
//! rule a single engine dispatches by ([`SuffixTable::resolve`], one
//! right-to-left walk of the name's labels): first by PSL registrable
//! domain, then by the longest indexed label suffix, the outcome
//! becoming the cached answer's route tag. Because the table is the
//! union of all shard indexes, the longest matching suffix globally is
//! found even when registrable-domain routing misses, so fallback
//! semantics hold across shard boundaries. The dispatched convention
//! then runs directly; the shard's engine never dispatches again.
//!
//! # Cache safety across reloads
//!
//! Cached answers are tagged with a [`Route`]: the shard and its
//! generation for registrable-domain (exact) routes, or the routing
//! epoch for fallback and miss routes. A read revalidates the tag
//! against the state it read, so a stale answer is never served:
//!
//! * Reloading shard *k* bumps *k*'s generation — every cached answer
//!   computed by *k*'s old engine fails validation.
//! * Any reload bumps the epoch — every fallback/miss answer is
//!   dropped, because a reload can add or remove suffixes anywhere in
//!   the fallback search order.
//! * Exact-route answers of *other* shards stay valid: a reload may
//!   not move a suffix between shards (cross-shard conflicts are
//!   rejected), so another shard's registrable-domain dispatch cannot
//!   be affected.
//!
//! A reload builds the next state whole and swaps it in, then
//! invalidates against it. A lookup validates a cache hit under the
//! state's read guard, and on a miss computes its answer and takes its
//! tag from that same state, so the two always agree: a lookup racing
//! a reload answers as of the old state under the old state's tag,
//! which fails validation against the new one. At worst such an insert
//! lingers unservable until evicted; the eager invalidation after the
//! swap just reclaims space early.

use crate::cache::Lru;
use crate::plan::split;
use hoiho_obs::span::{detail, Layer, TraceCtx};
use hoiho_obs::{Counter, Gauge, Obs, SpanHandle};
use hoiho_psl::{lowercase, Dispatch, PublicSuffixList, SuffixTable};
use hoiho_serve::engine::Extraction;
use hoiho_serve::model::Model;
use hoiho_serve::server::{Backend, Generation, QueryAnswer};
use hoiho_serve::Engine;
use std::fmt;
use std::fmt::Write as _;
use std::sync::atomic::Ordering;
use std::sync::{Arc, Mutex, RwLock, RwLockReadGuard};

/// A router construction or reload failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RouterError(pub String);

impl fmt::Display for RouterError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for RouterError {}

/// How a cached answer was routed — the validation tag that makes the
/// cache reload-safe (see module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Route {
    /// Registrable-domain dispatch to `shard` while it was at
    /// `generation`.
    Exact { shard: u32, generation: u64 },
    /// Label-suffix fallback dispatch to `shard` under routing `epoch`.
    Fallback { shard: u32, epoch: u64 },
    /// No suffix covered the hostname under routing `epoch`.
    Miss { epoch: u64 },
}

/// A cached response: the answer plus the route tag it must revalidate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CachedAnswer {
    /// Validation tag.
    pub route: Route,
    /// The answer served on a hit.
    pub answer: QueryAnswer,
}

/// The router's whole routing state, immutable once built: a reload
/// builds the next one and swaps it in (see module docs).
struct Routes {
    /// The built-in PSL's rules plus every shard's suffixes, each valued
    /// by (owning shard, the convention's index in that shard's engine).
    table: SuffixTable<(u32, usize)>,
    /// Each shard's live generation (engine + per-suffix counters).
    shards: Vec<Arc<Generation>>,
    /// Each shard's reload count; cached exact routes record it.
    generations: Vec<u64>,
    /// Reloads of any shard; cached fallback/miss routes record it.
    epoch: u64,
}

impl Routes {
    /// Indexes the shards' conventions. Fails if one suffix is held
    /// twice.
    fn new(
        shards: Vec<Arc<Generation>>,
        generations: Vec<u64>,
        epoch: u64,
    ) -> Result<Routes, RouterError> {
        let mut table = SuffixTable::new(PublicSuffixList::builtin());
        for (k, gen) in shards.iter().enumerate() {
            for (i, nc) in gen.engine.conventions().iter().enumerate() {
                if let Some((prev, _)) = table.insert(&nc.suffix, (k as u32, i)) {
                    return Err(RouterError(format!(
                        "suffix {} owned by both shard {prev} and shard {k}",
                        nc.suffix
                    )));
                }
            }
        }
        Ok(Routes { table, shards, generations, epoch })
    }

    /// True when `route`'s tag matches this state.
    fn current(&self, route: &Route) -> bool {
        match *route {
            Route::Exact { shard, generation } => self.generations[shard as usize] == generation,
            Route::Fallback { epoch, .. } | Route::Miss { epoch } => self.epoch == epoch,
        }
    }
}

/// Point-in-time cache counters, summed over the router's per-shard
/// cache series (`hoiho_cache_*_total`, the `shard="none"` series
/// included): the numbers `STATS CLUSTER` reports on its `cache` line.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups not answered (absent or failed validation).
    pub misses: u64,
    /// Entries written: one per miss while the cache is enabled.
    pub inserts: u64,
    /// Entries displaced by capacity pressure.
    pub evictions: u64,
    /// Entries dropped as stale: at lookup (`hoiho_cache_stale_total`)
    /// or by a reload (`hoiho_cache_invalidations_total`).
    pub invalidations: u64,
}

/// Point-in-time view of one shard for `STATS CLUSTER`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardStats {
    /// Shard index.
    pub shard: u32,
    /// Reload count (0 = as constructed).
    pub generation: u64,
    /// Conventions currently owned.
    pub suffixes: usize,
    /// Queries dispatched here since start (cache hits excluded), as
    /// `hoiho_shard_queries_total` counts them.
    pub queries: u64,
}

/// Pre-registered per-shard metric handles. Series are labelled
/// `shard="<k>"`, with `shard="none"` collecting cache traffic for
/// miss-route entries (hostnames no shard covers — they are cached
/// too, as negative answers).
struct ShardMetrics {
    queries: Counter,
    reloads: Counter,
    generation: Gauge,
    suffixes: Gauge,
    cache_hits: Counter,
    cache_misses: Counter,
    cache_evictions: Counter,
    cache_stale: Counter,
    cache_invalidations: Counter,
}

/// The router's observability handles: one [`ShardMetrics`] per shard
/// plus the `shard="none"` cache series, and the context they live in,
/// which also carries the `shard_reload` event stream.
struct RouterObs {
    obs: Arc<Obs>,
    shards: Vec<ShardMetrics>,
    /// Cache counters for miss-route (uncovered-hostname) entries.
    none: ShardMetrics,
}

impl RouterObs {
    /// A fresh context with the series of shards owning
    /// `suffix_counts[k]` suffixes each registered.
    fn register(suffix_counts: &[usize]) -> RouterObs {
        let obs = Arc::new(Obs::new());
        let series = |label: &str| {
            let r = obs.registry();
            let l = &[("shard", label)];
            ShardMetrics {
                queries: r.counter("hoiho_shard_queries_total", l),
                reloads: r.counter("hoiho_shard_reloads_total", l),
                generation: r.gauge("hoiho_shard_generation", l),
                suffixes: r.gauge("hoiho_shard_suffixes", l),
                cache_hits: r.counter("hoiho_cache_hits_total", l),
                cache_misses: r.counter("hoiho_cache_misses_total", l),
                cache_evictions: r.counter("hoiho_cache_evictions_total", l),
                cache_stale: r.counter("hoiho_cache_stale_total", l),
                cache_invalidations: r.counter("hoiho_cache_invalidations_total", l),
            }
        };
        let shards: Vec<ShardMetrics> =
            (0..suffix_counts.len()).map(|k| series(&k.to_string())).collect();
        for (m, &n) in shards.iter().zip(suffix_counts) {
            m.suffixes.set(n as i64);
        }
        let none = series("none");
        RouterObs { obs, shards, none }
    }

    /// The metrics bucket a route charges cache traffic to.
    fn of_route(&self, route: &Route) -> &ShardMetrics {
        match *route {
            Route::Exact { shard, .. } | Route::Fallback { shard, .. } => {
                &self.shards[shard as usize]
            }
            Route::Miss { .. } => &self.none,
        }
    }
}

/// The suffix-sharded serving tier: one routing state, swapped whole
/// on reload, and the response cache.
pub struct ShardRouter {
    /// The live routing state; each lookup reads it once.
    routes: RwLock<Arc<Routes>>,
    cache: Lru<CachedAnswer>,
    /// Serializes reloads so state rebuilds never interleave.
    reload_lock: Mutex<()>,
    /// Per-shard and cache metrics and the shard-reload event stream.
    obs: RouterObs,
}

impl ShardRouter {
    /// Builds a router over pre-split shard models, registering its
    /// per-shard and cache series in a fresh observability context
    /// ([`ShardRouter::obs`]). Fails if the same suffix appears in more
    /// than one shard.
    pub fn new(shard_models: &[Model], cache_capacity: usize) -> Result<ShardRouter, RouterError> {
        if shard_models.is_empty() {
            return Err(RouterError("a cluster needs at least one shard".into()));
        }
        let shards: Vec<Arc<Generation>> =
            shard_models.iter().map(|m| Generation::new(Arc::new(Engine::new(m)))).collect();
        let suffix_counts: Vec<usize> = shards.iter().map(|g| g.engine.len()).collect();
        let routes = Routes::new(shards, vec![0; shard_models.len()], 0)?;
        Ok(ShardRouter {
            routes: RwLock::new(Arc::new(routes)),
            cache: Lru::new(cache_capacity),
            reload_lock: Mutex::new(()),
            obs: RouterObs::register(&suffix_counts),
        })
    }

    /// Plans, splits, and builds in one step.
    pub fn from_model(
        model: &Model,
        shards: u32,
        cache_capacity: usize,
    ) -> Result<ShardRouter, RouterError> {
        let (models, _) = split(model, shards).map_err(|e| RouterError(e.to_string()))?;
        ShardRouter::new(&models, cache_capacity)
    }

    /// The observability context the router records into: its
    /// per-shard and cache series and `shard_reload` events. A server
    /// over [`ClusterBackend`] adopts it.
    pub fn obs(&self) -> &Arc<Obs> {
        &self.obs.obs
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.obs.shards.len()
    }

    /// The response cache (for stats and tests).
    pub fn cache(&self) -> &Lru<CachedAnswer> {
        &self.cache
    }

    /// The live routing state, read-locked.
    fn routes_guard(&self) -> RwLockReadGuard<'_, Arc<Routes>> {
        self.routes.read().expect("routes lock poisoned: a swap panicked")
    }

    /// The live routing state.
    fn routes(&self) -> Arc<Routes> {
        Arc::clone(&self.routes_guard())
    }

    /// Answers one hostname, through the cache.
    ///
    /// Cache accounting: a hit is charged to the cached route's shard,
    /// a miss to the shard that ends up computing the answer, a
    /// stale-generation rejection to the rejected entry's shard (stale
    /// lookups then recompute, so they also count as misses — per
    /// shard, `hits + misses` over all series equals total lookups),
    /// and an eviction to the shard of the answer that was pushed out.
    pub fn lookup(&self, hostname: &str) -> QueryAnswer {
        self.lookup_traced(hostname, &TraceCtx::off())
    }

    /// [`ShardRouter::lookup`] under a request tracing context: a
    /// sampled request records a router span tagged with the route
    /// outcome (exact/fallback/route_miss), shard, and generation (or
    /// epoch), a cache span tagged hit/miss/stale, and — on a cache
    /// miss routed to a shard — an engine span around that shard's
    /// convention run (DESIGN §7i). An off context costs one branch per
    /// span site.
    pub fn lookup_traced(&self, hostname: &str, ctx: &TraceCtx) -> QueryAnswer {
        let lower = lowercase(hostname);
        let mut rsp = ctx.span(Layer::Router);
        // One state for the whole lookup: a hit is validated against
        // it under the read guard, and only a miss takes its own
        // reference to compute and tag its answer from it.
        let live = self.routes_guard();
        let mut saw_stale = false;
        let cached = {
            let mut csp = ctx.span(Layer::Cache);
            let hit = self.cache.get_valid(&lower, |v| {
                let current = live.current(&v.route);
                if !current {
                    saw_stale = true;
                    self.obs.of_route(&v.route).cache_stale.inc();
                }
                current
            });
            match &hit {
                Some(h) => {
                    // Route tag first: it also writes a dispatch
                    // detail, which the cache outcome overrides.
                    tag_route(&mut csp, &h.route);
                    csp.detail(detail::HIT);
                }
                // A stale rejection recomputes, so it also reads as a
                // miss downstream; the distinct detail says why.
                None => csp.detail(if saw_stale { detail::STALE } else { detail::MISS }),
            }
            hit
        };
        if let Some(hit) = cached {
            self.obs.of_route(&hit.route).cache_hits.inc();
            tag_route(&mut rsp, &hit.route);
            return hit.answer;
        }
        let routes = Arc::clone(&live);
        drop(live);
        let (route, answer) = self.compute(&routes, &lower, ctx);
        tag_route(&mut rsp, &route);
        self.obs.of_route(&route).cache_misses.inc();
        let evicted = self.cache.insert(&lower, CachedAnswer { route, answer: answer.clone() });
        if let Some(ev) = evicted {
            self.obs.of_route(&ev.route).cache_evictions.inc();
        }
        answer
    }

    /// Answers one hostname, bypassing the cache (no insert either).
    pub fn lookup_uncached(&self, hostname: &str) -> QueryAnswer {
        self.compute(&self.routes(), &lowercase(hostname), &TraceCtx::off()).1
    }

    /// The routed compute path: one walk of `routes`' table (the union
    /// of the shard indexes, so a fallback finds the longest label
    /// suffix anywhere in the cluster), then the dispatched convention
    /// runs on its shard. The tag comes from `routes` too.
    fn compute(&self, routes: &Routes, lower: &str, ctx: &TraceCtx) -> (Route, QueryAnswer) {
        let (route, (shard, nc)) = match routes.table.resolve(lower) {
            Dispatch::Exact(&at) => {
                (Route::Exact { shard: at.0, generation: routes.generations[at.0 as usize] }, at)
            }
            Dispatch::Fallback(&at) => (Route::Fallback { shard: at.0, epoch: routes.epoch }, at),
            Dispatch::Miss => return (Route::Miss { epoch: routes.epoch }, QueryAnswer::MISS),
        };
        let k = shard as usize;
        self.obs.shards[k].queries.inc();
        let mut esp = ctx.span(Layer::Engine);
        esp.shard(shard);
        esp.generation(routes.generations[k]);
        let gen = &routes.shards[k];
        let asn = gen.engine.conventions()[nc].extract_lower(lower);
        let answer = gen.answer_of(Extraction { nc: Some(nc), asn });
        esp.detail(if answer.asn.is_some() { detail::EXTRACT_HIT } else { detail::EXTRACT_MISS });
        (route, answer)
    }

    /// Hot-reloads shard `k` with a new model. The new model may add
    /// or drop suffixes, but may not claim a suffix another shard owns.
    /// On success the shard's generation and the global epoch advance
    /// and stale cache entries are dropped; on failure nothing changes.
    pub fn reload_shard(&self, k: u32, model: &Model) -> Result<usize, RouterError> {
        let _serialize = self.reload_lock.lock().expect("reload lock poisoned: a reload panicked");
        let live = self.routes();
        let i = k as usize;
        if i >= live.shards.len() {
            return Err(RouterError(format!(
                "shard {k} out of range (cluster has {})",
                live.shards.len()
            )));
        }
        for e in &model.entries {
            if let Some(&(owner, _)) = live.table.get(e.suffix.as_str()) {
                if owner != k {
                    return Err(RouterError(format!(
                        "suffix {} is owned by shard {owner}; reload of shard {k} may not \
                         claim it",
                        e.suffix
                    )));
                }
            }
        }
        let mut shards = live.shards.clone();
        shards[i] = Generation::new(Arc::new(Engine::new(model)));
        let mut generations = live.generations.clone();
        generations[i] += 1;
        let next = Arc::new(Routes::new(shards, generations, live.epoch + 1)?);
        // Swap, then invalidate against the state just installed,
        // charging each dropped entry to its route's shard.
        *self.routes.write().expect("routes lock poisoned: a swap panicked") = Arc::clone(&next);
        self.cache.invalidate(|v| {
            let stale = !next.current(&v.route);
            if stale {
                self.obs.of_route(&v.route).cache_invalidations.inc();
            }
            stale
        });
        let (n, generation) = (next.shards[i].engine.len(), next.generations[i]);
        let m = &self.obs.shards[i];
        m.reloads.inc();
        m.generation.set(generation as i64);
        m.suffixes.set(n as i64);
        self.obs.obs.events().record(
            "shard_reload",
            &[
                ("shard", &k.to_string()),
                ("generation", &generation.to_string()),
                ("conventions", &n.to_string()),
            ],
        );
        Ok(n)
    }

    /// Total conventions across all shards.
    pub fn model_len(&self) -> usize {
        self.routes().shards.iter().map(|g| g.engine.len()).sum()
    }

    /// Per-suffix query counts, shard by shard in index order (the
    /// cluster analogue of the single engine's `STATS SUFFIX`). Cache
    /// hits do not reach an engine and are not counted here.
    pub fn per_suffix(&self) -> Vec<(String, u64)> {
        let routes = self.routes();
        let mut out = Vec::new();
        for gen in &routes.shards {
            for (nc, n) in gen.engine.conventions().iter().zip(&gen.per_suffix) {
                out.push((nc.suffix.to_string(), n.load(Ordering::Relaxed)));
            }
        }
        out
    }

    /// Per-shard stats snapshot.
    pub fn shard_stats(&self) -> Vec<ShardStats> {
        let routes = self.routes();
        routes
            .shards
            .iter()
            .zip(&routes.generations)
            .zip(&self.obs.shards)
            .enumerate()
            .map(|(k, ((gen, &generation), m))| ShardStats {
                shard: k as u32,
                generation,
                suffixes: gen.engine.len(),
                queries: m.queries.get(),
            })
            .collect()
    }

    /// Cache counters snapshot, read from the registry series the
    /// lookups and reloads count into.
    pub fn cache_stats(&self) -> CacheStats {
        let mut c = CacheStats::default();
        for m in self.obs.shards.iter().chain([&self.obs.none]) {
            c.hits += m.cache_hits.get();
            c.misses += m.cache_misses.get();
            c.evictions += m.cache_evictions.get();
            c.invalidations += m.cache_stale.get() + m.cache_invalidations.get();
        }
        if self.cache.capacity() > 0 {
            c.inserts = c.misses;
        }
        c
    }
}

/// Tags a span with a route outcome: the dispatch detail plus the
/// shard index and its validation counter (generation for exact
/// routes, routing epoch for fallback/miss).
fn tag_route(sp: &mut SpanHandle<'_>, route: &Route) {
    match *route {
        Route::Exact { shard, generation } => {
            sp.detail(detail::EXACT);
            sp.shard(shard);
            sp.generation(generation);
        }
        Route::Fallback { shard, epoch } => {
            sp.detail(detail::FALLBACK);
            sp.shard(shard);
            sp.generation(epoch);
        }
        Route::Miss { epoch } => {
            sp.detail(detail::ROUTE_MISS);
            sp.generation(epoch);
        }
    }
}

/// [`Backend`] adapter plugging a [`ShardRouter`] into the serve
/// protocol loop: queries (single and batched) go through the cache,
/// `RELOAD SHARD <k> <path>` reloads one shard, `STATS CLUSTER` reports
/// shard and cache counters, and the server adopts the router's
/// observability context.
pub struct ClusterBackend {
    router: Arc<ShardRouter>,
}

impl ClusterBackend {
    /// Wraps a router.
    pub fn new(router: Arc<ShardRouter>) -> ClusterBackend {
        ClusterBackend { router }
    }

    /// The wrapped router.
    pub fn router(&self) -> &Arc<ShardRouter> {
        &self.router
    }
}

impl Backend for ClusterBackend {
    fn query(&self, hostname: &str, ctx: &TraceCtx) -> QueryAnswer {
        self.router.lookup_traced(hostname, ctx)
    }

    fn model_len(&self) -> usize {
        self.router.model_len()
    }

    fn per_suffix(&self) -> Vec<(String, u64)> {
        self.router.per_suffix()
    }

    fn reload(&self, args: &str) -> Result<String, String> {
        // Cluster reloads are per shard: RELOAD SHARD <k> <path>.
        let mut parts = args.split_whitespace();
        match (parts.next(), parts.next(), parts.next(), parts.next()) {
            (Some("SHARD"), Some(k), Some(path), None) => {
                let k: u32 = k.parse().map_err(|_| format!("bad shard index {k:?}"))?;
                let model = Model::load(path).map_err(|e| e.to_string())?;
                let n = self.router.reload_shard(k, &model).map_err(|e| e.to_string())?;
                Ok(format!("reloaded\tshard={k}\tconventions={n}"))
            }
            _ => Err("cluster reload usage: RELOAD SHARD <k> <path>".into()),
        }
    }

    fn cluster_stats(&self) -> Option<String> {
        let mut body = String::new();
        for s in self.router.shard_stats() {
            let _ = writeln!(
                body,
                "shard\t{}\tgeneration={}\tsuffixes={}\tqueries={}",
                s.shard, s.generation, s.suffixes, s.queries
            );
        }
        let c = self.router.cache_stats();
        let _ = writeln!(
            body,
            "cache\tcapacity={}\tlen={}\thits={}\tmisses={}\tinserts={}\tevictions={}\tinvalidations={}",
            self.router.cache().capacity(),
            self.router.cache().len(),
            c.hits,
            c.misses,
            c.inserts,
            c.evictions,
            c.invalidations
        );
        body.push_str(".\n");
        Some(body)
    }

    fn obs(&self) -> Option<&Arc<Obs>> {
        Some(self.router.obs())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hoiho::classify::NcClass;
    use hoiho::regex::Regex;
    use hoiho::taxonomy::Taxonomy;
    use hoiho_serve::model::{EvalCounts, ModelEntry};
    use std::collections::HashMap;

    fn entry(suffix: &str, rx: &[&str]) -> ModelEntry {
        ModelEntry {
            suffix: suffix.to_string(),
            class: NcClass::Good,
            single: false,
            taxonomy: Taxonomy::Start,
            hostnames: 5,
            counts: EvalCounts::default(),
            regexes: rx.iter().map(|s| Regex::parse(s).unwrap()).collect(),
        }
    }

    fn model() -> Model {
        Model {
            entries: vec![
                entry("equinix.com", &[r"^[^\.]+\.[^\.]+\.as(\d+)\.equinix\.com$"]),
                entry("nts.ch", &[r"^[^\.]+\.\d+\.[a-z]+\.as(\d+)\.nts\.ch$"]),
                // A deeper suffix under the same registrable domain as
                // another entry, to exercise fallback precedence.
                entry("sgw.equinix.com", &[r"^p(\d+)\.sgw\.equinix\.com$"]),
                entry("example.net", &[r"^as(\d+)\.example\.net$"]),
            ],
        }
    }

    /// Each suffix's owning shard, read from the live routing state.
    fn owners(router: &ShardRouter) -> HashMap<String, u32> {
        let routes = router.routes();
        let suffixes = routes.shards.iter().flat_map(|g| g.engine.conventions());
        suffixes.map(|nc| (nc.suffix.to_string(), routes.table.get(&nc.suffix).unwrap().0)).collect()
    }

    const HOSTS: &[&str] = &[
        "ge0-2.01.p.as15576.nts.ch",
        "a.b.as64500.equinix.com",
        "p714.sgw.equinix.com",
        "as3356.example.net",
        "AS3356.EXAMPLE.NET",
        "nothing.example.org",
        "example.net",
        "com",
        "",
    ];

    #[test]
    fn router_matches_single_engine_for_all_shard_counts() {
        let m = model();
        let registry = hoiho_obs::Registry::new();
        let mut single = Engine::new(&m);
        single.attach_obs(hoiho_serve::engine::EngineObs::register(&registry));
        // The dispatch outcome the single engine counted for one lookup.
        let counts = || {
            ["exact", "fallback", "miss"].map(|d| {
                registry.counter("hoiho_engine_extractions_total", &[("dispatch", d)]).get()
            })
        };
        for shards in [1u32, 2, 3, 4] {
            let router = ShardRouter::from_model(&m, shards, 64).unwrap();
            for h in HOSTS {
                let before = counts();
                let direct = single.extract(h);
                let after = counts();
                let counted: Vec<usize> = (0..3).filter(|&i| after[i] != before[i]).collect();
                let routed = router.lookup(h);
                assert_eq!(routed.asn, direct.asn, "shards={shards} host={h}");
                let expect_suffix = direct.nc.map(|i| single.conventions()[i].suffix.clone());
                assert_eq!(routed.suffix, expect_suffix, "shards={shards} host={h}");
                // The route the router cached is the dispatch outcome
                // the engine counted: both run the one PSL rule.
                let cached = router.cache().get(&h.to_ascii_lowercase()).unwrap();
                let kind = match cached.route {
                    Route::Exact { .. } => 0,
                    Route::Fallback { .. } => 1,
                    Route::Miss { .. } => 2,
                };
                assert_eq!(counted, [kind], "shards={shards} host={h} route={:?}", cached.route);
                // And the cached second read agrees.
                assert_eq!(router.lookup(h), routed, "shards={shards} host={h} cached");
            }
        }
    }

    #[test]
    fn cache_hits_counted_and_engine_not_retouched() {
        let router = ShardRouter::from_model(&model(), 2, 64).unwrap();
        let h = "a.b.as64500.equinix.com";
        assert_eq!(router.lookup(h).asn, Some(64500));
        let queries_after_first: u64 = router.shard_stats().iter().map(|s| s.queries).sum();
        for _ in 0..5 {
            assert_eq!(router.lookup(h).asn, Some(64500));
        }
        let stats = router.cache_stats();
        assert_eq!(stats.hits, 5);
        assert_eq!(stats.misses, 1);
        let queries_now: u64 = router.shard_stats().iter().map(|s| s.queries).sum();
        assert_eq!(queries_now, queries_after_first, "cache hits must not reach engines");
        // Mixed case maps to the same cache entry.
        assert_eq!(router.lookup("A.B.AS64500.Equinix.COM").asn, Some(64500));
        assert_eq!(router.cache_stats().hits, 6);
    }

    #[test]
    fn reload_invalidates_only_what_it_must() {
        let m = model();
        let router = ShardRouter::from_model(&m, 2, 64).unwrap();
        let routing = owners(&router);
        let nts_shard = routing["nts.ch"];
        // Prime: one exact answer per shard, one miss.
        for h in HOSTS {
            router.lookup(h);
        }
        let primed = router.cache().len();
        assert!(primed >= 4);

        // Reload the nts.ch shard with that same single entry dropped
        // to an always-miss regex set (still owns nts.ch).
        let new_model = Model {
            entries: m
                .entries
                .iter()
                .filter(|e| routing[&e.suffix] == nts_shard)
                .map(|e| {
                    let mut e = e.clone();
                    if e.suffix == "nts.ch" {
                        e.regexes = vec![Regex::parse(r"^never(\d+)\.nts\.ch$").unwrap()];
                    }
                    e
                })
                .collect(),
        };
        router.reload_shard(nts_shard, &new_model).unwrap();

        // The nts answer changed; the other shard's exact answers
        // survived the reload in cache.
        assert_eq!(router.lookup("ge0-2.01.p.as15576.nts.ch").asn, None);
        let (other_host, other_asn) = [
            ("a.b.as64500.equinix.com", "equinix.com", 64500),
            ("as3356.example.net", "example.net", 3356),
        ]
        .iter()
        .find(|(_, suffix, _)| routing[*suffix] != nts_shard)
        .map(|&(h, _, asn)| (h, asn))
        .expect("two shards cannot both hold nts.ch");
        let hits_before = router.cache_stats().hits;
        assert_eq!(router.lookup(other_host).asn, Some(other_asn));
        assert_eq!(
            router.cache_stats().hits,
            hits_before + 1,
            "other shard's exact-route entry must still be served from cache"
        );
        let gens: Vec<u64> = router.shard_stats().iter().map(|s| s.generation).collect();
        assert_eq!(gens.iter().sum::<u64>(), 1, "exactly one shard advanced: {gens:?}");
    }

    #[test]
    fn reload_may_not_steal_a_suffix() {
        let m = model();
        let router = ShardRouter::from_model(&m, 2, 0).unwrap();
        let routing = owners(&router);
        let victim = &m.entries[0].suffix;
        let thief = (routing[victim] + 1) % 2;
        let steal = Model { entries: vec![m.entries[0].clone()] };
        let err = router.reload_shard(thief, &steal).unwrap_err();
        assert!(err.0.contains("owned by shard"), "{err}");
        // Nothing moved.
        assert_eq!(router.lookup_uncached("a.b.as64500.equinix.com").asn, Some(64500));
    }

    #[test]
    fn reload_can_add_and_drop_suffixes() {
        let router = ShardRouter::from_model(&model(), 2, 16).unwrap();
        assert_eq!(router.lookup("as1.fresh.io").asn, None);
        // Give shard 0 a brand-new suffix and nothing else.
        let fresh = Model { entries: vec![entry("fresh.io", &[r"^as(\d+)\.fresh\.io$"])] };
        router.reload_shard(0, &fresh).unwrap();
        assert_eq!(router.lookup("as1.fresh.io").asn, Some(1), "new suffix routed after reload");
        // Suffixes previously on shard 0 are gone from routing.
        let routing = owners(&router);
        assert_eq!(routing.values().filter(|&&s| s == 0).count(), 1);
        assert_eq!(router.model_len(), 1 + router.routes().shards[1].engine.len());
    }

    #[test]
    fn duplicate_suffix_across_shards_rejected_at_build() {
        let m = Model { entries: vec![entry("dup.com", &[r"^as(\d+)\.dup\.com$"])] };
        let err = match ShardRouter::new(&[m.clone(), m], 0) {
            Err(e) => e,
            Ok(_) => panic!("duplicate suffix must be rejected"),
        };
        assert!(err.0.contains("owned by both"), "{err}");
    }

    #[test]
    fn per_shard_metrics_account_exactly() {
        let m = model();
        let router = ShardRouter::from_model(&m, 2, 64).unwrap();
        let obs = router.obs();
        let routing = owners(&router);
        let eq = routing["equinix.com"];
        let s = eq.to_string();
        let c = |name: &str, shard: &str| obs.registry().counter(name, &[("shard", shard)]).get();

        let h = "a.b.as64500.equinix.com";
        router.lookup(h); // compute on eq's shard
        router.lookup(h); // cache hit
        router.lookup(h); // cache hit
        router.lookup("nothing.example.org"); // miss route → shard="none"
        assert_eq!(c("hoiho_cache_misses_total", &s), 1);
        assert_eq!(c("hoiho_cache_hits_total", &s), 2);
        assert_eq!(c("hoiho_shard_queries_total", &s), 1, "hits must not reach the engine");
        assert_eq!(c("hoiho_cache_misses_total", "none"), 1);
        assert_eq!(c("hoiho_cache_hits_total", "none"), 0);
        assert_eq!(obs.registry().gauge("hoiho_shard_suffixes", &[("shard", &s)]).get(), 2);

        // A racing-insert survivor: an entry whose tag predates the
        // live generation. Its rejection is charged to its shard as
        // `stale`, and the recompute as a fresh miss.
        router.cache().insert(
            h,
            CachedAnswer {
                route: Route::Exact { shard: eq, generation: 999 },
                answer: QueryAnswer::MISS,
            },
        );
        assert_eq!(router.lookup(h).asn, Some(64500));
        assert_eq!(c("hoiho_cache_stale_total", &s), 1);
        assert_eq!(c("hoiho_cache_misses_total", &s), 2);

        // Reload bumps the reload counter and the generation gauge and
        // records a shard_reload event.
        let own = Model {
            entries: m.entries.iter().filter(|e| routing[&e.suffix] == eq).cloned().collect(),
        };
        router.reload_shard(eq, &own).unwrap();
        assert_eq!(c("hoiho_shard_reloads_total", &s), 1);
        assert_eq!(obs.registry().gauge("hoiho_shard_generation", &[("shard", &s)]).get(), 1);
        let kinds: Vec<String> =
            obs.events().tail(16).into_iter().map(|e| e.kind).collect();
        assert!(kinds.contains(&"shard_reload".to_string()), "{kinds:?}");

        // Per shard, hits + misses across all series == total lookups
        // (the stale rejection became a miss, not a separate bucket).
        let lookups = 5u64;
        let total: u64 = [&s as &str, "none", &((eq + 1) % 2).to_string()]
            .iter()
            .map(|sh| c("hoiho_cache_hits_total", sh) + c("hoiho_cache_misses_total", sh))
            .sum();
        assert_eq!(total, lookups);
    }

    /// Moves shard `k` to its next generation without a reload's eager
    /// invalidation, which is what a lookup racing a reload leaves
    /// behind: a cached entry tagged with the generation before the
    /// live one. Nothing is written into the cache, so every counter
    /// the next lookups move is router traffic.
    fn plant_stale_generation(router: &ShardRouter, k: u32) {
        let live = router.routes();
        let mut generations = live.generations.clone();
        generations[k as usize] += 1;
        let next = Routes::new(live.shards.clone(), generations, live.epoch).unwrap();
        *router.routes.write().unwrap() = Arc::new(next);
    }

    /// Every `CacheStats` field and the `STATS CLUSTER` cache line
    /// against counts made by hand from a scripted stream, at capacity
    /// 0 and at capacity 2: one LRU of two entries, so each miss that
    /// finds it full evicts its least recently used entry.
    #[test]
    fn cache_stats_match_an_independent_tally() {
        const EQ: &str = "a.b.as64500.equinix.com";
        const EQ_UPPER: &str = "A.B.AS64500.EQUINIX.COM";
        const NTS: &str = "ge0-2.01.p.as15576.nts.ch";
        const UNCOVERED: &str = "nothing.example.org";
        let stats = |hits, misses, inserts, evictions, invalidations| CacheStats {
            hits,
            misses,
            inserts,
            evictions,
            invalidations,
        };
        for capacity in [0usize, 2] {
            let on = capacity > 0;
            // Per-field hand counts at capacity 2; at capacity 0 every
            // lookup is a miss and nothing is written or dropped.
            let tally = |hits: u64, misses: u64, evictions, invalidations, lookups: u64| {
                if on {
                    stats(hits, misses, misses, evictions, invalidations)
                } else {
                    stats(0, lookups, 0, 0, 0)
                }
            };
            let m = model();
            let router = Arc::new(ShardRouter::from_model(&m, 2, capacity).unwrap());
            let routing = owners(&router);
            let eq = routing["equinix.com"];
            // NTS's exact entry must outlive the reload of EQ's shard.
            assert_ne!(routing["nts.ch"], eq);
            let ask = |h: &str, asn: Option<u32>| assert_eq!(router.lookup(h).asn, asn, "{h}");
            // Comments give the cache after each lookup, most recently
            // used first.

            // Hits, misses and an uncovered name (a cached negative
            // answer on the shard="none" series).
            ask(EQ, Some(64500)); // miss: [EQ]
            ask(EQ, Some(64500)); // hit
            ask(EQ_UPPER, Some(64500)); // hit: the same key
            ask(UNCOVERED, None); // miss: [UNCOVERED, EQ]
            ask(UNCOVERED, None); // hit
            assert_eq!(router.cache_stats(), tally(3, 2, 0, 0, 5), "capacity {capacity}");
            assert_eq!(router.cache().len(), if on { 2 } else { 0 });

            // Eviction: each miss finds the cache full.
            ask(NTS, Some(15576)); // miss, evicts EQ: [NTS, UNCOVERED]
            ask(EQ, Some(64500)); // miss, evicts UNCOVERED: [EQ, NTS]
            assert_eq!(router.cache_stats(), tally(3, 4, 2, 0, 7), "capacity {capacity}");
            assert_eq!(router.cache().len(), if on { 2 } else { 0 });

            // A stale entry: EQ's tag now predates its shard's live
            // generation, so the lookup drops it and recomputes.
            plant_stale_generation(&router, eq);
            ask(EQ, Some(64500)); // stale: an invalidation and a miss; [EQ, NTS]
            assert_eq!(router.cache_stats(), tally(3, 5, 2, 1, 8), "capacity {capacity}");

            // A reload of EQ's shard drops EQ's exact entry; NTS's exact
            // entry on the other shard stays valid: [NTS].
            let own = Model {
                entries: m.entries.iter().filter(|e| routing[&e.suffix] == eq).cloned().collect(),
            };
            router.reload_shard(eq, &own).unwrap();
            assert_eq!(router.cache().len(), if on { 1 } else { 0 });
            assert_eq!(router.cache_stats(), tally(3, 5, 2, 2, 8), "capacity {capacity}");
            ask(UNCOVERED, None); // miss: [UNCOVERED, NTS]
            ask(EQ, Some(64500)); // miss, evicts NTS: [EQ, UNCOVERED]
            assert_eq!(router.cache_stats(), tally(3, 7, 3, 2, 10), "capacity {capacity}");

            let body = ClusterBackend::new(Arc::clone(&router)).cluster_stats().unwrap();
            let line = body.lines().find(|l| l.starts_with("cache\t")).unwrap();
            let want = if on {
                "cache\tcapacity=2\tlen=2\thits=3\tmisses=7\tinserts=7\tevictions=3\tinvalidations=2"
            } else {
                "cache\tcapacity=0\tlen=0\thits=0\tmisses=10\tinserts=0\tevictions=0\tinvalidations=0"
            };
            assert_eq!(line, want);

            // A second reload drops EQ's exact entry again and, the
            // epoch having moved, the uncovered name's miss-route entry.
            router.reload_shard(eq, &own).unwrap();
            assert_eq!(router.cache().len(), 0);
            assert_eq!(router.cache_stats(), tally(3, 7, 3, 4, 10), "capacity {capacity}");
        }
    }

    #[test]
    fn cluster_backend_protocol_surfaces() {
        let router = Arc::new(ShardRouter::from_model(&model(), 2, 32).unwrap());
        let backend = ClusterBackend::new(Arc::clone(&router));
        assert_eq!(backend.query("a.b.as64500.equinix.com", &TraceCtx::off()).asn, Some(64500));
        assert_eq!(backend.model_len(), 4);
        assert_eq!(backend.per_suffix().len(), 4);
        let stats = backend.cluster_stats().unwrap();
        assert!(stats.contains("shard\t0\tgeneration=0"), "{stats}");
        assert!(stats.contains("shard\t1\t"), "{stats}");
        assert!(stats.contains("cache\tcapacity=32\t"), "{stats}");
        assert!(stats.ends_with(".\n"), "{stats}");
        assert!(backend.reload("not-a-shard-reload").unwrap_err().contains("usage"));
        assert!(backend.reload("SHARD 99 /nope").unwrap_err().contains("bad shard")
            || backend.reload("SHARD 99 /nope").is_err());
    }
}
