//! A concurrent TCP line-protocol server over an [`Engine`].
//!
//! ## Protocol
//!
//! One request per line, one response line per request (tab-separated):
//!
//! * `<hostname>` → `<hostname>\t<asn|->\t<suffix|->\t<class|->` — the
//!   extraction, the dispatched suffix, and its §4 class; `-` marks the
//!   missing parts.
//! * `STATS` → `stats\thits=N\tmisses=N\terrors=N\tconns=N\tmodel=K`
//!   — lifetime totals plus the live model's convention count. The
//!   totals are the `METRICS` series `hoiho_requests_total{verb="query"}`
//!   (hit/miss), `hoiho_protocol_errors_total` and
//!   `hoiho_connections_total`, read back.
//! * `STATS SUFFIX` → one `suffix\tqueries` line per convention of the
//!   live model, terminated by a lone `.` line.
//! * `STATS CLUSTER` → per-shard and response-cache counters when the
//!   server runs the cluster backend (`.`-terminated), `err` otherwise.
//! * `METRICS` → the full metrics registry in Prometheus-style text
//!   exposition (see `hoiho-obs`), terminated by a lone `.` line:
//!   request counts by verb and outcome, the request latency
//!   histogram, connection and protocol-error totals, plus whatever
//!   the backend registered (engine dispatch outcomes, per-shard cache
//!   counters). The rendered counters reflect traffic *before* the
//!   `METRICS` request itself.
//! * `EVENTS [n]` → the last `n` (default: all buffered) structured
//!   events as JSONL, `.`-terminated: slow queries over the
//!   configurable threshold, reloads, admin refusals.
//! * `RELOAD <path>` → `ok\treloaded\t<n>` after atomically installing
//!   the model at `<path>`, or `err\t<message>` (the old model keeps
//!   serving on failure). The cluster backend takes
//!   `RELOAD SHARD <k> <path>` instead.
//! * `SHUTDOWN` → `ok\tbye`, then the whole server drains and stops.
//!   Requests already received on the same connection when the
//!   `SHUTDOWN` line is processed are answered before the close.
//! * `BATCH <n>` followed by `n` hostname lines → `ok\tbatch\t<n>`
//!   followed by `n` answer lines in the single-query format, so one
//!   socket round-trip carries hundreds of lookups. Every batch line
//!   is treated strictly as a hostname query (verbs cannot be smuggled
//!   through a batch), `n` is capped at [`MAX_BATCH`], and each line
//!   is subject to [`MAX_LINE`] like any other. Items count into the
//!   query hit/miss totals; the batch itself counts once under
//!   `verb="batch"` and observes the latency histogram once.
//!
//! The protocol loop is backend-agnostic: extraction, reload, and the
//! stats listings go through the [`Backend`] trait, so the same server
//! fronts a single hot-swappable engine ([`EngineBackend`]) or the
//! suffix-sharded router in `hoiho-cluster`. Each of those backends
//! owns an observability context ([`Backend::obs`]) holding its own
//! series; the server adopts it and registers its request series in
//! the same registry, so `METRICS` reports every layer in one document
//! and the sampler configured on it traces every layer of a request.
//!
//! ## Trust model
//!
//! The protocol is unauthenticated. Query lines are safe to expose, but
//! `RELOAD` (which reads server-side filesystem paths and whose error
//! messages reveal whether a path exists and parses), `SHUTDOWN`
//! (which terminates the server), and `EVENTS` (whose slow-query log
//! echoes other clients' request lines) are **admin verbs**: they are
//! honoured only when the client's peer address is loopback, and answer
//! `err\tadmin commands require a loopback peer` otherwise (each
//! refusal is itself recorded as an `admin_refused` event). `METRICS`
//! exposes only aggregates and stays open, like `STATS`. Bind the
//! server to `127.0.0.1` unless every host on the bound network is
//! trusted with the query surface.
//!
//! ## Concurrency
//!
//! The server runs `workers` **readiness event loops** (0 = one per
//! core), each owning a private epoll instance (raw in-tree FFI, see
//! [`crate::sys`]) with the shared nonblocking listener registered in
//! every loop. A connection lives entirely on the loop that accepted
//! it: per-connection read/write buffers, level-triggered `EPOLLIN`
//! interest, and `EPOLLOUT` armed only while a response remains
//! unflushed. Each readable event drains *every* complete line in the
//! buffer and coalesces all responses into one write, so pipelined
//! clients pay one syscall round-trip per burst instead of one per
//! request. No thread is ever pinned by a connection — thousands of
//! idle keep-alives cost one epoll registration each — but a
//! connection that completes no request for [`IDLE_DISCONNECT`] is
//! still closed. Line length is enforced against *each framed line*
//! before it is served (and against the residual unterminated buffer),
//! so [`MAX_LINE`] cannot be exceeded regardless of how reads chunk.
//! A connection whose unread responses exceed [`MAX_PENDING_OUT`]
//! (a pipelining client that never reads) is counted as a protocol
//! error and dropped, bounding per-connection memory.
//!
//! In the default backend the live engine sits behind
//! `RwLock<Arc<Generation>>`: each request clones the `Arc` under a
//! read lock (nanoseconds), so a hot reload
//! ([`EngineBackend::install`], which `RELOAD` calls) swaps the model
//! without dropping or stalling open connections — in-flight requests
//! finish on the engine they started with. Per-suffix counters are
//! allocated per engine generation and travel with it, so a reload
//! resets them while the lifetime totals and the engine's dispatch
//! counters keep counting.
//!
//! Shutdown is graceful: each loop answers every request already
//! buffered on its connections (including requests pipelined behind
//! the `SHUTDOWN` line itself), flushes pending responses for a short
//! grace period, closes, and joins. A per-loop eventfd wakes sleeping
//! `epoll_wait`s so shutdown is prompt from any thread.

use crate::engine::{Engine, EngineObs};
use crate::model::Model;
use crate::sys::{Epoll, EpollEvent, EventFd, EPOLLERR, EPOLLHUP, EPOLLIN, EPOLLOUT, EPOLLRDHUP};
use hoiho::classify::NcClass;
use hoiho_obs::span::{detail, Layer, TraceCtx};
use hoiho_obs::{slo, span, Counter, Histogram, Obs, Phase, PhaseCell, Registry};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::os::unix::io::AsRawFd;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Upper bound on one `epoll_wait` sleep, so idle-disconnect sweeps
/// and the shutdown flag are checked regularly even without traffic.
const IDLE_POLL: Duration = Duration::from_millis(100);

/// A connection that completes no request for this long is closed, so
/// idle keep-alive clients cannot hold registrations forever.
pub const IDLE_DISCONNECT: Duration = Duration::from_secs(60);

/// Hard cap on one request line, enforced per framed line *before*
/// serving it and against the residual unterminated buffer. A client
/// that exceeds it is counted as a protocol error and disconnected —
/// the stream cannot be resynchronised without trusting the oversized
/// line's framing.
pub const MAX_LINE: usize = 64 * 1024;

/// Hard cap on the item count of one `BATCH` request.
pub const MAX_BATCH: usize = 4096;

/// Hard cap on a connection's pending (unwritten) response bytes. A
/// client that pipelines requests but never reads its responses would
/// otherwise grow `out` without bound; past this the connection is
/// counted as a protocol error and dropped. 4 MiB comfortably holds
/// dozens of maximal `BATCH` responses for a well-behaved pipeliner.
pub const MAX_PENDING_OUT: usize = 4 * 1024 * 1024;

/// How many events one `epoll_wait` call can report.
const EVENT_BATCH: usize = 256;

/// Read size per `read` call on a readable connection.
const READ_CHUNK: usize = 64 * 1024;

/// After shutdown, how long loops keep trying to flush pending
/// responses before closing connections regardless.
const SHUTDOWN_GRACE: Duration = Duration::from_secs(5);

/// How often the watcher thread samples the phase cells (DESIGN §7i).
const PROFILE_INTERVAL: Duration = Duration::from_millis(5);

/// The watcher snapshots the registry for the SLO engine once per this
/// many profile rounds (~every 320 ms at the 5 ms sample interval) —
/// comfortably finer than the smallest burn-rate window (10 s).
const SLO_TICK_ROUNDS: u64 = 64;

/// One engine generation: the compiled model plus its per-suffix
/// query counters (index-aligned with [`Engine::conventions`]).
pub struct Generation {
    /// The compiled model.
    pub engine: Arc<Engine>,
    /// Queries dispatched to each convention since this generation was
    /// installed.
    pub per_suffix: Vec<AtomicU64>,
}

impl Generation {
    /// Wraps an engine with fresh per-suffix counters. Public because
    /// the cluster router reuses generations as its per-shard unit.
    pub fn new(engine: Arc<Engine>) -> Arc<Generation> {
        let per_suffix = (0..engine.len()).map(|_| AtomicU64::new(0)).collect();
        Arc::new(Generation { engine, per_suffix })
    }

    /// Runs one extraction, bumping the dispatched suffix's counter.
    pub fn query(&self, hostname: &str) -> QueryAnswer {
        let x = self.engine.extract(hostname);
        self.answer_of(x)
    }

    /// Converts an engine extraction into the protocol-level answer,
    /// counting the dispatch.
    pub fn answer_of(&self, x: crate::engine::Extraction) -> QueryAnswer {
        let (suffix, class) = match x.nc {
            Some(i) => {
                self.per_suffix[i].fetch_add(1, Ordering::Relaxed);
                let nc = &self.engine.conventions()[i];
                (Some(Arc::clone(&nc.suffix)), Some(nc.class))
            }
            None => (None, None),
        };
        QueryAnswer { asn: x.asn, suffix, class }
    }
}

/// One extraction answer as the protocol reports it: ASN, dispatched
/// suffix, and the suffix's §4 class (`None` marks the `-` fields).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueryAnswer {
    /// The extracted ASN, when a regex matched.
    pub asn: Option<u32>,
    /// The suffix whose convention served the query, shared with the
    /// convention ([`CompiledNc::suffix`](crate::engine::CompiledNc)).
    pub suffix: Option<Arc<str>>,
    /// That convention's quality class.
    pub class: Option<NcClass>,
}

impl QueryAnswer {
    /// The answer for a hostname no convention covers.
    pub const MISS: QueryAnswer = QueryAnswer { asn: None, suffix: None, class: None };

    /// Appends the full answer line
    /// `<hostname>\t<asn|->\t<suffix|->\t<class|->\n` to `out` without
    /// intermediate `String`s — the `BATCH` hot path renders hundreds of
    /// answers per request. Every answer line the server writes, single
    /// or batched, comes from here.
    pub fn render_line_into(&self, hostname: &str, out: &mut Vec<u8>) {
        out.extend_from_slice(hostname.as_bytes());
        out.push(b'\t');
        match self.asn {
            Some(a) => {
                let mut digits = [0u8; 10];
                let mut i = digits.len();
                let mut v = a;
                loop {
                    i -= 1;
                    digits[i] = b'0' + (v % 10) as u8;
                    v /= 10;
                    if v == 0 {
                        break;
                    }
                }
                out.extend_from_slice(&digits[i..]);
            }
            None => out.push(b'-'),
        }
        out.push(b'\t');
        out.extend_from_slice(self.suffix.as_deref().unwrap_or("-").as_bytes());
        out.push(b'\t');
        out.extend_from_slice(self.class.map_or("-", |c| c.label()).as_bytes());
        out.push(b'\n');
    }
}

/// What the TCP server needs from an extraction backend. The default
/// backend is a single hot-swappable engine ([`EngineBackend`]); the
/// cluster crate plugs a suffix-sharded router with a response cache in
/// through the same seam, so the protocol loop is written once.
pub trait Backend: Send + Sync + 'static {
    /// Answers one hostname query. `ctx` is the request's tracing
    /// context — [`TraceCtx::off`] for the unsampled common case (one
    /// branch per layer); a sampled context records per-layer spans
    /// into the shared ring (DESIGN §7i).
    fn query(&self, hostname: &str, ctx: &TraceCtx) -> QueryAnswer;
    /// Convention count reported by `STATS` as `model=`.
    fn model_len(&self) -> usize;
    /// Per-suffix query counts for `STATS SUFFIX`, in index order.
    fn per_suffix(&self) -> Vec<(String, u64)>;
    /// Handles the argument text of a `RELOAD` request. Returns the
    /// response payload after `ok\t` (e.g. `reloaded\t12`), or the
    /// error message after `err\t`. Must leave the old state serving on
    /// failure.
    fn reload(&self, args: &str) -> Result<String, String>;
    /// The full multi-line `STATS CLUSTER` response body including the
    /// terminating `.\n`, or `None` when the backend is not a cluster.
    fn cluster_stats(&self) -> Option<String> {
        None
    }
    /// Answers a `BATCH` of hostnames, one answer per input in order.
    /// The default maps [`Backend::query`]; backends override it to
    /// amortise per-query setup across the batch (the engine backend
    /// resolves its live generation once).
    fn query_batch(&self, hostnames: &[&str], ctx: &TraceCtx) -> Vec<QueryAnswer> {
        hostnames.iter().map(|h| self.query(h, ctx)).collect()
    }
    /// The observability context the backend records its own series
    /// into. A server started over the backend adopts it, so `METRICS`
    /// shows the backend's series beside the server's; `None` (the
    /// default) gives the server a fresh context.
    fn obs(&self) -> Option<&Arc<Obs>> {
        None
    }
}

/// The default backend: one engine behind `RwLock<Arc<Generation>>`,
/// hot-swappable as a whole, plus the observability context holding
/// the engine's dispatch-outcome counters.
pub struct EngineBackend {
    live: RwLock<Arc<Generation>>,
    obs: Arc<Obs>,
    /// Dispatch-outcome counters in `obs`, attached to every engine the
    /// backend serves, so they keep counting across engine swaps.
    engine_obs: EngineObs,
}

impl EngineBackend {
    /// Wraps an engine as generation zero, with a fresh observability
    /// context whose dispatch-outcome counters are attached to it.
    pub fn new(engine: Arc<Engine>) -> EngineBackend {
        let obs = Arc::new(Obs::new());
        let engine_obs = EngineObs::register(obs.registry());
        let live = RwLock::new(Generation::new(counted(engine, &engine_obs)));
        EngineBackend { live, obs, engine_obs }
    }

    /// Atomically installs a new engine with the backend's dispatch
    /// counters attached: per-suffix counters restart, in-flight
    /// requests finish on the generation they started with. `RELOAD`
    /// swaps engines through here.
    pub fn install(&self, engine: Arc<Engine>) {
        let gen = Generation::new(counted(engine, &self.engine_obs));
        *self.live.write().expect("generation lock poisoned") = gen;
    }

    /// The observability context the backend records into.
    pub fn obs(&self) -> &Arc<Obs> {
        &self.obs
    }

    /// The live generation.
    pub fn generation(&self) -> Arc<Generation> {
        self.live.read().expect("generation lock poisoned").clone()
    }
}

impl Backend for EngineBackend {
    fn query(&self, hostname: &str, ctx: &TraceCtx) -> QueryAnswer {
        let gen = self.generation();
        let mut sp = ctx.span(Layer::Engine);
        let answer = gen.query(hostname);
        sp.detail(if answer.asn.is_some() { detail::EXTRACT_HIT } else { detail::EXTRACT_MISS });
        answer
    }

    fn model_len(&self) -> usize {
        self.generation().engine.len()
    }

    fn per_suffix(&self) -> Vec<(String, u64)> {
        let gen = self.generation();
        gen.engine
            .conventions()
            .iter()
            .zip(&gen.per_suffix)
            .map(|(nc, n)| (nc.suffix.to_string(), n.load(Ordering::Relaxed)))
            .collect()
    }

    fn reload(&self, args: &str) -> Result<String, String> {
        let model = Model::load(args.trim()).map_err(|e| e.to_string())?;
        let engine = Engine::new(&model);
        let n = engine.len();
        self.install(Arc::new(engine));
        Ok(format!("reloaded\t{n}"))
    }

    fn query_batch(&self, hostnames: &[&str], ctx: &TraceCtx) -> Vec<QueryAnswer> {
        // One generation resolution (read lock + Arc clone) per batch
        // instead of per item; in-flight batches finish on the
        // generation they started with, like single queries. One engine
        // span covers the whole batch — per-item spans would exhaust
        // the trace budget on a single large batch.
        let gen = self.generation();
        let mut sp = ctx.span(Layer::Engine);
        let answers: Vec<QueryAnswer> = hostnames.iter().map(|h| gen.query(h)).collect();
        sp.detail(if answers.iter().any(|a| a.asn.is_some()) {
            detail::EXTRACT_HIT
        } else {
            detail::EXTRACT_MISS
        });
        answers
    }

    fn obs(&self) -> Option<&Arc<Obs>> {
        Some(&self.obs)
    }
}

/// `engine` with `obs` attached. An engine the caller no longer shares
/// is taken as is; a shared one is cloned, so the caller's copy stays
/// uncounted.
fn counted(engine: Arc<Engine>, obs: &EngineObs) -> Arc<Engine> {
    let mut engine = Arc::unwrap_or_clone(engine);
    engine.attach_obs(obs.clone());
    Arc::new(engine)
}

/// A point-in-time view of the server's counters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StatsSnapshot {
    /// Queries that extracted an ASN.
    pub hits: u64,
    /// Queries that did not (unknown suffix, or no regex matched).
    pub misses: u64,
    /// Protocol errors (bad input, failed reloads).
    pub errors: u64,
    /// Connections accepted.
    pub conns: u64,
    /// Per-suffix query counts for the live generation, as
    /// `(suffix, queries)` in engine index order.
    pub per_suffix: Vec<(String, u64)>,
}

/// Pre-registered hot-path metric handles (rare verbs register their
/// counters on demand — a mutex-taking path, acceptable off the query
/// fast path).
struct ServerMetrics {
    query_hit: Counter,
    query_miss: Counter,
    batch_ok: Counter,
    batch_err: Counter,
    latency: Histogram,
    connections: Counter,
    protocol_errors: Counter,
}

impl ServerMetrics {
    fn register(r: &Registry) -> ServerMetrics {
        ServerMetrics {
            query_hit: r.counter("hoiho_requests_total", &[("verb", "query"), ("outcome", "hit")]),
            query_miss: r
                .counter("hoiho_requests_total", &[("verb", "query"), ("outcome", "miss")]),
            batch_ok: r.counter("hoiho_requests_total", &[("verb", "batch"), ("outcome", "ok")]),
            batch_err: r.counter("hoiho_requests_total", &[("verb", "batch"), ("outcome", "err")]),
            latency: r.histogram("hoiho_request_latency_ns", &[]),
            connections: r.counter("hoiho_connections_total", &[]),
            protocol_errors: r.counter("hoiho_protocol_errors_total", &[]),
        }
    }
}

/// Shared server state: the extraction backend and the observability
/// context.
struct Shared {
    backend: Arc<dyn Backend>,
    shutdown: AtomicBool,
    obs: Arc<Obs>,
    metrics: ServerMetrics,
    /// One wake eventfd per event loop, so a shutdown requested from
    /// any thread (a client's `SHUTDOWN`, or the handle) interrupts
    /// every sleeping `epoll_wait` immediately.
    wakes: Mutex<Vec<Arc<EventFd>>>,
}

impl Shared {
    /// Adopts the backend's observability context (a fresh one when it
    /// has none) and registers the server's series in it.
    fn new(backend: Arc<dyn Backend>) -> Shared {
        let obs = backend.obs().cloned().unwrap_or_else(|| Arc::new(Obs::new()));
        let metrics = ServerMetrics::register(obs.registry());
        Shared {
            backend,
            shutdown: AtomicBool::new(false),
            obs,
            metrics,
            wakes: Mutex::new(Vec::new()),
        }
    }

    fn count_error(&self) {
        self.metrics.protocol_errors.inc();
    }

    /// Sets the shutdown flag and wakes every event loop.
    fn request_shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        for w in self.wakes.lock().expect("wake list poisoned").iter() {
            w.signal();
        }
    }
}

/// A request line's verb, classified once per request: it picks the
/// answer, labels the request's `hoiho_requests_total` series and
/// slow-query event, and tags its root span. Each verb's discriminant
/// is its span detail code, whose wire name is the metric label.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
enum Verb {
    Query = detail::QUERY,
    Batch = detail::BATCH,
    Stats = detail::STATS,
    StatsSuffix = detail::STATS_SUFFIX,
    StatsCluster = detail::STATS_CLUSTER,
    Metrics = detail::METRICS,
    Events = detail::EVENTS,
    Reload = detail::RELOAD,
    Shutdown = detail::SHUTDOWN,
    Traces = detail::TRACES,
    Profile = detail::PROFILE,
    Slo = detail::SLO,
}

impl Verb {
    /// Classifies a trimmed request line; a line that is no verb is a
    /// hostname query.
    fn of(request: &str) -> Verb {
        // `w` alone, or `w` and its argument.
        let word = |w: &str| {
            request.strip_prefix(w).is_some_and(|rest| rest.is_empty() || rest.starts_with(' '))
        };
        match request {
            "STATS" => Verb::Stats,
            "STATS SUFFIX" => Verb::StatsSuffix,
            "STATS CLUSTER" => Verb::StatsCluster,
            "METRICS" => Verb::Metrics,
            "PROFILE" => Verb::Profile,
            "SLO" => Verb::Slo,
            "SHUTDOWN" => Verb::Shutdown,
            r if r.starts_with("RELOAD ") => Verb::Reload,
            _ if word("EVENTS") => Verb::Events,
            _ if word("TRACES") => Verb::Traces,
            _ if word("BATCH") => Verb::Batch,
            _ => Verb::Query,
        }
    }

    /// The metric label and slow-query log name.
    fn name(self) -> &'static str {
        detail::name(self as u8)
    }
}

/// True for the requests answered by a `.`-terminated listing:
/// `STATS SUFFIX`, `STATS CLUSTER`, `METRICS`, `EVENTS [n]`,
/// `TRACES [n]`, `PROFILE` and `SLO`. [`Client::listing`] reads one.
pub fn is_listing(request: &str) -> bool {
    matches!(
        Verb::of(request.trim()),
        Verb::StatsSuffix
            | Verb::StatsCluster
            | Verb::Metrics
            | Verb::Events
            | Verb::Traces
            | Verb::Profile
            | Verb::Slo
    )
}

/// Rolls the sampler for one request: a sampled request gets a live
/// context recording into the shared span ring, everything else the
/// free [`TraceCtx::off`].
fn trace_ctx(shared: &Shared) -> TraceCtx<'_> {
    match shared.obs.sampler().sample() {
        Some(trace) => TraceCtx::sampled(shared.obs.spans(), trace),
        None => TraceCtx::off(),
    }
}

/// A running server; dropping the handle does **not** stop it — call
/// [`ServerHandle::shutdown`].
pub struct ServerHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    loops: Vec<JoinHandle<()>>,
}

impl ServerHandle {
    /// Binds `addr` (e.g. `"127.0.0.1:0"` for an ephemeral port) and
    /// starts `workers` readiness event loops (0 = one per core) over
    /// a single hot-swappable engine: [`ServerHandle::start_with_backend`]
    /// over [`EngineBackend::new`]`(engine)`.
    pub fn start(
        addr: impl ToSocketAddrs,
        engine: Arc<Engine>,
        workers: usize,
    ) -> std::io::Result<ServerHandle> {
        Self::start_with_backend(addr, Arc::new(EngineBackend::new(engine)), workers)
    }

    /// Binds `addr` and starts `workers` readiness event loops (0 = one
    /// per core) over `backend`. The server records into the backend's
    /// observability context ([`Backend::obs`]; a fresh one when it has
    /// none), reachable through [`ServerHandle::obs`].
    pub fn start_with_backend(
        addr: impl ToSocketAddrs,
        backend: Arc<dyn Backend>,
        workers: usize,
    ) -> std::io::Result<ServerHandle> {
        let workers = if workers == 0 {
            std::thread::available_parallelism().map(|n| n.get()).unwrap_or(4)
        } else {
            workers
        };
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let shared = Arc::new(Shared::new(backend));

        // Every loop gets a dup of the listener fd (accept is atomic
        // across dups — a wakeup lost to a sibling resolves as
        // `WouldBlock`) and a wake eventfd registered with `Shared` so
        // shutdown can interrupt its `epoll_wait`.
        let mut loop_handles = Vec::with_capacity(workers);
        for _ in 0..workers {
            let listener = listener.try_clone()?;
            let wake = Arc::new(EventFd::new()?);
            shared.wakes.lock().expect("wake list poisoned").push(Arc::clone(&wake));
            let shared = Arc::clone(&shared);
            loop_handles.push(std::thread::spawn(move || event_loop(&listener, &wake, &shared)));
        }

        // The watcher thread: drives the sampling profiler over the
        // event loops' phase cells and, every SLO_TICK_ROUNDS rounds,
        // snapshots the registry into the SLO engine's burn-rate
        // history. It polls the shutdown flag each round, so it joins
        // within one sample interval of shutdown.
        {
            let shared = Arc::clone(&shared);
            loop_handles.push(std::thread::spawn(move || {
                let mut rounds = 0u64;
                while !shared.shutdown.load(Ordering::SeqCst) {
                    std::thread::sleep(PROFILE_INTERVAL);
                    shared.obs.profiler().sample_once();
                    rounds += 1;
                    if rounds % SLO_TICK_ROUNDS == 0 {
                        let now = shared.obs.spans().now_ns();
                        shared.obs.slo().tick(slo::snapshot_registry(shared.obs.registry(), now));
                    }
                }
            }));
        }

        Ok(ServerHandle { addr, shared, loops: loop_handles })
    }

    /// The bound address (useful with an ephemeral port).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The observability context the server records into (what
    /// `METRICS` renders and `EVENTS` dumps): its backend's, when the
    /// backend has one.
    pub fn obs(&self) -> &Arc<Obs> {
        &self.shared.obs
    }

    /// Snapshots the lifetime totals (what `STATS` reports) and the
    /// backend's per-suffix counters.
    pub fn stats(&self) -> StatsSnapshot {
        let m = &self.shared.metrics;
        StatsSnapshot {
            hits: m.query_hit.get(),
            misses: m.query_miss.get(),
            errors: m.protocol_errors.get(),
            conns: m.connections.get(),
            per_suffix: self.shared.backend.per_suffix(),
        }
    }

    /// Blocks until a shutdown is requested (a client's `SHUTDOWN`
    /// command, or [`ServerHandle::shutdown`] called from another
    /// thread on a clone of the shared state), then drains and joins
    /// every thread.
    pub fn join(mut self) {
        while !self.shared.shutdown.load(Ordering::SeqCst) {
            std::thread::sleep(IDLE_POLL);
        }
        self.join_inner();
    }

    /// Requests a graceful stop and waits: requests already received
    /// are answered, pending responses flush (within a grace period),
    /// and all loops join.
    pub fn shutdown(mut self) {
        self.join_inner();
    }

    fn join_inner(&mut self) {
        self.shared.request_shutdown();
        for l in self.loops.drain(..) {
            let _ = l.join();
        }
    }
}

/// Token reported for the shared listener in every loop's epoll.
const TOKEN_LISTENER: u64 = u64::MAX;
/// Token reported for a loop's wake eventfd.
const TOKEN_WAKE: u64 = u64::MAX - 1;

/// How often a loop sweeps its connections for [`IDLE_DISCONNECT`].
const SWEEP_EVERY: Duration = Duration::from_secs(1);

/// Reads per readable event before yielding back to the loop, so one
/// fast client cannot starve its loop's other connections (the
/// level-triggered registration re-reports whatever remains).
const READS_PER_EVENT: usize = 4;

/// An in-progress `BATCH <n>`: the hostnames collected so far, back to
/// back in one buffer, with each one's end offset, until `expected`.
struct BatchState {
    expected: usize,
    text: String,
    ends: Vec<usize>,
}

impl BatchState {
    /// The collected hostnames, in arrival order.
    fn hosts(&self) -> Vec<&str> {
        let starts = std::iter::once(0).chain(self.ends.iter().copied());
        starts.zip(&self.ends).map(|(start, &end)| &self.text[start..end]).collect()
    }
}

/// One connection's state on its event loop.
struct Conn {
    stream: TcpStream,
    /// Peer is loopback: admin verbs honoured (module docs).
    admin: bool,
    /// Received-but-unframed bytes (at most one partial line after a
    /// drain).
    buf: Vec<u8>,
    /// Coalesced responses not yet written, from `out_pos` on.
    out: Vec<u8>,
    out_pos: usize,
    last_request: Instant,
    /// Close once `out` drains; no further reads.
    closing: bool,
    /// Peer closed its write half (EOF seen).
    eof: bool,
    /// Interest mask currently armed in the epoll.
    interest: u32,
    batch: Option<BatchState>,
}

impl Conn {
    fn new(stream: TcpStream, admin: bool) -> Conn {
        Conn {
            stream,
            admin,
            buf: Vec::new(),
            out: Vec::new(),
            out_pos: 0,
            last_request: Instant::now(),
            closing: false,
            eof: false,
            interest: EPOLLIN | EPOLLRDHUP,
            batch: None,
        }
    }

    fn out_flushed(&self) -> bool {
        self.out_pos >= self.out.len()
    }

    /// Reacts to one readiness report. Returns `false` when the
    /// connection must close now (error, or done and fully flushed).
    fn handle_event(&mut self, readiness: u32, shared: &Shared, phase: &PhaseCell) -> bool {
        if readiness & EPOLLERR != 0 {
            return false;
        }
        if readiness & (EPOLLIN | EPOLLRDHUP | EPOLLHUP) != 0 && !self.closing && !self.eof {
            if !self.read_ready(shared, phase) {
                return false;
            }
        }
        if !self.out_flushed() {
            phase.set(Phase::Flush);
            if self.flush().is_err() {
                return false;
            }
        }
        // A finished connection lingers only while a response drains.
        !((self.closing || self.eof) && self.out_flushed())
    }

    /// Reads available bytes (bounded per event), frames and serves
    /// every complete line, and handles EOF. Returns `false` on a
    /// protocol or I/O error that must drop the connection.
    fn read_ready(&mut self, shared: &Shared, phase: &PhaseCell) -> bool {
        let mut chunk = [0u8; READ_CHUNK];
        phase.set(Phase::Read);
        for _ in 0..READS_PER_EVENT {
            match self.stream.read(&mut chunk) {
                Ok(0) => {
                    self.eof = true;
                    break;
                }
                Ok(n) => {
                    self.buf.extend_from_slice(&chunk[..n]);
                    if n < chunk.len() {
                        break;
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => return false,
            }
        }
        if !self.drain_lines(shared, phase) {
            return false;
        }
        if self.eof {
            // Serve a final unterminated line by completing its frame —
            // this also lets it finish an in-progress batch.
            if !self.buf.is_empty() {
                self.buf.push(b'\n');
                if !self.drain_lines(shared, phase) {
                    return false;
                }
            }
            if self.batch.take().is_some() {
                shared.count_error();
                shared.metrics.batch_err.inc();
                self.out.extend_from_slice(b"err\tbatch truncated by eof\n");
            }
            self.closing = true;
        }
        true
    }

    /// Frames and serves every complete line in `buf`, enforcing
    /// [`MAX_LINE`] against each line *before* serving it and against
    /// the residual partial line after the drain. All responses are
    /// coalesced into `out`; the caller flushes once.
    fn drain_lines(&mut self, shared: &Shared, phase: &PhaseCell) -> bool {
        // The buffer is taken out of `self` so served line slices and
        // `self.out` can be borrowed simultaneously.
        let mut buf = std::mem::take(&mut self.buf);
        let mut start = 0usize;
        while let Some(rel) = buf[start..].iter().position(|&b| b == b'\n') {
            phase.set(Phase::Parse);
            let end = start + rel;
            let line = &buf[start..end];
            start = end + 1;
            if line.len() > MAX_LINE {
                // The framing bug this rewrite fixes: the cap must bind
                // even when the newline arrives in the same read chunk
                // that pushed the buffer past it.
                shared.count_error();
                return false;
            }
            let Ok(text) = std::str::from_utf8(line) else {
                // Non-UTF-8 input: count it and drop the connection (we
                // cannot resynchronise a stream we cannot decode).
                shared.count_error();
                return false;
            };
            self.serve_text(text, shared, phase);
            if self.out.len() - self.out_pos > MAX_PENDING_OUT {
                // The peer pipelines requests but is not draining the
                // responses; cut it off before it balloons memory.
                shared.count_error();
                return false;
            }
        }
        if buf.len() - start > MAX_LINE {
            shared.count_error();
            return false;
        }
        if start > 0 {
            // One clock read per drain that framed a line, not one per
            // line: the idle check it feeds counts in seconds.
            self.last_request = Instant::now();
        }
        buf.drain(..start);
        self.buf = buf;
        true
    }

    /// Serves one framed line: a batch item, or a request classified
    /// once and accounted once ([`account`]). A `BATCH` header that
    /// arms collection is accounted when its batch completes.
    fn serve_text(&mut self, text: &str, shared: &Shared, phase: &PhaseCell) {
        if let Some(b) = self.batch.as_mut() {
            b.text.push_str(text.trim());
            b.ends.push(b.text.len());
            if b.ends.len() == b.expected {
                let b = self.batch.take().expect("batch state just observed");
                serve_batch(&b.hosts(), &mut self.out, shared, phase);
            }
            return;
        }
        let request = text.trim();
        if request.is_empty() {
            return;
        }
        let t0 = Instant::now();
        let verb = Verb::of(request);
        let ok = if verb == Verb::Batch {
            match self.open_batch(request, shared) {
                Some(ok) => ok,
                None => return,
            }
        } else {
            let ctx = trace_ctx(shared);
            // The request's root span: the whole server-side handling,
            // closed (and recorded) before the accounting below so a
            // TRACES dump in a later pipelined request sees it complete.
            let mut root = ctx.span(Layer::Server);
            root.detail(verb as u8);
            phase.set(Phase::Backend);
            let ok = respond(verb, request, self.admin, &mut self.out, shared, &ctx);
            phase.set(Phase::Write);
            ok
        };
        account(shared, verb, ok, t0, ("request", request));
    }

    /// Opens a `BATCH <n>` request: arms collection of its `n` items
    /// and returns `None`, or answers a count of 0 or an invalid one at
    /// once and returns whether that answer is `ok`. Needs no admin
    /// privilege — batch lines are strictly hostname queries, so a
    /// batch can smuggle no verb.
    fn open_batch(&mut self, request: &str, shared: &Shared) -> Option<bool> {
        let arg = request["BATCH".len()..].trim();
        match arg.parse::<usize>() {
            Ok(0) => {
                self.out.extend_from_slice(b"ok\tbatch\t0\n");
                Some(true)
            }
            Ok(n) if n <= MAX_BATCH => {
                self.batch = Some(BatchState {
                    expected: n,
                    text: String::new(),
                    ends: Vec::with_capacity(n),
                });
                None
            }
            Ok(n) => {
                shared.count_error();
                let _ = writeln!(self.out, "err\tBATCH count {n} exceeds the cap of {MAX_BATCH}");
                Some(false)
            }
            Err(_) => {
                shared.count_error();
                let _ = writeln!(self.out, "err\tBATCH takes a hostname count, got {arg:?}");
                Some(false)
            }
        }
    }

    /// Writes as much pending output as the socket accepts.
    fn flush(&mut self) -> std::io::Result<()> {
        while self.out_pos < self.out.len() {
            match self.stream.write(&self.out[self.out_pos..]) {
                Ok(0) => return Err(std::io::ErrorKind::WriteZero.into()),
                Ok(n) => self.out_pos += n,
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        }
        if self.out_flushed() {
            self.out.clear();
            self.out_pos = 0;
        }
        Ok(())
    }

    /// Re-arms epoll interest to match the connection's state: readable
    /// while the request side is open, writable only while responses
    /// remain unflushed. No-op (no syscall) when nothing changed.
    fn rearm(&mut self, epoll: &Epoll, token: u64) -> std::io::Result<()> {
        let mut want = 0u32;
        if !self.closing && !self.eof {
            want |= EPOLLIN | EPOLLRDHUP;
        }
        if !self.out_flushed() {
            want |= EPOLLOUT;
        }
        if want != self.interest {
            epoll.modify(self.stream.as_raw_fd(), want, token)?;
            self.interest = want;
        }
        Ok(())
    }
}

/// One readiness event loop: accepts from the shared listener, serves
/// its own connections, and drains gracefully on shutdown.
fn event_loop(listener: &TcpListener, wake: &EventFd, shared: &Shared) {
    // This loop's phase marker: one relaxed byte store per transition,
    // sampled asynchronously by the watcher thread (DESIGN §7i).
    let phase = shared.obs.profiler().register();
    let Ok(epoll) = Epoll::new() else { return };
    if epoll.add(listener.as_raw_fd(), EPOLLIN, TOKEN_LISTENER).is_err()
        || epoll.add(wake.fd(), EPOLLIN, TOKEN_WAKE).is_err()
    {
        return;
    }
    // Connection slab: the epoll token is the slot index. Freed slots
    // are reused only after the event batch that freed them, so a stale
    // event can never reach a different connection.
    let mut conns: Vec<Option<Conn>> = Vec::new();
    let mut free: Vec<usize> = Vec::new();
    let mut events = vec![EpollEvent::EMPTY; EVENT_BATCH];
    let mut last_sweep = Instant::now();
    let mut drain_deadline: Option<Instant> = None;

    loop {
        phase.set(Phase::Idle);
        let n = match epoll.wait(&mut events, IDLE_POLL.as_millis() as i32) {
            Ok(n) => n,
            Err(_) => return,
        };
        let mut freed: Vec<usize> = Vec::new();
        for ev in &events[..n] {
            match ev.token() {
                TOKEN_LISTENER => {
                    if drain_deadline.is_none() {
                        phase.set(Phase::Accept);
                        accept_ready(listener, &epoll, &mut conns, &mut free, shared);
                        phase.set(Phase::Idle);
                    }
                }
                TOKEN_WAKE => wake.drain(),
                token => {
                    let slot = token as usize;
                    // Stale event for a slot freed earlier in this batch.
                    let Some(conn) = conns.get_mut(slot).and_then(Option::as_mut) else {
                        continue;
                    };
                    let keep = conn.handle_event(ev.readiness(), shared, &phase)
                        && conn.rearm(&epoll, token).is_ok();
                    if !keep {
                        close_slot(&epoll, &mut conns, slot);
                        freed.push(slot);
                    }
                }
            }
        }
        free.extend(freed);

        if shared.shutdown.load(Ordering::SeqCst) {
            if drain_deadline.is_none() {
                // Entering drain mode: stop accepting, stop reading, and
                // keep only connections with responses still in flight.
                drain_deadline = Some(Instant::now() + SHUTDOWN_GRACE);
                let _ = epoll.delete(listener.as_raw_fd());
                for slot in 0..conns.len() {
                    let Some(conn) = conns[slot].as_mut() else { continue };
                    conn.closing = true;
                    let gone = conn.flush().is_err() || conn.out_flushed();
                    if gone {
                        close_slot(&epoll, &mut conns, slot);
                        free.push(slot);
                    } else {
                        let _ = conn.rearm(&epoll, slot as u64);
                    }
                }
            }
            let deadline = drain_deadline.expect("set above");
            if conns.iter().all(Option::is_none) || Instant::now() >= deadline {
                return;
            }
            continue;
        }

        if last_sweep.elapsed() >= SWEEP_EVERY {
            last_sweep = Instant::now();
            for slot in 0..conns.len() {
                let idle = conns[slot]
                    .as_ref()
                    .is_some_and(|c| c.last_request.elapsed() >= IDLE_DISCONNECT);
                if idle {
                    close_slot(&epoll, &mut conns, slot);
                    free.push(slot);
                }
            }
        }
    }
}

/// Drops the connection in `slot` (closing its socket, which also
/// removes it from the epoll; the explicit delete keeps the interest
/// table exact even with the fd dup'd elsewhere).
fn close_slot(epoll: &Epoll, conns: &mut [Option<Conn>], slot: usize) {
    if let Some(conn) = conns[slot].take() {
        let _ = epoll.delete(conn.stream.as_raw_fd());
    }
}

/// Accepts until `WouldBlock`, registering each connection in this
/// loop's epoll. Sibling loops share the listener; a wakeup raced away
/// by another loop simply accepts nothing here.
fn accept_ready(
    listener: &TcpListener,
    epoll: &Epoll,
    conns: &mut Vec<Option<Conn>>,
    free: &mut Vec<usize>,
    shared: &Shared,
) {
    loop {
        match listener.accept() {
            Ok((stream, peer)) => {
                if stream.set_nonblocking(true).is_err() {
                    continue;
                }
                let _ = stream.set_nodelay(true);
                shared.metrics.connections.inc();
                let conn = Conn::new(stream, peer.ip().is_loopback());
                let slot = free.pop().unwrap_or_else(|| {
                    conns.push(None);
                    conns.len() - 1
                });
                if epoll.add(conn.stream.as_raw_fd(), conn.interest, slot as u64).is_ok() {
                    conns[slot] = Some(conn);
                } else {
                    free.push(slot);
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(_) => return,
        }
    }
}

/// Accounts one request, the same way for every verb: its latency into
/// the histogram, its verb and outcome into `hoiho_requests_total`
/// (`hit`/`miss` for a query, `ok`/`err` for the rest), and a
/// `slow_query` event naming `subject` when it took the slow threshold
/// or longer. It runs after the response is written into the
/// connection's buffer and before that buffer is flushed, so a
/// `METRICS` reports the traffic before itself, and a client that has
/// read a reply finds its request counted.
fn account(shared: &Shared, verb: Verb, ok: bool, t0: Instant, subject: (&str, &str)) {
    let dur_ns = t0.elapsed().as_nanos() as u64;
    let m = &shared.metrics;
    m.latency.observe(dur_ns);
    match (verb, ok) {
        (Verb::Query, true) => m.query_hit.inc(),
        (Verb::Query, false) => m.query_miss.inc(),
        (Verb::Batch, true) => m.batch_ok.inc(),
        (Verb::Batch, false) => m.batch_err.inc(),
        (verb, ok) => {
            let outcome = if ok { "ok" } else { "err" };
            let labels = [("verb", verb.name()), ("outcome", outcome)];
            shared.obs.registry().counter("hoiho_requests_total", &labels).inc();
        }
    }
    if dur_ns >= shared.obs.slow_threshold_ns() {
        shared.obs.events().record(
            "slow_query",
            &[("verb", verb.name()), subject, ("dur_ns", &dur_ns.to_string())],
        );
    }
}

/// Executes a completed `BATCH`: answers every collected hostname in
/// order, rendering straight into the connection's output buffer with
/// one reservation and no per-answer allocation. Each item counts into
/// the query hit/miss totals (bulk adds — exact, just cheaper); the
/// batch itself is accounted once, as one request.
fn serve_batch(hosts: &[&str], out: &mut Vec<u8>, shared: &Shared, phase: &PhaseCell) {
    let t0 = Instant::now();
    let ctx = trace_ctx(shared);
    let answers = {
        let mut root = ctx.span(Layer::Server);
        root.detail(detail::BATCH);
        phase.set(Phase::Backend);
        shared.backend.query_batch(hosts, &ctx)
    };
    phase.set(Phase::Write);
    debug_assert_eq!(answers.len(), hosts.len(), "backend must answer every batch item");
    let hits = answers.iter().filter(|a| a.asn.is_some()).count() as u64;
    shared.metrics.query_hit.add(hits);
    shared.metrics.query_miss.add(hosts.len() as u64 - hits);
    let items = hosts.len().to_string();
    // ~48 bytes per answer line in practice.
    out.reserve(hosts.len() * 48 + 16);
    out.extend_from_slice(b"ok\tbatch\t");
    out.extend_from_slice(items.as_bytes());
    out.push(b'\n');
    for (h, a) in hosts.iter().zip(&answers) {
        a.render_line_into(h, out);
    }
    account(shared, Verb::Batch, true, t0, ("items", &items));
}

/// Refusal sent to non-loopback peers issuing admin verbs.
const ERR_NOT_ADMIN: &str = "err\tadmin commands require a loopback peer\n";

/// Writes the response (including its trailing newline) to one request
/// into `out`, and returns whether it succeeded: for a query, whether
/// it extracted an ASN. `admin` is true when the peer may send the
/// loopback-gated verbs (`RELOAD`, `SHUTDOWN`, `EVENTS`, `TRACES`).
fn respond(
    verb: Verb,
    request: &str,
    admin: bool,
    out: &mut Vec<u8>,
    shared: &Shared,
    ctx: &TraceCtx,
) -> bool {
    if !admin && matches!(verb, Verb::Reload | Verb::Shutdown | Verb::Events | Verb::Traces) {
        shared.count_error();
        shared.obs.events().record("admin_refused", &[("verb", verb.name())]);
        out.extend_from_slice(ERR_NOT_ADMIN.as_bytes());
        return false;
    }
    // The listings: every arm that does not return builds a body, which
    // the `.` line terminates.
    let body = match verb {
        Verb::Query => {
            let answer = shared.backend.query(request, ctx);
            answer.render_line_into(request, out);
            return answer.asn.is_some();
        }
        Verb::Batch => unreachable!("a BATCH header opens in Conn::serve_text"),
        Verb::Stats => {
            let m = &shared.metrics;
            let _ = writeln!(
                out,
                "stats\thits={}\tmisses={}\terrors={}\tconns={}\tmodel={}",
                m.query_hit.get(),
                m.query_miss.get(),
                m.protocol_errors.get(),
                m.connections.get(),
                shared.backend.model_len(),
            );
            return true;
        }
        Verb::StatsSuffix => {
            let mut body = String::new();
            for (suffix, n) in shared.backend.per_suffix() {
                body.push_str(&format!("{suffix}\t{n}\n"));
            }
            body
        }
        Verb::StatsCluster => match shared.backend.cluster_stats() {
            // The backend's body carries its own terminator.
            Some(body) => {
                out.extend_from_slice(body.as_bytes());
                return true;
            }
            None => {
                shared.count_error();
                out.extend_from_slice(b"err\tnot a cluster backend\n");
                return false;
            }
        },
        Verb::Metrics => shared.obs.registry().render(),
        Verb::Profile => {
            // The profiler's phase buckets, plus per-layer span
            // self-time attributed from whatever the span ring holds.
            let mut body = shared.obs.profiler().render();
            let spans = shared.obs.spans().dump(usize::MAX);
            body.push_str("# TYPE hoiho_span_self_time_ns gauge\n");
            for (layer, ns) in span::self_time_by_layer(&spans) {
                body.push_str(&format!(
                    "hoiho_span_self_time_ns{{layer=\"{}\"}} {ns}\n",
                    layer.name()
                ));
            }
            body
        }
        Verb::Slo => {
            let snap =
                slo::snapshot_registry(shared.obs.registry(), shared.obs.spans().now_ns());
            slo::render_statuses(&shared.obs.slo().report(&snap))
        }
        Verb::Shutdown => {
            shared.request_shutdown();
            out.extend_from_slice(b"ok\tbye\n");
            return true;
        }
        Verb::Events | Verb::Traces => {
            // One count argument for both dumps: absent means every
            // buffered record.
            let word = if verb == Verb::Events { "EVENTS" } else { "TRACES" };
            let arg = request[word.len()..].trim();
            let n = match arg {
                "" => usize::MAX,
                _ => match arg.parse::<usize>() {
                    Ok(n) => n,
                    Err(_) => {
                        shared.count_error();
                        let _ = writeln!(out, "err\t{word} takes a count, got {arg:?}");
                        return false;
                    }
                },
            };
            // TRACES is loopback-gated like EVENTS: span dumps carry
            // request shapes and timings, which an arbitrary peer has
            // no business reading.
            if verb == Verb::Events {
                shared.obs.events().render_jsonl(n)
            } else {
                shared.obs.spans().render_jsonl(n)
            }
        }
        Verb::Reload => {
            let args = &request["RELOAD ".len()..];
            return match shared.backend.reload(args) {
                Ok(msg) => {
                    let events = shared.obs.events();
                    events.record("reload", &[("args", args.trim()), ("result", &msg)]);
                    let _ = writeln!(out, "ok\t{msg}");
                    true
                }
                Err(e) => {
                    shared.count_error();
                    let events = shared.obs.events();
                    events.record("reload_failed", &[("args", args.trim()), ("error", &e)]);
                    let _ = writeln!(out, "err\t{e}");
                    false
                }
            };
        }
    };
    out.extend_from_slice(body.as_bytes());
    out.extend_from_slice(b".\n");
    true
}

/// The client's transport: a plain socket, or one wrapped in the
/// seeded fault injector ([`crate::chaos::ChaosConn`]).
enum ClientStream {
    Plain(TcpStream),
    Chaos(crate::chaos::ChaosConn),
}

impl ClientStream {
    fn try_clone(&self) -> std::io::Result<ClientStream> {
        Ok(match self {
            ClientStream::Plain(s) => ClientStream::Plain(s.try_clone()?),
            ClientStream::Chaos(c) => ClientStream::Chaos(c.try_clone()?),
        })
    }

    fn set_read_timeout(&self, dur: Option<Duration>) -> std::io::Result<()> {
        match self {
            ClientStream::Plain(s) => s.set_read_timeout(dur),
            ClientStream::Chaos(c) => c.set_read_timeout(dur),
        }
    }
}

impl Read for ClientStream {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        match self {
            ClientStream::Plain(s) => s.read(buf),
            ClientStream::Chaos(c) => c.read(buf),
        }
    }
}

impl Write for ClientStream {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        match self {
            ClientStream::Plain(s) => s.write(buf),
            ClientStream::Chaos(c) => c.write(buf),
        }
    }

    fn flush(&mut self) -> std::io::Result<()> {
        match self {
            ClientStream::Plain(s) => s.flush(),
            ClientStream::Chaos(c) => c.flush(),
        }
    }
}

/// A minimal blocking client for the line protocol — used by the
/// `query`/`loadgen` subcommands, the benches, and the smoke tests.
///
/// Every connection carries a read (and connect) timeout — default
/// [`Client::DEFAULT_TIMEOUT`] — so a stalled or chaos-wrapped server
/// can never hang a caller forever: a response that does not arrive in
/// time surfaces as an `io::Error` (`WouldBlock`/`TimedOut`), which
/// `loadgen` counts into its error rate.
pub struct Client {
    reader: BufReader<ClientStream>,
    writer: ClientStream,
}

impl Client {
    /// Default connect/read timeout for [`Client::connect`].
    pub const DEFAULT_TIMEOUT: Duration = Duration::from_secs(30);

    /// Connects to a running server with the default timeout.
    pub fn connect(addr: impl ToSocketAddrs) -> std::io::Result<Client> {
        Self::connect_opts(addr, Some(Self::DEFAULT_TIMEOUT), None)
    }

    /// Connects with an explicit connect/read timeout (`None` = block
    /// forever) and optional fault injection: with a
    /// [`crate::chaos::ChaosConfig`], all traffic flows through a
    /// [`crate::chaos::ChaosConn`] seeded from the config.
    pub fn connect_opts(
        addr: impl ToSocketAddrs,
        timeout: Option<Duration>,
        chaos: Option<crate::chaos::ChaosConfig>,
    ) -> std::io::Result<Client> {
        let stream = match timeout {
            Some(t) => {
                // connect_timeout needs a resolved address; try each in
                // turn like TcpStream::connect does.
                let mut last = None;
                let mut conn = None;
                for a in addr.to_socket_addrs()? {
                    match TcpStream::connect_timeout(&a, t) {
                        Ok(s) => {
                            conn = Some(s);
                            break;
                        }
                        Err(e) => last = Some(e),
                    }
                }
                conn.ok_or_else(|| {
                    last.unwrap_or_else(|| {
                        std::io::Error::new(
                            std::io::ErrorKind::InvalidInput,
                            "address resolved to nothing",
                        )
                    })
                })?
            }
            None => TcpStream::connect(addr)?,
        };
        stream.set_nodelay(true)?;
        let stream = match chaos {
            Some(cfg) => ClientStream::Chaos(crate::chaos::ChaosConn::new(stream, cfg)),
            None => ClientStream::Plain(stream),
        };
        stream.set_read_timeout(timeout)?;
        let writer = stream.try_clone()?;
        Ok(Client { reader: BufReader::new(stream), writer })
    }

    /// Reads one response line, trimmed; an EOF is an error saying
    /// where (`mid-batch`) the server closed.
    fn read_response_line(&mut self, at: &str) -> std::io::Result<String> {
        let mut line = String::new();
        if self.reader.read_line(&mut line)? == 0 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                format!("server closed {at}"),
            ));
        }
        line.truncate(line.trim_end().len());
        Ok(line)
    }

    /// Sends one request line and reads one response line (trimmed).
    pub fn request(&mut self, line: &str) -> std::io::Result<String> {
        self.writer.write_all(line.as_bytes())?;
        self.writer.write_all(b"\n")?;
        self.read_response_line("the connection")
    }

    /// Queries one hostname; returns the extracted ASN, if any.
    pub fn query(&mut self, hostname: &str) -> std::io::Result<Option<u32>> {
        let resp = self.request(hostname)?;
        let mut fields = resp.split('\t');
        let (_echo, asn) = (fields.next(), fields.next());
        Ok(asn.and_then(|a| a.parse::<u32>().ok()))
    }

    /// Sends one `BATCH` request for `hostnames` and returns the answer
    /// lines (one per hostname, in order, `\t`-separated fields, no
    /// echo-line framing beyond the hostname itself).
    pub fn batch<S: AsRef<str>>(&mut self, hostnames: &[S]) -> std::io::Result<Vec<String>> {
        let mut req = String::with_capacity(16 + hostnames.len() * 32);
        req.push_str("BATCH ");
        req.push_str(&hostnames.len().to_string());
        req.push('\n');
        for h in hostnames {
            req.push_str(h.as_ref());
            req.push('\n');
        }
        self.writer.write_all(req.as_bytes())?;
        let header = self.read_response_line("before the batch header")?;
        let n: usize = match header.strip_prefix("ok\tbatch\t").map(str::parse) {
            Some(Ok(n)) => n,
            _ => {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::InvalidData,
                    format!("unexpected batch header: {header:?}"),
                ))
            }
        };
        (0..n).map(|_| self.read_response_line("mid-batch")).collect()
    }

    /// Sends one listing request ([`is_listing`]) and reads its lines up
    /// to and excluding the `.` terminator. A refusal has no body: it
    /// comes back as its one `err\t<message>` line.
    pub fn listing(&mut self, request: &str) -> std::io::Result<Vec<String>> {
        let mut line = self.request(request)?;
        if line.starts_with("err\t") {
            return Ok(vec![line]);
        }
        let mut out = Vec::new();
        while line != "." {
            out.push(line);
            line = self.read_response_line("mid-listing")?;
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{EvalCounts, Model, ModelEntry};
    use hoiho::classify::NcClass;
    use hoiho::regex::Regex;
    use hoiho::taxonomy::Taxonomy;

    fn model(suffix: &str, rx: &str) -> Model {
        Model {
            entries: vec![ModelEntry {
                suffix: suffix.to_string(),
                class: NcClass::Good,
                single: false,
                taxonomy: Taxonomy::Start,
                hostnames: 4,
                counts: EvalCounts::default(),
                regexes: vec![Regex::parse(rx).unwrap()],
            }],
        }
    }

    fn start(model: &Model, workers: usize) -> ServerHandle {
        ServerHandle::start("127.0.0.1:0", Arc::new(Engine::new(model)), workers).unwrap()
    }

    #[test]
    fn serves_queries_and_stats() {
        let srv = start(&model("example.com", r"^as(\d+)\.example\.com$"), 2);
        let mut c = Client::connect(srv.local_addr()).unwrap();
        assert_eq!(c.query("as64500.example.com").unwrap(), Some(64500));
        assert_eq!(c.query("core1.example.com").unwrap(), None);
        assert_eq!(c.query("nothing.example.org").unwrap(), None);
        let resp = c.request("as777.example.com").unwrap();
        assert_eq!(resp, "as777.example.com\t777\texample.com\tgood");
        let stats = c.request("STATS").unwrap();
        assert!(stats.starts_with("stats\thits=2\tmisses=2\t"), "{stats}");
        assert!(stats.contains("model=1"), "{stats}");
        let s = srv.stats();
        assert_eq!((s.hits, s.misses), (2, 2));
        assert_eq!(s.per_suffix, vec![("example.com".to_string(), 3)]);
        drop(c);
        srv.shutdown();
    }

    #[test]
    fn concurrent_clients_all_served() {
        let srv = start(&model("example.com", r"^as(\d+)\.example\.com$"), 4);
        let addr = srv.local_addr();
        std::thread::scope(|scope| {
            for t in 0..8 {
                scope.spawn(move || {
                    let mut c = Client::connect(addr).unwrap();
                    for i in 0..50u32 {
                        let asn = 64000 + t * 100 + i;
                        assert_eq!(
                            c.query(&format!("as{asn}.example.com")).unwrap(),
                            Some(asn)
                        );
                    }
                });
            }
        });
        let s = srv.stats();
        assert_eq!(s.hits, 8 * 50);
        assert_eq!(s.conns, 8);
        srv.shutdown();
    }

    /// A server over an [`EngineBackend`] the test keeps a handle to.
    fn start_backend(model: &Model) -> (Arc<EngineBackend>, ServerHandle) {
        let backend = Arc::new(EngineBackend::new(Arc::new(Engine::new(model))));
        let srv = ServerHandle::start_with_backend("127.0.0.1:0", backend.clone(), 2).unwrap();
        (backend, srv)
    }

    #[test]
    fn hot_reload_swaps_without_dropping_connections() {
        let (backend, srv) = start_backend(&model("example.com", r"^as(\d+)\.example\.com$"));
        let mut c = Client::connect(srv.local_addr()).unwrap();
        assert_eq!(c.query("as1.example.com").unwrap(), Some(1));
        assert_eq!(c.query("r2.other.net").unwrap(), None);
        // Install a different model; the same connection sees it.
        backend.install(Arc::new(Engine::new(&model("other.net", r"^r(\d+)\.other\.net$"))));
        assert_eq!(c.query("as1.example.com").unwrap(), None);
        assert_eq!(c.query("r2.other.net").unwrap(), Some(2));
        // Per-suffix counters restarted with the new generation.
        let s = srv.stats();
        assert_eq!(s.per_suffix, vec![("other.net".to_string(), 1)]);
        assert_eq!(s.hits, 2);
        srv.shutdown();
    }

    #[test]
    fn reload_command_over_tcp() {
        let dir = std::env::temp_dir().join(format!("hoiho-serve-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("reload.model");
        model("other.net", r"^r(\d+)\.other\.net$").save(&path).unwrap();

        let srv = start(&model("example.com", r"^as(\d+)\.example\.com$"), 2);
        let mut c = Client::connect(srv.local_addr()).unwrap();
        // A failed reload keeps the old model serving and counts an error.
        let resp = c.request("RELOAD /no/such/file").unwrap();
        assert!(resp.starts_with("err\t"), "{resp}");
        assert_eq!(c.query("as5.example.com").unwrap(), Some(5));
        let resp = c.request(&format!("RELOAD {}", path.display())).unwrap();
        assert_eq!(resp, "ok\treloaded\t1");
        assert_eq!(c.query("r7.other.net").unwrap(), Some(7));
        assert_eq!(srv.stats().errors, 1);
        srv.shutdown();
        std::fs::remove_dir_all(&dir).ok();
    }

    /// The engine's dispatch counters live in the backend, not in the
    /// engine it happens to serve: an engine swap by
    /// [`EngineBackend::install`] or by `RELOAD` keeps them counting.
    #[test]
    fn dispatch_counters_keep_counting_across_install_and_reload() {
        let dir = std::env::temp_dir().join(format!("hoiho-serve-counters-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("reload.model");
        model("example.com", r"^r(\d+)\.example\.com$").save(&path).unwrap();

        let m = model("example.com", r"^as(\d+)\.example\.com$");
        let (backend, srv) = start_backend(&m);
        assert!(Arc::ptr_eq(srv.obs(), backend.obs()), "the server adopts the backend's Obs");
        let exact = || {
            srv.obs()
                .registry()
                .counter("hoiho_engine_extractions_total", &[("dispatch", "exact")])
                .get()
        };
        let mut c = Client::connect(srv.local_addr()).unwrap();
        assert_eq!(c.query("as1.example.com").unwrap(), Some(1));
        assert_eq!(exact(), 1);
        backend.install(Arc::new(Engine::new(&m)));
        assert_eq!(c.query("as2.example.com").unwrap(), Some(2));
        assert_eq!(c.query("as3.example.com").unwrap(), Some(3));
        assert_eq!(exact(), 3, "counting stopped after EngineBackend::install");
        let resp = c.request(&format!("RELOAD {}", path.display())).unwrap();
        assert_eq!(resp, "ok\treloaded\t1");
        assert_eq!(c.query("r4.example.com").unwrap(), Some(4));
        assert_eq!(exact(), 4, "counting stopped after RELOAD");
        srv.shutdown();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn shutdown_command_stops_the_server() {
        let srv = start(&model("example.com", r"^as(\d+)\.example\.com$"), 2);
        let addr = srv.local_addr();
        let mut c = Client::connect(addr).unwrap();
        assert_eq!(c.request("SHUTDOWN").unwrap(), "ok\tbye");
        srv.join();
        // The listener is gone: either the connect fails or the
        // accepted socket is never served.
        match Client::connect(addr) {
            Err(_) => {}
            Ok(mut c2) => assert!(c2.request("as1.example.com").is_err()),
        }
    }

    #[test]
    fn join_waits_for_client_shutdown() {
        // Regression: join() must wait for a shutdown request, not
        // issue one — a server blocked in join() keeps serving.
        let srv = start(&model("example.com", r"^as(\d+)\.example\.com$"), 2);
        let addr = srv.local_addr();
        let joiner = std::thread::spawn(move || srv.join());
        let mut c = Client::connect(addr).unwrap();
        for _ in 0..5 {
            assert_eq!(c.query("as64500.example.com").unwrap(), Some(64500));
            std::thread::sleep(IDLE_POLL / 2);
        }
        assert_eq!(c.request("SHUTDOWN").unwrap(), "ok\tbye");
        joiner.join().unwrap();
    }

    #[test]
    fn partial_request_straddling_idle_poll_is_not_truncated() {
        // Regression: a request line arriving in fragments across the
        // worker's 100ms read-timeout polls must be answered whole —
        // the old BufReader::read_line framing dropped the bytes read
        // before the timeout.
        let srv = start(&model("example.com", r"^as(\d+)\.example\.com$"), 1);
        let mut s = TcpStream::connect(srv.local_addr()).unwrap();
        s.write_all(b"as64500.exam").unwrap();
        std::thread::sleep(IDLE_POLL * 3); // several server-side timeouts fire
        s.write_all(b"ple.com\n").unwrap();
        let mut resp = String::new();
        BufReader::new(s).read_line(&mut resp).unwrap();
        assert_eq!(resp.trim_end(), "as64500.example.com\t64500\texample.com\tgood");
        srv.shutdown();
    }

    #[test]
    fn pipelined_requests_in_one_segment_all_answered() {
        let srv = start(&model("example.com", r"^as(\d+)\.example\.com$"), 1);
        let mut s = TcpStream::connect(srv.local_addr()).unwrap();
        s.write_all(b"as1.example.com\nas2.example.com\n").unwrap();
        let mut r = BufReader::new(s);
        let mut resp = String::new();
        r.read_line(&mut resp).unwrap();
        assert_eq!(resp.trim_end(), "as1.example.com\t1\texample.com\tgood");
        resp.clear();
        r.read_line(&mut resp).unwrap();
        assert_eq!(resp.trim_end(), "as2.example.com\t2\texample.com\tgood");
        srv.shutdown();
    }

    #[test]
    fn unterminated_final_line_is_served_on_eof() {
        let srv = start(&model("example.com", r"^as(\d+)\.example\.com$"), 1);
        let mut s = TcpStream::connect(srv.local_addr()).unwrap();
        s.write_all(b"as7.example.com").unwrap();
        s.shutdown(std::net::Shutdown::Write).unwrap();
        let mut resp = String::new();
        BufReader::new(s).read_line(&mut resp).unwrap();
        assert_eq!(resp.trim_end(), "as7.example.com\t7\texample.com\tgood");
        srv.shutdown();
    }

    #[test]
    fn admin_verbs_refused_for_non_loopback_peers() {
        let m = model("example.com", r"^as(\d+)\.example\.com$");
        let shared = Shared::new(Arc::new(EngineBackend::new(Arc::new(Engine::new(&m)))));
        let off = TraceCtx::off();
        let respond = |request: &str, admin: bool, shared: &Shared, ctx: &TraceCtx| {
            let mut out = Vec::new();
            super::respond(Verb::of(request), request, admin, &mut out, shared, ctx);
            String::from_utf8(out).unwrap()
        };
        assert_eq!(respond("SHUTDOWN", false, &shared, &off), ERR_NOT_ADMIN);
        assert!(!shared.shutdown.load(Ordering::SeqCst), "non-admin SHUTDOWN must not stop the server");
        assert_eq!(respond("RELOAD /etc/passwd", false, &shared, &off), ERR_NOT_ADMIN);
        assert_eq!(respond("EVENTS 5", false, &shared, &off), ERR_NOT_ADMIN);
        assert_eq!(respond("TRACES 5", false, &shared, &off), ERR_NOT_ADMIN);
        assert_eq!(shared.metrics.protocol_errors.get(), 4);
        // Each refusal was recorded as an event.
        let refusals = shared.obs.events().tail(10);
        assert_eq!(refusals.len(), 4);
        assert!(refusals.iter().all(|e| e.kind == "admin_refused"));
        // Plain queries are served regardless of peer.
        let resp = respond("as9.example.com", false, &shared, &off);
        assert_eq!(resp, "as9.example.com\t9\texample.com\tgood\n");
    }

    #[test]
    fn metrics_verb_renders_exposition_over_tcp() {
        let srv = start(&model("example.com", r"^as(\d+)\.example\.com$"), 2);
        let mut c = Client::connect(srv.local_addr()).unwrap();
        assert_eq!(c.query("as1.example.com").unwrap(), Some(1));
        assert_eq!(c.query("as2.example.com").unwrap(), Some(2));
        assert_eq!(c.query("nothing.example.org").unwrap(), None);
        let lines = c.listing("METRICS").unwrap();
        let text = lines.join("\n");
        assert!(
            text.contains("hoiho_requests_total{outcome=\"hit\",verb=\"query\"} 2"),
            "{text}"
        );
        assert!(
            text.contains("hoiho_requests_total{outcome=\"miss\",verb=\"query\"} 1"),
            "{text}"
        );
        assert!(text.contains("hoiho_connections_total 1"), "{text}");
        assert!(text.contains("hoiho_request_latency_ns_count 3"), "{text}");
        assert!(
            text.contains("hoiho_engine_extractions_total{dispatch=\"exact\"} 2"),
            "{text}"
        );
        // A second METRICS shows the first (counted after rendering).
        let lines = c.listing("METRICS").unwrap();
        let text = lines.join("\n");
        assert!(
            text.contains("hoiho_requests_total{outcome=\"ok\",verb=\"metrics\"} 1"),
            "{text}"
        );
        srv.shutdown();
    }

    #[test]
    fn events_verb_dumps_ring_tail() {
        let srv = start(&model("example.com", r"^as(\d+)\.example\.com$"), 2);
        // Everything is a "slow query" at a zero threshold.
        srv.obs().set_slow_threshold(Duration::from_nanos(0));
        let mut c = Client::connect(srv.local_addr()).unwrap();
        c.query("as1.example.com").unwrap();
        c.query("as2.example.com").unwrap();
        let lines = c.listing("EVENTS 1").unwrap();
        assert_eq!(lines.len(), 1, "{lines:?}");
        assert!(lines[0].contains("\"kind\":\"slow_query\""), "{}", lines[0]);
        assert!(lines[0].contains("\"request\":\"as2.example.com\""), "{}", lines[0]);
        // Bare EVENTS dumps the whole ring (two queries + the first
        // EVENTS, which was itself slow at threshold zero).
        let lines = c.listing("EVENTS").unwrap();
        assert_eq!(lines.len(), 3, "{lines:?}");
        // Malformed count is an error.
        let resp = c.request("EVENTS many").unwrap();
        assert!(resp.starts_with("err\t"), "{resp}");
        srv.shutdown();
    }

    #[test]
    fn oversized_line_is_rejected_even_with_its_newline_buffered() {
        // Regression: the MAX_LINE cap must bind on the *line*, not on
        // the residual bytes left after draining. A line in
        // (MAX_LINE, MAX_LINE + 4096] whose newline arrives in the same
        // read chunk that pushed the buffer past the cap was served by
        // the old framing loop (the residual check never saw it).
        let srv = start(&model("example.com", r"^as(\d+)\.example\.com$"), 1);
        let mut s = TcpStream::connect(srv.local_addr()).unwrap();
        let mut line = vec![b'a'; MAX_LINE + 1000];
        line.push(b'\n');
        // The server may drop the connection before the write drains.
        let _ = s.write_all(&line);
        let mut resp = String::new();
        let res = BufReader::new(s).read_line(&mut resp);
        assert!(
            matches!(res, Ok(0) | Err(_)),
            "an oversized line must close the connection unanswered, got {resp:?}"
        );
        assert!(resp.is_empty(), "{resp:?}");
        // The protocol violation is counted (poll: the close races us).
        let t0 = Instant::now();
        while srv.stats().errors == 0 {
            assert!(t0.elapsed() < Duration::from_secs(5), "error never counted");
            std::thread::sleep(Duration::from_millis(10));
        }
        srv.shutdown();
    }

    #[test]
    fn pipelined_requests_around_shutdown_are_answered_before_close() {
        // Regression: a client pipelining queries with SHUTDOWN in one
        // segment must get every response; the old worker dropped
        // whatever was buffered behind the SHUTDOWN line.
        let srv = start(&model("example.com", r"^as(\d+)\.example\.com$"), 1);
        let mut s = TcpStream::connect(srv.local_addr()).unwrap();
        s.write_all(b"as1.example.com\nSHUTDOWN\nas2.example.com\n").unwrap();
        let mut r = BufReader::new(s);
        let mut lines = Vec::new();
        for _ in 0..3 {
            let mut l = String::new();
            r.read_line(&mut l).unwrap();
            lines.push(l.trim_end().to_string());
        }
        assert_eq!(
            lines,
            vec![
                "as1.example.com\t1\texample.com\tgood".to_string(),
                "ok\tbye".to_string(),
                "as2.example.com\t2\texample.com\tgood".to_string(),
            ]
        );
        // Then the server closes the connection and stops.
        let mut l = String::new();
        assert_eq!(r.read_line(&mut l).unwrap(), 0, "expected EOF, got {l:?}");
        srv.join();
    }

    #[test]
    fn batch_answers_match_single_queries() {
        let srv = start(&model("example.com", r"^as(\d+)\.example\.com$"), 2);
        let mut c = Client::connect(srv.local_addr()).unwrap();
        let hosts = ["as1.example.com", "core1.example.com", "as2.example.com"];
        let singles: Vec<String> =
            hosts.iter().map(|h| c.request(h).unwrap()).collect();
        let batched = c.batch(&hosts).unwrap();
        assert_eq!(batched, singles);
        // Items count into the query totals; the batch counts once.
        let s = srv.stats();
        assert_eq!((s.hits, s.misses), (4, 2));
        let lines = c.listing("METRICS").unwrap();
        let text = lines.join("\n");
        assert!(
            text.contains("hoiho_requests_total{outcome=\"ok\",verb=\"batch\"} 1"),
            "{text}"
        );
        assert!(
            text.contains("hoiho_requests_total{outcome=\"hit\",verb=\"query\"} 4"),
            "{text}"
        );
        srv.shutdown();
    }

    #[test]
    fn batch_header_edge_cases() {
        let srv = start(&model("example.com", r"^as(\d+)\.example\.com$"), 1);
        let mut c = Client::connect(srv.local_addr()).unwrap();
        assert_eq!(c.request("BATCH 0").unwrap(), "ok\tbatch\t0");
        let resp = c.request("BATCH nope").unwrap();
        assert!(resp.starts_with("err\tBATCH takes a hostname count"), "{resp}");
        let resp = c.request(&format!("BATCH {}", MAX_BATCH + 1)).unwrap();
        assert!(resp.starts_with("err\tBATCH count"), "{resp}");
        // The connection survives header errors.
        assert_eq!(c.query("as3.example.com").unwrap(), Some(3));
        assert_eq!(srv.stats().errors, 2);
        srv.shutdown();
    }

    #[test]
    fn batch_truncated_by_eof_is_an_error() {
        let srv = start(&model("example.com", r"^as(\d+)\.example\.com$"), 1);
        let mut s = TcpStream::connect(srv.local_addr()).unwrap();
        s.write_all(b"BATCH 3\nas1.example.com\n").unwrap();
        s.shutdown(std::net::Shutdown::Write).unwrap();
        let mut resp = String::new();
        BufReader::new(s).read_line(&mut resp).unwrap();
        assert_eq!(resp.trim_end(), "err\tbatch truncated by eof");
        srv.shutdown();
    }

    #[test]
    fn events_count_edge_cases() {
        let srv = start(&model("example.com", r"^as(\d+)\.example\.com$"), 1);
        srv.obs().set_slow_threshold(Duration::from_nanos(0));
        let mut c = Client::connect(srv.local_addr()).unwrap();
        c.query("as1.example.com").unwrap();
        // EVENTS 0 is a valid request for nothing: just the terminator.
        assert_eq!(c.request("EVENTS 0").unwrap(), ".");
        // An overlarge count clamps to "everything buffered" — here the
        // query plus the EVENTS 0 itself (slow at threshold zero).
        let lines = c.listing(&format!("EVENTS {}", u64::MAX)).unwrap();
        assert_eq!(lines.len(), 2, "{lines:?}");
        // Garbage args are protocol errors that keep the connection.
        for bad in ["EVENTS -1", "EVENTS 1 2", "EVENTS 0x10"] {
            let resp = c.request(bad).unwrap();
            assert!(resp.starts_with("err\tEVENTS takes a count"), "{bad} -> {resp}");
        }
        assert_eq!(c.query("as2.example.com").unwrap(), Some(2));
        srv.shutdown();
    }

    #[test]
    fn client_read_timeout_surfaces_instead_of_hanging() {
        // A peer that accepts but never answers must produce a timeout
        // error, not a hang.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let hold = std::thread::spawn(move || listener.accept().map(|(s, _)| s));
        let mut c = Client::connect_opts(addr, Some(Duration::from_millis(200)), None).unwrap();
        let t0 = Instant::now();
        let err = c.request("as1.example.com").unwrap_err();
        assert!(
            matches!(
                err.kind(),
                std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
            ),
            "{err:?}"
        );
        assert!(t0.elapsed() < Duration::from_secs(5));
        drop(c);
        let _ = hold.join();
    }

    #[test]
    fn non_reading_pipeliner_is_disconnected_at_the_out_cap() {
        let srv = start(&model("example.com", r"^as(\d+)\.example\.com$"), 1);
        let mut s = TcpStream::connect(srv.local_addr()).unwrap();
        s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        // Each ~32 KiB miss echoes back at roughly the same size;
        // pipeline several times MAX_PENDING_OUT without reading a
        // byte. The server must sever the connection at the cap rather
        // than buffer it all.
        let line = format!("{}.example.org\n", "a".repeat(32 * 1024));
        for _ in 0..(3 * MAX_PENDING_OUT / line.len()) {
            if s.write_all(line.as_bytes()).is_err() {
                break; // already cut off — that's the point
            }
        }
        // Stay a non-reader until the server has counted the violation:
        // a kernel receive buffer large enough to take every request
        // can end the write loop above while the server's pending
        // output is still under the cap, and draining from then on
        // would keep it there. (Poll: the close races us.)
        let t0 = Instant::now();
        while srv.stats().errors == 0 {
            assert!(t0.elapsed() < Duration::from_secs(10), "cap violation never counted");
            std::thread::sleep(Duration::from_millis(10));
        }
        let mut drained = 0usize;
        let mut buf = [0u8; 64 * 1024];
        loop {
            match s.read(&mut buf) {
                Ok(0) | Err(_) => break,
                Ok(n) => drained += n,
            }
        }
        assert!(
            drained < 2 * MAX_PENDING_OUT,
            "server buffered {drained} response bytes for a non-reading client"
        );
        srv.shutdown();
    }

    #[test]
    fn stats_suffix_lists_per_suffix_counts() {
        let mut m = model("example.com", r"^as(\d+)\.example\.com$");
        m.entries.extend(model("other.net", r"^r(\d+)\.other\.net$").entries);
        let srv = start(&m, 2);
        let mut c = Client::connect(srv.local_addr()).unwrap();
        c.query("as1.example.com").unwrap();
        c.query("as2.example.com").unwrap();
        c.query("r9.other.net").unwrap();
        let lines = c.listing("STATS SUFFIX").unwrap();
        assert_eq!(lines, vec!["example.com\t2".to_string(), "other.net\t1".to_string()]);
        srv.shutdown();
    }

    #[test]
    fn listings_read_empty_bodies_and_refusals_in_sync() {
        for r in ["STATS SUFFIX", "STATS CLUSTER", "METRICS", "EVENTS", "EVENTS 20", "TRACES 5"] {
            assert!(is_listing(r), "{r}");
        }
        for r in ["STATS", "SHUTDOWN", "RELOAD /m", "BATCH 2", "EVENTSX", "as1.example.com"] {
            assert!(!is_listing(r), "{r}");
        }
        let srv = start(&model("example.com", r"^as(\d+)\.example\.com$"), 1);
        let mut c = Client::connect(srv.local_addr()).unwrap();
        // Sampling is off, so the span ring is empty: a lone `.`.
        assert!(c.listing("TRACES").unwrap().is_empty());
        assert_eq!(c.listing("STATS CLUSTER").unwrap(), ["err\tnot a cluster backend"]);
        assert_eq!(c.query("as1.example.com").unwrap(), Some(1), "stream stays in sync");
        srv.shutdown();
    }

    #[test]
    fn traces_verb_dumps_sampled_spans() {
        let srv = start(&model("example.com", r"^as(\d+)\.example\.com$"), 1);
        srv.obs().sampler().configure(1, 42);
        let mut c = Client::connect(srv.local_addr()).unwrap();
        assert_eq!(c.query("as1.example.com").unwrap(), Some(1));
        assert_eq!(c.query("nope.example.org").unwrap(), None);
        let lines = c.listing("TRACES").unwrap();
        let text = lines.join("\n");
        let spans = span::parse_jsonl(&text).unwrap();
        // Two sampled requests, each a server root + an engine child.
        assert_eq!(spans.len(), 4, "{text}");
        let roots: Vec<_> = spans.iter().filter(|s| s.parent == span::NO_PARENT).collect();
        assert_eq!(roots.len(), 2, "{text}");
        assert!(roots.iter().all(|s| s.layer == Layer::Server && s.detail == detail::QUERY));
        assert_ne!(roots[0].trace, roots[1].trace);
        let engines: Vec<_> = spans.iter().filter(|s| s.layer == Layer::Engine).collect();
        assert_eq!(engines.len(), 2, "{text}");
        for e in &engines {
            let parent =
                spans.iter().find(|s| s.trace == e.trace && s.id == e.parent).unwrap();
            assert_eq!(parent.layer, Layer::Server, "engine span must hang off the root");
        }
        assert_eq!(engines[0].detail, detail::EXTRACT_HIT);
        assert_eq!(engines[1].detail, detail::EXTRACT_MISS);
        // Count arg and error handling mirror EVENTS.
        assert_eq!(c.request("TRACES 0").unwrap(), ".");
        let resp = c.request("TRACES many").unwrap();
        assert!(resp.starts_with("err\tTRACES takes a count"), "{resp}");
        srv.shutdown();
    }

    #[test]
    fn profile_verb_renders_buckets_and_self_time() {
        let srv = start(&model("example.com", r"^as(\d+)\.example\.com$"), 1);
        srv.obs().sampler().configure(1, 7);
        let mut c = Client::connect(srv.local_addr()).unwrap();
        c.query("as1.example.com").unwrap();
        let lines = c.listing("PROFILE").unwrap();
        let text = lines.join("\n");
        for p in Phase::ALL {
            assert!(
                text.contains(&format!("phase=\"{}\"", p.name())),
                "missing {}: {text}",
                p.name()
            );
        }
        assert!(text.contains("hoiho_profile_cells 1"), "{text}");
        assert!(text.contains("hoiho_span_self_time_ns{layer=\"server\"}"), "{text}");
        assert!(text.contains("hoiho_span_self_time_ns{layer=\"engine\"}"), "{text}");
        srv.shutdown();
    }

    #[test]
    fn slo_verb_reports_default_objectives() {
        let srv = start(&model("example.com", r"^as(\d+)\.example\.com$"), 1);
        let mut c = Client::connect(srv.local_addr()).unwrap();
        c.query("as1.example.com").unwrap();
        let lines = c.listing("SLO").unwrap();
        assert_eq!(lines.len(), 2, "{lines:?}");
        for l in &lines {
            assert!(l.starts_with("slo\t"), "{l}");
            assert!(l.contains("status=ok"), "{l}");
            assert!(l.contains("burn_10s="), "{l}");
        }
        assert!(lines.iter().any(|l| l.contains("metric=p99_ms")), "{lines:?}");
        assert!(lines.iter().any(|l| l.contains("metric=error_rate")), "{lines:?}");
        srv.shutdown();
    }

    #[test]
    fn pipelined_batch_then_metrics_sees_batch_counted() {
        // Regression: BATCH accounting must complete before the batch
        // response is rendered (the same compute → count → write order
        // as single-line verbs), so a METRICS pipelined in the same
        // segment reports the batch fully — never a half-counted one.
        let srv = start(&model("example.com", r"^as(\d+)\.example\.com$"), 1);
        let mut s = TcpStream::connect(srv.local_addr()).unwrap();
        s.write_all(b"BATCH 2\nas1.example.com\nnothing.example.org\nMETRICS\n").unwrap();
        let mut r = BufReader::new(s);
        let mut header = String::new();
        r.read_line(&mut header).unwrap();
        assert_eq!(header.trim_end(), "ok\tbatch\t2");
        for _ in 0..2 {
            let mut l = String::new();
            r.read_line(&mut l).unwrap();
        }
        let mut text = String::new();
        loop {
            let mut l = String::new();
            r.read_line(&mut l).unwrap();
            if l.trim_end() == "." {
                break;
            }
            text.push_str(&l);
        }
        assert!(
            text.contains("hoiho_requests_total{outcome=\"ok\",verb=\"batch\"} 1"),
            "{text}"
        );
        assert!(
            text.contains("hoiho_requests_total{outcome=\"hit\",verb=\"query\"} 1"),
            "{text}"
        );
        assert!(
            text.contains("hoiho_requests_total{outcome=\"miss\",verb=\"query\"} 1"),
            "{text}"
        );
        // The latency histogram observed exactly the batch by METRICS
        // time (METRICS counts itself afterwards).
        assert!(text.contains("hoiho_request_latency_ns_count 1"), "{text}");
        srv.shutdown();
    }
}
