//! `annotate_batch`: the bulk ITDK-annotation job. A closed loop with one
//! connection and one request in flight sends `BATCH 1024` frames that
//! carry each pass over the hostname universe in a seeded shuffle, to a
//! single-engine server (`ServerHandle::start`, one worker). Every name
//! is cold, so PSL, engine dispatch, regex and BATCH framing do all the
//! work; the cluster router and its cache are not in the path.

use crate::calib;
use crate::catalog::Report;
use crate::layers::{self, Budget};
use crate::serving::{median_of, setup_reps, Conn, Oracle, Served, TableBackend, TimedBackend};
use crate::stats::{median, quantile};
use crate::sys;
use crate::world::{shuffle_into, World};
use crate::Args;
use hoiho_obs::span::TraceCtx;
use hoiho_obs::{Registry, Tracer};
use hoiho_psl::PublicSuffixList;
use hoiho_serve::engine::EngineObs;
use hoiho_serve::{Backend, Engine, EngineBackend, Generation, Model, QueryAnswer, ServerHandle};
use std::hint::black_box;
use std::io::Write;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Hostnames per `BATCH` frame.
pub const FRAME: usize = 1024;
/// Throughput is the median over slices of this length, and the tail
/// latency the median over slices of each slice's `TAIL_Q` quantile: one
/// host stall ruins a slice or two and does not move it; a tail the
/// system itself causes all the time does. A slice holds about 130
/// frames, so its p90 has a dozen samples beyond it.
const SLICE: Duration = Duration::from_millis(250);
const TAIL_Q: f64 = 0.9;
/// Server event loops (the default `hoiho-serve serve` path).
const WORKERS: usize = 1;

/// Frames per second `Closed::with_capacity` makes room for: about four
/// times what one worker answers on the reference host.
const FRAMES_PER_S: f64 = 2048.0;

/// What a closed-loop run measured, at reference-host speed.
#[derive(Debug, Default)]
pub struct Closed {
    pub hosts: u64,
    pub failed: u64,
    pub frame_ns: Vec<f64>,
    pub slice_rates: Vec<f64>,
    /// `TAIL_Q` frame latency of each slice.
    pub slice_tails: Vec<f64>,
    /// CPU the server spent: the process CPU clock less this thread's,
    /// the load generator's.
    pub cpu_ns: f64,
    pub wall_ns: f64,
    /// `wall_ns` as the host's clock read it.
    pub raw_wall_ns: f64,
    /// Hostnames answered within the timed slices.
    pub sliced_hosts: u64,
    /// The load generator's buffers, reused by every frame.
    bufs: Buffers,
    /// One slice's frame latencies, for its tail.
    tail: Vec<f64>,
}

#[derive(Debug, Default)]
struct Buffers {
    order: Vec<u32>,
    req: Vec<u8>,
    line: Vec<u8>,
}

impl Closed {
    /// An empty run with room for `seconds` of samples and with the load
    /// generator's buffers for a `universe`-name universe. Made before
    /// the peak-heap window opens, so what the generator keeps is not
    /// counted as the system's heap.
    pub fn with_capacity(universe: usize, seconds: f64) -> Closed {
        let slices = (seconds / SLICE.as_secs_f64()) as usize + 2;
        Closed {
            frame_ns: Vec::with_capacity((seconds * FRAMES_PER_S) as usize),
            slice_rates: Vec::with_capacity(slices),
            slice_tails: Vec::with_capacity(slices),
            bufs: Buffers {
                order: Vec::with_capacity(universe),
                req: Vec::with_capacity(FRAME * 64),
                line: Vec::with_capacity(256),
            },
            tail: Vec::with_capacity((SLICE.as_secs_f64() * FRAMES_PER_S) as usize),
            ..Closed::default()
        }
    }
}

/// One throughput slice in progress: its start, the process and thread
/// CPU clocks then, and the host-speed factor measured just before it.
/// The mean of that factor and the one measured just after the slice
/// scales everything the slice measures (see `calib`).
struct Slice {
    start: Instant,
    cpu: u64,
    generator_cpu: u64,
    speed: f64,
    hosts: u64,
    /// Index of the slice's first frame in `Closed::frame_ns`.
    first_frame: usize,
}

impl Slice {
    fn begin(out: &Closed, speed: f64) -> Slice {
        Slice {
            start: Instant::now(),
            cpu: sys::process_cpu_ns(),
            generator_cpu: sys::thread_cpu_ns(),
            speed,
            hosts: 0,
            first_frame: out.frame_ns.len(),
        }
    }

    /// Ends the slice, scales its frames, and returns the host-speed
    /// factor measured after it. `counts` says the slice ran long enough
    /// for its rate and tail to count.
    fn end(&self, out: &mut Closed, counts: bool) -> f64 {
        let raw = self.start.elapsed().as_nanos() as f64;
        let generator = sys::thread_cpu_ns() - self.generator_cpu;
        let cpu = (sys::process_cpu_ns() - self.cpu).saturating_sub(generator);
        let after = calib::speed();
        let speed = (self.speed + after) / 2.0;
        let frames = &mut out.frame_ns[self.first_frame..];
        frames.iter_mut().for_each(|f| *f *= speed);
        let wall = raw * speed;
        out.raw_wall_ns += raw;
        if counts {
            out.slice_rates.push(self.hosts as f64 / (wall / 1e9));
            out.tail.clear();
            out.tail.extend_from_slice(frames);
            out.slice_tails.push(quantile(&mut out.tail, TAIL_Q));
        }
        out.wall_ns += wall;
        out.cpu_ns += cpu as f64 * speed;
        out.sliced_hosts += self.hosts;
        after
    }
}

/// Sends frames until `until`, checking every answer line against the
/// oracle byte for byte, and records them into `out` (see
/// `Closed::with_capacity`). `seed` picks the shuffles of successive
/// passes.
pub fn closed_loop(
    conn: &mut Conn,
    universe: &[String],
    oracle: &Oracle,
    seed: u64,
    until: Instant,
    tracer: Option<&Tracer>,
    mut out: Closed,
) -> Closed {
    let Buffers {
        mut order,
        mut req,
        mut line,
    } = std::mem::take(&mut out.bufs);
    let mut slice = Slice::begin(&out, calib::speed());
    'passes: for pass in 0u64.. {
        shuffle_into(&mut order, universe.len(), seed.wrapping_add(pass));
        for chunk in order.chunks(FRAME) {
            if Instant::now() >= until && !out.frame_ns.is_empty() {
                break 'passes;
            }
            if slice.start.elapsed() >= SLICE {
                let speed = slice.end(&mut out, true);
                slice = Slice::begin(&out, speed);
            }
            req.clear();
            let _ = writeln!(req, "BATCH {}", chunk.len());
            for &i in chunk {
                req.extend_from_slice(universe[i as usize].as_bytes());
                req.push(b'\n');
            }
            let _span = tracer.map(|t| t.span("client.batch", &[]));
            let t = Instant::now();
            let ok = conn
                .writer
                .write_all(&req)
                .and_then(|_| conn.read_line(&mut line));
            let header = format!("ok\tbatch\t{}\n", chunk.len());
            out.hosts += chunk.len() as u64;
            if ok.is_err() || line != header.as_bytes() {
                eprintln!(
                    "perfbench: batch frame failed: {ok:?} {:?}",
                    String::from_utf8_lossy(&line)
                );
                out.failed += chunk.len() as u64;
                break 'passes;
            }
            for (k, &i) in chunk.iter().enumerate() {
                if let Err(e) = conn.read_line(&mut line) {
                    eprintln!("perfbench: batch answer failed: {e}");
                    out.failed += (chunk.len() - k) as u64;
                    break 'passes;
                }
                if line != oracle.line(i as usize) {
                    out.failed += 1;
                }
            }
            out.frame_ns.push(t.elapsed().as_nanos() as f64);
            slice.hosts += chunk.len() as u64;
        }
    }
    slice.end(&mut out, slice.start.elapsed() >= SLICE / 2);
    out.bufs = Buffers { order, req, line };
    out
}

/// The wall nanoseconds per hostname a closed-loop run sustained.
fn ns_per_host(c: &Closed) -> f64 {
    c.wall_ns / c.sliced_hosts.max(1) as f64
}

/// The engine oracle: `Engine::extract` rendered as the server renders.
pub fn oracle(world: &World) -> (Engine, Oracle) {
    let engine = Engine::new(&world.model);
    let gen = Generation::new(Arc::new(engine.clone()));
    let oracle = Oracle::build(&world.universe, |h| gen.answer_of(engine.extract(h)));
    (engine, oracle)
}

pub fn run(world: &World, args: &Args) -> Report {
    let mut r = Report::default();
    let (engine, oracle) = oracle(world);
    r.set_quality(&world.pooled_quality(args.scale));

    let samples = Closed::with_capacity(world.universe.len(), args.seconds);
    let first = (world.universe[0].as_str(), oracle.line(0));
    let Served {
        srv,
        mut conn,
        times,
        heap_base,
        ..
    } = setup_reps(
        || {
            let t = Instant::now();
            let model = Model::parse(&world.artifact).expect("the artifact parses");
            let parse = t.elapsed().as_secs_f64();
            let engine = Arc::new(Engine::new(&model));
            let build = t.elapsed().as_secs_f64() - parse;
            let srv = ServerHandle::start("127.0.0.1:0", engine, WORKERS).expect("bind the server");
            (srv, (), parse, build)
        },
        first,
    );
    r.set("setup_s", median_of(&times, |t| t.total()));

    if args.trace {
        traced(world, args, &engine, &oracle, srv, conn, &times, &mut r);
        return r;
    }

    let until = Instant::now() + Duration::from_secs_f64(args.seconds);
    let mut c = closed_loop(
        &mut conn,
        &world.universe,
        &oracle,
        args.seed,
        until,
        None,
        samples,
    );
    r.set("peak_heap_mb", (sys::peak_bytes() - heap_base) as f64 / 1e6);
    drop(conn);
    srv.shutdown();
    r.attempted = c.hosts;
    r.failed = c.failed;
    r.set("cpu_ns_per_op", c.cpu_ns / c.sliced_hosts.max(1) as f64);
    r.set("ops_per_s", median(&mut c.slice_rates));
    let n = c.frame_ns.len();
    r.set("latency_p50_us", median(&mut c.frame_ns) / 1e3);
    r.set("latency_tail_us", median(&mut c.slice_tails) / 1e3);
    r.notes.push(format!(
        "annotate_batch: {} hostnames in {n} BATCH {FRAME} frames over a {}-name universe, {} slices",
        c.hosts,
        world.universe.len(),
        c.slice_rates.len()
    ));
    r
}

#[allow(clippy::too_many_arguments)]
fn traced(
    world: &World,
    args: &Args,
    engine: &Engine,
    oracle: &Oracle,
    srv: ServerHandle,
    mut conn: Conn,
    times: &[crate::serving::SetupTimes],
    r: &mut Report,
) {
    let budget = Budget::new(args.seconds);
    r.set("model.parse_ms", median_of(times, |t| t.parse) * 1e3);
    r.set("engine.build_ms", median_of(times, |t| t.build) * 1e3);
    r.set("server.start_ms", median_of(times, |t| t.start) * 1e3);

    // Untraced end to end on the set-up server.
    let plain = closed_loop(
        &mut conn,
        &world.universe,
        oracle,
        args.seed,
        budget.slice(0.2),
        None,
        Closed::with_capacity(world.universe.len(), args.seconds),
    );
    drop(conn);
    srv.shutdown();

    // The same loop through the timing shim around a real EngineBackend,
    // then around a table of its answers: the server's framing, the
    // loopback and the client on their own.
    let tracer = Arc::new(Tracer::new());
    let timed_loop = |inner: Arc<dyn Backend>, seed: u64, until: Instant| {
        let backend = Arc::new(TimedBackend::new(inner, Arc::clone(&tracer), 1));
        let srv = ServerHandle::start_with_backend("127.0.0.1:0", backend.clone(), WORKERS)
            .expect("bind");
        let mut conn = Conn::connect(srv.local_addr()).expect("connect");
        let c = closed_loop(
            &mut conn,
            &world.universe,
            oracle,
            seed,
            until,
            Some(&tracer),
            Closed::with_capacity(world.universe.len(), args.seconds),
        );
        drop(conn);
        srv.shutdown();
        // Backend time per hostname, at reference-host speed.
        let backend_ns = backend.ns_per_item() * c.wall_ns / c.raw_wall_ns;
        (c, backend_ns)
    };
    let (timed, backend_ns) = timed_loop(
        Arc::new(EngineBackend::new(Arc::new(Engine::new(&world.model)))),
        args.seed ^ 1,
        budget.slice(0.45),
    );
    let gen = Generation::new(Arc::new(engine.clone()));
    let (framed, table_ns) = timed_loop(
        Arc::new(TableBackend::build(&world.universe, |h| {
            gen.answer_of(engine.extract(h))
        })),
        args.seed ^ 2,
        budget.slice(0.6),
    );
    r.attempted = plain.hosts + timed.hosts + framed.hosts;
    r.failed = plain.failed + timed.failed + framed.failed;
    let e2e = ns_per_host(&timed);
    r.set("server.backend_ns_per_op", backend_ns);
    r.set("server.self_ns_per_op", e2e - backend_ns);
    r.set(
        "trace.overhead_pct",
        100.0 * (e2e - ns_per_host(&plain)) / ns_per_host(&plain),
    );
    let framing = ns_per_host(&framed) - table_ns;

    // The real backend called in-process, a frame at a time.
    let single = EngineBackend::new(Arc::new(engine.clone()));
    let frames: Vec<Vec<&str>> = world
        .universe
        .chunks(FRAME)
        .map(|c| c.iter().map(String::as_str).collect())
        .collect();
    let (frame_ns, _) = layers::per_item(&frames, budget.slice(0.7), |f| {
        black_box(single.query_batch(black_box(f), &TraceCtx::off()));
    });
    let backend_call = frame_ns * frames.len() as f64 / world.universe.len() as f64;

    let l = engine_layers(engine, &world.universe, &budget, 1.0, r);
    let render = l.render_ns;
    let regex = l.regex_ns * l.dispatched;
    layers::reconcile(
        r,
        "annotate_batch",
        "hostname",
        e2e,
        &[
            ("server framing+client", framing - render),
            ("render", render),
            ("psl", l.psl_ns),
            ("regex", regex),
            ("engine self", l.extract_ns - l.psl_ns - regex),
            ("answer building", backend_call - l.extract_ns),
        ],
    );
    layers::write_spans(r, &tracer, "annotate_batch", args.seed);
}

/// Engine-side layer timings over a host list, per lookup.
pub struct EngineLayers {
    pub psl_ns: f64,
    pub extract_ns: f64,
    pub regex_ns: f64,
    /// Fraction of lookups dispatched to a convention.
    pub dispatched: f64,
    pub render_ns: f64,
}

/// Times the PSL, the engine, the convention regexes and answer
/// rendering over `hosts`, each on its own, using `frac` of what remains
/// of the budget, and records their per-layer metrics.
pub fn engine_layers(
    engine: &Engine,
    hosts: &[String],
    budget: &Budget,
    frac: f64,
    r: &mut Report,
) -> EngineLayers {
    let now = Instant::now();
    let end = budget.slice(frac).max(now);
    let step = (end - now) / 4;
    let lower: Vec<String> = hosts.iter().map(|h| h.to_ascii_lowercase()).collect();

    let psl = PublicSuffixList::builtin();
    let (psl_ns, psl_allocs) = layers::per_item(&lower, now + step, |h| {
        black_box(psl.registrable_domain(black_box(h)));
    });
    r.set("psl.registrable_domain_ns", psl_ns);
    r.set("psl.allocs_per_call", psl_allocs);

    let (extract_ns, extract_allocs) = layers::per_item(hosts, now + step * 2, |h| {
        black_box(engine.extract(black_box(h)));
    });
    r.set("engine.extract_ns", extract_ns);
    r.set("engine.allocs_per_lookup", extract_allocs);

    // Dispatch outcomes, from a benchmark-owned engine with counters.
    let registry = Registry::new();
    let mut counted = engine.clone();
    counted.attach_obs(EngineObs::register(&registry));
    let mut asn = 0usize;
    let mut dispatched: Vec<(usize, &str)> = Vec::new();
    for h in &lower {
        let x = counted.extract(h);
        asn += usize::from(x.asn.is_some());
        if let Some(i) = x.nc {
            dispatched.push((i, h));
        }
    }
    let pct = |d: &str| {
        100.0
            * registry
                .counter("hoiho_engine_extractions_total", &[("dispatch", d)])
                .get() as f64
            / hosts.len() as f64
    };
    r.set("engine.dispatch_exact_pct", pct("exact"));
    r.set("engine.dispatch_fallback_pct", pct("fallback"));
    r.set("engine.dispatch_miss_pct", pct("miss"));
    r.set("engine.asn_pct", 100.0 * asn as f64 / hosts.len() as f64);

    let ncs = engine.conventions();
    let regex_ns = if dispatched.is_empty() {
        0.0
    } else {
        layers::per_item(&dispatched, now + step * 3, |&(i, h)| {
            black_box(ncs[i].extract_lower(black_box(h)));
        })
        .0
    };
    r.set("regex.extract_ns", regex_ns);

    let gen = Generation::new(Arc::new(engine.clone()));
    let answers: Vec<(QueryAnswer, &str)> = hosts
        .iter()
        .map(|h| (gen.answer_of(engine.extract(h)), h.as_str()))
        .collect();
    let mut buf = Vec::with_capacity(FRAME * 64);
    let (render_ns, _) = layers::per_item(&answers, end, |(a, h)| {
        if buf.len() > FRAME * 48 {
            buf.clear();
        }
        a.render_line_into(h, &mut buf);
        black_box(&buf);
    });
    r.set("render.line_ns", render_ns);
    EngineLayers {
        psl_ns,
        extract_ns,
        regex_ns,
        dispatched: dispatched.len() as f64 / hosts.len() as f64,
        render_ns,
    }
}
