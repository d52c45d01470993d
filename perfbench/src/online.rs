//! `online_zipf`: independent resolvers querying a cached service. An
//! open loop sends per-line `QUERY` requests, pipelined on one
//! connection, at seeded Poisson arrival times; each latency is timed
//! from when the request was due. Keys are Zipf(1.1) over a seeded
//! permutation of the universe. The server is a 2-shard `ShardRouter`
//! with a 4096-entry cache and one worker, behind `ClusterBackend`, and a
//! second, admin connection sends `RELOAD SHARD k` of the unchanged
//! shard artifact about every 2 s, alternating k.
//!
//! Latency is measured at a fixed nominal 50K queries/s, well below
//! capacity. `ops_per_s` is that capacity: per-line queries driven flat
//! out, 256 in flight on the same connection, with no reloads. What a
//! reload costs the queries behind it is the traced run's
//! `router.reload_tail_us`.

use crate::batch::engine_layers;
use crate::calib;
use crate::catalog::Report;
use crate::layers::{self, Budget};
use crate::serving::{median_of, setup_reps, Conn, Oracle, Served, TableBackend, TimedBackend};
use crate::stats::{median, quantile, tail_q};
use crate::sys;
use crate::world::{poisson_schedule, zipf_stream, World};
use crate::Args;
use hoiho_cluster::plan::split;
use hoiho_cluster::{CacheStats, ClusterBackend, ShardRouter};
use hoiho_obs::Tracer;
use hoiho_serve::{Backend, Engine, Model, ServerHandle};
use std::hint::black_box;
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::os::unix::io::AsRawFd;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

const SHARDS: u32 = 2;
const CACHE_CAPACITY: usize = 4096;
const WORKERS: usize = 1;
/// The fixed rate latency is reported at, queries per second.
const NOMINAL_QPS: f64 = 50_000.0;
/// The fixed-rate load runs in phases this long, each bracketed by its
/// own loopback calibration; every other phase carries one shard
/// reload at its middle, so reloads come about every 2 s.
const PHASE: Duration = Duration::from_secs(1);
/// Queries in flight during the capacity phase, and the slices its
/// throughput is taken over.
const PIPELINE: usize = 256;
const SLICE: Duration = Duration::from_millis(500);
/// Windows `latency_tail_us` takes its typical tail over, and the
/// quantile it is: p90, because on a shared two-core host, scheduling
/// hiccups swing a p99 by ±50% from run to run.
const TAIL_WINDOW: Duration = Duration::from_millis(500);
const TAIL_Q: f64 = 0.9;
/// A reload's latency tail (`router.reload_tail_us`) is the `RELOAD_Q`
/// quantile of the queries due in the first `RELOAD_WINDOW` after its
/// `RELOAD` line was written, about 500 at the nominal rate. A reload
/// holds up the server's only worker for a few milliseconds, so the
/// queries queued behind it make up this tail. At the nominal rate they
/// are about 0.2% of the queries between two reloads, too few to move
/// any whole-run or per-window quantile the end-to-end metrics take.
const RELOAD_WINDOW: Duration = Duration::from_millis(10);
const RELOAD_Q: f64 = 0.99;
/// Share of the run spent at the nominal rate; capacity gets the rest.
const FIXED_RATE_SHARE: f64 = 0.6;
/// Keys drawn per run; streams longer than this wrap around.
const STREAM_LEN: usize = 1 << 20;

/// What the fixed-rate load measured, phase after phase.
#[derive(Debug, Default)]
struct Open {
    sent: u64,
    failed: u64,
    /// Per answered request, in order: arrival of its answer minus its
    /// due time.
    latency_ns: Vec<f64>,
    /// Per sent request, in order: when it was written minus its due
    /// time.
    late_ns: Vec<f64>,
    backlog_max: u64,
    reloads: u64,
    reload_failures: u64,
    /// Server CPU nanoseconds per request of each phase: the process
    /// CPU clock less the load generator thread's own.
    cpu_ns_per_op: Vec<f64>,
    /// Loopback-speed factor over the run (`calib::net_speed`);
    /// `latency_ns`, `late_ns` and `cpu_ns_per_op` are already scaled by
    /// it.
    speed: f64,
    /// `RELOAD_Q` latency of the queries due in each reload's window.
    reload_tail: Vec<f64>,
    /// The load generator's buffers, reused by every phase.
    bufs: Buffers,
}

#[derive(Debug, Default)]
struct Buffers {
    outgoing: Vec<u8>,
    read: Vec<u8>,
    partial: Vec<u8>,
    admin: Vec<u8>,
    window: Vec<f64>,
}

impl Open {
    /// An empty run with room for `count` requests' samples and with the
    /// load generator's buffers. Made before the peak-heap window opens,
    /// so what the generator keeps is not counted as the system's heap.
    fn with_capacity(count: usize) -> Open {
        Open {
            latency_ns: Vec::with_capacity(count),
            late_ns: Vec::with_capacity(count),
            cpu_ns_per_op: Vec::with_capacity(256),
            reload_tail: Vec::with_capacity(256),
            bufs: Buffers {
                outgoing: Vec::with_capacity(1 << 16),
                read: vec![0; 1 << 16],
                partial: Vec::with_capacity(256),
                admin: Vec::with_capacity(512),
                window: Vec::with_capacity(4096),
            },
            ..Open::default()
        }
    }

    /// Round trips from when each request was actually written.
    fn rtt_ns(&self) -> Vec<f64> {
        self.latency_ns
            .iter()
            .zip(&self.late_ns)
            .map(|(l, w)| l - w)
            .collect()
    }

    fn mean_rtt_ns(&self) -> f64 {
        self.rtt_ns().iter().sum::<f64>() / self.latency_ns.len().max(1) as f64
    }

    /// Tail latency of a typical stretch of the run: the median over
    /// `TAIL_WINDOW`-long windows of each window's `TAIL_Q` quantile.
    /// One host stall ruins a window or two and does not move it; a
    /// tail the system itself causes all the time does.
    fn typical_tail_ns(&self) -> f64 {
        let per = (TAIL_WINDOW.as_secs_f64() * NOMINAL_QPS) as usize;
        let mut tails: Vec<f64> = self
            .latency_ns
            .chunks(per)
            .map(|w| quantile(&mut w.to_vec(), TAIL_Q))
            .collect();
        median(&mut tails)
    }

    fn merge_into(&self, r: &mut Report) {
        r.attempted += self.sent + self.reloads;
        r.failed += self.failed + self.reload_failures;
    }
}

/// The admin side of a run: where to send reloads, and the two
/// `RELOAD SHARD k <path>` lines to alternate.
struct Admin {
    addr: SocketAddr,
    lines: Vec<String>,
    /// Reloads sent so far, which picks the next line.
    sent: std::cell::Cell<usize>,
}

/// Runs one phase of the open loop on `conn` from this one thread and
/// appends what it measured to `out`: it sleeps in `ppoll` until the
/// next request is due or an answer arrives, writes every due request,
/// and reads and checks every available answer against `oracle`.
/// `keys[k]` is due at `due[k] - base` ns from the phase's start. With
/// `admin`, one reload is sent halfway through. One thread keeps the
/// generator off the server's core on a two-core host.
#[allow(clippy::too_many_arguments)]
fn open_loop(
    conn: &mut Conn,
    admin: Option<&Admin>,
    universe: &[String],
    oracle: &Oracle,
    keys: &[u32],
    due: &[u64],
    base: u64,
    out: &mut Open,
) {
    let count = keys.len();
    assert_eq!(due.len(), count, "one due time per key");
    let due_at = |k: usize| due[k] - base;
    let mut admin_conn = admin.map(|a| {
        let s = TcpStream::connect(a.addr).expect("connect the admin connection");
        s.set_nonblocking(true).expect("nonblocking admin socket");
        s
    });
    let sock = &mut conn.writer;
    sock.set_nonblocking(true)
        .expect("nonblocking query socket");
    let fd = sock.as_raw_fd();
    let mut bufs = std::mem::take(&mut out.bufs);
    let (first_latency, first_late) = (out.latency_ns.len(), out.late_ns.len());
    let sent0 = out.sent;
    sys::tight_timer_slack();
    let speed0 = calib::net_speed();
    let (cpu0, gen0) = (sys::process_cpu_ns(), sys::thread_cpu_ns());
    let (mut i, mut j) = (0usize, 0usize);
    let mut pending = false;
    // Index of the first request due after the reload was written.
    let mut reload_from = None;
    let start = Instant::now();
    let reload_at = due_at(count / 2);
    let mut last_progress = start;
    'run: while j < count {
        let now = Instant::now();
        let now_ns = (now - start).as_nanos() as u64;
        while i < count && due_at(i) <= now_ns {
            bufs.outgoing
                .extend_from_slice(universe[keys[i] as usize].as_bytes());
            bufs.outgoing.push(b'\n');
            out.late_ns.push((now_ns - due_at(i)) as f64);
            i += 1;
        }
        while !bufs.outgoing.is_empty() {
            match sock.write(&bufs.outgoing) {
                Ok(n) => drop(bufs.outgoing.drain(..n)),
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(e) => {
                    eprintln!("perfbench: sending queries failed: {e}");
                    break 'run;
                }
            }
        }
        out.backlog_max = out.backlog_max.max((i - j) as u64);
        out.sent = sent0 + i as u64;
        loop {
            match sock.read(&mut bufs.read) {
                Ok(0) => {
                    eprintln!("perfbench: the server closed the query connection");
                    break 'run;
                }
                Ok(n) => {
                    let at = start.elapsed().as_nanos() as f64;
                    last_progress = Instant::now();
                    for &b in &bufs.read[..n] {
                        bufs.partial.push(b);
                        if b == b'\n' {
                            if j >= count || bufs.partial != oracle.line(keys[j] as usize) {
                                out.failed += 1;
                            }
                            if j < count {
                                out.latency_ns.push(at - due_at(j) as f64);
                            }
                            j += 1;
                            bufs.partial.clear();
                        }
                    }
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(e) => {
                    eprintln!("perfbench: reading answers failed: {e}");
                    break 'run;
                }
            }
        }
        if let (Some(a), Some(s)) = (admin, admin_conn.as_mut()) {
            if pending {
                if let Some(ok) = admin_answered(s, &mut bufs.admin) {
                    pending = false;
                    out.reload_failures += u64::from(!ok);
                }
            } else if reload_from.is_none() && now_ns >= reload_at {
                let k = a.sent.replace(a.sent.get() + 1);
                if s.write_all(a.lines[k % a.lines.len()].as_bytes()).is_err() {
                    out.reload_failures += 1;
                }
                out.reloads += 1;
                reload_from = Some(i);
                pending = true;
            }
        }
        if last_progress.elapsed() > crate::serving::READ_TIMEOUT {
            eprintln!(
                "perfbench: no answer for {:?}",
                crate::serving::READ_TIMEOUT
            );
            break;
        }
        let wait = if i < count {
            Duration::from_nanos(due_at(i)).saturating_sub(start.elapsed())
        } else {
            Duration::from_millis(1)
        };
        if !wait.is_zero() && bufs.outgoing.is_empty() {
            sys::wait_readable(fd, wait);
        }
    }
    if pending {
        if let Some(s) = admin_conn.as_mut() {
            let _ = s.set_nonblocking(false);
            let _ = s.set_read_timeout(Some(crate::serving::READ_TIMEOUT));
            if admin_answered(s, &mut bufs.admin) != Some(true) {
                out.reload_failures += 1;
            }
        }
    }
    sock.set_nonblocking(false).expect("blocking query socket");
    let generator = sys::thread_cpu_ns() - gen0;
    let cpu = (sys::process_cpu_ns() - cpu0).saturating_sub(generator);
    let speed = (speed0 + calib::net_speed()) / 2.0;
    out.cpu_ns_per_op
        .push(cpu as f64 * speed / (out.sent - sent0).max(1) as f64);
    out.failed += (count - j.min(count)) as u64;
    out.speed = (out.speed * first_late as f64 + speed * i as f64) / (first_late + i).max(1) as f64;
    for l in out.latency_ns[first_latency..]
        .iter_mut()
        .chain(out.late_ns[first_late..].iter_mut())
    {
        *l *= speed;
    }
    if let Some(k0) = reload_from.filter(|&k| k < count) {
        let window = RELOAD_WINDOW.as_nanos() as u64;
        let k1 = due.partition_point(|&d| d - base <= due_at(k0) + window);
        let answered = &out.latency_ns[first_latency..];
        bufs.window.clear();
        bufs.window
            .extend_from_slice(&answered[k0.min(answered.len())..k1.min(answered.len())]);
        if !bufs.window.is_empty() {
            out.reload_tail.push(quantile(&mut bufs.window, RELOAD_Q));
        }
    }
    out.bufs = bufs;
}

/// The fixed-rate load: `keys[k]` due at `due[k]` ns, in `PHASE`-long
/// phases so each is scaled by a calibration taken right around it.
/// With `admin`, every other phase carries a reload. Appends to `out`.
#[allow(clippy::too_many_arguments)]
fn fixed_rate(
    conn: &mut Conn,
    admin: Option<&Admin>,
    universe: &[String],
    oracle: &Oracle,
    keys: &[u32],
    due: &[u64],
    out: &mut Open,
) {
    let per = (PHASE.as_secs_f64() * NOMINAL_QPS) as usize;
    for (k, part) in keys.chunks(per).enumerate() {
        let from = k * per;
        let base = if from == 0 { 0 } else { due[from - 1] };
        open_loop(
            conn,
            admin.filter(|_| k % 2 == 0),
            universe,
            oracle,
            part,
            &due[from..from + part.len()],
            base,
            out,
        );
    }
}

/// Polls the admin connection: `None` until a whole response line has
/// arrived, then whether it reads `ok\treloaded...`.
fn admin_answered(s: &mut TcpStream, buf: &mut Vec<u8>) -> Option<bool> {
    let mut chunk = [0u8; 512];
    while !buf.contains(&b'\n') {
        match s.read(&mut chunk) {
            Ok(0) => return Some(false),
            Ok(n) => buf.extend_from_slice(&chunk[..n]),
            Err(e) if e.kind() == ErrorKind::WouldBlock => return None,
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(_) => return Some(false),
        }
    }
    let end = buf
        .iter()
        .position(|&b| b == b'\n')
        .expect("loop ends on a newline");
    let ok = buf.starts_with(b"ok\treloaded\tshard=");
    if !ok {
        eprintln!(
            "perfbench: reload failed: {}",
            String::from_utf8_lossy(&buf[..end])
        );
    }
    buf.drain(..=end);
    Some(ok)
}

/// What the capacity phase measured, at reference-host speed.
struct Capacity {
    /// Answers per second in each `SLICE`.
    slice_rates: Vec<f64>,
    answered: u64,
    failed: u64,
}

/// Drives per-line queries flat out with `PIPELINE` of them in flight on
/// one connection until `until`: each read of answers is checked and
/// immediately replaced by as many new queries, in one write. Throughput
/// is taken per `SLICE`, each scaled by the mean of loopback
/// calibrations taken just before and just after it.
fn saturate(
    conn: &mut Conn,
    universe: &[String],
    oracle: &Oracle,
    stream: &[u32],
    offset: usize,
    until: Instant,
) -> Capacity {
    let mut out = Capacity {
        slice_rates: Vec::new(),
        answered: 0,
        failed: 0,
    };
    let key = |n: usize| stream[(offset + n) % stream.len()] as usize;
    let mut req = Vec::with_capacity(PIPELINE * 48);
    let (mut sent, mut got) = (0usize, 0usize);
    let push = |req: &mut Vec<u8>, sent: &mut usize, n: usize| {
        for _ in 0..n {
            req.extend_from_slice(universe[key(*sent)].as_bytes());
            req.push(b'\n');
            *sent += 1;
        }
    };
    push(&mut req, &mut sent, PIPELINE);
    let mut line = Vec::with_capacity(256);
    loop {
        let before = calib::net_speed();
        let (start, at) = (Instant::now(), got);
        while start.elapsed() < SLICE {
            if let Err(e) = conn.writer.write_all(&req) {
                eprintln!("perfbench: sending queries failed: {e}");
                out.failed += (sent - got) as u64;
                return out;
            }
            req.clear();
            // Read every answer already buffered (at least one), then
            // refill the pipeline by that many.
            let before = got;
            loop {
                if let Err(e) = conn.read_line(&mut line) {
                    eprintln!("perfbench: reading answers failed: {e}");
                    out.failed += (sent - got) as u64;
                    return out;
                }
                if line != oracle.line(key(got)) {
                    out.failed += 1;
                }
                got += 1;
                if conn.reader.buffer().is_empty() || got == sent {
                    break;
                }
            }
            push(&mut req, &mut sent, got - before);
        }
        let elapsed = start.elapsed().as_secs_f64();
        let speed = (before + calib::net_speed()) / 2.0;
        out.slice_rates.push((got - at) as f64 / (elapsed * speed));
        if Instant::now() >= until {
            break;
        }
    }
    // Send what was queued, then drain what is in flight, so the
    // connection ends clean.
    if conn.writer.write_all(&req).is_err() {
        out.failed += (sent - got) as u64;
        return out;
    }
    while got < sent {
        if conn.read_line(&mut line).is_err() || line != oracle.line(key(got)) {
            out.failed += 1;
        }
        got += 1;
    }
    out.answered = got as u64;
    out
}

/// Input generation for the online workload: the request stream, the
/// router oracle, and the shard artifacts the admin connection reloads.
struct Inputs {
    stream: Vec<u32>,
    oracle: Oracle,
    router: ShardRouter,
    shard_models: Vec<Model>,
    dir: PathBuf,
    admin_lines: Vec<String>,
}

fn inputs(world: &World, seed: u64) -> Inputs {
    let router = ShardRouter::from_model(&world.model, SHARDS, CACHE_CAPACITY).expect("router");
    let oracle = Oracle::build(&world.universe, |h| router.lookup_uncached(h));
    let (shard_models, _) = split(&world.model, SHARDS).expect("split the model");
    let dir = layers::out_dir().join(format!("shards-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create the shard artifact directory");
    let admin_lines = shard_models
        .iter()
        .enumerate()
        .map(|(k, m)| {
            let path = dir.join(format!("shard-{k}.hoiho"));
            m.save(&path).expect("write a shard artifact");
            format!("RELOAD SHARD {k} {}\n", path.display())
        })
        .collect();
    let stream = zipf_stream(world.universe.len(), seed, STREAM_LEN);
    Inputs {
        stream,
        oracle,
        router,
        shard_models,
        dir,
        admin_lines,
    }
}

fn cache_delta(a: CacheStats, b: CacheStats) -> CacheStats {
    CacheStats {
        hits: b.hits - a.hits,
        misses: b.misses - a.misses,
        inserts: b.inserts - a.inserts,
        evictions: b.evictions - a.evictions,
        invalidations: b.invalidations - a.invalidations,
    }
}

/// Starts a cluster server over `backend`.
fn start(backend: Arc<dyn hoiho_serve::Backend>) -> ServerHandle {
    ServerHandle::start_with_backend("127.0.0.1:0", backend, WORKERS).expect("bind the server")
}

pub fn run(world: &World, args: &Args) -> Report {
    let mut r = Report::default();
    let inp = inputs(world, args.seed);
    r.set_quality(&world.pooled_quality(args.scale));

    let count = ((NOMINAL_QPS * args.seconds * FIXED_RATE_SHARE) as usize).min(STREAM_LEN);
    let due = poisson_schedule(NOMINAL_QPS, count, args.seed);
    let mut o = Open::with_capacity(count);
    let k0 = inp.stream[0] as usize;
    let first = (world.universe[k0].as_str(), inp.oracle.line(k0));
    let Served {
        srv,
        extra: router,
        mut conn,
        times,
        heap_base,
    } = setup_reps(
        || {
            let t = Instant::now();
            let model = Model::parse(&world.artifact).expect("the artifact parses");
            let parse = t.elapsed().as_secs_f64();
            let router = Arc::new(
                ShardRouter::from_model(&model, SHARDS, CACHE_CAPACITY).expect("build the router"),
            );
            let build = t.elapsed().as_secs_f64() - parse;
            let srv = start(Arc::new(ClusterBackend::new(Arc::clone(&router))));
            (srv, router, parse, build)
        },
        first,
    );
    r.set("setup_s", median_of(&times, |t| t.total()));
    let admin = Admin {
        addr: srv.local_addr(),
        lines: inp.admin_lines.clone(),
        sent: Default::default(),
    };

    let budget = Budget::new(args.seconds);
    if args.trace {
        traced(
            world, args, &inp, srv, router, conn, &admin, &times, &budget, &mut r,
        );
    } else {
        fixed_rate(
            &mut conn,
            Some(&admin),
            &world.universe,
            &inp.oracle,
            &inp.stream[..count],
            &due,
            &mut o,
        );
        o.merge_into(&mut r);
        r.set("cpu_ns_per_op", median(&mut o.cpu_ns_per_op));
        r.set("peak_heap_mb", (sys::peak_bytes() - heap_base) as f64 / 1e6);
        r.set("latency_tail_us", o.typical_tail_ns() / 1e3);
        r.set("latency_p50_us", median(&mut o.latency_ns) / 1e3);

        let mut cap = saturate(
            &mut conn,
            &world.universe,
            &inp.oracle,
            &inp.stream,
            count,
            budget.slice(1.0),
        );
        r.attempted += cap.answered;
        r.failed += cap.failed;
        r.set("ops_per_s", median(&mut cap.slice_rates));
        r.notes.push(format!(
            "online_zipf: {} queries at {NOMINAL_QPS} qps with {} reloads, then {} pipelined queries ({PIPELINE} in flight) over {} slices",
            o.sent,
            o.reloads,
            cap.answered,
            cap.slice_rates.len()
        ));
        drop(conn);
        srv.shutdown();
    }
    let _ = std::fs::remove_dir_all(&inp.dir);
    r
}

/// One fixed-rate run on a fresh server over `backend`, with reloads
/// when `reloads` is set.
#[allow(clippy::too_many_arguments)]
fn fresh_run(
    backend: Arc<dyn Backend>,
    reloads: bool,
    admin_lines: &[String],
    world: &World,
    oracle: &Oracle,
    keys: &[u32],
    seed: u64,
) -> Open {
    let srv = start(backend);
    let mut conn = Conn::connect(srv.local_addr()).expect("connect");
    let admin = Admin {
        addr: srv.local_addr(),
        lines: admin_lines.to_vec(),
        sent: Default::default(),
    };
    let mut o = Open::with_capacity(keys.len());
    fixed_rate(
        &mut conn,
        reloads.then_some(&admin),
        &world.universe,
        oracle,
        keys,
        &poisson_schedule(NOMINAL_QPS, keys.len(), seed),
        &mut o,
    );
    drop(conn);
    srv.shutdown();
    o
}

#[allow(clippy::too_many_arguments)]
fn traced(
    world: &World,
    args: &Args,
    inp: &Inputs,
    srv: ServerHandle,
    router: Arc<ShardRouter>,
    mut conn: Conn,
    admin: &Admin,
    times: &[crate::serving::SetupTimes],
    budget: &Budget,
    r: &mut Report,
) {
    r.set("model.parse_ms", median_of(times, |t| t.parse) * 1e3);
    r.set("engine.build_ms", median_of(times, |t| t.build) * 1e3);
    r.set("server.start_ms", median_of(times, |t| t.start) * 1e3);
    let count = ((NOMINAL_QPS * args.seconds * 0.25) as usize).min(STREAM_LEN / 3);
    let keys = |k: usize| &inp.stream[k * count..(k + 1) * count];

    // Untraced at the nominal rate: the loadgen and cache rows.
    let before = router.cache_stats();
    let mut plain = Open::with_capacity(count);
    fixed_rate(
        &mut conn,
        Some(admin),
        &world.universe,
        &inp.oracle,
        keys(0),
        &poisson_schedule(NOMINAL_QPS, count, args.seed),
        &mut plain,
    );
    let c = cache_delta(before, router.cache_stats());
    plain.merge_into(r);
    drop(conn);
    srv.shutdown();
    let lookups = (c.hits + c.misses).max(1) as f64;
    let hit = c.hits as f64 / lookups;
    r.set("cache.hit_pct", 100.0 * hit);
    r.set(
        "cache.evictions_per_kop",
        1e3 * c.evictions as f64 / lookups,
    );
    r.set(
        "cache.stale_per_reload",
        c.invalidations as f64 / plain.reloads.max(1) as f64,
    );
    let n = plain.late_ns.len();
    r.set(
        "loadgen.late_p99_us",
        quantile(&mut plain.late_ns.clone(), tail_q(n)) / 1e3,
    );
    r.set("loadgen.backlog_max", plain.backlog_max as f64);
    r.check(plain.reload_tail.len() as u64 == plain.reloads, || {
        format!(
            "{} reload windows for {} reloads",
            plain.reload_tail.len(),
            plain.reloads
        )
    });
    r.set(
        "router.reload_tail_us",
        median(&mut plain.reload_tail.clone()) / 1e3,
    );

    // The same load through the timing shim, on a fresh server.
    let tracer = Arc::new(Tracer::new());
    let router2 =
        Arc::new(ShardRouter::from_model(&world.model, SHARDS, CACHE_CAPACITY).expect("router"));
    let backend = Arc::new(TimedBackend::new(
        Arc::new(ClusterBackend::new(router2)),
        Arc::clone(&tracer),
        64,
    ));
    let timed = fresh_run(
        backend.clone(),
        true,
        &admin.lines,
        world,
        &inp.oracle,
        keys(1),
        args.seed ^ 1,
    );
    timed.merge_into(r);
    let e2e = timed.mean_rtt_ns();
    let backend_ns = backend.ns_per_item() * timed.speed;
    r.set("server.backend_ns_per_op", backend_ns);
    r.set("server.self_ns_per_op", e2e - backend_ns);
    // Medians: one reload stall moves a mean round trip more than the
    // timing shim does.
    let (traced_rtt, plain_rtt) = (median(&mut timed.rtt_ns()), median(&mut plain.rtt_ns()));
    r.set(
        "trace.overhead_pct",
        100.0 * (traced_rtt - plain_rtt) / plain_rtt,
    );

    // The same load once more against a table of the router's answers:
    // the server, the loopback and the client on their own.
    let table = Arc::new(TimedBackend::new(
        Arc::new(TableBackend::build(&world.universe, |h| {
            inp.router.lookup_uncached(h)
        })),
        Arc::clone(&tracer),
        64,
    ));
    let framed = fresh_run(
        table.clone(),
        false,
        &admin.lines,
        world,
        &inp.oracle,
        keys(2),
        args.seed ^ 2,
    );
    framed.merge_into(r);
    let framing_ns = framed.mean_rtt_ns() - table.ns_per_item() * framed.speed;

    // Layer functions over the workload's own keys.
    let sample: Vec<String> = keys(0)[..count.min(50_000)]
        .iter()
        .map(|&k| world.universe[k as usize].clone())
        .collect();
    let lower: Vec<String> = sample.iter().map(|h| h.to_ascii_lowercase()).collect();
    let now = Instant::now();
    let step = (budget.slice(1.0).max(now) - now) / 8;
    let (uncached_ns, _) = layers::per_item(&sample, now + step, |h| {
        black_box(inp.router.lookup_uncached(black_box(h)));
    });
    r.set("router.lookup_uncached_ns", uncached_ns);
    let warm = ShardRouter::from_model(&world.model, SHARDS, CACHE_CAPACITY).expect("router");
    for h in &sample {
        warm.lookup(h);
    }
    let (probe_ns, _) = layers::per_item(&lower, now + step * 2, |h| {
        black_box(warm.cache().get(black_box(h)));
    });
    r.set("cache.probe_ns", probe_ns);
    let mut reload_ms = Vec::new();
    for i in 0..5 {
        let k = i % SHARDS;
        let t = Instant::now();
        warm.reload_shard(k, &inp.shard_models[k as usize])
            .expect("reload an unchanged shard");
        reload_ms.push(t.elapsed().as_secs_f64() * 1e3);
    }
    let reload_ms = median(&mut reload_ms);
    r.set("router.reload_ms", reload_ms);
    let engine = Engine::new(&world.model);
    engine_layers(&engine, &sample, budget, 1.0, r);

    let reload_ns_per_query = reload_ms * 1e6 * timed.reloads as f64 / timed.sent.max(1) as f64;
    layers::reconcile(
        r,
        "online_zipf",
        "query",
        e2e,
        &[
            ("server+loopback+client", framing_ns),
            ("cache probe", probe_ns),
            ("router+engine on miss", (1.0 - hit) * uncached_ns),
            ("reload, amortised", reload_ns_per_query),
        ],
    );
    layers::write_spans(r, &tracer, "online_zipf", args.seed);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::world::Scale;
    use hoiho_obs::span::TraceCtx;
    use hoiho_serve::{EngineBackend, QueryAnswer};
    use std::sync::atomic::{AtomicU64, Ordering};

    const RATE: f64 = 5_000.0;
    const QUERIES: usize = 2_500;
    const STALL: Duration = Duration::from_millis(200);
    /// The query the server stalls on, due about 0.1 s into the run.
    const STALL_AT: u64 = 500;

    /// The engine backend, except that the query with index `at` sleeps
    /// for `stall` first, holding up the server's only worker.
    struct Stalling {
        inner: EngineBackend,
        at: u64,
        stall: Duration,
        calls: AtomicU64,
    }

    impl Backend for Stalling {
        fn query(&self, hostname: &str, ctx: &TraceCtx) -> QueryAnswer {
            if self.calls.fetch_add(1, Ordering::Relaxed) == self.at {
                std::thread::sleep(self.stall);
            }
            self.inner.query(hostname, ctx)
        }

        fn model_len(&self) -> usize {
            self.inner.model_len()
        }

        fn per_suffix(&self) -> Vec<(String, u64)> {
            self.inner.per_suffix()
        }

        fn reload(&self, args: &str) -> Result<String, String> {
            self.inner.reload(args)
        }
    }

    fn open_run(world: &World, oracle: &Oracle, stall: Duration) -> Open {
        let inner = EngineBackend::new(Arc::new(Engine::new(&world.model)));
        let srv = start(Arc::new(Stalling {
            inner,
            at: STALL_AT,
            stall,
            calls: AtomicU64::new(0),
        }));
        let mut conn = Conn::connect(srv.local_addr()).expect("connect");
        let keys = zipf_stream(world.universe.len(), 3, QUERIES);
        let due = poisson_schedule(RATE, QUERIES, 3);
        let mut o = Open::with_capacity(QUERIES);
        open_loop(
            &mut conn,
            None,
            &world.universe,
            oracle,
            &keys,
            &due,
            0,
            &mut o,
        );
        drop(conn);
        srv.shutdown();
        o
    }

    /// Requests that waited at least a quarter of the stall.
    fn waited(o: &Open) -> usize {
        let limit = STALL.as_nanos() as f64 / 4.0;
        o.latency_ns.iter().filter(|&&l| l >= limit).count()
    }

    #[test]
    fn a_server_stall_delays_every_request_queued_behind_it() {
        let world = World::build(9, Scale::Tiny);
        let (_, oracle) = crate::batch::oracle(&world);
        let calm = open_run(&world, &oracle, Duration::ZERO);
        let stalled = open_run(&world, &oracle, STALL);
        for o in [&calm, &stalled] {
            assert_eq!(
                (o.sent, o.failed, o.latency_ns.len()),
                (QUERIES as u64, 0, QUERIES)
            );
        }
        // Latency runs from each request's due time, so the requests
        // sent on schedule while the worker slept all carry the stall:
        // at least those due in its first half, RATE * STALL / 2 of them.
        let queued = (RATE * STALL.as_secs_f64() / 2.0) as usize;
        assert!(
            waited(&stalled) >= queued / 2,
            "stalled: {} of {queued} requests waited",
            waited(&stalled)
        );
        assert!(
            waited(&calm) < queued / 10,
            "calm: {} requests waited",
            waited(&calm)
        );
        let worst = stalled.latency_ns.iter().copied().fold(0.0, f64::max);
        assert!(
            worst >= STALL.as_nanos() as f64 / 2.0,
            "worst latency {worst} ns"
        );
        // The generator itself kept its schedule: an open loop keeps
        // sending while the server stalls, so the stall shows in
        // latency, not in how late requests were sent.
        let late_p99 = quantile(&mut stalled.late_ns.clone(), 0.99);
        assert!(
            late_p99 < STALL.as_nanos() as f64 / 4.0,
            "late p99 {late_p99} ns"
        );
    }
}
