//! Pieces both serving workloads share: the in-process answer oracle,
//! the client connection, the set-up timer, and the backend timing shim
//! and answer-table backend of the traced runs.

use crate::calib;
use crate::stats::median;
use crate::sys;
use hoiho_obs::span::TraceCtx;
use hoiho_obs::Tracer;
use hoiho_serve::{Backend, QueryAnswer, ServerHandle};
use std::collections::HashMap;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How long a client waits for any one response before counting the
/// rest of the run as timed out.
pub const READ_TIMEOUT: Duration = Duration::from_secs(5);

/// Set-up repetitions; `setup_s` is their median. A serving set-up
/// takes a few milliseconds, so one host hiccup can double a single rep.
pub const SETUP_REPS: usize = 15;

/// The expected answer line (`<host>\t<asn>\t<suffix>\t<class>\n`) of
/// every universe hostname, rendered in-process.
pub struct Oracle {
    bytes: Vec<u8>,
    ends: Vec<usize>,
}

impl Oracle {
    /// Renders `answer(host)` for every host, in order.
    pub fn build(hosts: &[String], mut answer: impl FnMut(&str) -> QueryAnswer) -> Oracle {
        let mut bytes = Vec::new();
        let mut ends = Vec::with_capacity(hosts.len());
        for h in hosts {
            answer(h).render_line_into(h, &mut bytes);
            ends.push(bytes.len());
        }
        Oracle { bytes, ends }
    }

    /// The expected line for host `i`, newline included.
    pub fn line(&self, i: usize) -> &[u8] {
        let start = if i == 0 { 0 } else { self.ends[i - 1] };
        &self.bytes[start..self.ends[i]]
    }
}

/// A client connection with a buffered reader over the same socket.
pub struct Conn {
    pub reader: BufReader<TcpStream>,
    pub writer: TcpStream,
}

impl Conn {
    pub fn connect(addr: SocketAddr) -> std::io::Result<Conn> {
        let s = TcpStream::connect(addr)?;
        s.set_nodelay(true)?;
        s.set_read_timeout(Some(READ_TIMEOUT))?;
        Ok(Conn {
            reader: BufReader::with_capacity(1 << 16, s.try_clone()?),
            writer: s,
        })
    }

    /// Reads one response line (newline included) into `line`.
    pub fn read_line(&mut self, line: &mut Vec<u8>) -> std::io::Result<()> {
        line.clear();
        if self.reader.read_until(b'\n', line)? == 0 {
            return Err(std::io::ErrorKind::UnexpectedEof.into());
        }
        Ok(())
    }
}

/// Set-up phase times of one repetition, in seconds at reference-host
/// speed (see `calib`).
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupTimes {
    pub parse: f64,
    pub build: f64,
    pub start: f64,
}

impl SetupTimes {
    pub fn total(&self) -> f64 {
        self.parse + self.build + self.start
    }
}

/// The server the last set-up rep left running.
pub struct Served<T> {
    pub srv: ServerHandle,
    /// What the rep returned besides the server.
    pub extra: T,
    /// A connection that has had its first answer.
    pub conn: Conn,
    /// Per-rep phase times.
    pub times: Vec<SetupTimes>,
    /// Live heap bytes just before the last rep; the peak-heap window
    /// starts there, so memory the earlier reps' servers held is not
    /// counted.
    pub heap_base: usize,
}

/// Runs the system's set-up `SETUP_REPS` times (each rep stops the
/// previous server first) and returns the last server and connection
/// with the per-rep phase times. `rep` returns the server plus the time
/// at which its model was parsed and its backend built.
pub fn setup_reps<T>(
    mut rep: impl FnMut() -> (ServerHandle, T, f64, f64),
    first: (&str, &[u8]),
) -> Served<T> {
    let mut times = Vec::with_capacity(SETUP_REPS);
    let mut last: Option<(ServerHandle, T, Conn)> = None;
    let mut heap_base = 0;
    for _ in 0..SETUP_REPS {
        if let Some((srv, extra, conn)) = last.take() {
            drop((conn, extra));
            srv.shutdown();
        }
        heap_base = sys::live_bytes();
        sys::reset_peak();
        let speed = calib::speed();
        let t = Instant::now();
        let (srv, extra, parse, build) = rep();
        let mut conn = Conn::connect(srv.local_addr()).expect("connect to the benchmark server");
        conn.writer
            .write_all(format!("{}\n", first.0).as_bytes())
            .expect("send the first query");
        let mut line = Vec::new();
        conn.read_line(&mut line).expect("read the first answer");
        assert_eq!(line, first.1, "first answer after set-up is wrong");
        let total = t.elapsed().as_secs_f64();
        times.push(SetupTimes {
            parse: parse * speed,
            build: build * speed,
            start: (total - parse - build) * speed,
        });
        last = Some((srv, extra, conn));
    }
    let (srv, extra, conn) = last.expect("at least one set-up rep");
    Served {
        srv,
        extra,
        conn,
        times,
        heap_base,
    }
}

/// The median of one phase over the set-up reps.
pub fn median_of(times: &[SetupTimes], phase: impl Fn(&SetupTimes) -> f64) -> f64 {
    let mut v: Vec<f64> = times.iter().map(phase).collect();
    median(&mut v)
}

/// A benchmark-owned [`Backend`] that forwards to the real backend and
/// times every call the server makes into it, recording a span for one
/// call in `sample_every`.
pub struct TimedBackend<B: ?Sized> {
    inner: Arc<B>,
    /// Nanoseconds spent inside the real backend's query calls.
    ns: AtomicU64,
    /// Hostnames those calls answered.
    items: AtomicU64,
    calls: AtomicU64,
    sample_every: u64,
    tracer: Arc<Tracer>,
}

impl<B: Backend + ?Sized> TimedBackend<B> {
    pub fn new(inner: Arc<B>, tracer: Arc<Tracer>, sample_every: u64) -> TimedBackend<B> {
        TimedBackend {
            inner,
            ns: AtomicU64::new(0),
            items: AtomicU64::new(0),
            calls: AtomicU64::new(0),
            sample_every,
            tracer,
        }
    }

    fn timed<R>(&self, name: &str, items: usize, f: impl FnOnce() -> R) -> R {
        let sampled = self
            .calls
            .fetch_add(1, Ordering::Relaxed)
            .is_multiple_of(self.sample_every);
        let span = sampled.then(|| self.tracer.span(name, &[]));
        let t = Instant::now();
        let out = f();
        self.ns
            .fetch_add(t.elapsed().as_nanos() as u64, Ordering::Relaxed);
        self.items.fetch_add(items as u64, Ordering::Relaxed);
        drop(span);
        out
    }

    /// Mean backend nanoseconds per answered hostname so far.
    pub fn ns_per_item(&self) -> f64 {
        self.ns.load(Ordering::Relaxed) as f64 / self.items.load(Ordering::Relaxed).max(1) as f64
    }
}

impl<B: Backend + ?Sized> Backend for TimedBackend<B> {
    fn query(&self, hostname: &str, ctx: &TraceCtx) -> QueryAnswer {
        self.timed("backend.query", 1, || self.inner.query(hostname, ctx))
    }

    fn query_batch(&self, hostnames: &[&str], ctx: &TraceCtx) -> Vec<QueryAnswer> {
        self.timed("backend.query_batch", hostnames.len(), || {
            self.inner.query_batch(hostnames, ctx)
        })
    }

    fn model_len(&self) -> usize {
        self.inner.model_len()
    }

    fn per_suffix(&self) -> Vec<(String, u64)> {
        self.inner.per_suffix()
    }

    fn reload(&self, args: &str) -> Result<String, String> {
        let _span = self.tracer.span("backend.reload", &[]);
        self.inner.reload(args)
    }

    fn cluster_stats(&self) -> Option<String> {
        self.inner.cluster_stats()
    }
}

/// A benchmark-owned [`Backend`] that answers every hostname from a
/// precomputed table of the real backend's answers. It puts the same
/// bytes on the wire as the real backend at next to no cost, so a load
/// through it times the server's framing, the loopback and the client
/// on their own, independently of the layers behind the real backend.
pub struct TableBackend {
    answers: HashMap<String, QueryAnswer>,
}

impl TableBackend {
    /// The table of `answer(host)` for every host.
    pub fn build(hosts: &[String], mut answer: impl FnMut(&str) -> QueryAnswer) -> TableBackend {
        TableBackend {
            answers: hosts.iter().map(|h| (h.clone(), answer(h))).collect(),
        }
    }
}

impl Backend for TableBackend {
    fn query(&self, hostname: &str, _ctx: &TraceCtx) -> QueryAnswer {
        self.answers
            .get(hostname)
            .cloned()
            .unwrap_or(QueryAnswer::MISS)
    }

    fn model_len(&self) -> usize {
        0
    }

    fn per_suffix(&self) -> Vec<(String, u64)> {
        Vec::new()
    }

    fn reload(&self, _args: &str) -> Result<String, String> {
        Err("an answer table does not reload".into())
    }
}
