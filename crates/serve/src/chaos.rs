//! `ChaosConn` — a seeded fault-injecting wrapper around a
//! [`TcpStream`], for proving the serving tier degrades gracefully
//! under the failures a real deployment sees (modeled on rift_rust's
//! `ChaosSocket`).
//!
//! Faults are injected on the *client* side of a connection, so the
//! decision stream is fully determined by [`ChaosConfig::seed`] and
//! independent of server timing: a given (seed, rate) always drops,
//! delays, garbles, truncates, and fragments at the same points in the
//! byte stream. The wrapper implements [`Read`] + [`Write`] and clones
//! like a `TcpStream` (both halves share one fault core), so it slots
//! in wherever a split reader/writer pair is used — `Client`
//! (`connect_opts`), `loadgen --chaos`, and the fuzz targets.
//!
//! ## Fault model
//!
//! Each `write` (and, for delays/early-EOF, each `read`) rolls one
//! Bernoulli trial at [`ChaosConfig::rate`]. On success one fault is
//! drawn uniformly:
//!
//! * **Fragment** — write exactly one byte and report a short write, so
//!   a `write_all` caller splits the request at every byte boundary.
//! * **Delay** — sleep 1–10 ms, then write normally (reordering
//!   pressure for pipelined peers; bounded so runs terminate).
//! * **Garbage** — inject 1–8 junk bytes (lowercase/punctuation only —
//!   never an admin verb) *before* the real payload, corrupting the
//!   current protocol line or appending a bogus request.
//! * **Truncate+drop** — write only a prefix of the payload, then shut
//!   the socket down both ways; every later I/O on either half fails
//!   (`BrokenPipe`) and reads report EOF.
//! * **Early EOF** (read side) — shut the connection down instead of
//!   reading, so the peer's response is lost mid-flight.
//!
//! A dropped connection stays dropped — the caller is expected to
//! observe the error, count it, and reconnect. [`ChaosConn::stats`]
//! reports how many faults of each kind fired, so tests can assert the
//! chaos actually happened.

use hoiho_devkit::rng::{RngExt, SeedableRng, StdRng};
use std::io::{Read, Write};
use std::net::{Shutdown, TcpStream};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Fault-injection parameters for one connection.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChaosConfig {
    /// Per-operation fault probability in `[0, 1]`.
    pub rate: f64,
    /// Seed for the fault decision stream; equal seeds replay equal
    /// fault sequences.
    pub seed: u64,
}

impl ChaosConfig {
    /// A config that injects faults on roughly `rate` of operations.
    pub fn new(rate: f64, seed: u64) -> ChaosConfig {
        ChaosConfig { rate: rate.clamp(0.0, 1.0), seed }
    }
}

/// Counts of faults injected so far, by kind.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ChaosStats {
    /// Single-byte short writes.
    pub fragments: u64,
    /// Sleeps injected before an operation.
    pub delays: u64,
    /// Junk-byte injections.
    pub garbage: u64,
    /// Truncated writes that also dropped the connection.
    pub truncations: u64,
    /// Connections shut down (truncate+drop or early EOF).
    pub drops: u64,
}

impl ChaosStats {
    /// Total faults of any kind.
    pub fn total(&self) -> u64 {
        self.fragments + self.delays + self.garbage + self.truncations + self.drops
    }
}

/// Shared fault state: both halves of a cloned connection draw from the
/// same decision stream, like two handles on one flaky NIC.
struct ChaosCore {
    rng: StdRng,
    rate: f64,
    dropped: bool,
    stats: ChaosStats,
}

/// Junk alphabet for garbage injection. Deliberately excludes uppercase
/// (no accidental `SHUTDOWN`/`RELOAD` from a loopback peer) but
/// includes `\n` and `\t` so injections can both corrupt the current
/// line and forge whole bogus requests.
const GARBAGE: &[u8] = b"abcdefghijklmnopqrstuvwxyz0123456789.-_#\t\n";

/// The write-side faults a trial can draw.
const WRITE_FAULTS: usize = 4; // fragment, delay, garbage, truncate+drop

/// A seeded fault-injecting `TcpStream` wrapper; see the module docs.
pub struct ChaosConn {
    stream: TcpStream,
    core: Arc<Mutex<ChaosCore>>,
}

impl ChaosConn {
    /// Wraps `stream` with fault injection per `cfg`.
    pub fn new(stream: TcpStream, cfg: ChaosConfig) -> ChaosConn {
        ChaosConn {
            stream,
            core: Arc::new(Mutex::new(ChaosCore {
                rng: StdRng::seed_from_u64(cfg.seed),
                rate: cfg.rate.clamp(0.0, 1.0),
                dropped: false,
                stats: ChaosStats::default(),
            })),
        }
    }

    /// Clones the handle; both clones share one fault core, so the
    /// combined decision stream stays deterministic.
    pub fn try_clone(&self) -> std::io::Result<ChaosConn> {
        Ok(ChaosConn { stream: self.stream.try_clone()?, core: Arc::clone(&self.core) })
    }

    /// Fault counts so far.
    pub fn stats(&self) -> ChaosStats {
        self.core.lock().expect("chaos core poisoned").stats
    }

    /// True once a drop fault has severed the connection.
    pub fn dropped(&self) -> bool {
        self.core.lock().expect("chaos core poisoned").dropped
    }

    /// Passes a read timeout through to the underlying socket.
    pub fn set_read_timeout(&self, dur: Option<Duration>) -> std::io::Result<()> {
        self.stream.set_read_timeout(dur)
    }

    /// Severs the connection now (the drop fault, on demand).
    fn sever(&self, core: &mut ChaosCore) {
        core.dropped = true;
        core.stats.drops += 1;
        let _ = self.stream.shutdown(Shutdown::Both);
    }
}

impl Write for ChaosConn {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        let mut core = self.core.lock().expect("chaos core poisoned");
        if core.dropped {
            return Err(std::io::ErrorKind::BrokenPipe.into());
        }
        let rate = core.rate;
        if buf.is_empty() || !core.rng.random_bool(rate) {
            drop(core);
            return self.stream.write(buf);
        }
        match core.rng.random_range(0..WRITE_FAULTS as u32) {
            // Fragment: one byte per write_all iteration.
            0 => {
                core.stats.fragments += 1;
                drop(core);
                self.stream.write(&buf[..1])
            }
            // Delay, then write normally.
            1 => {
                core.stats.delays += 1;
                let ms = core.rng.random_range(1..=10u64);
                drop(core);
                std::thread::sleep(Duration::from_millis(ms));
                self.stream.write(buf)
            }
            // Garbage before the payload.
            2 => {
                core.stats.garbage += 1;
                let n = core.rng.random_range(1..=8usize);
                let junk: Vec<u8> = (0..n)
                    .map(|_| GARBAGE[core.rng.random_range(0..GARBAGE.len())])
                    .collect();
                drop(core);
                self.stream.write_all(&junk)?;
                self.stream.write(buf)
            }
            // Truncate the write and drop the connection.
            _ => {
                core.stats.truncations += 1;
                let keep = (buf.len() / 2).max(1);
                let n = self.stream.write(&buf[..keep]).unwrap_or(0);
                self.sever(&mut core);
                if n == 0 {
                    Err(std::io::ErrorKind::BrokenPipe.into())
                } else {
                    Ok(n)
                }
            }
        }
    }

    fn flush(&mut self) -> std::io::Result<()> {
        self.stream.flush()
    }
}

impl Read for ChaosConn {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let mut core = self.core.lock().expect("chaos core poisoned");
        if core.dropped {
            return Ok(0); // EOF: the connection is gone.
        }
        let rate = core.rate;
        if core.rng.random_bool(rate) {
            // Read-side trial: mostly delay, occasionally early EOF.
            if core.rng.random_bool(0.25) {
                self.sever(&mut core);
                return Ok(0);
            }
            core.stats.delays += 1;
            let ms = core.rng.random_range(1..=10u64);
            drop(core);
            std::thread::sleep(Duration::from_millis(ms));
            return self.stream.read(buf);
        }
        drop(core);
        self.stream.read(buf)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    /// An echo peer: loops received bytes straight back.
    fn echo_server() -> (std::net::SocketAddr, std::thread::JoinHandle<()>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        // One connection per test; the thread ends after it closes.
        let h = std::thread::spawn(move || {
            if let Ok((mut s, _)) = listener.accept() {
                let mut buf = [0u8; 4096];
                loop {
                    match s.read(&mut buf) {
                        Ok(0) | Err(_) => break,
                        Ok(n) => {
                            if s.write_all(&buf[..n]).is_err() {
                                break;
                            }
                        }
                    }
                }
            }
        });
        (addr, h)
    }

    #[test]
    fn zero_rate_is_a_transparent_pipe() {
        let (addr, h) = echo_server();
        let mut c = ChaosConn::new(TcpStream::connect(addr).unwrap(), ChaosConfig::new(0.0, 7));
        let payload = b"as64500.example.com\n";
        c.write_all(payload).unwrap();
        let mut got = vec![0u8; payload.len()];
        c.read_exact(&mut got).unwrap();
        assert_eq!(&got, payload);
        assert_eq!(c.stats().total(), 0);
        drop(c);
        h.join().unwrap();
    }

    #[test]
    fn fault_sequence_is_deterministic_in_the_seed() {
        // Drive two identically-seeded conns against echo servers and
        // compare the stats after the same operation sequence.
        let mut all_stats = Vec::new();
        for _ in 0..2 {
            let (addr, h) = echo_server();
            let mut c =
                ChaosConn::new(TcpStream::connect(addr).unwrap(), ChaosConfig::new(0.5, 42));
            for i in 0..50u32 {
                let line = format!("as{i}.example.com\n");
                if c.write_all(line.as_bytes()).is_err() {
                    break;
                }
            }
            all_stats.push(c.stats());
            drop(c);
            h.join().unwrap();
        }
        assert_eq!(all_stats[0], all_stats[1]);
        assert!(all_stats[0].total() > 0, "rate 0.5 over 50 writes injected nothing");
    }

    #[test]
    fn drop_fault_stays_dropped() {
        let (addr, h) = echo_server();
        let c = ChaosConn::new(TcpStream::connect(addr).unwrap(), ChaosConfig::new(1.0, 1));
        let mut w = c.try_clone().unwrap();
        // At rate 1.0 every write rolls a fault; the truncate+drop arm
        // must fire within a bounded number of writes.
        let mut severed = false;
        for _ in 0..200 {
            if w.write_all(b"x.example.com\n").is_err() || c.dropped() {
                severed = true;
                break;
            }
        }
        assert!(severed, "rate-1.0 chaos never dropped the connection");
        assert!(w.write_all(b"more\n").is_err(), "writes after a drop must fail");
        let mut r = c.try_clone().unwrap();
        let mut buf = [0u8; 16];
        assert_eq!(r.read(&mut buf).unwrap_or(0), 0, "reads after a drop report EOF");
        assert!(c.stats().drops >= 1);
        drop((c, w, r));
        h.join().unwrap();
    }
}
