//! Host-speed calibration.
//!
//! The benchmark shares its cores with other tenants, and how fast they
//! let it run drifts by tens of percent from one minute to the next. A
//! fixed reference kernel owned by the benchmark is timed next to every
//! measured slice of work; each time is then scaled by
//! `NOMINAL_NS / kernel time`, i.e. reported as it would read on a host
//! where the kernel takes exactly `NOMINAL_NS`. The kernel uses only the
//! standard library, so no change to the program under test can move
//! it, and its ratio to the system's own time is what stays put when the
//! host speeds up or slows down.

use crate::stats::median;
use std::collections::HashMap;
use std::hint::black_box;
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::time::Instant;

/// The kernel's time on the reference host (2 vCPU x86-64 at 2.0 GHz).
pub const NOMINAL_NS: f64 = 1.3e6;

/// One fixed unit of string, hash-map, sort and allocation work — the
/// same mix the learner and the serving path do. Returns its wall
/// nanoseconds.
fn kernel_ns() -> f64 {
    let t = Instant::now();
    let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
    let mut next = || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    let mut names: Vec<String> = (0..4000)
        .map(|_| {
            let v = next();
            format!(
                "as{}.r{}.{}.example.net",
                v % 65536,
                (v >> 16) % 97,
                (v >> 24) % 1000
            )
        })
        .collect();
    let mut counts: HashMap<&str, u32> = HashMap::new();
    for n in &names {
        let key = n.rsplit('.').nth(2).unwrap_or("");
        *counts.entry(key).or_default() += 1;
    }
    let digits: usize = names
        .iter()
        .map(|n| n.bytes().filter(u8::is_ascii_digit).count())
        .sum();
    black_box((counts.len(), digits));
    names.sort_unstable();
    black_box(&names);
    t.elapsed().as_nanos() as f64
}

/// The factor that converts a time measured now into reference-host
/// time: `NOMINAL_NS` over the median of five kernel runs.
pub fn speed() -> f64 {
    let mut v: Vec<f64> = (0..5).map(|_| kernel_ns()).collect();
    NOMINAL_NS / median(&mut v)
}

/// Runs `f` between two host-speed samples and returns its result with
/// their mean: the factor for work that takes long enough for the
/// host's speed to drift while it runs.
pub fn paired<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let before = speed();
    let out = f();
    (out, (before + speed()) / 2.0)
}

/// The loopback kernel's time on the reference host.
pub const NET_NOMINAL_NS: f64 = 15e6;

/// Round trips per loopback kernel run.
const PINGS: usize = 500;

/// One fixed unit of loopback TCP work: `PINGS` one-byte round trips
/// to an echo thread. Returns its wall nanoseconds.
fn net_kernel_ns() -> f64 {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind the calibration listener");
    let addr = listener.local_addr().expect("calibration address");
    std::thread::scope(|s| {
        s.spawn(|| {
            let (mut c, _) = listener.accept().expect("accept the calibration client");
            let _ = c.set_nodelay(true);
            let mut b = [0u8; 1];
            for _ in 0..PINGS {
                c.read_exact(&mut b).expect("calibration ping");
                c.write_all(&b).expect("calibration pong");
            }
        });
        let mut c = TcpStream::connect(addr).expect("connect the calibration client");
        let _ = c.set_nodelay(true);
        let mut b = [7u8; 1];
        let t = Instant::now();
        for _ in 0..PINGS {
            c.write_all(&b).expect("calibration ping");
            c.read_exact(&mut b).expect("calibration pong");
        }
        t.elapsed().as_nanos() as f64
    })
}

/// Like [`speed`], for work dominated by syscalls and loopback TCP
/// wake-ups rather than user-space computation: `NET_NOMINAL_NS` over
/// the median of three loopback kernel runs.
pub fn net_speed() -> f64 {
    let mut v: Vec<f64> = (0..3).map(|_| net_kernel_ns()).collect();
    NET_NOMINAL_NS / median(&mut v)
}
