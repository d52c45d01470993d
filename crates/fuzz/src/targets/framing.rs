//! Server framing surface: line framing and the `BATCH` protocol of
//! the epoll server, under RNG-fragmented byte streams.
//!
//! Case layout: the first line is a fragmentation plan
//! (`splits\t<len>,<len>,...` — how many bytes each client write
//! carries); everything after the first newline is the raw payload.
//! The oracle replays the payload through a live server (started once
//! per target instance, on a fixed model) in exactly those fragments,
//! half-closes, drains to EOF, and compares against a reference
//! simulation of the documented framing semantics:
//!
//! * lines are framed at `\n`, trimmed, blank lines answer nothing;
//! * `BATCH n` arms collection of `n` hostname lines, answered as an
//!   `ok\tbatch\tn` header plus one answer line per item; degenerate
//!   headers answer the documented error strings;
//! * EOF completes an unterminated final line, then fails an open
//!   batch with `err\tbatch truncated by eof`;
//! * an oversized or non-UTF-8 line drops the connection, so the bytes
//!   received must be a prefix of the expected stream.
//!
//! Fragmentation must be invisible: any split of the same payload
//! yields the same response stream. The payload alphabet is lowercase
//! (plus `BATCH`), so a fuzz case can never spell a loopback admin
//! verb — see `HOSTCHARS`.

use super::{Target, HOSTCHARS};
use crate::input::FuzzInput;
use hoiho::classify::NcClass;
use hoiho::regex::Regex;
use hoiho::taxonomy::Taxonomy;
use hoiho_serve::server::Backend;
use hoiho_serve::{
    Engine, EngineBackend, EvalCounts, Model, ModelEntry, ServerHandle, MAX_BATCH, MAX_LINE,
};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::{Arc, OnceLock};
use std::time::Duration;

/// Hostname vocabulary: hits, misses, whitespace shapes, and things
/// that look almost like batch headers.
const HOSTS: &[&str] = &[
    "as1.example.com",
    "as64500.example.com",
    "core1.example.com",
    "nope.example.org",
    "  as2.example.com  ",
    "",
    "   ",
    "batch 2",
    "batchx",
];

/// `BATCH` header arguments to probe, valid and degenerate.
const BATCH_ARGS: &[&str] = &["0", "1", "2", "3", "", "-1", "5000", "two", "1 2", "0x1"];

fn fixed_model() -> Model {
    Model {
        entries: vec![ModelEntry {
            suffix: "example.com".to_string(),
            class: NcClass::Good,
            single: false,
            taxonomy: Taxonomy::Start,
            hostnames: 4,
            counts: EvalCounts::default(),
            regexes: vec![Regex::parse(r"^as(\d+)\.example\.com$").unwrap()],
        }],
    }
}

pub struct FramingTarget {
    server: OnceLock<ServerHandle>,
    /// The simulation's answer source — the same backend type the
    /// server queries, over the same model.
    backend: EngineBackend,
}

impl FramingTarget {
    pub fn new() -> FramingTarget {
        FramingTarget {
            server: OnceLock::new(),
            backend: EngineBackend::new(Arc::new(Engine::new(&fixed_model()))),
        }
    }

    fn server(&self) -> &ServerHandle {
        self.server.get_or_init(|| {
            ServerHandle::start("127.0.0.1:0", Arc::new(Engine::new(&fixed_model())), 1)
                .expect("fuzz server start")
        })
    }

    /// The documented framing semantics, as plain sequential code.
    /// Returns the expected response bytes and whether the connection
    /// is dropped mid-stream (protocol violation).
    fn simulate(&self, payload: &[u8]) -> (Vec<u8>, bool) {
        let mut out: Vec<u8> = Vec::new();
        let mut batch: Option<(usize, Vec<String>)> = None;
        let mut serve = |line: &[u8], out: &mut Vec<u8>| -> bool {
            if line.len() > MAX_LINE {
                return false;
            }
            let Ok(text) = std::str::from_utf8(line) else {
                return false;
            };
            if let Some((expected, hosts)) = batch.as_mut() {
                hosts.push(text.trim().to_string());
                if hosts.len() == *expected {
                    let (_, hosts) = batch.take().expect("batch state just observed");
                    out.extend_from_slice(
                        format!("ok\tbatch\t{}\n", hosts.len()).as_bytes(),
                    );
                    let refs: Vec<&str> = hosts.iter().map(String::as_str).collect();
                    let off = hoiho_obs::TraceCtx::off();
                    for (h, a) in hosts.iter().zip(self.backend.query_batch(&refs, &off)) {
                        a.render_line_into(h, out);
                    }
                }
                return true;
            }
            let request = text.trim();
            if request == "BATCH" || request.starts_with("BATCH ") {
                let arg = request.strip_prefix("BATCH").unwrap_or_default().trim();
                match arg.parse::<usize>() {
                    Ok(0) => out.extend_from_slice(b"ok\tbatch\t0\n"),
                    Ok(n) if n <= MAX_BATCH => batch = Some((n, Vec::new())),
                    Ok(n) => out.extend_from_slice(
                        format!("err\tBATCH count {n} exceeds the cap of {MAX_BATCH}\n")
                            .as_bytes(),
                    ),
                    Err(_) => out.extend_from_slice(
                        format!("err\tBATCH takes a hostname count, got {arg:?}\n").as_bytes(),
                    ),
                }
                return true;
            }
            if request.is_empty() {
                return true;
            }
            let answer = self.backend.query(request, &hoiho_obs::TraceCtx::off());
            answer.render_line_into(request, out);
            true
        };

        let mut start = 0usize;
        while let Some(rel) = payload[start..].iter().position(|&b| b == b'\n') {
            let end = start + rel;
            if !serve(&payload[start..end], &mut out) {
                return (out, true);
            }
            start = end + 1;
        }
        // EOF: an unterminated final line is completed and served, then
        // an open batch fails.
        if start < payload.len() && !serve(&payload[start..], &mut out) {
            return (out, true);
        }
        if batch.is_some() {
            out.extend_from_slice(b"err\tbatch truncated by eof\n");
        }
        (out, false)
    }
}

impl Target for FramingTarget {
    fn name(&self) -> &'static str {
        "framing"
    }

    fn generate(&self, input: &mut FuzzInput) -> Vec<u8> {
        let mut payload = String::new();
        for _ in 0..input.range(1, 8) {
            match input.below(100) {
                0..=49 => {
                    if input.chance(60) {
                        payload.push_str(input.pick(HOSTS) as &str);
                    } else {
                        payload.push_str(&input.token(HOSTCHARS, 0, 20));
                    }
                    payload.push('\n');
                }
                50..=79 => {
                    let arg = input.pick(BATCH_ARGS);
                    payload.push_str(&format!("BATCH {arg}\n"));
                    // Usually the promised number of items; sometimes
                    // fewer, leaving the batch to absorb later ops or
                    // get truncated by EOF.
                    let promised: u64 = arg.parse().unwrap_or(0);
                    let items =
                        if input.chance(70) { promised } else { input.below(promised + 1) };
                    for _ in 0..items.min(8) {
                        payload.push_str(input.pick(HOSTS) as &str);
                        payload.push('\n');
                    }
                }
                _ => {
                    payload.push_str(&input.token("abcz019.- \t", 0, 12));
                    payload.push('\n');
                }
            }
        }
        if input.chance(20) {
            // Leave the last line unterminated (EOF completes it).
            payload.push_str(input.pick(HOSTS) as &str);
        }
        // Fragmentation plan: cut points drawn over the payload.
        let bytes = payload.into_bytes();
        let mut cuts: Vec<usize> = (0..input.range(0, 6))
            .map(|_| input.below(bytes.len() as u64 + 1) as usize)
            .collect();
        cuts.push(bytes.len());
        cuts.sort_unstable();
        cuts.dedup();
        let mut lens: Vec<String> = Vec::new();
        let mut prev = 0usize;
        for c in cuts {
            if c > prev {
                lens.push((c - prev).to_string());
                prev = c;
            }
        }
        let mut case = format!("splits\t{}\n", lens.join(",")).into_bytes();
        case.extend_from_slice(&bytes);
        case
    }

    fn run(&self, case: &[u8]) -> Result<(), String> {
        // Decode the plan line; a case without one (foreign or heavily
        // minimized) is a single whole-payload write.
        let (splits, payload): (Vec<usize>, &[u8]) = match case
            .iter()
            .position(|&b| b == b'\n')
            .map(|nl| (&case[..nl], &case[nl + 1..]))
        {
            Some((first, rest)) if first.starts_with(b"splits\t") => {
                let plan = String::from_utf8_lossy(&first[b"splits\t".len()..]);
                (plan.split(',').filter_map(|f| f.parse().ok()).collect(), rest)
            }
            _ => (vec![case.len()], case),
        };

        let (expected, violated) = self.simulate(payload);

        let addr = self.server().local_addr();
        let mut stream = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
        stream.set_nodelay(true).ok();
        stream
            .set_read_timeout(Some(Duration::from_secs(5)))
            .map_err(|e| format!("set_read_timeout: {e}"))?;
        let mut sent = 0usize;
        for len in splits {
            if sent >= payload.len() {
                break;
            }
            let end = (sent + len).min(payload.len());
            if stream.write_all(&payload[sent..end]).is_err() {
                // The server may legitimately drop us mid-write on a
                // protocol violation.
                break;
            }
            sent = end;
        }
        if sent < payload.len() {
            let _ = stream.write_all(&payload[sent..]);
        }
        let _ = stream.shutdown(std::net::Shutdown::Write);

        let mut received = Vec::new();
        let mut buf = [0u8; 4096];
        loop {
            match stream.read(&mut buf) {
                Ok(0) => break,
                Ok(n) => received.extend_from_slice(&buf[..n]),
                Err(_) => {
                    // Timeout or reset. A reset after a violation is
                    // expected; a timeout means the server hung.
                    break;
                }
            }
        }

        if violated {
            if !expected.starts_with(&received) {
                return Err(format!(
                    "after a protocol violation, received bytes are not a prefix of the \
                     expected stream\nexpected {:?}\nreceived {:?}",
                    String::from_utf8_lossy(&expected),
                    String::from_utf8_lossy(&received),
                ));
            }
        } else if received != expected {
            return Err(format!(
                "response stream diverges from the framing reference\npayload {:?}\n\
                 expected {:?}\nreceived {:?}",
                String::from_utf8_lossy(payload),
                String::from_utf8_lossy(&expected),
                String::from_utf8_lossy(&received),
            ));
        }
        Ok(())
    }
}
