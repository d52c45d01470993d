//! Fault-injection integration: seeded `ChaosConn` clients against a
//! live sharded cluster server.
//!
//! The acceptance invariant: under injected faults (fragmentation,
//! delays, garbage writes, truncation, drops) the run always
//! terminates, every failure is *counted* rather than fatal, and every
//! response that survives intact — echoes the hostname that was asked
//! — is byte-identical to what a single un-sharded engine answers for
//! that hostname. Chaos may lose or mangle requests; it must never
//! change an answer. A zero-rate control run proves the chaos path
//! itself is transparent: no errors, every answer verified.

use hoiho_repro::cluster::{ClusterBackend, ShardRouter};
use hoiho_repro::hoiho::classify::NcClass;
use hoiho_repro::hoiho::regex::Regex;
use hoiho_repro::hoiho::taxonomy::Taxonomy;
use hoiho_repro::serve::model::{EvalCounts, Model, ModelEntry};
use hoiho_repro::serve::server::{Backend, Client};
use hoiho_repro::serve::{ChaosConfig, Engine, EngineBackend, ServerHandle};
use std::sync::Arc;
use std::time::Duration;

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
            entry("example.com", &[r"^as(\d+)\.example\.com$"]),
            entry("example.net", &[r"^r\d+\.as(\d+)\.example\.net$"]),
            entry("example.org", &[r"^[a-z]+-as(\d+)\.example\.org$"]),
        ],
    }
}

/// The hostname stream: hits across all three suffixes, misses, and a
/// non-convention name.
fn hosts() -> Vec<String> {
    let mut h = Vec::new();
    for i in 0..10u32 {
        h.push(format!("as{}.example.com", 64500 + i));
        h.push(format!("r1.as{}.example.net", 65000 + i));
        h.push(format!("core-as{}.example.org", 64496 + i));
        h.push(format!("nope{i}.example.io"));
    }
    h
}

/// The request a query response echoes. The answer is always the last
/// three tab fields (asn, suffix, class); the echo is everything before
/// — chaos can splice tabs into a request, so the echo itself may
/// contain them. `None` for lines that are not query answers
/// (`err\t...`).
fn echoed_request(resp: &str) -> Option<&str> {
    resp.rsplitn(4, '\t').nth(3)
}

/// One chaos-client run: `requests` queries through a seeded faulty
/// connection. Every response line that parses as a query answer is
/// checked byte-for-byte against the single-engine reference *for the
/// request the server actually received* (chaos may have mangled it in
/// flight — the answer to the mangled request must still match).
/// A response answering something other than the hostname asked, or
/// any I/O failure, is counted and the connection is rebuilt.
/// Returns (verified, errors).
fn run_chaos_conn(
    addr: std::net::SocketAddr,
    reference: &EngineBackend,
    rate: f64,
    seed: u64,
    requests: usize,
) -> (u64, u64) {
    let connect = |attempt: u64| {
        Client::connect_opts(
            addr,
            Some(Duration::from_secs(2)),
            Some(ChaosConfig { rate, seed: seed ^ (attempt << 32) }),
        )
    };
    let stream = hosts();
    let mut verified = 0u64;
    let mut errors = 0u64;
    let mut attempt = 0u64;
    let mut client: Option<Client> = None;
    for i in 0..requests {
        let cl = match client.as_mut() {
            Some(cl) => cl,
            None => match connect(attempt) {
                Ok(cl) => client.insert(cl),
                Err(_) => {
                    // Connect itself is plain TCP to a live loopback
                    // server; a failure here would be a real bug.
                    panic!("reconnect to the live server failed");
                }
            },
        };
        let h = &stream[i % stream.len()];
        let survived = match cl.request(h) {
            Ok(resp) => match echoed_request(&resp) {
                Some(echoed) => {
                    let mut expected = Vec::new();
                    reference
                        .query(echoed, &hoiho_repro::obs::TraceCtx::off())
                        .render_line_into(echoed, &mut expected);
                    assert_eq!(
                        format!("{resp}\n").as_bytes(),
                        expected,
                        "sharded answer for received request {echoed:?} diverged \
                         from the single engine"
                    );
                    echoed == h.as_str()
                }
                None => false, // an err line: the fault reached the server
            },
            Err(_) => false, // I/O fault or timeout
        };
        if survived {
            verified += 1;
        } else {
            // Mangled, desynced, or failed: count it and resync on a
            // fresh connection.
            errors += 1;
            attempt += 1;
            client = None;
        }
    }
    (verified, errors)
}

#[test]
fn chaos_clients_terminate_and_surviving_answers_match_single_engine() {
    let model = model();
    let router = Arc::new(ShardRouter::from_model(&model, 2, 128).expect("build router"));
    let backend = Arc::new(ClusterBackend::new(router));
    let srv = ServerHandle::start_with_backend("127.0.0.1:0", backend, 2).expect("bind");
    let reference = EngineBackend::new(Arc::new(Engine::new(&model)));

    // Zero-rate control: the chaos wrapper must be transparent.
    let (verified, errors) = run_chaos_conn(srv.local_addr(), &reference, 0.0, 0xC0FFEE, 120);
    assert_eq!(errors, 0, "zero-chaos control saw errors");
    assert_eq!(verified, 120, "zero-chaos control must verify every answer");

    // Faulty runs: several seeded connections in parallel, all must
    // terminate with each request either verified or counted.
    let (verified, errors) = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..4u64)
            .map(|c| {
                let reference = &reference;
                let addr = srv.local_addr();
                scope.spawn(move || {
                    run_chaos_conn(addr, reference, 0.2, 0xC0FF_EE00 ^ c, 150)
                })
            })
            .collect();
        handles.into_iter().fold((0u64, 0u64), |(v, e), h| {
            let (hv, he) = h.join().expect("chaos client panicked");
            (v + hv, e + he)
        })
    });
    assert_eq!(verified + errors, 4 * 150, "every request must be accounted for");
    assert!(
        verified > 0,
        "at 20% fault rate some requests must still survive and verify"
    );
    assert!(
        errors > 0,
        "at 20% fault rate the seeded fault stream must produce counted errors"
    );

    // The server must still be fully alive after the storm.
    let mut clean = Client::connect(srv.local_addr()).expect("post-chaos connect");
    assert_eq!(clean.query("as64500.example.com").expect("post-chaos query"), Some(64500));
}
