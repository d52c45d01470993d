//! METRICS exposition integration: scripted traffic against a live
//! clustered TCP server whose router and protocol layer share one
//! observability context, then a strict in-test parse of the `METRICS`
//! response proving (a) the exposition round-trips losslessly through
//! the parser, (b) histogram buckets are cumulative-monotone and end
//! at the series count, and (c) every counter accounts for exactly the
//! traffic the script sent — N queries, K cache hits, one shard
//! reload — no more, no less.

use hoiho_repro::cluster::{split, ClusterBackend, ShardRouter};
use hoiho_repro::hoiho::classify::NcClass;
use hoiho_repro::hoiho::regex::Regex;
use hoiho_repro::hoiho::taxonomy::Taxonomy;
use hoiho_repro::serve::model::{EvalCounts, Model, ModelEntry};
use hoiho_repro::serve::server::Client;
use hoiho_repro::serve::ServerHandle;
use std::path::PathBuf;
use std::sync::Arc;

// ---------------------------------------------------------------------------
// A strict parser for the Prometheus-style text the registry renders.
// Anything it does not recognize is a panic, not a skip — the test
// fails on any drift in the exposition format.

/// One parsed exposition line.
#[derive(Debug, Clone, PartialEq)]
enum Line {
    /// `# TYPE <name> <kind>`
    Type { name: String, kind: String },
    /// `<name>{<labels>} <integer-value>` (label block optional).
    Sample { name: String, labels: Vec<(String, String)>, value: i128 },
}

fn parse_name(s: &str) -> (String, &str) {
    let end = s
        .char_indices()
        .find(|(_, c)| !(c.is_ascii_alphanumeric() || *c == '_'))
        .map(|(i, _)| i)
        .unwrap_or(s.len());
    assert!(end > 0, "empty metric name in {s:?}");
    (s[..end].to_string(), &s[end..])
}

fn parse_labels(mut s: &str) -> (Vec<(String, String)>, &str) {
    let mut labels = Vec::new();
    assert!(s.starts_with('{'), "expected label block in {s:?}");
    s = &s[1..];
    loop {
        let (key, rest) = parse_name(s);
        assert!(rest.starts_with("=\""), "expected =\" after label key in {rest:?}");
        let mut value = String::new();
        let mut chars = rest[2..].char_indices();
        let tail = loop {
            let (i, c) = chars.next().expect("unterminated label value");
            match c {
                '\\' => match chars.next().expect("dangling escape").1 {
                    '\\' => value.push('\\'),
                    '"' => value.push('"'),
                    'n' => value.push('\n'),
                    other => panic!("unknown escape \\{other}"),
                },
                '"' => break &rest[2 + i + 1..],
                c => value.push(c),
            }
        };
        labels.push((key, value));
        if let Some(rest) = tail.strip_prefix(',') {
            s = rest;
        } else {
            let rest = tail.strip_prefix('}').expect("label block must close with }");
            return (labels, rest);
        }
    }
}

/// Parses a full exposition document; panics on any malformed line.
fn parse(text: &str) -> Vec<Line> {
    let mut out = Vec::new();
    for raw in text.lines() {
        if let Some(rest) = raw.strip_prefix("# TYPE ") {
            let (name, kind) = rest.split_once(' ').expect("TYPE line needs a kind");
            assert!(
                matches!(kind, "counter" | "gauge" | "histogram"),
                "unknown family kind {kind:?}"
            );
            out.push(Line::Type { name: name.to_string(), kind: kind.to_string() });
            continue;
        }
        let (name, rest) = parse_name(raw);
        let (labels, rest) =
            if rest.starts_with('{') { parse_labels(rest) } else { (Vec::new(), rest) };
        let value = rest
            .strip_prefix(' ')
            .and_then(|v| v.parse::<i128>().ok())
            .unwrap_or_else(|| panic!("bad sample value in {raw:?}"));
        out.push(Line::Sample { name, labels, value });
    }
    out
}

/// Re-renders parsed lines; with [`parse`] this must reproduce the
/// input byte for byte (the round-trip proof that parsing is lossless).
fn render(lines: &[Line]) -> String {
    let mut out = String::new();
    for line in lines {
        match line {
            Line::Type { name, kind } => out.push_str(&format!("# TYPE {name} {kind}\n")),
            Line::Sample { name, labels, value } => {
                out.push_str(name);
                if !labels.is_empty() {
                    out.push('{');
                    for (i, (k, v)) in labels.iter().enumerate() {
                        if i > 0 {
                            out.push(',');
                        }
                        let escaped: String = v
                            .chars()
                            .map(|c| match c {
                                '\\' => "\\\\".to_string(),
                                '"' => "\\\"".to_string(),
                                '\n' => "\\n".to_string(),
                                c => c.to_string(),
                            })
                            .collect();
                        out.push_str(&format!("{k}=\"{escaped}\""));
                    }
                    out.push('}');
                }
                out.push_str(&format!(" {value}\n"));
            }
        }
    }
    out
}

/// The value of the unique series `name` + exact label set (order
/// insensitive); panics when absent or ambiguous.
fn value(lines: &[Line], name: &str, labels: &[(&str, &str)]) -> i128 {
    let mut want: Vec<(String, String)> =
        labels.iter().map(|(k, v)| (k.to_string(), v.to_string())).collect();
    want.sort();
    let matches: Vec<i128> = lines
        .iter()
        .filter_map(|l| match l {
            Line::Sample { name: n, labels: ls, value } if n == name => {
                let mut have = ls.clone();
                have.sort();
                (have == want).then_some(*value)
            }
            _ => None,
        })
        .collect();
    assert_eq!(matches.len(), 1, "series {name}{labels:?}: found {matches:?}");
    matches[0]
}

/// Sum over every series of exactly `name` (not `name_bucket` etc.).
fn sum_series(lines: &[Line], name: &str) -> i128 {
    lines
        .iter()
        .filter_map(|l| match l {
            Line::Sample { name: n, value, .. } if n == name => Some(*value),
            _ => None,
        })
        .sum()
}

/// Fetches one `METRICS` exposition, each line newline-terminated.
fn metrics(client: &mut Client) -> String {
    client.listing("METRICS").expect("metrics").iter().map(|l| format!("{l}\n")).collect()
}

// ---------------------------------------------------------------------------

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
            entry("sgw.equinix.com", &[r"^p(\d+)\.sgw\.equinix\.com$"]),
            entry("example.net", &[r"^as(\d+)\.example\.net$"]),
        ],
    }
}

fn scratch(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("hoiho-obs-metrics-{}-{name}", std::process::id()))
}

/// The acceptance test: METRICS exactly accounts scripted traffic.
#[test]
fn metrics_exposition_accounts_scripted_traffic_exactly() {
    const K: i128 = 5; // scripted cache hits

    let (parts, _map) = split(&model(), 2).expect("split");
    let router = Arc::new(ShardRouter::new(&parts, 128).expect("build router"));
    let backend = Arc::new(ClusterBackend::new(Arc::clone(&router)));
    let srv = ServerHandle::start_with_backend("127.0.0.1:0", backend, 2).expect("bind");
    let mut client = Client::connect(srv.local_addr()).expect("connect");

    // --- the script: N = K+2 queries, K cache hits, one shard reload.
    let hit_host = "a.b.as64500.equinix.com";
    assert_eq!(client.query(hit_host).expect("first query"), Some(64500)); // cache miss
    for _ in 0..K {
        assert_eq!(client.query(hit_host).expect("repeat query"), Some(64500)); // cache hits
    }
    assert_eq!(client.query("nothing.example.org").expect("miss query"), None); // miss route
    let shard0 = scratch("shard0.model");
    parts[0].save(&shard0).expect("save shard 0 model");
    let resp = client
        .request(&format!("RELOAD SHARD 0 {}", shard0.display()))
        .expect("reload shard");
    std::fs::remove_file(&shard0).ok();
    assert!(resp.starts_with("ok\treloaded\tshard=0\t"), "bad reload response: {resp}");
    let n_requests = K + 3; // K+2 queries + 1 reload, all before METRICS

    // --- fetch and strictly parse the exposition.
    let text = metrics(&mut client);
    assert!(text.starts_with("# TYPE "), "METRICS must open with a TYPE line: {text}");
    let lines = parse(&text);
    assert_eq!(render(&lines), text, "parser must round-trip the exposition losslessly");

    // --- query counters: 6 hits (first + K repeats), 1 miss.
    assert_eq!(
        value(&lines, "hoiho_requests_total", &[("verb", "query"), ("outcome", "hit")]),
        K + 1
    );
    assert_eq!(
        value(&lines, "hoiho_requests_total", &[("verb", "query"), ("outcome", "miss")]),
        1
    );
    assert_eq!(
        value(&lines, "hoiho_requests_total", &[("verb", "reload"), ("outcome", "ok")]),
        1
    );
    // The METRICS request itself is counted after its response renders,
    // so this first exposition must not contain a metrics-verb series.
    assert_eq!(
        sum_series(&lines, "hoiho_requests_total"),
        n_requests,
        "request series must sum to exactly the pre-METRICS traffic"
    );

    // --- per-shard cache counters: K hits on the hit host's shard,
    // 2 misses total of which 1 on the shard="none" (uncovered) series.
    assert_eq!(sum_series(&lines, "hoiho_cache_hits_total"), K);
    assert_eq!(sum_series(&lines, "hoiho_cache_misses_total"), 2);
    assert_eq!(value(&lines, "hoiho_cache_misses_total", &[("shard", "none")]), 1);
    assert_eq!(value(&lines, "hoiho_cache_hits_total", &[("shard", "none")]), 0);
    assert_eq!(sum_series(&lines, "hoiho_cache_evictions_total"), 0);
    assert_eq!(sum_series(&lines, "hoiho_cache_stale_total"), 0);

    // --- the one shard reload: counter, generation gauge, suffix gauge.
    assert_eq!(value(&lines, "hoiho_shard_reloads_total", &[("shard", "0")]), 1);
    assert_eq!(value(&lines, "hoiho_shard_reloads_total", &[("shard", "1")]), 0);
    assert_eq!(value(&lines, "hoiho_shard_generation", &[("shard", "0")]), 1);
    assert_eq!(value(&lines, "hoiho_shard_generation", &[("shard", "1")]), 0);
    assert_eq!(
        value(&lines, "hoiho_shard_suffixes", &[("shard", "0")]),
        parts[0].entries.len() as i128
    );
    // Engine dispatches (cache hits never reach a shard engine): one
    // per cache miss.
    assert_eq!(sum_series(&lines, "hoiho_shard_queries_total"), 1);

    // --- connection + latency accounting.
    assert_eq!(sum_series(&lines, "hoiho_connections_total"), 1);
    assert_eq!(sum_series(&lines, "hoiho_request_latency_ns_count"), n_requests);

    // --- histogram invariants: buckets cumulative-monotone, the +Inf
    // bucket equal to the count.
    let buckets: Vec<(Vec<(String, String)>, i128)> = lines
        .iter()
        .filter_map(|l| match l {
            Line::Sample { name, labels, value } if name == "hoiho_request_latency_ns_bucket" => {
                Some((labels.clone(), *value))
            }
            _ => None,
        })
        .collect();
    assert!(!buckets.is_empty(), "latency histogram has no buckets");
    let mut prev = 0i128;
    for (labels, cum) in &buckets {
        assert!(*cum >= prev, "bucket counts must be cumulative-monotone: {buckets:?}");
        prev = *cum;
        assert!(
            labels.iter().any(|(k, _)| k == "le"),
            "every bucket carries an le label: {labels:?}"
        );
    }
    let (inf_labels, inf) = buckets.last().unwrap();
    assert!(
        inf_labels.iter().any(|(k, v)| k == "le" && v == "+Inf"),
        "last bucket must be +Inf: {inf_labels:?}"
    );
    assert_eq!(*inf, n_requests, "+Inf bucket must equal the series count");
    assert!(
        value(&lines, "hoiho_request_latency_ns_sum", &[])
            >= value(&lines, "hoiho_request_latency_ns_max", &[]),
        "sum of observations is at least the max"
    );

    // --- a second METRICS now shows the first one (self-exclusion).
    let text2 = metrics(&mut client);
    let lines2 = parse(&text2);
    assert_eq!(
        value(&lines2, "hoiho_requests_total", &[("verb", "metrics"), ("outcome", "ok")]),
        1
    );

    // --- EVENTS carries the reload trail (loopback client is admin).
    let events = client.listing("EVENTS 16").expect("events");
    assert!(
        events.iter().any(|l| l.contains("\"kind\":\"shard_reload\"")),
        "event log must record the shard reload: {events:?}"
    );

    let bye = client.request("SHUTDOWN").expect("shutdown");
    assert_eq!(bye, "ok\tbye");
    srv.join();
}

/// METRICS under fire: one thread hammers per-shard reloads while
/// another repeatedly fetches and strictly parses the exposition.
/// Every response must parse and round-trip losslessly (no torn or
/// interleaved documents), and the request counter must be monotone
/// across fetches — a reload mid-render must never produce a snapshot
/// that goes backwards.
#[test]
fn metrics_stays_parseable_and_monotone_under_concurrent_reloads() {
    let (parts, _map) = split(&model(), 2).expect("split");
    let router = Arc::new(ShardRouter::new(&parts, 128).expect("build router"));
    let backend = Arc::new(ClusterBackend::new(Arc::clone(&router)));
    let srv = ServerHandle::start_with_backend("127.0.0.1:0", backend, 2).expect("bind");

    let shard_paths: Vec<PathBuf> = parts
        .iter()
        .enumerate()
        .map(|(k, p)| {
            let path = scratch(&format!("reload-storm-shard{k}.model"));
            p.save(&path).expect("save shard model");
            path
        })
        .collect();

    const RELOADS: usize = 40;
    const FETCHES: usize = 25;
    let addr = srv.local_addr();
    std::thread::scope(|scope| {
        let reloader = scope.spawn(|| {
            let mut client = Client::connect(addr).expect("reloader connect");
            for i in 0..RELOADS {
                let k = i % shard_paths.len();
                let resp = client
                    .request(&format!("RELOAD SHARD {k} {}", shard_paths[k].display()))
                    .expect("reload under storm");
                assert!(
                    resp.starts_with(&format!("ok\treloaded\tshard={k}\t")),
                    "bad reload response under storm: {resp}"
                );
            }
        });

        let mut client = Client::connect(addr).expect("metrics connect");
        let mut prev_requests = 0i128;
        for i in 0..FETCHES {
            // Interleave a little query traffic so counters move.
            client.query("a.b.as64500.equinix.com").expect("query under storm");
            let text = metrics(&mut client);
            assert!(
                text.starts_with("# TYPE "),
                "fetch {i}: METRICS must open with a TYPE line: {text}"
            );
            let lines = parse(&text);
            assert_eq!(
                render(&lines),
                text,
                "fetch {i}: exposition must round-trip losslessly mid-reload"
            );
            let requests = sum_series(&lines, "hoiho_requests_total");
            assert!(
                requests >= prev_requests,
                "fetch {i}: request counter went backwards ({prev_requests} -> {requests})"
            );
            prev_requests = requests;
        }
        reloader.join().expect("reloader thread panicked");
    });

    // After the storm: reload counters sum to exactly the scripted
    // total and the server still answers.
    let mut client = Client::connect(addr).expect("post-storm connect");
    let text = metrics(&mut client);
    let lines = parse(&text);
    assert_eq!(
        sum_series(&lines, "hoiho_shard_reloads_total"),
        RELOADS as i128,
        "every reload in the storm must be counted exactly once"
    );
    assert_eq!(
        client.query("a.b.as64500.equinix.com").expect("post-storm query"),
        Some(64500)
    );

    for p in &shard_paths {
        std::fs::remove_file(p).ok();
    }
    let bye = client.request("SHUTDOWN").expect("shutdown");
    assert_eq!(bye, "ok\tbye");
    srv.join();
}
