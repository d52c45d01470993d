//! The reply bytes of a fresh single-engine server, pinned: one
//! pipelined loopback connection sends every kind of request line —
//! queries that hit, miss and fall outside the model, an uppercase
//! query and a blank line, `BATCH` headers valid and invalid with a
//! batch's items, the `STATS` listings, and the admin verbs with bad
//! arguments — and everything the server writes back before it closes
//! must equal `reply_transcript.txt` byte for byte.

use hoiho::classify::NcClass;
use hoiho::regex::Regex;
use hoiho::taxonomy::Taxonomy;
use hoiho_serve::{Engine, EvalCounts, Model, ModelEntry, ServerHandle};
use std::io::{Read, Write};
use std::net::{Shutdown, TcpStream};
use std::sync::Arc;

/// Every request, in order, as one pipelined write.
const REQUESTS: &str = "\
as1.example.com
core1.example.com
nothing.example.org
AS2.EXAMPLE.COM

BATCH 0
BATCH 2
as3.example.com
nothing.example.org
BATCH 5000
BATCH two
STATS
STATS SUFFIX
STATS CLUSTER
EVENTS x
TRACES x
RELOAD /nonexistent
";

fn entry(suffix: &str, class: NcClass, rx: &str) -> ModelEntry {
    ModelEntry {
        suffix: suffix.to_string(),
        class,
        single: false,
        taxonomy: Taxonomy::Start,
        hostnames: 4,
        counts: EvalCounts::default(),
        regexes: vec![Regex::parse(rx).unwrap()],
    }
}

#[test]
fn pipelined_replies_equal_the_transcript() {
    let model = Model {
        entries: vec![
            entry("example.com", NcClass::Good, r"^as(\d+)\.example\.com$"),
            entry("other.net", NcClass::Poor, r"^r(\d+)\.other\.net$"),
        ],
    };
    let srv = ServerHandle::start("127.0.0.1:0", Arc::new(Engine::new(&model)), 1).unwrap();
    let mut s = TcpStream::connect(srv.local_addr()).unwrap();
    s.write_all(REQUESTS.as_bytes()).unwrap();
    s.shutdown(Shutdown::Write).unwrap();
    let mut got = Vec::new();
    s.read_to_end(&mut got).unwrap();
    srv.shutdown();
    let want: &[u8] = include_bytes!("reply_transcript.txt");
    assert!(
        got == want,
        "reply bytes differ from the transcript:\n--- got\n{}\n--- want\n{}",
        String::from_utf8_lossy(&got),
        String::from_utf8_lossy(want)
    );
}
