//! # hoiho — learning regexes that extract ASNs from hostnames
//!
//! A from-scratch implementation of the learning system described in
//! Luckie, Marder, Fletcher, Huffaker & claffy, *Learning to Extract and
//! Use ASNs in Hostnames*, IMC 2020. Operators often encode the
//! Autonomous System Number (ASN) that operates a router into the DNS
//! hostname of the router's interfaces; this crate learns, per domain
//! suffix, a *naming convention* (NC) — a small set of regular
//! expressions — that extracts those ASNs, using noisy training ASNs
//! produced by heuristic router-ownership inference (or recorded in
//! PeeringDB).
//!
//! ## Pipeline (paper section in parentheses)
//!
//! 1. [`training`] — assemble observations (hostname, interface address,
//!    training ASN) and group them by public-suffix+1 (§3).
//! 2. [`phases::base`] — generate base regexes from hostname structure
//!    (§3.2).
//! 3. [`phases::merge`] — merge regexes differing by one simple string
//!    into alternations (§3.3).
//! 4. [`phases::classes`] — specialise punctuation-exclusion components
//!    into character classes observed in matches (§3.4).
//! 5. [`phases::sets`] — combine regexes into convention sets (§3.5).
//! 6. [`select`] — pick the best convention, preferring fewer regexes
//!    (§3.6).
//! 7. [`classify`] — label each NC good / promising / single / poor (§4),
//!    and [`taxonomy`] — the Table 1 shape taxonomy.
//!
//! Evaluation throughout uses the §3.1 rules implemented in [`eval`]:
//! true positives tolerate single-digit typos (Damerau-Levenshtein
//! distance one with matching first/last digits, [`editdist`]), and
//! numbers that are fragments of an IP address embedded in the hostname
//! ([`iputil`]) are false positives.
//!
//! ## Quick start
//!
//! ```
//! use hoiho::training::{Observation, TrainingSet};
//! use hoiho::learner::{learn_suffix, LearnConfig};
//!
//! let mut ts = TrainingSet::new();
//! for (asn, host) in [
//!     (64500u32, "as64500.border1.example.com"),
//!     (64501, "as64501.border2.example.com"),
//!     (64502, "as64502.core.example.com"),
//! ] {
//!     ts.push(Observation::new(host, [192, 0, 2, 1], asn));
//! }
//! let suffixes = ts.by_suffix(&hoiho_psl::PublicSuffixList::builtin());
//! let learned = hoiho::learner::learn_suffix(&suffixes[0], &LearnConfig::default()).unwrap();
//! assert_eq!(learned.convention.extract("as64501.border2.example.com"), Some(64501));
//! ```

pub mod apparent;
pub mod classify;
pub mod cli;
pub mod convention;
pub mod editdist;
pub mod eval;
pub mod iputil;
pub mod label;
pub mod learner;
pub mod phases;
pub mod quality;
pub mod regex;
pub mod select;
pub mod taxonomy;
pub mod training;

pub use convention::NamingConvention;
pub use learner::{learn_all, learn_suffix, LearnConfig, LearnedConvention};
pub use regex::Regex;
