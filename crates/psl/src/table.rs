//! The reversed-label table: PSL rules and index keys in one tree of
//! labels, walked right to left once per name.

use crate::{Dispatch, PublicSuffixList};
use std::collections::HashMap;

/// Rule-kind bits of a table node. One node may carry several: `ck`
/// and `*.ck` are both stored on `ck`.
pub(crate) const NORMAL: u8 = 1;
pub(crate) const WILDCARD: u8 = 2;
pub(crate) const EXCEPTION: u8 = 4;

/// The root node: the empty suffix, under which every last label hangs.
const ROOT: u32 = 0;
/// An index field of a [`Node`] that points at nothing.
const NONE: u32 = u32::MAX;

/// One label suffix: `org.nz` is the node `org` under the root's child
/// `nz`.
#[derive(Debug, Clone)]
struct Node {
    /// Index into [`SuffixTable::children`] of this node's child map, or
    /// [`NONE`] for a leaf (most nodes: a leaf costs no map).
    children: u32,
    /// The node one label shorter (the root is its own parent).
    parent: u32,
    /// Index into [`SuffixTable::values`], or [`NONE`].
    value: u32,
    /// PSL rule-kind bits of the rules stored here.
    kinds: u8,
}

impl Node {
    fn new(parent: u32) -> Node {
        Node { children: NONE, parent, value: NONE, kinds: 0 }
    }
}

/// PSL rules and suffix-keyed values in one immutable tree of labels,
/// resolved right to left in one walk per name.
///
/// Every suffix decision runs through a table: the learner's grouping
/// ([`PublicSuffixList::registrable_domain`] walks the list's own
/// table, which holds rules alone), and serving dispatch
/// ([`SuffixTable::resolve`] over the PSL rules plus one value per
/// model suffix: a convention's index in the engine, a router's
/// `(shard, convention)`). The table is built at model load from a
/// [`PublicSuffixList`] and the index's `(key, value)` pairs
/// ([`SuffixTable::new`], then [`SuffixTable::insert`]) and only read
/// afterwards.
///
/// Rules are stored as the list holds them, lowercase: `org.nz` on the
/// node `org.nz`, the wildcard `*.ck` as a bit on `ck`, the exception
/// `!www.ck` as a bit on `www.ck`. Keys are stored verbatim, so a key
/// holding uppercase or ending in a dot is never reached by a
/// lowercase name.
///
/// Each node with children holds one map from the label to its left to
/// the longer suffix's node. Labels come from outside (hostnames, model
/// artifacts), so the maps keep std's randomly keyed hasher: no input
/// can choose its collisions. Per-node children sorted by length and
/// bytes and binary-searched took about twice as long per name; an
/// unkeyed flat table was a few percent faster but lets inputs choose
/// collisions (DESIGN.md §7b).
#[derive(Debug, Clone)]
pub struct SuffixTable<V> {
    /// The tree, root first.
    nodes: Vec<Node>,
    /// The child maps of the nodes that have children.
    children: Vec<HashMap<Box<str>, u32>>,
    /// The values nodes point at, in insertion order.
    values: Vec<V>,
}

impl<V> Default for SuffixTable<V> {
    fn default() -> Self {
        SuffixTable { nodes: vec![Node::new(ROOT)], children: Vec::new(), values: Vec::new() }
    }
}

/// What one right-to-left walk of a name found.
struct Walk {
    /// The deepest walked node holding a value, and its label count.
    valued: Option<(u32, usize)>,
    /// Labels in the name's public suffix by the rules met (≥ 1).
    suffix_labels: usize,
}

impl<V> SuffixTable<V> {
    /// A table holding `psl`'s rules and no values yet.
    pub fn new(psl: PublicSuffixList) -> SuffixTable<V> {
        let SuffixTable { nodes, children, values: _ } = psl.rules;
        SuffixTable { nodes, children, values: Vec::new() }
    }

    /// Stores `value` under `key`, taken verbatim (`a.b` is the label
    /// `a` under `b`), and returns the value it replaces.
    pub fn insert(&mut self, key: &str, value: V) -> Option<V> {
        let node = self.node_for(key);
        let slot = self.nodes[node as usize].value;
        if slot != NONE {
            return Some(std::mem::replace(&mut self.values[slot as usize], value));
        }
        self.nodes[node as usize].value = index(self.values.len());
        self.values.push(value);
        None
    }

    /// The value stored under exactly `key`.
    pub fn get(&self, key: &str) -> Option<&V> {
        let mut node = ROOT;
        for label in key.rsplit('.') {
            node = self.child(node, label)?;
        }
        self.value_of(node)
    }

    /// Resolves an already-lowercased hostname (see
    /// [`crate::lowercase`]) against the table's values: the value keyed
    /// by the name's PSL registrable domain is [`Dispatch::Exact`];
    /// failing that, the value of the longest label suffix holding one
    /// is [`Dispatch::Fallback`] (a model keyed deeper than, or under
    /// PSL drift differently from, the registrable domain stays
    /// reachable); failing that, [`Dispatch::Miss`]. Trailing dots are
    /// ignored. A name with an empty label (`a..b`) has no registrable
    /// domain, so it can only fall back.
    ///
    /// One walk decides it all. The labels are read right to left
    /// while the table has a child for them, tracking the prevailing
    /// PSL rule as [`PublicSuffixList::lookup`] defines it and the
    /// deepest node holding a value; the registrable domain's node is
    /// then reached from that node through parent links. Labels probed
    /// ≤ the deepest key's (or rule's) label count + 1, each probe
    /// hashes one label, and the bytes scanned stay within the name, so
    /// the cost is O(name length) whatever the rule or key count.
    /// Nothing is allocated.
    pub fn resolve(&self, lower: &str) -> Dispatch<&V> {
        let name = lower.trim_end_matches('.');
        if name.is_empty() {
            return Dispatch::Miss;
        }
        let walk = self.walk(name);
        let Some((deepest, depth)) = walk.valued else { return Dispatch::Miss };
        let registrable = walk.suffix_labels + 1;
        if depth >= registrable {
            let mut node = deepest;
            for _ in registrable..depth {
                node = self.nodes[node as usize].parent;
            }
            if let Some(v) = self.value_of(node) {
                if !has_empty_label(name) {
                    return Dispatch::Exact(v);
                }
            }
        }
        Dispatch::Fallback(&self.values[self.nodes[deepest as usize].value as usize])
    }

    /// Walks `name` (non-empty, no trailing dot) right to left from the
    /// root, stopping at the first label with no child.
    ///
    /// The prevailing rule is the matching rule with the most labels,
    /// except that a matching exception rule beats all others and its
    /// suffix drops the exception's leftmost label. A wildcard rule
    /// `*.ck` matches only when the name has a label left over for its
    /// star, and then claims one label more than its key. Every name
    /// keeps at least one label (the implicit `*` rule, and a
    /// pathological `!com`).
    fn walk(&self, name: &str) -> Walk {
        let (mut node, mut depth, mut end) = (ROOT, 0, name.len());
        let (mut longest, mut exception, mut valued) = (1, None, None);
        loop {
            let start = label_start(name, end);
            let Some(child) = self.child(node, &name[start..end]) else { break };
            node = child;
            depth += 1;
            let n = &self.nodes[node as usize];
            if n.kinds & EXCEPTION != 0 {
                exception = Some(depth);
            }
            if n.kinds & NORMAL != 0 {
                longest = longest.max(depth);
            }
            if n.kinds & WILDCARD != 0 && start > 0 {
                longest = longest.max(depth + 1);
            }
            if n.value != NONE {
                valued = Some((node, depth));
            }
            if start == 0 {
                break;
            }
            end = start - 1;
        }
        let suffix_labels = exception.map_or(longest, |labels| labels - 1).max(1);
        Walk { valued, suffix_labels }
    }

    /// Labels in the public suffix of `name` (non-empty, no trailing
    /// dot, no empty label).
    pub(crate) fn suffix_labels(&self, name: &str) -> usize {
        self.walk(name).suffix_labels
    }

    /// Adds rule-kind bits to the node of `key` (lowercase, no trailing
    /// dot).
    pub(crate) fn add_rule(&mut self, key: &str, kind: u8) {
        let node = self.node_for(key);
        self.nodes[node as usize].kinds |= kind;
    }

    /// Distinct rules stored (one per kind bit set).
    pub(crate) fn rule_count(&self) -> usize {
        self.nodes.iter().map(|n| n.kinds.count_ones() as usize).sum()
    }

    /// The node of `key`'s labels, created with its missing ancestors.
    fn node_for(&mut self, key: &str) -> u32 {
        let mut node = ROOT;
        for label in key.rsplit('.') {
            if let Some(child) = self.child(node, label) {
                node = child;
                continue;
            }
            if self.nodes[node as usize].children == NONE {
                self.nodes[node as usize].children = index(self.children.len());
                self.children.push(HashMap::new());
            }
            let child = index(self.nodes.len());
            self.nodes.push(Node::new(node));
            let map = self.nodes[node as usize].children as usize;
            self.children[map].insert(label.into(), child);
            node = child;
        }
        node
    }

    /// The node one `label` longer than `node`, if the table has it.
    fn child(&self, node: u32, label: &str) -> Option<u32> {
        // A leaf's `NONE` indexes past the end: no map, no child.
        self.children.get(self.nodes[node as usize].children as usize)?.get(label).copied()
    }

    fn value_of(&self, node: u32) -> Option<&V> {
        let slot = self.nodes[node as usize].value;
        (slot != NONE).then(|| &self.values[slot as usize])
    }
}

/// `i` as a node, map or value index; the sentinel [`NONE`] is never
/// one.
fn index(i: usize) -> u32 {
    u32::try_from(i).ok().filter(|&i| i != NONE).expect("a table holds fewer than 2^32 - 1 entries")
}

/// True when `name` holds an empty label: it is empty, or it starts or
/// ends with a dot or holds two in a row.
pub(crate) fn has_empty_label(name: &str) -> bool {
    let b = name.as_bytes();
    match (b.first(), b.last()) {
        (Some(&first), Some(&last)) if first != b'.' && last != b'.' => {
            // Folded with no early exit, so the scan vectorises: a real
            // name holds no empty label, and every byte is read anyway.
            b.iter().zip(&b[1..]).fold(false, |seen, (&x, &y)| seen | (x == b'.') & (y == b'.'))
        }
        _ => true,
    }
}

/// Where the label ending at byte `end` of `name` starts.
pub(crate) fn label_start(name: &str, end: usize) -> usize {
    name.as_bytes()[..end].iter().rposition(|&b| b == b'.').map_or(0, |dot| dot + 1)
}
