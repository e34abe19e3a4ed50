//! Node identifiers, discrete time, and optional name interning.

use crate::hash::FxHashMap;
use std::fmt;

/// Discrete time step (Definition 2 of the paper uses `τ = 1, 2, …`).
pub type Time = u64;

/// Remaining or assigned lifetime of an edge, in time steps.
///
/// The paper bounds lifetimes by `L`; [`Lifetime::MAX`] models the
/// addition-only (ADN) case of Example 3.
pub type Lifetime = u32;

/// A compact node identifier.
///
/// Nodes are interned to dense `u32`s so adjacency can be indexed by vectors
/// and hashed cheaply.
#[derive(Copy, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub u32);

impl NodeId {
    /// Returns the identifier as a dense index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl From<u32> for NodeId {
    #[inline]
    fn from(v: u32) -> Self {
        NodeId(v)
    }
}

/// Packs an ordered node pair into a single `u64` key (for dedup sets and
/// multiplicity counters).
#[inline]
pub fn pack_pair(u: NodeId, v: NodeId) -> u64 {
    ((u.0 as u64) << 32) | v.0 as u64
}

/// Inverse of [`pack_pair`].
#[inline]
pub fn unpack_pair(key: u64) -> (NodeId, NodeId) {
    (NodeId((key >> 32) as u32), NodeId(key as u32))
}

/// Bidirectional mapping between external entity names and [`NodeId`]s.
///
/// Generators usually mint dense ids directly; the interner is for examples
/// and applications that ingest named entities (user handles, place names).
#[derive(Default, Clone)]
pub struct NodeInterner {
    names: Vec<String>,
    ids: FxHashMap<String, NodeId>,
}

impl NodeInterner {
    /// Creates an empty interner.
    pub fn new() -> Self {
        Self::default()
    }

    /// Returns the id for `name`, minting a new one if unseen.
    pub fn intern(&mut self, name: &str) -> NodeId {
        if let Some(&id) = self.ids.get(name) {
            return id;
        }
        let id = NodeId(self.names.len() as u32);
        self.names.push(name.to_owned());
        self.ids.insert(name.to_owned(), id);
        id
    }

    /// Looks up an already-interned name.
    pub fn get(&self, name: &str) -> Option<NodeId> {
        self.ids.get(name).copied()
    }

    /// Returns the name for an id minted by this interner.
    pub fn name(&self, id: NodeId) -> Option<&str> {
        self.names.get(id.index()).map(String::as_str)
    }

    /// Number of interned names.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// Whether no names have been interned.
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interner_is_stable_and_dense() {
        let mut it = NodeInterner::new();
        let a = it.intern("alice");
        let b = it.intern("bob");
        let a2 = it.intern("alice");
        assert_eq!(a, a2);
        assert_ne!(a, b);
        assert_eq!(a.index(), 0);
        assert_eq!(b.index(), 1);
        assert_eq!(it.name(a), Some("alice"));
        assert_eq!(it.get("bob"), Some(b));
        assert_eq!(it.get("carol"), None);
        assert_eq!(it.len(), 2);
    }

    #[test]
    fn pair_packing_round_trips() {
        let u = NodeId(7);
        let v = NodeId(u32::MAX - 3);
        let key = pack_pair(u, v);
        assert_eq!(unpack_pair(key), (u, v));
        assert_ne!(pack_pair(u, v), pack_pair(v, u));
    }
}
