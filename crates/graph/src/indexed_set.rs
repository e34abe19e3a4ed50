//! A set with O(1) insert, remove, membership, and index-based access —
//! the classic vector + position-map structure.
//!
//! Used to keep the set of currently live nodes so the Random baseline can
//! sample uniformly without scanning, and so `TdnGraph` can report the node
//! set cheaply.

use crate::hash::FxHashMap;
use crate::node::NodeId;

/// A randomly indexable set of node ids.
#[derive(Default, Clone)]
pub struct IndexedSet {
    items: Vec<NodeId>,
    pos: FxHashMap<NodeId, usize>,
}

impl IndexedSet {
    /// Creates an empty set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of elements.
    #[inline]
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Whether the set is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Whether `n` is a member.
    #[inline]
    pub fn contains(&self, n: NodeId) -> bool {
        self.pos.contains_key(&n)
    }

    /// Inserts `n`; returns `true` if newly added.
    pub fn insert(&mut self, n: NodeId) -> bool {
        if self.pos.contains_key(&n) {
            return false;
        }
        self.pos.insert(n, self.items.len());
        self.items.push(n);
        true
    }

    /// Removes `n` by swap-remove; returns `true` if it was present.
    pub fn remove(&mut self, n: NodeId) -> bool {
        let Some(idx) = self.pos.remove(&n) else {
            return false;
        };
        let last = self.items.len() - 1;
        self.items.swap(idx, last);
        self.items.pop();
        if idx < self.items.len() {
            self.pos.insert(self.items[idx], idx);
        }
        true
    }

    /// Element at position `i` (positions are unstable across removals).
    #[inline]
    pub fn get(&self, i: usize) -> Option<NodeId> {
        self.items.get(i).copied()
    }

    /// All members as a slice (arbitrary order).
    #[inline]
    pub fn as_slice(&self) -> &[NodeId] {
        &self.items
    }

    /// Iterates over members (arbitrary order).
    pub fn iter(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.items.iter().copied()
    }

    /// Serializes the member slab as one raw `u32` word run. The *position
    /// order* is part of the snapshot: callers sample members by index (the
    /// Random tracker), so a warm restart must see the identical layout.
    pub fn write_snapshot(&self, w: &mut codec::Writer) {
        let items: Vec<u32> = self.items.iter().map(|n| n.0).collect();
        w.put_u32_run(&items);
    }

    /// Reconstructs a set from [`Self::write_snapshot`] bytes, rebuilding
    /// the position map. Duplicates are rejected as corruption.
    pub fn read_snapshot(r: &mut codec::Reader<'_>) -> codec::Result<Self> {
        let items = r.get_u32_run()?;
        let mut set = IndexedSet::new();
        for &raw in &items {
            if !set.insert(NodeId(raw)) {
                return Err(codec::CodecError::Invalid("duplicate IndexedSet member"));
            }
        }
        Ok(set)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_remove_contains() {
        let mut s = IndexedSet::new();
        assert!(s.insert(NodeId(1)));
        assert!(s.insert(NodeId(2)));
        assert!(!s.insert(NodeId(1)));
        assert_eq!(s.len(), 2);
        assert!(s.contains(NodeId(1)));
        assert!(s.remove(NodeId(1)));
        assert!(!s.remove(NodeId(1)));
        assert!(!s.contains(NodeId(1)));
        assert_eq!(s.len(), 1);
        assert_eq!(s.get(0), Some(NodeId(2)));
    }

    #[test]
    fn swap_remove_keeps_positions_consistent() {
        let mut s = IndexedSet::new();
        for i in 0..100 {
            s.insert(NodeId(i));
        }
        // Remove every even element, then verify membership via positions.
        for i in (0..100).step_by(2) {
            assert!(s.remove(NodeId(i)));
        }
        assert_eq!(s.len(), 50);
        for i in 0..s.len() {
            let n = s.get(i).unwrap();
            assert_eq!(n.0 % 2, 1);
            assert!(s.contains(n));
        }
    }

    #[test]
    fn get_out_of_range_is_none() {
        let s = IndexedSet::new();
        assert_eq!(s.get(0), None);
    }
}
