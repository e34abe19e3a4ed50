//! Epoch-stamped node sets with O(1) clear.
//!
//! Dirty-set tracking (which nodes' reachability may have changed since the
//! last batch) and batched-eviction sweeps both need a set over dense node
//! indices that is cleared once per batch. Zeroing a bitmap per batch would
//! cost O(n); an [`EpochSet`] instead stamps members with the current epoch
//! and clears by bumping it, exactly like [`crate::reach::ReachScratch`]'s
//! visited array. Membership order is recorded explicitly so consumers that
//! replay the set (e.g. compaction sweeps, dirty-set snapshots) observe a
//! deterministic first-insertion order.

use crate::node::NodeId;

/// A set of node ids with O(1) `clear`, O(1) `insert`/`contains`, and
/// deterministic (first-insertion) iteration order.
#[derive(Clone, Debug, Default)]
pub struct EpochSet {
    stamp: Vec<u32>,
    epoch: u32,
    members: Vec<NodeId>,
}

impl EpochSet {
    /// Creates an empty set; the stamp array grows on demand.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of members.
    #[inline]
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// Whether the set is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// Members in first-insertion order.
    #[inline]
    pub fn members(&self) -> &[NodeId] {
        &self.members
    }

    /// Whether `n` is a member.
    #[inline]
    pub fn contains(&self, n: NodeId) -> bool {
        self.stamp
            .get(n.index())
            .is_some_and(|&s| s == self.epoch && self.epoch != 0)
    }

    /// Inserts `n`, growing the stamp array if needed. Returns `true` if
    /// the node was not already a member.
    pub fn insert(&mut self, n: NodeId) -> bool {
        if self.epoch == 0 {
            // Epoch 0 is the "never stamped" sentinel; the first insert
            // after construction or a wrap moves off it.
            self.epoch = 1;
        }
        if self.stamp.len() <= n.index() {
            self.stamp.resize(n.index() + 1, 0);
        }
        let slot = &mut self.stamp[n.index()];
        if *slot == self.epoch {
            return false;
        }
        *slot = self.epoch;
        self.members.push(n);
        true
    }

    /// Clears the set in O(1) (plus the member list truncation).
    pub fn clear(&mut self) {
        self.members.clear();
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            // Extremely rare wrap: reset all stamps so stale marks cannot
            // alias a future epoch.
            self.stamp.fill(0);
            self.epoch = 1;
        }
    }

    /// Clears the set and returns the members it held, in first-insertion
    /// order.
    pub fn drain(&mut self) -> Vec<NodeId> {
        let out = std::mem::take(&mut self.members);
        self.clear();
        out
    }

    /// Approximate heap footprint in bytes.
    pub fn approx_bytes(&self) -> usize {
        self.stamp.capacity() * std::mem::size_of::<u32>()
            + self.members.capacity() * std::mem::size_of::<NodeId>()
    }

    /// Serializes the member list (order verbatim) as one raw `u32` word
    /// run.
    pub fn write_snapshot(&self, w: &mut codec::Writer) {
        let members: Vec<u32> = self.members.iter().map(|n| n.0).collect();
        w.put_u32_run(&members);
    }

    /// Reconstructs a set from [`Self::write_snapshot`] bytes. `bound` is
    /// the enclosing structure's node-index bound; members outside it, or
    /// duplicated, are typed errors.
    pub fn read_snapshot(r: &mut codec::Reader<'_>, bound: usize) -> codec::Result<Self> {
        let members = r.get_u32_run()?;
        let mut set = EpochSet::new();
        for &raw in &members {
            let node = NodeId(raw);
            if node.index() >= bound {
                return Err(codec::CodecError::Invalid(
                    "EpochSet member outside node bound",
                ));
            }
            if !set.insert(node) {
                return Err(codec::CodecError::Invalid("duplicate EpochSet member"));
            }
        }
        Ok(set)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_contains_clear() {
        let mut s = EpochSet::new();
        assert!(!s.contains(NodeId(3)));
        assert!(s.insert(NodeId(3)));
        assert!(!s.insert(NodeId(3)), "double insert is a no-op");
        assert!(s.insert(NodeId(0)));
        assert_eq!(s.members(), &[NodeId(3), NodeId(0)]);
        s.clear();
        assert!(s.is_empty());
        assert!(!s.contains(NodeId(3)), "clear forgets members");
        assert!(s.insert(NodeId(3)), "members can return after clear");
    }

    #[test]
    fn drain_returns_insertion_order() {
        let mut s = EpochSet::new();
        for i in [5u32, 1, 9, 1, 5] {
            s.insert(NodeId(i));
        }
        assert_eq!(s.drain(), vec![NodeId(5), NodeId(1), NodeId(9)]);
        assert!(s.is_empty());
    }

    #[test]
    fn epoch_wrap_resets_stamps() {
        let mut s = EpochSet::new();
        s.insert(NodeId(2));
        s.epoch = u32::MAX;
        s.clear(); // wraps to 0 -> full reset to 1
        assert!(!s.contains(NodeId(2)));
        assert!(s.insert(NodeId(2)));
        assert!(s.contains(NodeId(2)));
    }

    #[test]
    fn snapshot_round_trip_keeps_order_and_rejects_corruption() {
        let mut s = EpochSet::new();
        for i in [7u32, 2, 4] {
            s.insert(NodeId(i));
        }
        let mut w = codec::Writer::new();
        s.write_snapshot(&mut w);
        let bytes = w.into_vec();
        let mut r = codec::Reader::new(&bytes);
        let back = EpochSet::read_snapshot(&mut r, 8).expect("round trip");
        r.finish().expect("fully consumed");
        assert_eq!(back.members(), s.members());
        assert!(back.contains(NodeId(4)));
        // Out-of-bound member.
        let mut r = codec::Reader::new(&bytes);
        assert!(EpochSet::read_snapshot(&mut r, 7).is_err());
        // Every truncation errors.
        for cut in 0..bytes.len() {
            let mut r = codec::Reader::new(&bytes[..cut]);
            let res = EpochSet::read_snapshot(&mut r, 8).and_then(|_| r.finish());
            assert!(res.is_err(), "prefix of {cut} bytes decoded");
        }
    }
}
