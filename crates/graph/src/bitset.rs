//! Dense `u64`-word bitset over node indices.
//!
//! Backs [`crate::reach::CoverSet`]: covers are probed on every visited
//! edge of every marginal-gain BFS, so membership must be one shift and
//! one AND on a cache-dense word array rather than a hash probe. Iteration
//! is always in ascending node order, and checkpoints store the word array
//! itself.

use crate::node::NodeId;

/// A growable bitset keyed by dense node indices.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct NodeBitSet {
    words: Vec<u64>,
    len: usize,
}

impl NodeBitSet {
    /// Creates an empty set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of members.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the set is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Whether `n` is a member.
    #[inline]
    pub fn contains(&self, n: NodeId) -> bool {
        self.words
            .get(n.index() >> 6)
            .is_some_and(|&w| w >> (n.index() & 63) & 1 != 0)
    }

    /// Inserts `n`, growing the word array on demand. Returns `true` if
    /// the node was not already a member.
    pub fn insert(&mut self, n: NodeId) -> bool {
        let word = n.index() >> 6;
        if self.words.len() <= word {
            self.words.resize(word + 1, 0);
        }
        let mask = 1u64 << (n.index() & 63);
        let w = &mut self.words[word];
        if *w & mask != 0 {
            return false;
        }
        *w |= mask;
        self.len += 1;
        true
    }

    /// Removes `n`. Returns `true` if it was a member.
    pub fn remove(&mut self, n: NodeId) -> bool {
        let Some(w) = self.words.get_mut(n.index() >> 6) else {
            return false;
        };
        let mask = 1u64 << (n.index() & 63);
        if *w & mask == 0 {
            return false;
        }
        *w &= !mask;
        self.len -= 1;
        // Keep the word vector free of trailing zeros so the derived
        // (word-wise) equality stays membership equality.
        while self.words.last() == Some(&0) {
            self.words.pop();
        }
        true
    }

    /// Clears the set, keeping the allocation.
    pub fn clear(&mut self) {
        self.words.fill(0);
        self.len = 0;
    }

    /// Unions `other` into `self` in O(words).
    pub fn union_with(&mut self, other: &NodeBitSet) {
        if self.words.len() < other.words.len() {
            self.words.resize(other.words.len(), 0);
        }
        let mut len = 0usize;
        for (w, &o) in self.words.iter_mut().zip(&other.words) {
            *w |= o;
            len += w.count_ones() as usize;
        }
        for &w in &self.words[other.words.len()..] {
            len += w.count_ones() as usize;
        }
        self.len = len;
    }

    /// Iterates members in ascending node order.
    pub fn iter(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.words.iter().enumerate().flat_map(|(wi, &word)| {
            let mut w = word;
            std::iter::from_fn(move || {
                if w == 0 {
                    return None;
                }
                let bit = w.trailing_zeros();
                w &= w - 1;
                Some(NodeId(((wi as u32) << 6) | bit))
            })
        })
    }

    /// Approximate heap footprint in bytes.
    pub fn approx_bytes(&self) -> usize {
        self.words.capacity() * std::mem::size_of::<u64>()
    }

    /// The backing word array (bit `i` of word `w` = node `64·w + i`).
    #[inline]
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Serializes the set as one raw `u64` word run, trailing zero words
    /// trimmed (the canonical form `remove` maintains).
    pub fn write_snapshot(&self, w: &mut codec::Writer) {
        let used = self
            .words
            .iter()
            .rposition(|&x| x != 0)
            .map_or(0, |i| i + 1);
        w.put_u64_run(&self.words[..used]);
    }

    /// Reconstructs a set from [`Self::write_snapshot`] bytes by bulk
    /// copy, recomputing the member count. Trailing zero words are rejected
    /// (non-canonical input would break derived equality).
    pub fn read_snapshot(r: &mut codec::Reader<'_>) -> codec::Result<Self> {
        let words = r.get_u64_run()?;
        if words.last() == Some(&0) {
            return Err(codec::CodecError::Invalid(
                "bitset snapshot has a trailing zero word",
            ));
        }
        let len = words.iter().map(|w| w.count_ones() as usize).sum();
        Ok(NodeBitSet { words, len })
    }
}

impl FromIterator<NodeId> for NodeBitSet {
    fn from_iter<I: IntoIterator<Item = NodeId>>(iter: I) -> Self {
        let mut s = NodeBitSet::new();
        for n in iter {
            s.insert(n);
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_contains_remove() {
        let mut s = NodeBitSet::new();
        assert!(!s.contains(NodeId(70)));
        assert!(s.insert(NodeId(70)));
        assert!(!s.insert(NodeId(70)), "double insert is a no-op");
        assert!(s.insert(NodeId(0)));
        assert!(s.contains(NodeId(70)) && s.contains(NodeId(0)));
        assert_eq!(s.len(), 2);
        assert!(s.remove(NodeId(70)));
        assert!(!s.remove(NodeId(70)));
        assert!(!s.remove(NodeId(500)), "out-of-range remove is a no-op");
        assert_eq!(s.len(), 1);
        s.clear();
        assert!(s.is_empty() && !s.contains(NodeId(0)));
    }

    #[test]
    fn iteration_is_ascending() {
        let s: NodeBitSet = [5u32, 64, 3, 200, 63].into_iter().map(NodeId).collect();
        let got: Vec<u32> = s.iter().map(|n| n.0).collect();
        assert_eq!(got, vec![3, 5, 63, 64, 200]);
    }

    #[test]
    fn union_is_o_words_and_recounts() {
        let mut a: NodeBitSet = [1u32, 2, 300].into_iter().map(NodeId).collect();
        let b: NodeBitSet = [2u32, 3].into_iter().map(NodeId).collect();
        a.union_with(&b);
        let got: Vec<u32> = a.iter().map(|n| n.0).collect();
        assert_eq!(got, vec![1, 2, 3, 300]);
        assert_eq!(a.len(), 4);
        // Union into the shorter side grows it.
        let mut c = NodeBitSet::new();
        c.union_with(&a);
        assert_eq!(c, a);
    }

    #[test]
    fn word_boundaries_are_exact() {
        let mut s = NodeBitSet::new();
        for i in [63u32, 64, 127, 128] {
            assert!(s.insert(NodeId(i)));
        }
        for i in [63u32, 64, 127, 128] {
            assert!(s.contains(NodeId(i)));
        }
        assert!(!s.contains(NodeId(62)) && !s.contains(NodeId(129)));
    }

    #[test]
    fn raw_word_snapshot_round_trip() {
        let s: NodeBitSet = [3u32, 64, 129, 700].into_iter().map(NodeId).collect();
        let mut w = codec::Writer::new();
        s.write_snapshot(&mut w);
        let bytes = w.into_vec();
        let mut r = codec::Reader::new(&bytes);
        let back = NodeBitSet::read_snapshot(&mut r).expect("round trip");
        r.finish().expect("fully consumed");
        assert_eq!(back, s);
        assert_eq!(back.len(), 4);
        // A set with trailing zero words (via clear) still writes the
        // trimmed canonical form.
        let mut t = NodeBitSet::new();
        t.insert(NodeId(500));
        t.clear(); // keeps the 8-word allocation, all zero
        t.insert(NodeId(1));
        assert!(t.words().len() > 1, "clear must keep the allocation");
        let mut w = codec::Writer::new();
        t.write_snapshot(&mut w);
        let bytes = w.into_vec();
        let mut r = codec::Reader::new(&bytes);
        let back = NodeBitSet::read_snapshot(&mut r).unwrap();
        assert_eq!(back.words(), &[2u64]);
        // Every truncation errors.
        for cut in 0..bytes.len() {
            let mut r = codec::Reader::new(&bytes[..cut]);
            let res = NodeBitSet::read_snapshot(&mut r).and_then(|_| r.finish());
            assert!(res.is_err(), "prefix of {cut} bytes decoded");
        }
    }

    #[test]
    fn equality_is_membership_not_capacity() {
        let mut a = NodeBitSet::new();
        a.insert(NodeId(100));
        a.remove(NodeId(100));
        assert_eq!(a, NodeBitSet::new(), "emptied set equals fresh set");
        let mut b = NodeBitSet::new();
        b.insert(NodeId(3));
        b.insert(NodeId(700));
        b.remove(NodeId(700));
        let c: NodeBitSet = [3u32].into_iter().map(NodeId).collect();
        assert_eq!(b, c);
    }
}
