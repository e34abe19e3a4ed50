//! Paged CSR-style adjacency arena: every node's neighbor list lives in one
//! shared contiguous buffer, in power-of-two blocks.
//!
//! The `Vec<Vec<_>>` adjacency it replaces costs one heap allocation and one
//! pointer chase per node; BFS over it hops between unrelated heap pages.
//! [`AdjPool`] packs all lists into a single `Vec<T>` arena: a list is a
//! `(start, len, cap)` view into the buffer, appending is amortized O(1)
//! (grow by doubling into a recycled or fresh block), and blocks freed by
//! growth or compaction are recycled through per-size-class free lists —
//! so expiry storms that shrink lists return their blocks to the arena
//! instead of thrashing the allocator.
//!
//! List order is preserved verbatim by [`AdjPool::push`] and
//! [`AdjPool::retain`]: adjacency order drives BFS traversal order, which
//! drives `V̄_t` replay order, which the bit-identical determinism and
//! checkpoint contracts depend on. [`AdjPool::swap_remove`] is the O(1)
//! unordered eviction primitive for callers whose downstream consumers are
//! order-insensitive.

/// Smallest block capacity handed to a non-empty list.
const MIN_BLOCK: u32 = 4;

/// Node lists per snapshot chunk: chunk `c` covers list indices
/// `[c·SNAPSHOT_CHUNK, (c+1)·SNAPSHOT_CHUNK)`. Sectioned saves serialize
/// one section per chunk, so a chunk whose bytes did not change since the
/// parent save becomes a checksum-matched ref.
pub const SNAPSHOT_CHUNK: usize = 1024;

/// One node's list view into the shared buffer.
#[derive(Copy, Clone, Debug, Default)]
struct ListRef {
    /// First slot of the backing block in the arena buffer.
    start: usize,
    /// Live entries (prefix of the block).
    len: u32,
    /// Block capacity; always `0` or a power of two `≥ MIN_BLOCK`.
    cap: u32,
}

/// A pool of dynamically sized neighbor lists packed into one buffer.
///
/// Indexed densely by node id. See the module docs for the layout and the
/// ordering contract.
#[derive(Clone, Debug)]
pub struct AdjPool<T: Copy> {
    buf: Vec<T>,
    lists: Vec<ListRef>,
    /// `free[c]` holds starts of recycled blocks of capacity `1 << c`.
    free: Vec<Vec<usize>>,
}

impl<T: Copy> Default for AdjPool<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T: Copy> AdjPool<T> {
    /// Creates an empty pool.
    pub fn new() -> Self {
        AdjPool {
            buf: Vec::new(),
            lists: Vec::new(),
            free: Vec::new(),
        }
    }

    /// Number of node slots (the exclusive node-index bound).
    #[inline]
    pub fn node_bound(&self) -> usize {
        self.lists.len()
    }

    /// Grows the node-slot table to at least `bound` (empty lists).
    pub fn ensure_node_bound(&mut self, bound: usize) {
        if self.lists.len() < bound {
            self.lists.resize(bound, ListRef::default());
        }
    }

    /// The list of node `n` (empty slice if `n` is out of bounds).
    #[inline]
    pub fn as_slice(&self, n: usize) -> &[T] {
        match self.lists.get(n) {
            Some(l) => &self.buf[l.start..l.start + l.len as usize],
            None => &[],
        }
    }

    /// Mutable access to the list of node `n` (empty slice if out of
    /// bounds). Entries may be rewritten in place; the length is fixed.
    #[inline]
    pub fn as_mut_slice(&mut self, n: usize) -> &mut [T] {
        match self.lists.get(n) {
            Some(&l) => &mut self.buf[l.start..l.start + l.len as usize],
            None => &mut [],
        }
    }

    /// Length of node `n`'s list.
    #[inline]
    pub fn list_len(&self, n: usize) -> usize {
        self.lists.get(n).map_or(0, |l| l.len as usize)
    }

    /// Hints the CPU to pull the first cache line of node `n`'s block
    /// toward L1. No observable effect — the bottom-up traversal loops
    /// issue this a fixed distance ahead of their scan cursor so the
    /// arena's scattered blocks arrive before they are walked.
    #[inline]
    pub fn prefetch(&self, n: usize) {
        let Some(l) = self.lists.get(n) else { return };
        if l.len == 0 {
            return;
        }
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `start` indexes a live block, so the address is within
        // the buffer allocation; prefetch has no memory effects either way.
        unsafe {
            std::arch::x86_64::_mm_prefetch(
                self.buf.as_ptr().add(l.start) as *const i8,
                std::arch::x86_64::_MM_HINT_T0,
            );
        }
    }

    /// Pops a recycled block of exactly `cap` slots, if one is available.
    fn pop_free(&mut self, cap: u32) -> Option<usize> {
        let class = cap.trailing_zeros() as usize;
        self.free.get_mut(class)?.pop()
    }

    /// Returns a block to its size-class free list.
    fn push_free(&mut self, start: usize, cap: u32) {
        let class = cap.trailing_zeros() as usize;
        if self.free.len() <= class {
            self.free.resize_with(class + 1, Vec::new);
        }
        self.free[class].push(start);
    }

    /// Acquires a block of `cap` slots: recycled if possible, else fresh at
    /// the end of the buffer (filled with `fill`; recycled blocks keep
    /// their stale-but-initialized contents).
    fn acquire_block(&mut self, cap: u32, fill: T) -> usize {
        if let Some(start) = self.pop_free(cap) {
            return start;
        }
        let start = self.buf.len();
        self.buf.resize(start + cap as usize, fill);
        start
    }

    /// Moves node `n`'s live prefix into a block of `new_cap` slots and
    /// recycles the old block. `new_cap` must hold the current length.
    fn rehome(&mut self, n: usize, new_cap: u32, fill: T) {
        let old = self.lists[n];
        debug_assert!(old.len <= new_cap);
        let start = self.acquire_block(new_cap, fill);
        self.buf
            .copy_within(old.start..old.start + old.len as usize, start);
        if old.cap > 0 {
            self.push_free(old.start, old.cap);
        }
        self.lists[n] = ListRef {
            start,
            len: old.len,
            cap: new_cap,
        };
    }

    /// Appends `item` to node `n`'s list (growing the node table and the
    /// block as needed). Amortized O(1); list order is append order.
    pub fn push(&mut self, n: usize, item: T) {
        self.ensure_node_bound(n + 1);
        let l = self.lists[n];
        if l.len == l.cap {
            let new_cap = (l.cap * 2).max(MIN_BLOCK);
            self.rehome(n, new_cap, item);
        }
        let l = &mut self.lists[n];
        self.buf[l.start + l.len as usize] = item;
        l.len += 1;
    }

    /// Removes and returns entry `idx` of node `n`'s list in O(1) by
    /// swapping the last entry into its place. **Does not preserve list
    /// order** — only for callers whose consumers are order-insensitive.
    ///
    /// # Panics
    /// Panics if `idx` is out of bounds.
    pub fn swap_remove(&mut self, n: usize, idx: usize) -> T {
        let l = self.lists[n];
        assert!(idx < l.len as usize, "swap_remove index out of bounds");
        let last = l.len as usize - 1;
        let item = self.buf[l.start + idx];
        self.buf[l.start + idx] = self.buf[l.start + last];
        self.lists[n].len -= 1;
        self.maybe_shrink(n);
        item
    }

    /// Keeps only the entries of node `n`'s list satisfying `pred`,
    /// preserving their relative order (the TDN compaction primitive).
    /// A list that shrank to a quarter of its block is rehomed into a
    /// smaller block and the old one recycled.
    pub fn retain(&mut self, n: usize, mut pred: impl FnMut(&T) -> bool) {
        let l = self.lists[n];
        let (start, len) = (l.start, l.len as usize);
        let mut write = 0usize;
        for read in 0..len {
            let item = self.buf[start + read];
            if pred(&item) {
                self.buf[start + write] = item;
                write += 1;
            }
        }
        self.lists[n].len = write as u32;
        self.maybe_shrink(n);
    }

    /// Rehomes node `n` into a smaller block when at most a quarter of the
    /// current block is live, so storms of same-bucket expiries hand their
    /// blocks back for reuse instead of pinning peak capacity forever.
    fn maybe_shrink(&mut self, n: usize) {
        let l = self.lists[n];
        if l.cap > MIN_BLOCK && l.len * 4 <= l.cap {
            if l.len == 0 {
                self.push_free(l.start, l.cap);
                self.lists[n] = ListRef::default();
            } else {
                let new_cap = l.len.next_power_of_two().max(MIN_BLOCK);
                let fill = self.buf[l.start];
                self.rehome(n, new_cap, fill);
            }
        }
    }

    /// Replaces node `n`'s list wholesale by bulk copy (the raw-section
    /// restore primitive). The old block, if any, is recycled.
    pub fn set_list(&mut self, n: usize, items: &[T]) {
        self.ensure_node_bound(n + 1);
        let old = self.lists[n];
        if old.cap > 0 {
            self.push_free(old.start, old.cap);
            self.lists[n] = ListRef::default();
        }
        if !items.is_empty() {
            let cap = (items.len() as u32).next_power_of_two().max(MIN_BLOCK);
            let start = self.acquire_block(cap, items[0]);
            self.buf[start..start + items.len()].copy_from_slice(items);
            self.lists[n] = ListRef {
                start,
                len: items.len() as u32,
                cap,
            };
        }
    }

    /// Number of snapshot chunks covering the current node table.
    #[inline]
    pub fn chunk_count(&self) -> usize {
        self.lists.len().div_ceil(SNAPSHOT_CHUNK)
    }

    /// Releases recycled free-list blocks sitting at the arena tail and
    /// returns the freed buffer to the allocator — the budget-shedding
    /// primitive. Only tail blocks can be released (the arena is an
    /// offset-addressed bump allocator; interior holes must stay for their
    /// recorded starts to remain valid). Returns the approximate bytes
    /// released. Pure layout change: no snapshot content is affected.
    pub fn release_free_tail(&mut self) -> usize {
        let before = self.approx_bytes();
        let mut blocks: Vec<(usize, u32)> = Vec::new();
        for (class, list) in self.free.iter().enumerate() {
            for &start in list {
                blocks.push((start, 1u32 << class));
            }
        }
        blocks.sort_unstable_by_key(|b| std::cmp::Reverse(b.0));
        let mut end = self.buf.len();
        let mut dropped = crate::hash::FxHashSet::default();
        for (start, cap) in blocks {
            if start + cap as usize == end {
                end = start;
                dropped.insert(start);
            } else {
                break;
            }
        }
        if !dropped.is_empty() {
            for list in &mut self.free {
                list.retain(|s| !dropped.contains(s));
            }
            self.buf.truncate(end);
        }
        self.buf.shrink_to_fit();
        for list in &mut self.free {
            list.shrink_to_fit();
        }
        before.saturating_sub(self.approx_bytes())
    }

    /// Approximate heap footprint in bytes (arena buffer, list table, free
    /// lists).
    pub fn approx_bytes(&self) -> usize {
        self.buf.capacity() * std::mem::size_of::<T>()
            + self.lists.capacity() * std::mem::size_of::<ListRef>()
            + self
                .free
                .iter()
                .map(|f| f.capacity() * std::mem::size_of::<usize>())
                .sum::<usize>()
    }

    /// Arena occupancy counters for diagnostics and block-reuse tests:
    /// `(buffer_slots, recycled_blocks)`.
    #[doc(hidden)]
    pub fn arena_stats(&self) -> (usize, usize) {
        (self.buf.len(), self.free.iter().map(Vec::len).sum())
    }

    /// Slots currently held on free lists (recycled, reusable capacity).
    /// `buffer_slots = live slots + free slots + unrecycled stale slots`;
    /// the accounting identity test pins this decomposition.
    #[doc(hidden)]
    pub fn free_slots(&self) -> usize {
        self.free
            .iter()
            .enumerate()
            .map(|(class, list)| list.len() << class)
            .sum()
    }

    /// Slots occupied by live list entries.
    #[doc(hidden)]
    pub fn live_slots(&self) -> usize {
        self.lists.iter().map(|l| l.len as usize).sum()
    }

    /// Slots reserved by list blocks (live capacity, whether filled or
    /// not).
    #[doc(hidden)]
    pub fn reserved_slots(&self) -> usize {
        self.lists.iter().map(|l| l.cap as usize).sum()
    }
}

impl AdjPool<crate::node::NodeId> {
    /// Serializes chunk `chunk` as two raw `u32` runs — list lengths, then
    /// all entries concatenated in list order — the contiguous LE block
    /// format sectioned saves use instead of element-by-element encoding.
    pub fn write_chunk_snapshot(&self, chunk: usize, w: &mut codec::Writer) {
        let lo = chunk * SNAPSHOT_CHUNK;
        let hi = (lo + SNAPSHOT_CHUNK).min(self.lists.len());
        debug_assert!(lo < hi, "chunk out of range");
        let lens: Vec<u32> = (lo..hi).map(|n| self.lists[n].len).collect();
        w.put_u32_run(&lens);
        let total: usize = lens.iter().map(|&l| l as usize).sum();
        let mut entries: Vec<u32> = Vec::with_capacity(total);
        for n in lo..hi {
            entries.extend(self.as_slice(n).iter().map(|v| v.0));
        }
        w.put_u32_run(&entries);
    }

    /// Restores chunk `chunk` from [`Self::write_chunk_snapshot`] bytes by
    /// bulk copy. `expected_lists` is the list count the chunk must hold
    /// (from the enclosing snapshot's node bound); a mismatch is typed
    /// corruption.
    pub fn read_chunk_snapshot(
        &mut self,
        chunk: usize,
        expected_lists: usize,
        r: &mut codec::Reader<'_>,
    ) -> codec::Result<()> {
        let lens = r.get_u32_run()?;
        if lens.len() != expected_lists {
            return Err(codec::CodecError::Invalid(
                "adjacency chunk holds the wrong number of lists",
            ));
        }
        let entries = r.get_u32_run()?;
        let total: usize = lens.iter().map(|&l| l as usize).sum();
        if total != entries.len() {
            return Err(codec::CodecError::Invalid(
                "adjacency chunk lengths disagree with entry run",
            ));
        }
        let lo = chunk * SNAPSHOT_CHUNK;
        self.ensure_node_bound(lo + lens.len());
        let mut off = 0usize;
        for (i, &len) in lens.iter().enumerate() {
            let items: Vec<crate::node::NodeId> = entries[off..off + len as usize]
                .iter()
                .map(|&v| crate::node::NodeId(v))
                .collect();
            self.set_list(lo + i, &items);
            off += len as usize;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_and_read_back_in_order() {
        let mut p: AdjPool<u32> = AdjPool::new();
        assert!(p.as_slice(3).is_empty());
        for i in 0..10 {
            p.push(2, i);
        }
        p.push(0, 99);
        assert_eq!(p.as_slice(2), (0..10).collect::<Vec<_>>().as_slice());
        assert_eq!(p.as_slice(0), &[99]);
        assert!(p.as_slice(1).is_empty());
        assert_eq!(p.node_bound(), 3);
        assert_eq!(p.list_len(2), 10);
    }

    #[test]
    fn growth_recycles_outgrown_blocks() {
        let mut p: AdjPool<u32> = AdjPool::new();
        // Fill one list past several doublings: each outgrown block must
        // land on a free list, and a second list must pick them up instead
        // of growing the buffer.
        for i in 0..32 {
            p.push(0, i);
        }
        let (slots_before, freed) = p.arena_stats();
        assert!(freed >= 3, "outgrown 4/8/16 blocks recycled, got {freed}");
        for i in 0..16 {
            p.push(1, i);
        }
        let (slots_after, _) = p.arena_stats();
        assert_eq!(
            slots_after, slots_before,
            "second list must reuse recycled blocks"
        );
        assert_eq!(p.as_slice(0).len(), 32);
        assert_eq!(p.as_slice(1).len(), 16);
    }

    #[test]
    fn swap_remove_is_unordered_but_complete() {
        let mut p: AdjPool<u32> = AdjPool::new();
        for i in 0..5 {
            p.push(0, i);
        }
        assert_eq!(p.swap_remove(0, 1), 1);
        let mut rest = p.as_slice(0).to_vec();
        rest.sort_unstable();
        assert_eq!(rest, vec![0, 2, 3, 4]);
    }

    #[test]
    fn retain_preserves_order_and_shrinks_blocks() {
        let mut p: AdjPool<u32> = AdjPool::new();
        for i in 0..64 {
            p.push(0, i);
        }
        p.retain(0, |&x| x % 10 == 0);
        assert_eq!(p.as_slice(0), &[0, 10, 20, 30, 40, 50, 60]);
        let (_, freed) = p.arena_stats();
        assert!(freed > 0, "shrunk list must recycle its big block");
        // Retaining nothing releases the block entirely.
        p.retain(0, |_| false);
        assert!(p.as_slice(0).is_empty());
        // The list remains fully usable afterwards.
        p.push(0, 7);
        assert_eq!(p.as_slice(0), &[7]);
    }

    #[test]
    fn expiry_storm_reuses_blocks_instead_of_growing() {
        let mut p: AdjPool<u32> = AdjPool::new();
        // Warm up to peak shape once.
        for i in 0..256 {
            p.push(0, i);
        }
        p.retain(0, |_| false);
        let (peak, _) = p.arena_stats();
        // Repeated fill/drain cycles at the same peak must not grow the
        // arena: every cycle's blocks come from the free lists.
        for _ in 0..10 {
            for i in 0..256 {
                p.push(0, i);
            }
            p.retain(0, |_| false);
            let (now, _) = p.arena_stats();
            assert_eq!(now, peak, "storm cycle grew the arena");
        }
    }

    #[test]
    fn as_mut_slice_rewrites_in_place() {
        let mut p: AdjPool<u32> = AdjPool::new();
        for i in 0..4 {
            p.push(1, i);
        }
        for x in p.as_mut_slice(1) {
            *x *= 2;
        }
        assert_eq!(p.as_slice(1), &[0, 2, 4, 6]);
        assert!(p.as_mut_slice(9).is_empty());
    }

    #[test]
    fn clone_is_independent() {
        let mut p: AdjPool<u32> = AdjPool::new();
        p.push(0, 1);
        let mut q = p.clone();
        q.push(0, 2);
        assert_eq!(p.as_slice(0), &[1]);
        assert_eq!(q.as_slice(0), &[1, 2]);
    }

    #[test]
    fn accounting_tracks_buffer_growth() {
        let mut p: AdjPool<u64> = AdjPool::new();
        let empty = p.approx_bytes();
        for i in 0..100 {
            p.push(i as usize % 7, i);
        }
        assert!(p.approx_bytes() > empty);
    }

    /// The accounting identity the memory budget relies on: every arena
    /// slot is owned by exactly one party — a live list block or a free
    /// list — so `buffer_slots == reserved + free` at all times, and
    /// `approx_bytes` bills at least the whole buffer.
    #[test]
    fn accounting_identity_buffer_equals_reserved_plus_free() {
        let mut p: AdjPool<u32> = AdjPool::new();
        let check = |p: &AdjPool<u32>, at: &str| {
            let (slots, _) = p.arena_stats();
            assert_eq!(
                slots,
                p.reserved_slots() + p.free_slots(),
                "slot ownership leaked ({at})"
            );
            assert!(p.live_slots() <= p.reserved_slots(), "{at}");
            assert!(
                p.approx_bytes() >= slots * std::mem::size_of::<u32>(),
                "approx_bytes undercounts the buffer ({at})"
            );
        };
        check(&p, "empty");
        for i in 0..500u32 {
            p.push((i % 13) as usize, i);
        }
        check(&p, "after growth");
        for n in 0..13 {
            p.retain(n, |&x| x % 3 == 0);
        }
        check(&p, "after retain shrink");
        for n in 0..6 {
            while p.list_len(n) > 0 {
                p.swap_remove(n, 0);
            }
        }
        check(&p, "after full drains");
        p.release_free_tail();
        check(&p, "after free-tail release");
        for i in 0..200u32 {
            p.push((i % 5) as usize, i);
        }
        check(&p, "after regrowth");
    }

    /// Block moves — growth rehomes, shrink-on-retain, free-list release —
    /// change where lists live, never what a chunk serializes to. That is
    /// what lets checksum dedup turn an untouched chunk into a ref no
    /// matter how the arena reshuffled its blocks between saves.
    #[test]
    fn generations_track_content_not_layout() {
        use crate::node::NodeId;
        let chunk_bytes = |p: &AdjPool<NodeId>, c: usize| {
            let mut w = codec::Writer::new();
            p.write_chunk_snapshot(c, &mut w);
            w.into_vec()
        };
        let mut p: AdjPool<NodeId> = AdjPool::new();
        for i in 0..40u32 {
            p.push(3, NodeId(i));
        }
        p.push(SNAPSHOT_CHUNK + 1, NodeId(500));
        let (c0, c1) = (chunk_bytes(&p, 0), chunk_bytes(&p, 1));
        // Growth in chunk 1 rehomes its block; chunk 0 keeps its bytes.
        for i in 0..20u32 {
            p.push(SNAPSHOT_CHUNK + 1, NodeId(i));
        }
        assert_eq!(chunk_bytes(&p, 0), c0, "a foreign rehome moved chunk 0");
        // Shrink-on-retain rehomes chunk 1's list into a smaller block and
        // back to its earlier content: same bytes as before the growth.
        p.retain(SNAPSHOT_CHUNK + 1, |&v| v == NodeId(500));
        assert_eq!(chunk_bytes(&p, 1), c1, "shrink rehome changed bytes");
        let (_, recycled) = p.arena_stats();
        assert!(recycled > 0, "the shrink must have recycled a block");
        // Free-list release drops tail blocks; no chunk changes.
        p.release_free_tail();
        assert_eq!(chunk_bytes(&p, 0), c0);
        assert_eq!(chunk_bytes(&p, 1), c1);
        // A content change does move the bytes.
        p.push(3, NodeId(99));
        assert_ne!(chunk_bytes(&p, 0), c0);
    }

    #[test]
    fn set_list_bulk_copies_and_recycles() {
        let mut p: AdjPool<u32> = AdjPool::new();
        for i in 0..40 {
            p.push(2, i);
        }
        let (slots, _) = p.arena_stats();
        p.set_list(2, &[7, 7, 7]);
        assert_eq!(p.as_slice(2), &[7, 7, 7]);
        let (after, freed) = p.arena_stats();
        assert!(freed > 0, "old block must be recycled");
        assert_eq!(slots, after, "small replacement reuses recycled space");
        p.set_list(2, &[]);
        assert!(p.as_slice(2).is_empty());
        p.set_list(5, &[1, 2]);
        assert_eq!(p.node_bound(), 6);
        assert_eq!(p.as_slice(5), &[1, 2]);
    }

    #[test]
    fn release_free_tail_returns_tail_blocks_only() {
        let mut p: AdjPool<u32> = AdjPool::new();
        // List 0 grows to the tail, then empties: its blocks are at the
        // end of the buffer and releasable.
        for i in 0..16 {
            p.push(0, i);
        }
        p.push(1, 42); // a live block pinned mid-buffer? (ordering varies)
        for i in 0..64 {
            p.push(2, i);
        }
        p.retain(2, |_| false);
        let (before_slots, _) = p.arena_stats();
        let released = p.release_free_tail();
        let (after_slots, _) = p.arena_stats();
        assert!(after_slots <= before_slots);
        assert!(released > 0, "tail blocks must release bytes");
        // Contents survive untouched.
        assert_eq!(p.as_slice(0).len(), 16);
        assert_eq!(p.as_slice(1), &[42]);
        assert!(p.as_slice(2).is_empty());
        // The pool remains fully usable.
        for i in 0..32 {
            p.push(2, i);
        }
        assert_eq!(p.as_slice(2).len(), 32);
        let (slots, _) = p.arena_stats();
        assert_eq!(slots, p.reserved_slots() + p.free_slots());
    }

    #[test]
    fn chunk_snapshot_round_trip() {
        use crate::node::NodeId;
        let mut p: AdjPool<NodeId> = AdjPool::new();
        // Spread lists across two chunks with distinctive order.
        for (n, v) in [(0usize, 3u32), (0, 1), (5, 9), (SNAPSHOT_CHUNK + 2, 4)] {
            p.push(n, NodeId(v));
        }
        let mut restored: AdjPool<NodeId> = AdjPool::new();
        for chunk in 0..p.chunk_count() {
            let mut w = codec::Writer::new();
            p.write_chunk_snapshot(chunk, &mut w);
            let bytes = w.into_vec();
            let lo = chunk * SNAPSHOT_CHUNK;
            let expected = (lo + SNAPSHOT_CHUNK).min(p.node_bound()) - lo;
            let mut r = codec::Reader::new(&bytes);
            restored
                .read_chunk_snapshot(chunk, expected, &mut r)
                .expect("round trip");
            r.finish().expect("fully consumed");
            // Every truncation of the chunk errors cleanly.
            for cut in 0..bytes.len() {
                let mut r = codec::Reader::new(&bytes[..cut]);
                let res = AdjPool::<NodeId>::new()
                    .read_chunk_snapshot(chunk, expected, &mut r)
                    .and_then(|_| r.finish());
                assert!(res.is_err(), "prefix of {cut} bytes decoded");
            }
        }
        assert_eq!(restored.node_bound(), p.node_bound());
        for n in 0..p.node_bound() {
            assert_eq!(restored.as_slice(n), p.as_slice(n), "list {n} drifted");
        }
    }
}
