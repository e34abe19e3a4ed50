//! Reverse-reachable sketch pool: a bounded-error influence-spread
//! estimator maintained incrementally under edge inserts *and* time-decay
//! expiry.
//!
//! Adapted from the static RR-set machinery of the TIM/IMM baselines
//! (`tdn-baselines`) to the deterministic-reachability oracle of Zhao et
//! al. (Definition 3): sketch `i` stores the **exact** reverse-reachable
//! set of a uniformly random root `r_i`, so
//!
//! ```text
//! P[v ∈ sketch_i] = |reach(v)| / n        (roots uniform over n nodes)
//! est(v) = n · |{i : v ∈ sketch_i}| / m   (m = pool size)
//! ```
//!
//! is an unbiased estimator of the spread `f({v}) = |reach(v)|`, and by
//! Hoeffding's inequality `m = ⌈ln(2/δ) / (2ε²)⌉` sketches bound each
//! estimate's error by `ε·n` with probability at least `1 − δ` (see
//! DESIGN.md § Sketch-based spread estimation).
//!
//! Determinism is load-bearing: every random decision (root draws and
//! redraws) happens in a **serial** phase on a per-pool xoshiro256++
//! stream whose per-sketch states are checkpointed verbatim, while the
//! parallel phases (set rebuilds and extensions) are pure reachability —
//! so pool state, and therefore every estimate, is bit-identical across
//! `TDN_THREADS` values and across checkpoint/restore.
//!
//! Two maintenance entry points mirror the two ways a time-decaying
//! network changes:
//!
//! * [`SketchPool::absorb_batch`] — edge inserts (the ADN case). Grows
//!   the root universe by reservoir redraws (roots stay exactly uniform),
//!   then extends each sketch along the fresh edges by pruned reverse BFS.
//! * [`SketchPool::apply_expiry`] — edge/node expiry (the TDN case).
//!   Compacts the universe to live nodes, redraws the roots that died
//!   (uniformly over survivors — survivors stay uniform by symmetry), and
//!   rebuilds exactly the sketches an expired edge could have touched,
//!   driven by [`crate::tdn::TdnGraph`]'s dirty-node tracking.

use crate::bitset::NodeBitSet;
use crate::node::NodeId;
use crate::traits::{InGraph, OutGraph};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The (ε, δ) error budget and seed of a [`SketchPool`].
///
/// Stored in fixed-point parts-per-million so the type is `Copy + Eq +
/// Hash`-able and serializes without float-representation hazards; the
/// checkpoint format writes the ppm words verbatim.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub struct SketchParams {
    /// Additive error bound as a fraction of the node universe, in ppm
    /// (`250_000` = ε 0.25). Estimates are within `ε·n` w.p. ≥ 1 − δ.
    pub eps_ppm: u32,
    /// Per-estimate failure probability δ, in ppm.
    pub delta_ppm: u32,
    /// Pool seed; sketch `i` draws from an independent stream keyed by
    /// `(seed, i)`.
    pub seed: u64,
}

impl SketchParams {
    /// Builds params from float ε and δ (both must lie in `(0, 1)`).
    pub fn new(epsilon: f64, delta: f64, seed: u64) -> Self {
        assert!(
            epsilon > 0.0 && epsilon < 1.0 && delta > 0.0 && delta < 1.0,
            "sketch params need 0 < eps,delta < 1 (got eps={epsilon}, delta={delta})"
        );
        SketchParams {
            eps_ppm: (epsilon * 1e6).round() as u32,
            delta_ppm: (delta * 1e6).round() as u32,
            seed,
        }
    }

    /// ε as a float.
    pub fn epsilon(&self) -> f64 {
        self.eps_ppm as f64 / 1e6
    }

    /// δ as a float.
    pub fn delta(&self) -> f64 {
        self.delta_ppm as f64 / 1e6
    }

    /// Hoeffding pool size: `m = ⌈ln(2/δ) / (2ε²)⌉`, the smallest m with
    /// `2·exp(−2mε²) ≤ δ`.
    pub fn pool_size(&self) -> usize {
        let eps = self.epsilon();
        let delta = self.delta();
        ((2.0 / delta).ln() / (2.0 * eps * eps)).ceil() as usize
    }

    /// The additive error envelope `ε·n` for a universe of `n` nodes.
    pub fn error_bound(&self, universe: usize) -> f64 {
        self.epsilon() * universe as f64
    }

    /// Serializes the params (ppm words + seed, 16 bytes of payload).
    pub fn write_snapshot(&self, w: &mut codec::Writer) {
        w.put_u32(self.eps_ppm);
        w.put_u32(self.delta_ppm);
        w.put_u64(self.seed);
    }

    /// Reads params written by [`Self::write_snapshot`].
    pub fn read_snapshot(r: &mut codec::Reader<'_>) -> codec::Result<Self> {
        let eps_ppm = r.get_u32()?;
        let delta_ppm = r.get_u32()?;
        let seed = r.get_u64()?;
        if eps_ppm == 0 || eps_ppm >= 1_000_000 || delta_ppm == 0 || delta_ppm >= 1_000_000 {
            return Err(codec::CodecError::Invalid(
                "sketch params eps/delta out of (0, 1)",
            ));
        }
        Ok(SketchParams {
            eps_ppm,
            delta_ppm,
            seed,
        })
    }
}

/// Root sentinel of a sketch whose universe is still empty.
const NO_ROOT: NodeId = NodeId(u32::MAX);

/// A pool of `m` reverse-reachable sketches over a growing / decaying
/// node universe. See the module docs for the estimator and determinism
/// contracts.
#[derive(Clone, Debug)]
pub struct SketchPool {
    params: SketchParams,
    /// Per-sketch root (`NO_ROOT` until the universe is non-empty).
    roots: Vec<NodeId>,
    /// Per-sketch xoshiro256++ state, advanced only in serial phases.
    rngs: Vec<[u64; 4]>,
    /// Per-sketch member set: exactly the nodes that reach the root.
    members: Vec<NodeBitSet>,
    /// `counts[v] = |{i : v ∈ members[i]}|`, the estimator numerator.
    counts: Vec<u32>,
    /// Root universe in first-absorption order (deterministic; never a
    /// hash-set iteration).
    universe: Vec<NodeId>,
    in_universe: NodeBitSet,
}

/// Per-sketch unit of the parallel maintenance phase: either a full
/// rebuild from `root` or an extension along the batch edges. Pure
/// reachability — all RNG decisions were taken serially beforehand.
struct SketchTask {
    /// `Some(root)` ⇒ rebuild from scratch; `None` ⇒ extend along edges.
    rebuild: Option<NodeId>,
    members: NodeBitSet,
    /// Nodes inserted by this task, for the serial count merge.
    added: Vec<NodeId>,
}

impl SketchPool {
    /// Creates an empty pool of `params.pool_size()` sketches. Roots are
    /// drawn as the universe grows ([`Self::absorb_batch`]).
    pub fn new(params: SketchParams) -> Self {
        let m = params.pool_size();
        let rngs = (0..m)
            .map(|i| {
                // Independent streams: seed_from_u64 runs SplitMix64, so
                // mixing the index in is enough to decorrelate them.
                let key = params
                    .seed
                    .wrapping_add(0x9E37_79B9_7F4A_7C15u64.wrapping_mul(i as u64 + 1));
                StdRng::seed_from_u64(key).state()
            })
            .collect();
        SketchPool {
            params,
            roots: vec![NO_ROOT; m],
            rngs,
            members: vec![NodeBitSet::new(); m],
            counts: Vec::new(),
            universe: Vec::new(),
            in_universe: NodeBitSet::new(),
        }
    }

    /// Creates a pool over a graph that already has nodes: the universe is
    /// initialized in ascending node order (deterministic regardless of
    /// the graph's internal hash ordering) and every sketch draws a root
    /// and builds its set.
    pub fn init_from_graph<G: OutGraph + InGraph + Sync>(
        params: SketchParams,
        g: &G,
        mut nodes: Vec<NodeId>,
    ) -> Self {
        let mut pool = SketchPool::new(params);
        nodes.sort_unstable();
        nodes.dedup();
        if nodes.is_empty() {
            return pool;
        }
        for &n in &nodes {
            if pool.in_universe.insert(n) {
                pool.universe.push(n);
            }
        }
        let n_new = pool.universe.len();
        let plans: Vec<Option<NodeId>> = (0..pool.roots.len())
            .map(|i| {
                let mut rng = StdRng::from_state(pool.rngs[i]);
                let root = pool.universe[rng.gen_range(0..n_new)];
                pool.rngs[i] = rng.state();
                Some(root)
            })
            .collect();
        pool.run_tasks(g, &plans, &[]);
        pool
    }

    /// The pool's error budget and seed.
    pub fn params(&self) -> SketchParams {
        self.params
    }

    /// Number of sketches (`m`).
    pub fn len(&self) -> usize {
        self.roots.len()
    }

    /// Whether the pool holds zero sketches (degenerate params only).
    pub fn is_empty(&self) -> bool {
        self.roots.is_empty()
    }

    /// Current root-universe size (`n`).
    pub fn universe_len(&self) -> usize {
        self.universe.len()
    }

    /// The root universe in absorption order (what estimates normalize
    /// over; conformance harnesses iterate this to compare against the
    /// exact oracle).
    pub fn universe(&self) -> &[NodeId] {
        &self.universe
    }

    /// Sketch `i`'s root (`None` while the universe is empty).
    pub fn root(&self, i: usize) -> Option<NodeId> {
        let r = self.roots[i];
        (r != NO_ROOT).then_some(r)
    }

    /// Sketch `i`'s member set (exactly the nodes that reach its root).
    pub fn members(&self, i: usize) -> &NodeBitSet {
        &self.members[i]
    }

    /// How many sketches contain `v` (the estimator numerator).
    pub fn count(&self, v: NodeId) -> u32 {
        self.counts.get(v.index()).copied().unwrap_or(0)
    }

    /// The spread estimate `est(v) = n · counts[v] / m` as a float.
    pub fn estimate(&self, v: NodeId) -> f64 {
        if self.roots.is_empty() {
            return 0.0;
        }
        self.count(v) as f64 * self.universe.len() as f64 / self.roots.len() as f64
    }

    /// The spread estimate rounded half-up to an integer, computed in
    /// exact integer arithmetic (what the sieve ladder consumes).
    pub fn estimate_rounded(&self, v: NodeId) -> u64 {
        let m = self.roots.len() as u128;
        if m == 0 {
            return 0;
        }
        let num = self.count(v) as u128 * self.universe.len() as u128;
        ((num + m / 2) / m) as u64
    }

    /// Absorbs a batch of freshly inserted edges: grows the universe from
    /// the batch endpoints (reservoir root redraws keep roots exactly
    /// uniform over the grown universe), then brings every sketch to its
    /// exact post-batch reverse-reachable set.
    ///
    /// `fresh` must be the edges actually inserted this batch (duplicates
    /// the graph rejected excluded), in insertion order; `g` must already
    /// contain them all.
    pub fn absorb_batch<G: OutGraph + InGraph + Sync>(
        &mut self,
        g: &G,
        fresh: &[(NodeId, NodeId)],
    ) {
        let n_old = self.universe.len();
        for &(u, v) in fresh {
            for n in [u, v] {
                if self.in_universe.insert(n) {
                    self.universe.push(n);
                }
            }
        }
        let n_new = self.universe.len();
        if n_new == 0 || self.roots.is_empty() {
            return;
        }
        // Serial RNG phase: reservoir redraw. Growing n_old → n_new keeps
        // each root uniform iff it moves to a uniformly chosen new node
        // with probability (n_new − n_old)/n_new.
        let plans: Vec<Option<NodeId>> = (0..self.roots.len())
            .map(|i| {
                if n_new == n_old {
                    return None;
                }
                let mut rng = StdRng::from_state(self.rngs[i]);
                let plan = if n_old == 0 {
                    Some(self.universe[rng.gen_range(0..n_new)])
                } else {
                    let p_new = (n_new - n_old) as f64 / n_new as f64;
                    rng.gen_bool(p_new)
                        .then(|| self.universe[rng.gen_range(n_old..n_new)])
                };
                self.rngs[i] = rng.state();
                plan
            })
            .collect();
        self.run_tasks(g, &plans, fresh);
    }

    /// Repairs the pool after time-decay expiry removed edges (and
    /// possibly nodes) from `g`. `affected` must cover every endpoint of
    /// every removed edge — [`crate::tdn::TdnGraph::take_dirty`] under
    /// dirty tracking is exactly that set.
    ///
    /// The universe compacts to live nodes; sketches whose root died
    /// redraw uniformly over the survivors (survivor roots are already
    /// uniform over the survivors by symmetry, so roots stay exactly
    /// uniform and estimates stay unbiased); sketches containing an
    /// affected node rebuild from their root on the post-expiry graph.
    pub fn apply_expiry<G: OutGraph + InGraph + Sync>(&mut self, g: &G, affected: &[NodeId]) {
        if self.roots.is_empty() {
            return;
        }
        let dead: Vec<NodeId> = self
            .universe
            .iter()
            .copied()
            .filter(|&n| !g.contains_node(n))
            .collect();
        if dead.is_empty() && affected.is_empty() {
            return;
        }
        for &n in &dead {
            self.in_universe.remove(n);
        }
        self.universe.retain(|&n| g.contains_node(n));
        let n_new = self.universe.len();
        if n_new == 0 {
            for (i, members) in self.members.iter_mut().enumerate() {
                members.clear();
                self.roots[i] = NO_ROOT;
            }
            self.counts.fill(0);
            return;
        }
        // An expired edge (u, v) can only have changed sketches that
        // contained u or v; a conservative membership probe per affected
        // endpoint selects the rebuild set exactly once per sketch.
        let plans: Vec<Option<NodeId>> = (0..self.roots.len())
            .map(|i| {
                if !g.contains_node(self.roots[i]) || self.roots[i] == NO_ROOT {
                    let mut rng = StdRng::from_state(self.rngs[i]);
                    let root = self.universe[rng.gen_range(0..n_new)];
                    self.rngs[i] = rng.state();
                    return Some(root);
                }
                let touched = affected.iter().any(|&n| self.members[i].contains(n))
                    || dead.iter().any(|&n| self.members[i].contains(n));
                touched.then_some(self.roots[i])
            })
            .collect();
        self.run_tasks(g, &plans, &[]);
    }

    /// Shared parallel maintenance phase: per sketch, either rebuild from
    /// the planned root or extend along `fresh`. RNG-free and pure, so the
    /// fan-out is deterministic at any thread count; count merges run
    /// serially in sketch order.
    fn run_tasks<G: OutGraph + InGraph + Sync>(
        &mut self,
        g: &G,
        plans: &[Option<NodeId>],
        fresh: &[(NodeId, NodeId)],
    ) {
        // Decrement counts of rebuilt sketches' old members up front (the
        // parallel phase replaces those sets wholesale).
        for (i, plan) in plans.iter().enumerate() {
            if let Some(root) = plan {
                for n in self.members[i].iter() {
                    self.counts[n.index()] -= 1;
                }
                self.roots[i] = *root;
            }
        }
        let mut tasks: Vec<SketchTask> = plans
            .iter()
            .enumerate()
            .map(|(i, plan)| SketchTask {
                rebuild: *plan,
                members: std::mem::take(&mut self.members[i]),
                added: Vec::new(),
            })
            .collect();
        exec::par_for_each_mut(&mut tasks, |task| {
            if let Some(root) = task.rebuild {
                task.members.clear();
                extend_reverse(g, &mut task.members, root, &mut task.added);
            } else if !fresh.is_empty() {
                // A fresh edge (u, v) with v already reaching the root
                // means u (and everything reaching u) now does too. One
                // sequential pass suffices: each BFS explores the *final*
                // graph, so members inserted mid-pass have their fresh
                // in-edges walked on insertion, and pre-batch members'
                // fresh in-edges are exactly the pairs this loop probes.
                for &(u, v) in fresh {
                    if task.members.contains(v) {
                        extend_reverse(g, &mut task.members, u, &mut task.added);
                    }
                }
            }
        });
        let max_index = g.node_index_bound();
        if self.counts.len() < max_index {
            self.counts.resize(max_index, 0);
        }
        for (i, task) in tasks.into_iter().enumerate() {
            self.members[i] = task.members;
            for n in task.added {
                if self.counts.len() <= n.index() {
                    self.counts.resize(n.index() + 1, 0);
                }
                self.counts[n.index()] += 1;
            }
        }
    }

    /// Approximate heap footprint in bytes (memory-budget accounting).
    pub fn approx_bytes(&self) -> usize {
        let sets: usize = self.members.iter().map(|s| s.approx_bytes()).sum();
        sets + self.roots.capacity() * 4
            + self.rngs.capacity() * 32
            + self.counts.capacity() * 4
            + self.universe.capacity() * 4
            + self.in_universe.approx_bytes()
    }

    /// Serializes the pool: params, universe (order verbatim — it drives
    /// reservoir indexing), then per sketch the root, the four RNG state
    /// words, and the member set as raw word runs. Counts are derived
    /// state and recomputed on read.
    pub fn write_snapshot(&self, w: &mut codec::Writer) {
        self.params.write_snapshot(w);
        let ids: Vec<u32> = self.universe.iter().map(|n| n.0).collect();
        w.put_u32_run(&ids);
        for ((root, rng), members) in self.roots.iter().zip(&self.rngs).zip(&self.members) {
            w.put_u32(root.0);
            for &word in rng {
                w.put_u64(word);
            }
            members.write_snapshot(w);
        }
    }

    /// Reconstructs a pool from [`Self::write_snapshot`] bytes. The
    /// sketch count is implied by the params (the formats agree iff the
    /// producer used the same Hoeffding sizing).
    pub fn read_snapshot(r: &mut codec::Reader<'_>) -> codec::Result<Self> {
        let params = SketchParams::read_snapshot(r)?;
        let m = params.pool_size();
        let ids = r.get_u32_run()?;
        let mut universe = Vec::with_capacity(ids.len());
        let mut in_universe = NodeBitSet::new();
        for id in ids {
            let n = NodeId(id);
            if !in_universe.insert(n) {
                return Err(codec::CodecError::Invalid("sketch universe repeats a node"));
            }
            universe.push(n);
        }
        let mut roots = Vec::with_capacity(m);
        let mut rngs = Vec::with_capacity(m);
        let mut members = Vec::with_capacity(m);
        let mut counts: Vec<u32> = Vec::new();
        for _ in 0..m {
            let root = NodeId(r.get_u32()?);
            if root == NO_ROOT {
                if !universe.is_empty() {
                    return Err(codec::CodecError::Invalid(
                        "sketch root unset over a non-empty universe",
                    ));
                }
            } else if !in_universe.contains(root) {
                return Err(codec::CodecError::Invalid(
                    "sketch root outside the universe",
                ));
            }
            let mut state = [0u64; 4];
            for word in &mut state {
                *word = r.get_u64()?;
            }
            let set = NodeBitSet::read_snapshot(r)?;
            if root != NO_ROOT && !set.contains(root) {
                return Err(codec::CodecError::Invalid(
                    "sketch member set misses its own root",
                ));
            }
            for n in set.iter() {
                if counts.len() <= n.index() {
                    counts.resize(n.index() + 1, 0);
                }
                counts[n.index()] += 1;
            }
            roots.push(root);
            rngs.push(state);
            members.push(set);
        }
        Ok(SketchPool {
            params,
            roots,
            rngs,
            members,
            counts,
            universe,
            in_universe,
        })
    }
}

/// Inserts `start` and everything that reaches it into `members` by
/// reverse BFS over `g`'s in-edges, pruning at existing members (sound:
/// a member's ancestors are members or are reached through the explicit
/// per-edge probes — see [`SketchPool::absorb_batch`]). Newly inserted
/// nodes append to `added`.
fn extend_reverse<G: InGraph>(
    g: &G,
    members: &mut NodeBitSet,
    start: NodeId,
    added: &mut Vec<NodeId>,
) {
    if !members.insert(start) {
        return;
    }
    added.push(start);
    let mut stack = vec![start];
    while let Some(x) = stack.pop() {
        g.for_each_in(x, |p| {
            if members.insert(p) {
                added.push(p);
                stack.push(p);
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adn::AdnGraph;
    use crate::reach::{reverse_reach_collect, ReachScratch};
    use crate::tdn::TdnGraph;

    fn params() -> SketchParams {
        SketchParams::new(0.2, 0.1, 0xC0FFEE)
    }

    /// Exactness oracle: every sketch's member set must equal the scalar
    /// reverse-reachability closure of its root.
    fn assert_sets_exact<G: OutGraph + InGraph + Sync>(pool: &SketchPool, g: &G) {
        let mut scratch = ReachScratch::new();
        let mut expect = Vec::new();
        for i in 0..pool.len() {
            let Some(root) = pool.root(i) else {
                assert!(pool.members(i).is_empty());
                continue;
            };
            reverse_reach_collect(g, root, &mut scratch, &mut expect);
            let got: Vec<NodeId> = pool.members(i).iter().collect();
            let mut want = expect.clone();
            want.sort_unstable();
            assert_eq!(got, want, "sketch {i} diverged from the BFS oracle");
        }
        // Counts must stay consistent with the sets.
        for &v in pool.universe.iter() {
            let direct = (0..pool.len())
                .filter(|&i| pool.members(i).contains(v))
                .count() as u32;
            assert_eq!(pool.count(v), direct, "count drifted for {v:?}");
        }
    }

    #[test]
    fn hoeffding_pool_size_formula() {
        // m = ceil(ln(2/0.1) / (2 * 0.04)) = ceil(37.44) = 38.
        assert_eq!(params().pool_size(), 38);
        // Tighter eps grows the pool quadratically.
        let tight = SketchParams::new(0.1, 0.1, 0);
        assert_eq!(tight.pool_size(), 150);
        assert!(SketchParams::new(0.25, 0.2, 0).pool_size() < 38);
    }

    #[test]
    fn incremental_absorb_matches_oracle() {
        let mut g = AdnGraph::new();
        let mut pool = SketchPool::new(params());
        // A deterministic pseudo-random addition-only stream, absorbed in
        // small batches; after every batch each sketch must hold the exact
        // reverse closure of its root.
        let mut state = 0xDEAD_BEEFu64;
        let mut rnd = move |m: u64| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            (state >> 33) % m
        };
        for _ in 0..25 {
            let mut fresh = Vec::new();
            for _ in 0..1 + rnd(6) {
                let (u, v) = (NodeId(rnd(18) as u32), NodeId(rnd(18) as u32));
                if g.add_edge(u, v) {
                    fresh.push((u, v));
                }
            }
            pool.absorb_batch(&g, &fresh);
            assert_sets_exact(&pool, &g);
        }
        assert_eq!(pool.universe_len(), g.node_count());
        // At least one estimate should be positive on a dense-ish graph.
        assert!(pool.universe.iter().any(|&v| pool.estimate(v) > 0.0));
    }

    #[test]
    fn estimates_are_within_the_envelope_on_a_star() {
        // Hub 0 points at 1..=30: reach(0) = 31, reach(leaf) = 1. With the
        // fixed seed the envelope |est - exact| <= eps * n must hold for
        // the hub (a single pre-registered draw; eps * n ≈ 6.2).
        let mut g = AdnGraph::new();
        let mut fresh = Vec::new();
        for i in 1..=30u32 {
            g.add_edge(NodeId(0), NodeId(i));
            fresh.push((NodeId(0), NodeId(i)));
        }
        let mut pool = SketchPool::new(params());
        pool.absorb_batch(&g, &fresh);
        let n = pool.universe_len() as f64;
        let est = pool.estimate(NodeId(0));
        assert!(
            (est - 31.0).abs() <= params().error_bound(31) + 1e-9,
            "hub estimate {est} strayed past eps*n = {}",
            params().error_bound(31)
        );
        assert!(n as usize == 31);
    }

    #[test]
    fn thread_count_does_not_change_the_pool() {
        let build = |threads: usize| {
            exec::with_threads(threads, || {
                let mut g = AdnGraph::new();
                let mut pool = SketchPool::new(params());
                for b in 0..8u32 {
                    let mut fresh = Vec::new();
                    for j in 0..5u32 {
                        let (u, v) = (NodeId((b * 3 + j) % 11), NodeId((b + j * 5 + 1) % 11));
                        if g.add_edge(u, v) {
                            fresh.push((u, v));
                        }
                    }
                    pool.absorb_batch(&g, &fresh);
                }
                let mut w = codec::Writer::new();
                pool.write_snapshot(&mut w);
                w.into_vec()
            })
        };
        let serial = build(1);
        assert_eq!(serial, build(4), "pool bytes diverged across threads");
    }

    #[test]
    fn snapshot_round_trips_and_rejects_corruption() {
        let mut g = AdnGraph::new();
        let mut fresh = Vec::new();
        for (u, v) in [(0u32, 1u32), (1, 2), (2, 3), (3, 1), (0, 4)] {
            g.add_edge(NodeId(u), NodeId(v));
            fresh.push((NodeId(u), NodeId(v)));
        }
        let mut pool = SketchPool::new(params());
        pool.absorb_batch(&g, &fresh);
        let mut w = codec::Writer::new();
        pool.write_snapshot(&mut w);
        let bytes = w.into_vec();
        let mut r = codec::Reader::new(&bytes);
        let back = SketchPool::read_snapshot(&mut r).expect("round trip");
        r.finish().expect("fully consumed");
        assert_eq!(back.universe, pool.universe);
        assert_eq!(back.roots, pool.roots);
        assert_eq!(back.rngs, pool.rngs);
        assert_eq!(back.counts, pool.counts);
        // The restored pool must continue bit-identically.
        let mut fresh2 = Vec::new();
        let (mut a, mut b) = (pool.clone(), back);
        if g.add_edge(NodeId(4), NodeId(2)) {
            fresh2.push((NodeId(4), NodeId(2)));
        }
        a.absorb_batch(&g, &fresh2);
        b.absorb_batch(&g, &fresh2);
        let (mut wa, mut wb) = (codec::Writer::new(), codec::Writer::new());
        a.write_snapshot(&mut wa);
        b.write_snapshot(&mut wb);
        assert_eq!(wa.into_vec(), wb.into_vec());
        // Truncations never decode.
        for cut in [1usize, 8, 16, bytes.len() - 1] {
            let mut r = codec::Reader::new(&bytes[..cut.min(bytes.len() - 1)]);
            let res = SketchPool::read_snapshot(&mut r).and_then(|_| r.finish());
            assert!(res.is_err(), "prefix of {cut} bytes decoded");
        }
    }

    #[test]
    fn expiry_rebuilds_exactly_and_keeps_roots_live() {
        let mut g = TdnGraph::new();
        g.set_dirty_tracking(true);
        let mut pool = SketchPool::new(params());
        let mut state = 0x5EEDu64;
        let mut rnd = move |m: u64| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            (state >> 33) % m
        };
        for t in 0..20u64 {
            // Expire first (Alg. framing: G_t is the graph *at* t), repair
            // the pool from the dirty set, then insert the batch.
            g.advance_to(t);
            let dirty = g.take_dirty();
            pool.apply_expiry(&g, &dirty);
            assert_sets_exact(&pool, &g);
            let mut fresh = Vec::new();
            for _ in 0..1 + rnd(5) {
                let (u, v) = (NodeId(rnd(12) as u32), NodeId(rnd(12) as u32));
                if u == v {
                    continue;
                }
                let before = g.edge_count();
                g.add_edge(u, v, 1 + rnd(4) as u32);
                if g.edge_count() > before {
                    fresh.push((u, v));
                }
            }
            g.take_dirty(); // inserts also mark dirty; absorb handles them
            pool.absorb_batch(&g, &fresh);
            assert_sets_exact(&pool, &g);
            for i in 0..pool.len() {
                if let Some(root) = pool.root(i) {
                    assert!(g.contains_node(root), "sketch {i} kept a dead root");
                }
            }
        }
        // Decay everything: the pool must drain to the empty state.
        g.advance_to(1_000);
        let dirty = g.take_dirty();
        pool.apply_expiry(&g, &dirty);
        assert_eq!(pool.universe_len(), 0);
        assert!((0..pool.len()).all(|i| pool.root(i).is_none()));
        assert!((0..pool.len()).all(|i| pool.members(i).is_empty()));
    }

    #[test]
    fn rounded_estimate_uses_integer_arithmetic() {
        let mut pool = SketchPool::new(SketchParams::new(0.25, 0.2, 7));
        let mut g = AdnGraph::new();
        let mut fresh = Vec::new();
        for (u, v) in [(0u32, 1u32), (1, 2)] {
            g.add_edge(NodeId(u), NodeId(v));
            fresh.push((NodeId(u), NodeId(v)));
        }
        pool.absorb_batch(&g, &fresh);
        for &v in &[NodeId(0), NodeId(1), NodeId(2)] {
            let f = pool.estimate(v);
            let r = pool.estimate_rounded(v);
            assert!((f - r as f64).abs() <= 0.5 + 1e-9, "rounding strayed");
        }
    }
}
