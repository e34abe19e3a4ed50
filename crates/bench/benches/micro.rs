//! Micro-benchmarks of the hot primitives underlying every experiment:
//! BFS reachability, cover-pruned marginal gains, TDN advance/insert, sieve
//! feeding, and RR-set sampling.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tdn_baselines::sample_rr;
use tdn_core::SieveAdn;
use tdn_graph::{
    marginal_gain, reach_count, reach_count_batch_wide, reverse_reach_batch, AdnGraph, CoverSet,
    NodeId, ReachScratch, ScratchPool, SweepDirection, TdnGraph, BATCH_LANES, MAX_BATCH_LANES,
};
use tdn_streams::{Dataset, ZipfSampler};
use tdn_submodular::OracleCounter;

fn random_adn(nodes: u32, edges: usize, seed: u64) -> AdnGraph {
    let mut rng = StdRng::seed_from_u64(seed);
    let zipf = ZipfSampler::new(nodes as usize, 1.0);
    let mut g = AdnGraph::new();
    while g.edge_count() < edges {
        let u = zipf.sample(&mut rng) as u32;
        let v = rng.gen_range(0..nodes);
        if u != v {
            g.add_edge(NodeId(u), NodeId(v));
        }
    }
    g
}

fn bench_reach(c: &mut Criterion) {
    let g = random_adn(2_000, 6_000, 1);
    let mut scratch = ReachScratch::new();
    c.bench_function("micro/reach_count_2k_nodes", |b| {
        b.iter(|| reach_count(&g, NodeId(0), &mut scratch))
    });
    let mut cover = CoverSet::new();
    let mut gained = Vec::new();
    marginal_gain(&g, NodeId(0), &cover, &mut scratch, &mut gained);
    for &n in &gained {
        cover.insert(n);
    }
    c.bench_function("micro/marginal_gain_pruned", |b| {
        b.iter(|| marginal_gain(&g, NodeId(1), &cover, &mut scratch, &mut gained))
    });
}

fn bench_tdn_ops(c: &mut Criterion) {
    c.bench_function("micro/tdn_insert_advance_1k", |b| {
        b.iter_batched(
            TdnGraph::new,
            |mut g| {
                for t in 0..1_000u64 {
                    g.advance_to(t);
                    g.add_edge(NodeId((t % 97) as u32), NodeId((t % 89 + 100) as u32), 50);
                }
                g
            },
            BatchSize::SmallInput,
        )
    });
}

fn bench_sieve(c: &mut Criterion) {
    let edges: Vec<(NodeId, NodeId)> = {
        let g = random_adn(500, 1_500, 2);
        g.nodes()
            .flat_map(|u| g.out_neighbors(u).iter().map(move |&v| (u, v)))
            .collect()
    };
    c.bench_function("micro/sieve_adn_feed_1500_edges", |b| {
        b.iter_batched(
            || SieveAdn::new(10, 0.1, true, OracleCounter::new()),
            |mut s| {
                for chunk in edges.chunks(10) {
                    s.feed(chunk.iter().copied());
                }
                s
            },
            BatchSize::SmallInput,
        )
    });
}

fn bench_rr(c: &mut Criterion) {
    let mut g = TdnGraph::new();
    let mut rng = StdRng::seed_from_u64(3);
    for _ in 0..3_000 {
        let u = rng.gen_range(0..500u32);
        let v = rng.gen_range(0..500u32);
        if u != v {
            g.add_edge(NodeId(u), NodeId(v), 1_000);
        }
    }
    let mut rng = StdRng::seed_from_u64(4);
    c.bench_function("micro/sample_rr_500_nodes", |b| {
        b.iter(|| sample_rr(&g, &mut rng))
    });
}

/// Scratch-pool checkout cost: the serial fast path (one uncontended
/// `try_lock` on the caller's affinity slot) and the contended path (four
/// threads hammering one pool, the shape `par_map` BFS fan-outs produce).
/// The pre-PR5 shared-stack pool took a global mutex twice per checkout;
/// regressions here show up as a widening gap between the two.
fn bench_scratch_pool(c: &mut Criterion) {
    let g = random_adn(2_000, 6_000, 5);
    let pool = ScratchPool::new();
    c.bench_function("micro/scratch_pool_checkout_serial", |b| {
        b.iter(|| pool.with(|s| reach_count(&g, NodeId(1), s)))
    });
    c.bench_function("micro/scratch_pool_contended_4_threads", |b| {
        b.iter(|| {
            std::thread::scope(|scope| {
                for t in 0..4u32 {
                    let (g, pool) = (&g, &pool);
                    scope.spawn(move || {
                        let mut acc = 0u64;
                        for i in 0..64u32 {
                            acc += pool.with(|s| reach_count(g, NodeId(t * 64 + i), s));
                        }
                        acc
                    });
                }
            })
        })
    });
}

/// 64 singleton spreads, per-node BFS versus one 64-lane count on the
/// SCC condensation of their cone — the phase-4a rebuild trade.
fn bench_lanes_64(c: &mut Criterion) {
    let g = random_adn(2_000, 6_000, 6);
    let sources: Vec<NodeId> = (0..BATCH_LANES as u32).map(NodeId).collect();
    let mut scratch = ReachScratch::new();
    c.bench_function("micro/spreads_64_scalar_bfs", |b| {
        b.iter(|| {
            sources
                .iter()
                .map(|&s| reach_count(&g, s, &mut scratch))
                .sum::<u64>()
        })
    });
    let mut counts = vec![0u64; sources.len()];
    c.bench_function("micro/spreads_64_lanes64", |b| {
        b.iter(|| {
            reach_count_batch_wide(&g, &sources, 1, &mut scratch, &mut counts);
            counts.iter().sum::<u64>()
        })
    });
}

/// The drain-compaction heuristic under adversarial re-entrant label
/// growth: 64 lanes seeded at staggered depths of one long path, so every
/// prefix node re-enters the worklist once per deeper lane whose label
/// reaches it. The heuristic reclaims the drained queue prefix only once
/// it dominates the queue, bounding memmove work at one entry per push;
/// the unit test in `tdn-graph` pins that bound, this bench tracks the
/// absolute cost of the worst case.
fn bench_drain_compaction(c: &mut Criterion) {
    let n = 4_096u32;
    let mut g = AdnGraph::new();
    for i in 0..n - 1 {
        g.add_edge(NodeId(i), NodeId(i + 1));
    }
    let seeds: Vec<NodeId> = (0..64).map(|i| NodeId(n - 1 - i * 60)).collect();
    let lanes: Vec<&[NodeId]> = seeds.iter().map(std::slice::from_ref).collect();
    let mut scratch = ReachScratch::new();
    c.bench_function("micro/drain_compaction_reentrant_path", |b| {
        b.iter(|| {
            let mut reached = 0u64;
            reverse_reach_batch::<1, _>(
                &g,
                &lanes,
                |_, _| [0],
                SweepDirection::TopDown,
                &mut scratch,
                |_, _| reached += 1,
            );
            reached
        })
    });
}

/// 256 singleton spreads: four 64-lane counts versus one 256-lane
/// `[u64; 4]` count — the word-width trade the adaptive `Wide` engine
/// makes when a batch carries a full lane complement.
fn bench_wide_lanes(c: &mut Criterion) {
    let g = random_adn(2_000, 6_000, 7);
    let sources: Vec<NodeId> = (0..MAX_BATCH_LANES as u32).map(NodeId).collect();
    let mut scratch = ReachScratch::new();
    let mut counts = vec![0u64; BATCH_LANES];
    c.bench_function("micro/spreads_256_lanes64_x4", |b| {
        b.iter(|| {
            let mut total = 0u64;
            for chunk in sources.chunks(BATCH_LANES) {
                reach_count_batch_wide(&g, chunk, 1, &mut scratch, &mut counts[..chunk.len()]);
                total += counts[..chunk.len()].iter().sum::<u64>();
            }
            total
        })
    });
    let mut wide_counts = vec![0u64; MAX_BATCH_LANES];
    c.bench_function("micro/spreads_256_wide256", |b| {
        b.iter(|| {
            reach_count_batch_wide(&g, &sources, 4, &mut scratch, &mut wide_counts);
            wide_counts.iter().sum::<u64>()
        })
    });
}

fn bench_generators(c: &mut Criterion) {
    c.bench_function("micro/generate_10k_interactions", |b| {
        b.iter_batched(
            || Dataset::TwitterHiggs.stream(42),
            |s| s.take(10_000).count(),
            BatchSize::SmallInput,
        )
    });
}

criterion_group!(
    benches,
    bench_reach,
    bench_tdn_ops,
    bench_sieve,
    bench_rr,
    bench_scratch_pool,
    bench_lanes_64,
    bench_drain_compaction,
    bench_wide_lanes,
    bench_generators
);
criterion_main!(benches);
