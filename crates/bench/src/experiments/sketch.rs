//! Sketch-estimator conformance experiment: the RR-sketch spread mode
//! ([`SpreadMode::Sketch`]) against the exact reachability oracle, at
//! dataset scale.
//!
//! Two sections, mirroring the two maintenance paths of
//! `tdn_graph::sketch::SketchPool`:
//!
//! 1. **`adn`** — HISTAPPROX runs the prepared stream in sketch mode;
//!    after every probe interval each live instance's pool is audited
//!    against exact reach counts on that instance's own graph (the
//!    ε·n Hoeffding envelope), and the solutions are scored against a
//!    full-recompute replay of the same stream (coverage ratio — both
//!    solution values are exact cover sizes, only seed *selection* is
//!    sketch-driven). Thread-count determinism is asserted bit for bit.
//! 2. **`tdn_decay`** — a standalone pool rides a time-decaying
//!    [`TdnGraph`] through the same arrivals with dirty-node tracking
//!    driving [`SketchPool::apply_expiry`]: the expiry-invalidation path
//!    the ADN instances never exercise, audited with the same envelope.
//!
//! Every gate goes through [`ensure`], so an envelope breach, a coverage
//! collapse, or a determinism break exits non-zero — the CI smoke run
//! cannot pass vacuously. Results land in `BENCH_sketch.json` (schema in
//! `EXPERIMENTS.md`).

use crate::checks::ensure;
use crate::driver::PreparedStream;
use crate::report::{obj, write_bench};
use crate::scale::Scale;
use std::path::Path;
use tdn_core::{HistApprox, InfluenceTracker, SieveAdn, SpreadMode, TrackerConfig};
use tdn_graph::{reach_count, ReachScratch, SketchParams, SketchPool, TdnGraph};
use tdn_streams::Dataset;

const EPS: f64 = 0.15;
const DELTA: f64 = 0.02;
const SKETCH_SEED: u64 = 0x5EED_BE0C;
const K: usize = 10;
const SIEVE_EPS: f64 = 0.2;
const L: u32 = 200;
const P: f64 = 0.01;
/// Ticks coalesced per arrival batch.
const BATCH_TICKS: usize = 8;
/// Envelope audits per run (evenly spaced over the stream).
const PROBES: usize = 8;
/// Universe nodes audited per pool per probe (deterministic stride
/// sample; the ε·n bound holds per node, so any subset is a valid audit).
const SAMPLE_CAP: usize = 128;

/// Pre-registered envelope budget: `max(2, ⌈3·δ·checked⌉)`. Hoeffding's
/// per-check violation probability δ is loose by ~an order of magnitude
/// (exact binomial tail at the worst-case p = 1/2), so a 3δ rate holds
/// with wide margin while still failing loudly on estimator drift.
fn allowed_violations(checked: u64) -> u64 {
    ((3.0 * DELTA * checked as f64).ceil() as u64).max(2)
}

/// Envelope audit tally. The integer half doubles as a determinism
/// artifact: replays at different thread counts must agree exactly.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
struct Envelope {
    checked: u64,
    violations: u64,
    worst_rel: f64,
    sum_rel: f64,
}

impl Envelope {
    fn mean_rel(&self) -> f64 {
        if self.checked == 0 {
            0.0
        } else {
            self.sum_rel / self.checked as f64
        }
    }
}

/// Audits one pool against exact reach counts on `g` (stride-sampled
/// universe; relative error is `|est − exact| / n`, the scale of the
/// ε-envelope itself).
fn audit_pool(
    pool: &SketchPool,
    g: &(impl tdn_graph::OutGraph + Sync),
    scratch: &mut ReachScratch,
    env: &mut Envelope,
) {
    let n = pool.universe_len();
    if n == 0 {
        return;
    }
    let bound = pool.params().error_bound(n);
    let stride = n.div_ceil(SAMPLE_CAP).max(1);
    for &v in pool.universe().iter().step_by(stride) {
        let exact = reach_count(g, v, scratch) as f64;
        let err = (pool.estimate(v) - exact).abs();
        env.checked += 1;
        if err > bound + 1e-9 {
            env.violations += 1;
        }
        let rel = err / n as f64;
        env.sum_rel += rel;
        env.worst_rel = env.worst_rel.max(rel);
    }
}

/// One HISTAPPROX replay: per-step solution values, final oracle tally,
/// and the envelope tally from auditing every instance pool at each
/// probe step.
fn replay_hist(
    cfg: &TrackerConfig,
    mode: SpreadMode,
    stream: &PreparedStream,
    threads: usize,
) -> (Vec<u64>, u64, Envelope) {
    exec::with_threads(threads, || {
        let mut tracker = HistApprox::new(cfg).with_spread_mode(mode);
        let probe_every = (stream.len() / PROBES).max(1);
        let mut values = Vec::with_capacity(stream.len());
        let mut env = Envelope::default();
        let mut scratch = ReachScratch::new();
        for (i, (t, batch)) in stream.steps.iter().enumerate() {
            values.push(tracker.step(*t, batch).value);
            let sketching = matches!(mode, SpreadMode::Sketch(_));
            if sketching && (i % probe_every == probe_every - 1 || i + 1 == stream.len()) {
                for (_deadline, inst) in tracker.instances() {
                    audit_instance(inst, &mut scratch, &mut env);
                }
            }
        }
        let calls = tracker.oracle_calls();
        (values, calls, env)
    })
}

fn audit_instance(inst: &SieveAdn, scratch: &mut ReachScratch, env: &mut Envelope) {
    let pool = inst
        .sketch_pool()
        .expect("sketch-mode instances must maintain a pool");
    audit_pool(pool, inst.graph(), scratch, env);
}

/// The `tdn_decay` section: a pool maintained on a decaying [`TdnGraph`]
/// (inserts via `absorb_batch`, expiry via dirty-tracking +
/// `apply_expiry`), audited at every probe step.
fn run_decay(stream: &PreparedStream) -> (Envelope, u64, usize) {
    let params = SketchParams::new(EPS, DELTA, SKETCH_SEED);
    let mut g = TdnGraph::new();
    g.set_dirty_tracking(true);
    let mut pool = SketchPool::new(params);
    let mut env = Envelope::default();
    let mut scratch = ReachScratch::new();
    let mut expired = 0u64;
    let probe_every = (stream.len() / PROBES).max(1);
    for (i, (t, batch)) in stream.steps.iter().enumerate() {
        // Expire first (G_t is the graph *at* t), repair, then insert.
        let before = g.edge_count();
        g.advance_to(*t);
        expired += before - g.edge_count();
        let dirty = g.take_dirty();
        pool.apply_expiry(&g, &dirty);
        let mut fresh = Vec::with_capacity(batch.len());
        for e in batch {
            let before = g.edge_count();
            g.add_edge(e.src, e.dst, e.lifetime);
            if g.edge_count() > before {
                fresh.push((e.src, e.dst));
            }
        }
        g.take_dirty(); // inserts also mark dirty; absorb handles them
        pool.absorb_batch(&g, &fresh);
        if i % probe_every == probe_every - 1 || i + 1 == stream.len() {
            audit_pool(&pool, &g, &mut scratch, &mut env);
        }
    }
    (env, expired, pool.universe_len())
}

/// Runs the sketch conformance experiment and writes `BENCH_sketch.json`.
pub fn run(out_dir: &Path, scale: &Scale) -> std::io::Result<()> {
    let params = SketchParams::new(EPS, DELTA, SKETCH_SEED);
    let stream = PreparedStream::geometric(Dataset::Brightkite, scale.seed, P, L, scale.steps_ris)
        .coalesce(BATCH_TICKS);
    let cfg = TrackerConfig::new(K, SIEVE_EPS, L);
    let mode = SpreadMode::Sketch(params);

    // Sketch replays at 1 and 4 engine threads — the determinism half.
    let (values_1, calls_1, env_1) = replay_hist(&cfg, mode, &stream, 1);
    let (values_4, calls_4, env_4) = replay_hist(&cfg, mode, &stream, 4);
    let deterministic = values_1 == values_4
        && calls_1 == calls_4
        && env_1.checked == env_4.checked
        && env_1.violations == env_4.violations;
    ensure(
        deterministic,
        "sketch-mode HISTAPPROX diverged across thread counts",
    )?;

    // Envelope gate.
    let budget = allowed_violations(env_1.checked);
    ensure(env_1.checked > 0, "no envelope check ran — vacuous audit")?;
    ensure(
        env_1.violations <= budget,
        format!(
            "sketch envelope breached: {}/{} audits outside eps*n (budget {})",
            env_1.violations, env_1.checked, budget
        ),
    )?;

    // Quality gate: coverage ratio vs the exact (full-recompute) replay.
    let (values_exact, _, _) = replay_hist(&cfg, SpreadMode::FullRecompute, &stream, 1);
    let mut ratios: Vec<f64> = Vec::new();
    for (s, e) in values_1.iter().zip(&values_exact) {
        if *e >= 2 {
            ratios.push(*s as f64 / *e as f64);
        }
    }
    ensure(!ratios.is_empty(), "no step scored for coverage — vacuous")?;
    let cov_min = ratios.iter().cloned().fold(f64::INFINITY, f64::min);
    let cov_mean = ratios.iter().sum::<f64>() / ratios.len() as f64;
    ensure(
        cov_mean >= 0.8,
        format!("mean sketch coverage ratio {cov_mean:.3} below the 0.8 floor"),
    )?;

    // Expiry path on the decaying graph.
    let (decay_env, expired, universe_final) = run_decay(&stream);
    let decay_budget = allowed_violations(decay_env.checked);
    ensure(
        decay_env.checked > 0 && expired > 0,
        "decay section is vacuous (no audits or no expiries)",
    )?;
    ensure(
        decay_env.violations <= decay_budget,
        format!(
            "decay-path envelope breached: {}/{} audits outside eps*n (budget {})",
            decay_env.violations, decay_env.checked, decay_budget
        ),
    )?;

    println!(
        "sketch envelope (ADN): {}/{} audits outside eps*n (budget {}), worst rel err {:.4}, \
         mean coverage {:.3}",
        env_1.violations, env_1.checked, budget, env_1.worst_rel, cov_mean,
    );
    println!(
        "sketch envelope (TDN decay): {}/{} audits outside eps*n (budget {}), {} edges expired",
        decay_env.violations, decay_env.checked, decay_budget, expired,
    );
    let fields = obj! {
        "params": obj! {"eps": EPS, "delta": DELTA, "pool_size": params.pool_size(),
            "seed": SKETCH_SEED},
        "workload": obj! {"dataset": Dataset::Brightkite.slug(), "steps": stream.len(),
            "edges": stream.edges, "k": K, "sieve_eps": SIEVE_EPS, "max_lifetime": L,
            "geo_p": P},
        "adn": obj! {"tracker": "HistApprox", "checked": env_1.checked,
            "violations": env_1.violations, "budget": budget, "worst_rel_err": env_1.worst_rel,
            "mean_rel_err": env_1.mean_rel(), "coverage_ratio_mean": cov_mean,
            "coverage_ratio_min": cov_min, "scored_steps": ratios.len()},
        "tdn_decay": obj! {"checked": decay_env.checked, "violations": decay_env.violations,
            "budget": decay_budget, "worst_rel_err": decay_env.worst_rel,
            "mean_rel_err": decay_env.mean_rel(), "expired_edges": expired,
            "final_universe": universe_final},
        "within_envelope": true,
        "deterministic": deterministic,
    };
    write_bench(out_dir, "sketch", scale, fields)
}
