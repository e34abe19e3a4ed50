//! Serve-path benchmark of the tdn workspace: drives `tdn_serve::Server`
//! with a pre-generated multi-tenant firehose and reports end-to-end
//! metrics (untraced runs) or per-layer metrics (traced runs). See
//! `README.md` for the workloads, the passes and the metric map.

pub mod measure;
pub mod passes;
pub mod spec;

use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::Instant;

use tdn_core::{BasicReduction, HistApprox, SieveAdnTracker};

use measure::{column_medians, median, percentile};
use passes::{
    closed_pass, dedicated, drill, graph_probe, open_pass, shard_events, total_accounting,
    Accounting, Engine, Fingerprint, OpenRun, RecoverRun, ServeRun,
};
use spec::{generate, Family, Spec};
use tdn_serve::TenantId;

/// End-to-end metrics, reported by untraced runs: `(name, unit)`.
pub const END_TO_END: [(&str, &str); 9] = [
    ("events_per_s", "1/s"),
    ("events_per_s_1t", "1/s"),
    ("tick_p50_ms", "ms"),
    ("tick_p95_ms", "ms"),
    ("read_p50_us", "us"),
    ("setup_s", "s"),
    ("state_mb", "MB"),
    ("spread_mean", "nodes"),
    ("recover_s", "s"),
];

/// Per-layer metrics, reported by traced runs: `(name, unit)`.
pub const PER_LAYER: [(&str, &str); 27] = [
    ("streams.gen_late_p95_ms", "ms"),
    ("serve.submit_us_p50", "us"),
    ("serve.batches_per_flush", "count"),
    ("serve.flush_ms_p50", "ms"),
    ("serve.flush_ms_p95", "ms"),
    ("serve.self_share", "ratio"),
    ("serve.shard_skew", "ratio"),
    ("core.step_ms_p50", "ms"),
    ("core.step_ms_p95", "ms"),
    ("core.step_s_sum", "s"),
    ("core.oracle_calls_per_event", "count"),
    ("core.instances_mean", "count"),
    ("core.spread_cache_hit_ratio", "ratio"),
    ("core.patched_ratio", "ratio"),
    ("graph.tdn_insert_us_p50", "us"),
    ("graph.tdn_advance_us_p50", "us"),
    ("graph.redundant_edge_ratio", "ratio"),
    ("graph.bottom_up_sweeps", "count"),
    ("persist.save_ms_p50", "ms"),
    ("persist.save_ms_p95", "ms"),
    ("persist.encode_ms_p50", "ms"),
    ("persist.bytes_written", "B"),
    ("persist.delta_base_ratio", "ratio"),
    ("persist.restore_ms_p50", "ms"),
    ("exec.speedup", "ratio"),
    ("trace.overhead", "ratio"),
    ("serve.failed_frac", "ratio"),
];

/// How one run is made.
#[derive(Clone, Debug)]
pub struct Options {
    /// Workload seed.
    pub seed: u64,
    /// Time the closed loops measure for, seconds.
    pub seconds: f64,
    /// Traced run: report per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    /// Scratch directory for checkpoints (emptied by every pass).
    pub work: PathBuf,
}

/// What one run measured and whether the program's outputs were correct.
#[derive(Clone, Debug)]
pub struct Outcome {
    /// Every correctness check passed.
    pub correct: bool,
    /// Events submitted over the served passes.
    pub attempted: u64,
    /// Events not applied; every event when a check failed.
    pub failed: u64,
    /// `(name, value, unit)`, in the order of [`END_TO_END`] or
    /// [`PER_LAYER`].
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// Run context, one JSON object: host, passes, sample counts.
    pub context: String,
    /// Human-readable report lines.
    pub report: Vec<String>,
    /// Failed correctness checks.
    pub problems: Vec<String>,
}

impl Outcome {
    /// The result line: `correct`, `attempted`, `failed` and `metrics`.
    pub fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                format!(
                    "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                    num(*value)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// A JSON number with every digit (non-finite values become 0).
fn num(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "0".to_string()
    }
}

/// Runs `spec` once.
pub fn run(spec: &Spec, opts: &Options) -> Outcome {
    match spec.family {
        Family::Sieve => run_family::<SieveAdnTracker>(spec, opts),
        Family::Hist => run_family::<HistApprox>(spec, opts),
        Family::Basic => run_family::<BasicReduction>(spec, opts),
    }
}

/// The host's core count: the thread count of every parallel pass.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Rounds every run makes at least. Interference only slows a tick, and
/// the nearest-rank median of 4 is the second fastest, so two disturbed
/// rounds cannot move a per-tick median.
pub const MIN_ROUNDS: usize = 4;

fn run_family<T: Engine>(spec: &Spec, opts: &Options) -> Outcome {
    let nproc = nproc();
    let stream = generate(spec, opts.seed);
    let streams = stream.tenant_streams();
    let serve_dir = opts.work.join("serve");
    let probe_dir = opts.work.join("probe");
    let durable = spec.checkpoint_every > 0;
    let (warmup, ticks) = (stream.warmup, stream.ticks.len());

    // Rounds of: closed loop at nproc, closed loop at 1 thread, open loop
    // at nproc and, on a checkpointing workload, the recovery drill on the
    // open loop's dropped server. Interleaved, so drift on the host lands
    // on every pass.
    let mut multi: Vec<ServeRun> = Vec::new();
    let mut single: Vec<ServeRun> = Vec::new();
    let mut open: Vec<OpenRun> = Vec::new();
    let mut drills: Vec<RecoverRun> = Vec::new();
    let started = Instant::now();
    loop {
        multi.push(closed_pass::<T>(spec, &stream, &serve_dir, nproc, false));
        single.push(closed_pass::<T>(spec, &stream, &serve_dir, 1, false));
        open.push(open_pass::<T>(spec, &stream, &serve_dir, nproc));
        if durable {
            drills.push(drill::<T>(spec, &stream, &serve_dir, nproc));
        }
        // Stop before a round that would overrun `--seconds`.
        let elapsed = started.elapsed().as_secs_f64();
        let per_round = elapsed / multi.len() as f64;
        if multi.len() >= MIN_ROUNDS && elapsed + per_round > opts.seconds {
            break;
        }
    }
    let traced = opts
        .trace
        .then(|| closed_pass::<T>(spec, &stream, &serve_dir, 1, true));

    // The oracle: every tenant on its own tracker. Traced runs replay it
    // serially, right after the traced serve pass, so its step and save
    // times compare with that pass's flush times.
    let oracle_threads = if opts.trace { 1 } else { nproc };
    let sweeps_before = tdn_graph::bottom_up_sweeps();
    let oracle = dedicated::<T>(
        spec,
        &streams,
        oracle_threads,
        opts.trace.then_some(probe_dir.as_path()),
    );
    let sweeps = tdn_graph::bottom_up_sweeps() - sweeps_before;

    // Correctness gate.
    let mut problems = Vec::new();
    for (what, runs) in [
        (format!("closed loop at {nproc} threads"), &multi),
        ("closed loop at 1 thread".to_string(), &single),
    ] {
        for (i, r) in runs.iter().enumerate() {
            if r.finals != oracle.finals {
                problems.push(format!(
                    "{what}, round {i}: published state differs from the dedicated replay"
                ));
            }
        }
    }
    if traced.as_ref().is_some_and(|r| r.finals != oracle.finals) {
        problems.push("traced pass: published state differs from the dedicated replay".into());
    }
    for (i, d) in drills.iter().enumerate() {
        if !recovered_matches(&d.finals, &oracle.finals, &d.provisional) {
            problems.push(format!(
                "drill {i}: recovered-and-replayed state differs from the uninterrupted one"
            ));
        }
        if d.quarantined > 0 || d.restored == 0 {
            problems.push(format!(
                "drill {i}: {} tenants restored, {} quarantined",
                d.restored, d.quarantined
            ));
        }
        if !d.acct.balanced() || d.acct.unapplied != d.skipped_events || d.acct.errored > 0 {
            problems.push(format!(
                "drill {i}: the replay lost events other than idempotent skips: {:?}",
                d.acct
            ));
        }
    }
    if !oracle.probe_ok {
        problems.push("persist probe: an encode or restore did not match its save".into());
    }
    let served: Vec<&Accounting> = multi
        .iter()
        .chain(&single)
        .chain(&traced)
        .map(|r| &r.acct)
        .chain(open.iter().map(|r| &r.acct))
        .collect();
    if served.iter().any(|a| !a.balanced()) {
        problems.push("submitted != applied + unapplied + errored".into());
    }
    let acct = total_accounting(served);
    let correct = problems.is_empty();

    // End-to-end metrics: per-tick medians across rounds, so one disturbed
    // round does not move them.
    let multi_ticks = column_medians(multi.iter().map(|r| r.tick_s.as_slice()));
    let single_ticks = column_medians(single.iter().map(|r| r.tick_s.as_slice()));
    let multi_timed: f64 = multi_ticks[warmup..].iter().sum();
    let single_timed: f64 = single_ticks[warmup..].iter().sum();
    let timed_events = multi[0].timed_events as f64;
    let events_per_s = timed_events / multi_timed;
    let events_per_s_1t = timed_events / single_timed;
    let latency = column_medians(open.iter().map(|r| r.latency_s.as_slice()));
    let late = column_medians(open.iter().map(|r| r.late_s.as_slice()));
    let reads: Vec<f64> = open.iter().flat_map(|r| r.read_s.iter().copied()).collect();
    let setups: Vec<f64> = multi
        .iter()
        .map(|r| r.setup_s(warmup))
        .chain(open.iter().map(|r| r.setup_s))
        .collect();
    // Without checkpoints a crash leaves nothing to restore: recovery is
    // an empty server replaying the whole stream, which is what a closed
    // round at nproc does.
    let recover_s = if durable {
        median(&drills.iter().map(|d| d.recover_s).collect::<Vec<_>>())
    } else {
        median(&multi.iter().map(|r| r.new_s).collect::<Vec<_>>()) + multi_ticks.iter().sum::<f64>()
    };
    let e2e = [
        events_per_s,
        events_per_s_1t,
        percentile(&latency, 0.5) * 1e3,
        percentile(&latency, 0.95) * 1e3,
        median(&reads) * 1e6,
        median(&setups),
        single.last().expect("MIN_ROUNDS > 0").approx_bytes as f64 / 1e6,
        ratio(oracle.value_sum, oracle.steps as f64),
        recover_s,
    ];

    let timed_ticks = (ticks - warmup) as f64;
    let mut report = vec![
        format!(
            "{}: {} tenants, {ticks} ticks ({warmup} warm-up), {} events; correct={correct}, failed_frac={}",
            spec.name,
            streams.len(),
            stream.events,
            ratio(acct.failed() as f64, acct.submitted as f64),
        ),
        format!(
            "recovery drill: {} tenants restored, resume at tick {}, {} provisional snapshots (restored at their last tick, never stepped again)",
            drills.first().map_or(0, |d| d.restored),
            drills.first().map_or(0, |d| d.resume_tick),
            drills.first().map_or(0, |d| d.provisional.len()),
        ),
        format!(
            "closed loop: mean tick {:.4} ms at {nproc} threads, {:.4} ms at 1 thread; open loop period {:.4} ms",
            1e3 * multi_timed / timed_ticks,
            1e3 * single_timed / timed_ticks,
            spec.tick_period_us as f64 / 1e3,
        ),
        format!(
            "rounds (events/s over the timed ticks): {nproc} threads {:?}; 1 thread {:?}",
            multi.iter().map(|r| (timed_events / r.tick_s[warmup..].iter().sum::<f64>()).round()).collect::<Vec<_>>(),
            single.iter().map(|r| (timed_events / r.tick_s[warmup..].iter().sum::<f64>()).round()).collect::<Vec<_>>(),
        ),
    ];
    let metrics: Vec<(&'static str, f64, &'static str)> = match &traced {
        None => END_TO_END
            .iter()
            .zip(e2e)
            .map(|(&(name, unit), v)| (name, v, unit))
            .collect(),
        Some(traced) => {
            let per_shard = shard_events::<T>(spec, &stream);
            let shard_mean = per_shard.iter().sum::<u64>() as f64 / per_shard.len() as f64;
            let shard_max = per_shard.iter().copied().max().unwrap_or(0) as f64;
            let graph = graph_probe(&streams);
            let flush_sum: f64 = traced.flush_s.iter().sum();
            let step_sum: f64 = oracle.step_s.iter().sum();
            let save_sum: f64 = if durable {
                oracle.saves.iter().map(|s| s.save_s).sum()
            } else {
                0.0
            };
            let overhead = ratio(traced.tick_s[warmup..].iter().sum(), single_timed);
            let saves_ms: Vec<f64> = oracle.saves.iter().map(|s| s.save_s * 1e3).collect();
            let encode_ms: Vec<f64> = oracle.saves.iter().map(|s| s.encode_s * 1e3).collect();
            let mean_bytes = |delta: bool| {
                let sizes: Vec<u64> = oracle
                    .saves
                    .iter()
                    .filter(|s| s.delta == delta)
                    .map(|s| s.bytes)
                    .collect();
                ratio(sizes.iter().sum::<u64>() as f64, sizes.len() as f64)
            };
            let sp = &oracle.spread;
            let layer = [
                percentile(&late, 0.95) * 1e3,
                median(&traced.submit_s) * 1e6,
                ratio(traced.batches as f64, ticks as f64),
                percentile(&traced.flush_s, 0.5) * 1e3,
                percentile(&traced.flush_s, 0.95) * 1e3,
                ratio(flush_sum - step_sum - save_sum, flush_sum),
                ratio(shard_max, shard_mean),
                percentile(&oracle.step_s, 0.5) * 1e3,
                percentile(&oracle.step_s, 0.95) * 1e3,
                step_sum,
                ratio(oracle.oracle_calls as f64, oracle.events as f64),
                ratio(oracle.instances_sum as f64, oracle.steps as f64),
                ratio(
                    sp.cache_hits as f64,
                    (sp.cache_hits + sp.cache_misses) as f64,
                ),
                ratio(
                    sp.patched_batches as f64,
                    (sp.patched_batches + sp.rebuilt_batches) as f64,
                ),
                median(&graph.insert_s) * 1e6,
                median(&graph.advance_s) * 1e6,
                ratio(
                    sp.redundant_edges as f64,
                    (sp.redundant_edges + sp.sink_delta_edges + sp.novel_edges) as f64,
                ),
                sweeps as f64,
                percentile(&saves_ms, 0.5),
                percentile(&saves_ms, 0.95),
                median(&encode_ms),
                oracle.saves.iter().map(|s| s.bytes).sum::<u64>() as f64,
                ratio(mean_bytes(true), mean_bytes(false)),
                median(&oracle.restore_s) * 1e3,
                ratio(events_per_s, events_per_s_1t),
                overhead,
                ratio(acct.failed() as f64, acct.submitted as f64),
            ];
            report.push(format!(
                "flush time {flush_sum:.4} s at 1 thread: core steps {:.1}%, persist saves {:.1}%, serve self {:.1}%; tracing overhead {overhead:.4}x",
                100.0 * ratio(step_sum, flush_sum),
                100.0 * ratio(save_sum, flush_sum),
                100.0 * ratio(flush_sum - step_sum - save_sum, flush_sum),
            ));
            report.push(format!(
                "exec.speedup = events_per_s {events_per_s:.1} at {nproc} threads / events_per_s_1t {events_per_s_1t:.1}"
            ));
            PER_LAYER
                .iter()
                .zip(layer)
                .map(|(&(name, unit), v)| (name, v, unit))
                .collect()
        }
    };
    for (name, value, unit) in &metrics {
        report.push(format!("{name:<32} {value:>16.6} {unit}"));
    }

    let rounds = multi.len();
    let mut context = String::new();
    let _ = write!(
        context,
        "{{\"workload\": \"{}\", \"seed\": {}, \"trace\": {}, \"nproc\": {nproc}, \
         \"git_rev\": \"{}\", \"rustc\": \"{}\", \"tick_period_us\": {}, \
         \"stream\": {{\"tenants\": {}, \"ticks\": {ticks}, \"warmup\": {warmup}, \"events\": {}}}, \
         \"passes\": [{{\"pass\": \"closed\", \"TDN_THREADS\": {nproc}, \"rounds\": {rounds}}}, \
         {{\"pass\": \"closed\", \"TDN_THREADS\": 1, \"rounds\": {rounds}}}, \
         {{\"pass\": \"open\", \"TDN_THREADS\": {nproc}, \"rounds\": {rounds}, \"ticks\": {}}}, \
         {{\"pass\": \"drill\", \"TDN_THREADS\": {nproc}, \"rounds\": {}, \"resume_tick\": {}}}, \
         {{\"pass\": \"dedicated\", \"TDN_THREADS\": {oracle_threads}}}{}], \
         \"samples\": {{\"tick_ms\": {}, \"read_us\": {}, \"setup_s\": {}, \"events_per_s\": {}, \
         \"step_ms\": {}, \"save_ms\": {}, \"flush_ms\": {}}}}}",
        spec.name,
        opts.seed,
        u8::from(opts.trace),
        git_revision(),
        rustc_version(),
        spec.tick_period_us,
        streams.len(),
        stream.events,
        latency.len(),
        drills.len(),
        drills.first().map_or(0, |d| d.resume_tick),
        if opts.trace {
            ", {\"pass\": \"traced\", \"TDN_THREADS\": 1}"
        } else {
            ""
        },
        latency.len() * rounds,
        reads.len(),
        setups.len(),
        (ticks - warmup) * rounds,
        oracle.step_s.len(),
        oracle.saves.len(),
        traced.as_ref().map_or(0, |t| t.flush_s.len()),
    );

    Outcome {
        correct,
        attempted: acct.submitted,
        failed: if correct {
            acct.failed()
        } else {
            acct.submitted
        },
        metrics,
        context,
        report,
        problems,
    }
}

/// Whether a recovered-and-replayed server ended in the uninterrupted
/// state. A `provisional` tenant was restored at its last tick and never
/// stepped again; recovery published `TrackerEngine::query` for it, which
/// `BasicReduction` answers from its window head rather than from the
/// instance that answered the last step. For those tenants only the tick
/// and the oracle tally must match.
fn recovered_matches(
    recovered: &[Fingerprint],
    uninterrupted: &[Fingerprint],
    provisional: &[TenantId],
) -> bool {
    recovered.len() == uninterrupted.len()
        && recovered.iter().zip(uninterrupted).all(|(r, u)| {
            if provisional.contains(&r.0) {
                (r.0, r.1, r.3) == (u.0, u.1, u.3)
            } else {
                r == u
            }
        })
}

/// The checkout's git revision, read from `.git` in the working directory
/// without leaving it; "unknown" outside a git checkout.
pub fn git_revision() -> String {
    let read = |p: &str| {
        std::fs::read_to_string(p)
            .ok()
            .map(|s| s.trim().to_string())
    };
    let Some(head) = read(".git/HEAD") else {
        return "unknown".into();
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    read(&format!(".git/{reference}"))
        .or_else(|| {
            read(".git/packed-refs")?
                .lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split(' ').next())
                .map(str::to_string)
        })
        .unwrap_or_else(|| "unknown".into())
}

/// `rustc --version`, or "unknown".
pub fn rustc_version() -> String {
    std::process::Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".into(), |s| s.trim().to_string())
}
