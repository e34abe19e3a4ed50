//! Experiment CLI: regenerates every table and figure of the paper, plus
//! the beyond-paper targets (EXPERIMENTS.md maps each to its figure).
//!
//! ```text
//! experiments <target>... [--full] [--out DIR] [--bench-out DIR]...
//!   --full               paper-scale sweeps (default: quick)
//!   --out                output directory for CSVs (default: results)
//!   --bench-out          extra directories the `BENCH_*.json` regression
//!                        baselines are mirrored to after each target
//!                        (repeatable; default: the repo root, so every
//!                        bench run refreshes both `results/BENCH_*.json`
//!                        and the committed `./BENCH_*.json` copies)
//! ```
//!
//! The targets are the rows of `TARGETS`, plus `all`, which runs every
//! row once. A row's later names are aliases: Figs. 8–10 come from one
//! shared run, as do Figs. 13–14.
//!
//! Any failed in-experiment invariant (thread-count determinism,
//! spread-mode bit-identity, warm-restart equality) surfaces as a target
//! error and a **non-zero exit status**, so CI smoke runs cannot pass
//! vacuously.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use tdn_bench::experiments::{
    ablations, chaos, engine, fig11_12, fig13_14, fig7, fig8_10, restore, scale as scale_exp,
    sketch, table1, throughput,
};
use tdn_bench::Scale;

/// Runs one target, writing into the output directory.
type Runner = fn(&Path, &Scale) -> std::io::Result<()>;

/// Every target in `all` order: its names (the first is canonical, the
/// rest are aliases) and its runner.
const TARGETS: [(&[&str], Runner); 13] = [
    (&["table1"], |out, _| table1::run(out)),
    (&["fig7"], fig7::run),
    (&["fig8", "fig9", "fig10"], fig8_10::run),
    (&["fig11"], fig11_12::run_fig11),
    (&["fig12"], fig11_12::run_fig12),
    (&["fig13", "fig14"], fig13_14::run),
    (&["ablations"], ablations::run),
    (&["throughput"], throughput::run),
    (&["restore"], restore::run),
    (&["engine"], engine::run),
    (&["scale"], scale_exp::run),
    (&["sketch"], sketch::run),
    (&["chaos"], chaos::run),
];

fn usage() -> ExitCode {
    let names: Vec<&str> = TARGETS
        .iter()
        .flat_map(|(names, _)| names.iter().copied())
        .collect();
    eprintln!(
        "usage: experiments <target>... [--full] [--out DIR] [--bench-out DIR]...\n\
         targets: {} all",
        names.join(" ")
    );
    ExitCode::FAILURE
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut full = false;
    let mut out = PathBuf::from("results");
    let mut bench_out: Vec<PathBuf> = Vec::new();
    // Indices into TARGETS: each row runs at most once, in table order.
    let mut targets: BTreeSet<usize> = BTreeSet::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--full" => full = true,
            "--quick" => full = false,
            "--out" => match it.next() {
                Some(dir) => out = PathBuf::from(dir),
                None => return usage(),
            },
            "--bench-out" => match it.next() {
                Some(dir) => bench_out.push(PathBuf::from(dir)),
                None => return usage(),
            },
            "all" => targets.extend(0..TARGETS.len()),
            name => {
                let Some(i) = TARGETS.iter().position(|(names, _)| names.contains(&name)) else {
                    return usage();
                };
                targets.insert(i);
            }
        }
    }
    if targets.is_empty() {
        return usage();
    }
    if bench_out.is_empty() {
        bench_out.push(PathBuf::from("."));
    }
    let scale = if full { Scale::full() } else { Scale::quick() };
    println!(
        "running {:?} at {} scale -> {}",
        targets.iter().map(|&i| TARGETS[i].0[0]).collect::<Vec<_>>(),
        if full { "FULL (paper)" } else { "QUICK" },
        out.display()
    );
    for i in targets {
        let (names, run) = TARGETS[i];
        let t = names[0];
        let started = std::time::Instant::now();
        match run(&out, &scale).and_then(|()| mirror_bench_json(t, &out, &bench_out)) {
            Ok(()) => println!("[{t}] done in {:.1}s", started.elapsed().as_secs_f64()),
            Err(e) => {
                eprintln!("[{t}] failed: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    ExitCode::SUCCESS
}

/// Mirrors a target's `BENCH_<target>.json` regression baseline from the
/// `--out` directory into every `--bench-out` directory (skipping exact
/// self-copies), so the committed repo-root baselines refresh on every
/// bench run without a manual copy step.
fn mirror_bench_json(target: &str, out: &Path, bench_out: &[PathBuf]) -> std::io::Result<()> {
    let name = format!("BENCH_{target}.json");
    let src = out.join(&name);
    if !src.is_file() {
        return Ok(()); // Target writes no bench baseline.
    }
    for dir in bench_out {
        let dst = dir.join(&name);
        if let (Ok(a), Ok(b)) = (src.canonicalize(), dst.canonicalize()) {
            if a == b {
                continue;
            }
        }
        std::fs::create_dir_all(dir)?;
        std::fs::copy(&src, &dst)?;
        println!("[{target}] mirrored {name} -> {}", dst.display());
    }
    Ok(())
}
