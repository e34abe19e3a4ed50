//! Experiment CLI: regenerates every table and figure of the paper.
//!
//! ```text
//! experiments <target>... [--full] [--out DIR] [--bench-out DIR]...
//!             [--checkpoint-every N]
//!   targets: table1 fig7 fig8 fig9 fig10 fig11 fig12 fig13 fig14
//!            ablations throughput restore engine scale sketch serve
//!            chaos all
//!   --full               paper-scale sweeps (default: quick)
//!   --out                output directory for CSVs (default: results)
//!   --bench-out          extra directories the `BENCH_*.json` regression
//!                        baselines are mirrored to after each target
//!                        (repeatable; default: the repo root, so every
//!                        bench run refreshes both `results/BENCH_*.json`
//!                        and the committed `./BENCH_*.json` copies)
//!   --checkpoint-every   steps between checkpoints for the `restore`
//!                        target (default: an eighth of the stream)
//! ```
//!
//! Figs. 8–10 come from shared runs (one runner), as do Figs. 13–14.
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
    serve, sketch, table1, throughput,
};
use tdn_bench::Scale;

fn usage() -> ExitCode {
    eprintln!(
        "usage: experiments <target>... [--full] [--out DIR] [--bench-out DIR]... \
         [--checkpoint-every N]\n\
         targets: table1 fig7 fig8 fig9 fig10 fig11 fig12 fig13 fig14 ablations \
         throughput restore engine scale sketch serve chaos all"
    );
    ExitCode::FAILURE
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        return usage();
    }
    let mut full = false;
    let mut out = PathBuf::from("results");
    let mut bench_out: Vec<PathBuf> = Vec::new();
    let mut checkpoint_every: Option<usize> = None;
    let mut targets: BTreeSet<&str> = BTreeSet::new();
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
            "--checkpoint-every" => match it.next().and_then(|n| n.parse::<usize>().ok()) {
                Some(n) if n >= 1 => checkpoint_every = Some(n),
                _ => return usage(),
            },
            t @ ("table1" | "fig7" | "fig8" | "fig9" | "fig10" | "fig11" | "fig12" | "fig13"
            | "fig14" | "ablations" | "throughput" | "restore" | "engine" | "scale"
            | "sketch" | "serve" | "chaos") => {
                // Shared runners: figs 8-10 and 13-14 are joint.
                targets.insert(match t {
                    "fig9" | "fig10" => "fig8",
                    "fig14" => "fig13",
                    other => other,
                });
            }
            "all" => {
                for t in [
                    "table1",
                    "fig7",
                    "fig8",
                    "fig11",
                    "fig12",
                    "fig13",
                    "ablations",
                    "throughput",
                    "restore",
                    "engine",
                    "scale",
                    "sketch",
                    "serve",
                    "chaos",
                ] {
                    targets.insert(t);
                }
            }
            _ => return usage(),
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
        targets,
        if full { "FULL (paper)" } else { "QUICK" },
        out.display()
    );
    for t in targets {
        let started = std::time::Instant::now();
        let res = match t {
            "table1" => table1::run(&out),
            "fig7" => fig7::run(&out, &scale),
            "fig8" => fig8_10::run(&out, &scale),
            "fig11" => fig11_12::run_fig11(&out, &scale),
            "fig12" => fig11_12::run_fig12(&out, &scale),
            "fig13" => fig13_14::run(&out, &scale),
            "ablations" => ablations::run(&out, &scale),
            "throughput" => throughput::run(&out, &scale),
            "restore" => restore::run(&out, &scale, checkpoint_every),
            "engine" => engine::run(&out, &scale),
            "scale" => scale_exp::run(&out, &scale),
            "sketch" => sketch::run(&out, &scale),
            "serve" => serve::run(&out, &scale),
            "chaos" => chaos::run(&out, &scale),
            _ => unreachable!("validated above"),
        };
        match res.and_then(|()| mirror_bench_json(t, &out, &bench_out)) {
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
