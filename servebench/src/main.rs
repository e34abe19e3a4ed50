//! `servebench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints a context line, a human-readable report and, as the last line,
//! the JSON result. Exits 1 when a correctness check fails and 2 on a bad
//! argument.

use std::path::Path;
use std::process::ExitCode;

use servebench::{run, spec, Options};

fn usage(problem: &str) -> ExitCode {
    eprintln!("servebench: {problem}");
    eprintln!("usage: servebench --workload <name> --seed <n> --seconds <s> --trace <0|1>");
    let names: Vec<&str> = spec::WORKLOADS.iter().map(|s| s.name).collect();
    eprintln!("workloads: {}", names.join(", "));
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    for pair in args.chunks(2) {
        let [flag, value] = pair else {
            return usage("every flag takes a value");
        };
        match flag.as_str() {
            "--workload" => workload = spec::find(value),
            "--seed" => seed = value.parse::<u64>().ok(),
            "--seconds" => seconds = value.parse::<f64>().ok().filter(|s| *s >= 0.0),
            "--trace" => {
                trace = match value.as_str() {
                    "0" => Some(false),
                    "1" => Some(true),
                    _ => None,
                }
            }
            other => return usage(&format!("unknown flag {other}")),
        }
    }
    let (Some(spec), Some(seed), Some(seconds), Some(trace)) = (workload, seed, seconds, trace)
    else {
        return usage("--workload, --seed, --seconds and --trace are all required");
    };

    let work_root = Path::new(env!("CARGO_MANIFEST_DIR")).join(".work");
    let work = work_root.join(format!("{}-{}", spec.name, std::process::id()));
    let outcome = run(
        spec,
        &Options {
            seed,
            seconds,
            trace,
            work: work.clone(),
        },
    );
    let _ = std::fs::remove_dir_all(&work);
    let _ = std::fs::remove_dir(&work_root);

    println!("# context {}", outcome.context);
    for line in &outcome.report {
        println!("# {line}");
    }
    for problem in &outcome.problems {
        println!("# FAILED: {problem}");
    }
    println!("{}", outcome.json());
    if outcome.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
