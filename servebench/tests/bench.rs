//! Tests of the benchmark itself: metric names, the metric sets each
//! workload emits, input determinism, the percentile rule and the open-loop
//! generator.

use std::time::Duration;

use servebench::measure::{open_loop, percentile, Clock};
use servebench::spec::{generate, Spec, WORKLOADS};
use servebench::{run, Options, END_TO_END, PER_LAYER};

fn valid_name(name: &str) -> bool {
    name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

#[test]
fn metric_names_use_only_letters_digits_underscore_dot_and_dash() {
    let mut seen = std::collections::BTreeSet::new();
    for (name, unit) in END_TO_END.iter().chain(&PER_LAYER) {
        assert!(valid_name(name), "bad metric name {name:?}");
        assert!(seen.insert(*name), "metric {name} listed twice");
        assert!(
            !unit.is_empty()
                && unit.len() <= 16
                && unit
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
            "bad unit {unit:?} of {name}"
        );
    }
}

/// The `"name"` values of the objects in `BENCHMARK.json`'s `section` list.
fn benchmark_names(section: &str) -> Vec<String> {
    let text = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json at the repository root");
    let start = text
        .find(&format!("\"{section}\""))
        .unwrap_or_else(|| panic!("no {section} in BENCHMARK.json"));
    let list = &text[start..];
    let list = &list[list.find('[').expect("a list")..list.find(']').expect("a closed list")];
    list.split("\"name\"")
        .skip(1)
        .map(|rest| {
            let value = rest.split('"').nth(1).expect("a quoted name");
            value.to_string()
        })
        .collect()
}

#[test]
fn benchmark_json_names_the_workloads_and_metrics_the_code_defines() {
    let workloads: Vec<&str> = WORKLOADS.iter().map(|s| s.name).collect();
    assert_eq!(benchmark_names("workloads"), workloads);
    let e2e: Vec<&str> = END_TO_END.iter().map(|m| m.0).collect();
    assert_eq!(benchmark_names("end_to_end"), e2e);
    let layer: Vec<&str> = PER_LAYER.iter().map(|m| m.0).collect();
    assert_eq!(benchmark_names("per_layer"), layer);
}

/// `spec` shrunk to a few tenants and ticks, schedule kept.
fn tiny(spec: &Spec) -> Spec {
    Spec {
        tenants: spec.tenants.min(6),
        ticks: 40,
        min_warmup: 4,
        open_ticks: 20,
        tick_period_us: 500,
        ..spec.clone()
    }
}

#[test]
fn every_workload_emits_every_metric_of_its_pass_and_passes_the_gate() {
    for spec in &WORKLOADS {
        for (trace, section) in [(false, "end_to_end"), (true, "per_layer")] {
            let work = std::path::Path::new(env!("CARGO_TARGET_TMPDIR"))
                .join(format!("{}-{trace}", spec.name));
            let outcome = run(
                &tiny(spec),
                &Options {
                    seed: 5,
                    seconds: 0.0,
                    trace,
                    work: work.clone(),
                },
            );
            let _ = std::fs::remove_dir_all(&work);
            assert!(outcome.correct, "{}: {:?}", spec.name, outcome.problems);
            assert_eq!(outcome.failed, 0, "{}", spec.name);
            assert!(outcome.attempted > 0, "{}", spec.name);
            let emitted: Vec<String> = outcome.metrics.iter().map(|m| m.0.to_string()).collect();
            assert_eq!(
                emitted,
                benchmark_names(section),
                "{} trace={trace}",
                spec.name
            );
            let json = outcome.json();
            for name in &emitted {
                assert!(
                    json.contains(&format!("\"{name}\": {{\"value\": ")),
                    "{name}"
                );
            }
        }
    }
}

#[test]
fn workload_generation_is_deterministic_per_seed() {
    for spec in &WORKLOADS {
        let a = generate(spec, 17);
        assert_eq!(a, generate(spec, 17), "{}", spec.name);
        assert_ne!(a, generate(spec, 18), "{}", spec.name);
        assert_eq!(a.ticks.len() as u64, spec.ticks);
        assert!(a.warmup + spec.open_ticks <= a.ticks.len(), "{}", spec.name);
        let tenants = a.tenants();
        assert_eq!(tenants.len() as u32, spec.tenants, "{}", spec.name);
    }
}

#[test]
fn percentile_is_nearest_rank() {
    assert_eq!(percentile(&[], 0.5), 0.0);
    assert_eq!(percentile(&[7.0], 0.95), 7.0);
    assert_eq!(percentile(&[3.0, 1.0, 2.0], 0.5), 2.0);
    assert_eq!(percentile(&[1.0, 2.0], 0.5), 1.0);
    assert_eq!(percentile(&[1.0, 2.0], 0.51), 2.0);
    let xs: Vec<f64> = (1..=20).rev().map(f64::from).collect();
    assert_eq!(percentile(&xs, 0.0), 1.0);
    assert_eq!(percentile(&xs, 0.5), 10.0);
    assert_eq!(percentile(&xs, 0.95), 19.0);
    assert_eq!(percentile(&xs, 1.0), 20.0);
}

/// A clock that moves only when waited on or advanced by the work.
struct FakeClock {
    now: Duration,
}

impl Clock for FakeClock {
    fn now(&mut self) -> Duration {
        self.now
    }

    fn wait_until(&mut self, due: Duration) {
        self.now = self.now.max(due);
    }
}

fn fake_run(service: Duration, period: Duration) -> Vec<servebench::measure::TickSample> {
    let mut clock = FakeClock {
        now: Duration::from_secs(3),
    };
    open_loop(&mut clock, period, 50, |_, clock| {
        clock.now += service;
        clock.now
    })
}

#[test]
fn open_loop_is_never_late_when_service_fits_the_period() {
    let period = Duration::from_millis(10);
    let service = Duration::from_millis(7);
    for sample in fake_run(service, period) {
        assert_eq!(sample.late, Duration::ZERO);
        assert_eq!(sample.latency, service);
    }
}

#[test]
fn open_loop_lateness_grows_when_service_exceeds_the_period() {
    let samples = fake_run(Duration::from_millis(12), Duration::from_millis(10));
    assert_eq!(samples[0].late, Duration::ZERO);
    assert_eq!(samples[49].late, Duration::from_millis(2 * 49));
    assert_eq!(samples[49].latency, Duration::from_millis(2 * 49 + 12));
}
