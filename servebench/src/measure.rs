//! Percentiles and the open-loop tick generator.

use std::time::{Duration, Instant};

/// Nearest-rank percentile: the element of rank `⌈q·n⌉` (1-based) of the
/// sorted sample, `q` clamped to `[0, 1]`. Returns 0 for an empty sample.
pub fn percentile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut sorted = xs.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((q.clamp(0.0, 1.0) * sorted.len() as f64).ceil() as usize)
        .saturating_sub(1)
        .min(sorted.len() - 1);
    sorted[rank]
}

/// The nearest-rank median.
pub fn median(xs: &[f64]) -> f64 {
    percentile(xs, 0.5)
}

/// Per column, the median across rows; rows have equal length.
pub fn column_medians<'a>(rows: impl IntoIterator<Item = &'a [f64]>) -> Vec<f64> {
    let rows: Vec<&[f64]> = rows.into_iter().collect();
    let width = rows.first().map_or(0, |r| r.len());
    (0..width)
        .map(|i| median(&rows.iter().map(|r| r[i]).collect::<Vec<_>>()))
        .collect()
}

/// Time as the open loop sees it, so tests can drive it with a fake.
pub trait Clock {
    /// Time since the clock's origin.
    fn now(&mut self) -> Duration;
    /// Returns at or after `due`.
    fn wait_until(&mut self, due: Duration);
}

/// The wall clock: sleeps most of a wait, then spins the last stretch so a
/// tick is not sent late by the scheduler's wake-up delay.
pub struct WallClock {
    origin: Instant,
}

/// The part of a wait spent spinning instead of sleeping.
const SPIN: Duration = Duration::from_micros(200);

impl WallClock {
    /// A clock whose origin is now.
    pub fn new() -> Self {
        WallClock {
            origin: Instant::now(),
        }
    }
}

impl Default for WallClock {
    fn default() -> Self {
        Self::new()
    }
}

impl Clock for WallClock {
    fn now(&mut self) -> Duration {
        self.origin.elapsed()
    }

    fn wait_until(&mut self, due: Duration) {
        let now = self.now();
        if due > now + SPIN {
            std::thread::sleep(due - now - SPIN);
        }
        while self.now() < due {
            std::hint::spin_loop();
        }
    }
}

/// One open-loop tick, both times measured from when the tick was due.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TickSample {
    /// How late the generator started submitting the tick.
    pub late: Duration,
    /// When the tick's work completed.
    pub latency: Duration,
}

/// Sends `ticks` ticks on a fixed schedule, tick `i` due at
/// `origin + i·period`, whatever the previous tick cost. `serve(i, clock)`
/// does tick `i`'s work and returns the clock reading at which it
/// completed; anything it does afterwards (reads) delays later ticks but
/// not this tick's latency.
pub fn open_loop<C: Clock>(
    clock: &mut C,
    period: Duration,
    ticks: usize,
    mut serve: impl FnMut(usize, &mut C) -> Duration,
) -> Vec<TickSample> {
    let origin = clock.now();
    (0..ticks)
        .map(|i| {
            let due = origin + period * i as u32;
            if clock.now() < due {
                clock.wait_until(due);
            }
            let late = clock.now().saturating_sub(due);
            let done = serve(i, clock);
            TickSample {
                late,
                latency: done.saturating_sub(due),
            }
        })
        .collect()
}
