//! Reporting shared by every experiment target: CSV files, aligned
//! tables, the one `BENCH_*.json` writer, the one repetition runner, and
//! scratch directories (in-tree: no serde needed).

use crate::scale::Scale;
use std::fmt;
use std::fs::{self, File};
use std::io::{self, BufWriter, Write};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// A CSV file under the experiment output directory.
pub struct CsvWriter {
    out: BufWriter<File>,
    path: PathBuf,
}

impl CsvWriter {
    /// Creates `dir/name.csv` (directories are created as needed) and
    /// writes the header row.
    pub fn create(dir: &Path, name: &str, header: &[&str]) -> std::io::Result<Self> {
        fs::create_dir_all(dir)?;
        let path = dir.join(format!("{name}.csv"));
        let mut out = BufWriter::new(File::create(&path)?);
        writeln!(out, "{}", header.join(","))?;
        Ok(CsvWriter { out, path })
    }

    /// Writes one row.
    pub fn row(&mut self, fields: &[String]) -> std::io::Result<()> {
        writeln!(self.out, "{}", fields.join(","))
    }

    /// Flushes and returns the file path.
    pub fn finish(mut self) -> std::io::Result<PathBuf> {
        self.out.flush()?;
        Ok(self.path)
    }
}

/// Formats a float with 4 significant decimals for CSV/tables.
pub fn f(x: f64) -> String {
    format!("{x:.4}")
}

/// Nearest-rank percentile of `xs` (`q` in `[0, 1]`; `0.5` = median, `0.99`
/// = p99). Returns 0 for an empty sample; input need not be sorted. A
/// 1-element sample answers that element for every `q`; a 2-element sample
/// answers the smaller element for `q ≤ 0.5` and the larger above — the
/// standard nearest-rank rule `rank = ⌈q·n⌉` (1-based), which per-tenant
/// serve latency tables hit constantly with tiny samples. Used for
/// step-latency reporting.
pub fn percentile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut sorted = xs.to_vec();
    // total_cmp: a stray NaN sample sorts last instead of panicking —
    // a serving layer must not die because one timer misbehaved.
    sorted.sort_by(f64::total_cmp);
    let rank = ((q.clamp(0.0, 1.0) * sorted.len() as f64).ceil() as usize)
        .saturating_sub(1)
        .min(sorted.len() - 1);
    sorted[rank]
}

/// Step-latency summary row `[p50, p99]` (milliseconds, 4 decimals) for
/// aligned tables; pairs with [`percentile`].
pub fn latency_cells_ms(step_secs: &[f64]) -> [String; 2] {
    [
        f(percentile(step_secs, 0.5) * 1e3),
        f(percentile(step_secs, 0.99) * 1e3),
    ]
}

/// Prints an aligned table to stdout (header + rows).
pub fn print_table(title: &str, header: &[&str], rows: &[Vec<String>]) {
    println!("\n== {title} ==");
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let fmt_row = |cells: &[String]| {
        cells
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{:>w$}", c, w = widths.get(i).copied().unwrap_or(c.len())))
            .collect::<Vec<_>>()
            .join("  ")
    };
    println!(
        "{}",
        fmt_row(&header.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    );
    for row in rows {
        println!("{}", fmt_row(row));
    }
}

/// An ordered JSON value for `BENCH_*.json` files: objects keep their
/// insertion order and floats print through [`f`]. Build objects with
/// `obj! { "key": value, … }`, which converts each value with `Json::from`.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`; a non-finite float prints as this too.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An unsigned integer.
    Int(u64),
    /// A float, printed with [`f`]'s four decimals.
    Float(f64),
    /// A string, escaped on output.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in insertion order.
    Obj(Vec<(String, Json)>),
}

macro_rules! obj {
    ($($key:literal: $value:expr),* $(,)?) => {
        $crate::report::Json::Obj(vec![$(($key.to_string(), $crate::report::Json::from($value))),*])
    };
}
pub(crate) use obj;

macro_rules! json_from {
    ($($t:ty => |$v:ident| $e:expr),* $(,)?) => {$(
        impl From<$t> for Json {
            fn from($v: $t) -> Self {
                $e
            }
        }
    )*};
}

json_from! {
    bool => |b| Json::Bool(b),
    u64 => |n| Json::Int(n),
    usize => |n| Json::Int(n as u64),
    u32 => |n| Json::Int(n.into()),
    f64 => |x| Json::Float(x),
    &str => |s| Json::Str(s.to_string()),
    String => |s| Json::Str(s),
    Vec<Json> => |items| Json::Arr(items),
}

impl<T: Into<Json>> From<Option<T>> for Json {
    fn from(v: Option<T>) -> Self {
        v.map_or(Json::Null, Into::into)
    }
}

impl Json {
    fn is_nonempty_container(&self) -> bool {
        matches!(self, Json::Arr(c) if !c.is_empty())
            || matches!(self, Json::Obj(c) if !c.is_empty())
    }

    /// Writes `self` at nesting depth `depth`. A container whose children
    /// are all scalars (or empty) stays on one line; any other puts each
    /// child on a line of its own, indented two spaces per level.
    fn write(&self, out: &mut fmt::Formatter<'_>, depth: usize) -> fmt::Result {
        let (open, close, children): (char, char, Vec<(Option<&str>, &Json)>) = match self {
            Json::Null => return out.write_str("null"),
            Json::Bool(b) => return write!(out, "{b}"),
            Json::Int(n) => return write!(out, "{n}"),
            Json::Float(x) if x.is_finite() => return out.write_str(&f(*x)),
            Json::Float(_) => return out.write_str("null"),
            Json::Str(s) => return write_escaped(out, s),
            Json::Arr(items) => ('[', ']', items.iter().map(|v| (None, v)).collect()),
            Json::Obj(fields) => (
                '{',
                '}',
                fields.iter().map(|(k, v)| (Some(k.as_str()), v)).collect(),
            ),
        };
        let nested = children.iter().any(|(_, v)| v.is_nonempty_container());
        write!(out, "{open}")?;
        for (i, (key, value)) in children.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            if nested {
                write!(out, "{sep}\n{:w$}", "", w = 2 * depth + 2)?;
            } else {
                write!(out, "{sep}{}", if i == 0 { "" } else { " " })?;
            }
            if let Some(key) = key {
                write_escaped(out, key)?;
                out.write_str(": ")?;
            }
            value.write(out, depth + 1)?;
        }
        if nested {
            write!(out, "\n{:w$}", "", w = 2 * depth)?;
        }
        write!(out, "{close}")
    }
}

fn write_escaped(out: &mut fmt::Formatter<'_>, s: &str) -> fmt::Result {
    out.write_str("\"")?;
    for c in s.chars() {
        match c {
            '"' => out.write_str("\\\"")?,
            '\\' => out.write_str("\\\\")?,
            '\n' => out.write_str("\\n")?,
            '\r' => out.write_str("\\r")?,
            '\t' => out.write_str("\\t")?,
            c if c < ' ' => write!(out, "\\u{:04x}", c as u32)?,
            c => write!(out, "{c}")?,
        }
    }
    out.write_str("\"")
}

impl fmt::Display for Json {
    fn fmt(&self, out: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.write(out, 0)
    }
}

/// Cores this process may run on, as every `BENCH_*.json` records them.
pub fn host_cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Writes `out_dir/BENCH_<target>.json`: one object that starts with
/// `experiment` (the target name), `seed` and `host_cores`, followed by
/// the fields of the object `fields`.
pub fn write_bench(out_dir: &Path, target: &str, scale: &Scale, fields: Json) -> io::Result<()> {
    let header = obj! {"experiment": target, "seed": scale.seed, "host_cores": host_cores()};
    let (Json::Obj(mut doc), Json::Obj(fields)) = (header, fields) else {
        panic!("the fields of BENCH_{target}.json must form an object");
    };
    doc.extend(fields);
    fs::create_dir_all(out_dir)?;
    let path = out_dir.join(format!("BENCH_{target}.json"));
    fs::write(&path, format!("{}\n", Json::Obj(doc)))?;
    println!("wrote {}", path.display());
    Ok(())
}

/// Timed repetitions per arm in [`repeat`]. At five samples the p90 is
/// the maximum, so [`Spread`] reports min, median and max.
pub const REPS: usize = 5;

/// Wall-time spread of one arm's repetitions, in seconds.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Spread {
    /// Fastest repetition.
    pub min_s: f64,
    /// Median repetition (nearest rank).
    pub median_s: f64,
    /// Slowest repetition.
    pub max_s: f64,
}

impl Spread {
    /// Summarizes wall-time samples (seconds, any order).
    pub fn of(secs: &[f64]) -> Self {
        Spread {
            min_s: percentile(secs, 0.0),
            median_s: percentile(secs, 0.5),
            max_s: percentile(secs, 1.0),
        }
    }
}

impl From<Spread> for Json {
    fn from(s: Spread) -> Self {
        obj! {"min_s": s.min_s, "median_s": s.median_s, "max_s": s.max_s}
    }
}

/// One arm's repetitions from [`repeat`], in run order.
pub struct Reps<R> {
    /// Wall seconds of each repetition.
    pub secs: Vec<f64>,
    /// What each repetition returned.
    pub outs: Vec<R>,
}

impl<R> Reps<R> {
    /// The min/median/max of [`Reps::secs`].
    pub fn spread(&self) -> Spread {
        Spread::of(&self.secs)
    }
}

/// Runs [`REPS`] rounds, each timing `run` once per arm in `arms` order,
/// so drifting host load and first-run costs (page faults, allocator
/// growth) spread over every arm instead of landing on one. Returns one
/// [`Reps`] per arm, in `arms` order.
pub fn repeat<A, R>(arms: &[A], mut run: impl FnMut(&A) -> R) -> Vec<Reps<R>> {
    let new = |_| Reps {
        secs: Vec::new(),
        outs: Vec::new(),
    };
    let mut reps: Vec<Reps<R>> = arms.iter().map(new).collect();
    for _ in 0..REPS {
        for (arm, rep) in arms.iter().zip(&mut reps) {
            let started = Instant::now();
            let out = run(arm);
            rep.secs.push(started.elapsed().as_secs_f64());
            rep.outs.push(out);
        }
    }
    reps
}

/// Runs `body` in a fresh scratch directory `dir`: whatever an earlier
/// run left there is removed first, and `dir` itself is removed once
/// `body` succeeds. A failed run leaves it in place for inspection.
pub fn in_scratch_dir<R>(dir: &Path, body: impl FnOnce(&Path) -> io::Result<R>) -> io::Result<R> {
    if dir.exists() {
        fs::remove_dir_all(dir)?;
    }
    fs::create_dir_all(dir)?;
    let out = body(dir)?;
    fs::remove_dir_all(dir)?;
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn csv_round_trip() {
        let dir = std::env::temp_dir().join("tdn_csv_test");
        let mut w = CsvWriter::create(&dir, "t", &["a", "b"]).unwrap();
        w.row(&["1".into(), "2".into()]).unwrap();
        let path = w.finish().unwrap();
        let content = std::fs::read_to_string(path).unwrap();
        assert_eq!(content, "a,b\n1,2\n");
    }

    #[test]
    fn float_formatting() {
        assert_eq!(f(0.123456), "0.1235");
        assert_eq!(f(2.0), "2.0000");
    }

    #[test]
    fn percentile_nearest_rank() {
        let xs: Vec<f64> = (1..=100).map(|i| i as f64).collect();
        assert_eq!(percentile(&xs, 0.5), 50.0);
        assert_eq!(percentile(&xs, 0.99), 99.0);
        assert_eq!(percentile(&xs, 1.0), 100.0);
        assert_eq!(percentile(&xs, 0.0), 1.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
        // Unsorted input is handled (percentile sorts a copy).
        assert_eq!(percentile(&[3.0, 1.0, 2.0], 0.5), 2.0);
    }

    #[test]
    fn percentile_one_element_answers_it_for_every_q() {
        // Per-tenant serve latency tables routinely hold a single sample;
        // every quantile of a singleton is that sample (nearest rank:
        // ⌈q·1⌉ = 1 for q > 0, clamped to 1 for q = 0).
        for q in [0.0, 0.001, 0.25, 0.5, 0.99, 1.0] {
            assert_eq!(percentile(&[7.5], q), 7.5, "q={q}");
        }
    }

    #[test]
    fn percentile_two_elements_splits_at_the_median() {
        // Nearest rank on n = 2: ⌈q·2⌉ = 1 for q ∈ (0, 0.5], = 2 above —
        // so p50 is the *smaller* element and p99 the larger, including
        // when the input arrives unsorted.
        let xs = [9.0, 2.0]; // unsorted on purpose
        assert_eq!(percentile(&xs, 0.0), 2.0);
        assert_eq!(percentile(&xs, 0.5), 2.0);
        assert_eq!(percentile(&xs, 0.50001), 9.0);
        assert_eq!(percentile(&xs, 0.99), 9.0);
        assert_eq!(percentile(&xs, 1.0), 9.0);
    }

    #[test]
    fn percentile_unsorted_matches_sorted() {
        let unsorted = [5.0, 1.0, 4.0, 2.0, 3.0];
        let sorted = [1.0, 2.0, 3.0, 4.0, 5.0];
        for q in [0.0, 0.2, 0.4, 0.5, 0.6, 0.8, 0.99, 1.0] {
            assert_eq!(percentile(&unsorted, q), percentile(&sorted, q), "q={q}");
        }
        // Out-of-range q clamps instead of indexing out of bounds.
        assert_eq!(percentile(&unsorted, -3.0), 1.0);
        assert_eq!(percentile(&unsorted, 17.0), 5.0);
    }

    #[test]
    fn latency_cells_are_milliseconds() {
        let cells = latency_cells_ms(&[0.001, 0.002, 0.100]);
        assert_eq!(cells[0], "2.0000");
        assert_eq!(cells[1], "100.0000");
    }

    #[test]
    fn json_prints_nested_objects_and_escaped_strings() {
        let doc = obj! {
            "name": "a \"quoted\" \\ path\n\tx\u{1}",
            "reps": 5u64,
            "wall": obj! {"min_s": 1.5, "max_s": f64::INFINITY},
            "runs": vec![obj! {"ok": true, "why": None::<String>}, Json::Arr(vec![])],
            "empty": obj! {},
        };
        assert_eq!(
            doc.to_string(),
            "{\n  \"name\": \"a \\\"quoted\\\" \\\\ path\\n\\tx\\u0001\",\n  \"reps\": 5,\n  \
             \"wall\": {\"min_s\": 1.5000, \"max_s\": null},\n  \"runs\": [\n    \
             {\"ok\": true, \"why\": null},\n    []\n  ],\n  \"empty\": {}\n}"
        );
    }

    #[test]
    fn bench_files_start_with_the_shared_header() {
        let dir = std::env::temp_dir().join("tdn_write_bench_test");
        let scale = Scale::quick();
        write_bench(&dir, "probe", &scale, obj! {"gate": obj! {"ok": true}}).unwrap();
        let text = std::fs::read_to_string(dir.join("BENCH_probe.json")).unwrap();
        let expected = format!(
            "{{\n  \"experiment\": \"probe\",\n  \"seed\": {},\n  \"host_cores\": {},\n  \
             \"gate\": {{\"ok\": true}}\n}}\n",
            scale.seed,
            host_cores()
        );
        assert_eq!(text, expected);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn repeat_interleaves_rounds_over_arms() {
        let mut calls = Vec::new();
        let reps = repeat(&['a', 'b', 'c'], |&arm| {
            calls.push(arm);
            calls.len()
        });
        assert_eq!(calls.iter().collect::<String>(), "abc".repeat(REPS));
        assert_eq!(reps.len(), 3);
        for (i, arm) in reps.iter().enumerate() {
            let expected: Vec<usize> = (0..REPS).map(|round| 3 * round + i + 1).collect();
            assert_eq!(arm.outs, expected, "arm {i} sees every round in order");
            assert_eq!(arm.secs.len(), REPS);
            let s = arm.spread();
            assert_eq!(s, Spread::of(&arm.secs));
            assert!(0.0 <= s.min_s && s.min_s <= s.median_s && s.median_s <= s.max_s);
        }
    }

    #[test]
    fn spread_is_min_median_max() {
        let s = Spread::of(&[0.4, 0.1, 0.5, 0.2, 0.3]);
        assert_eq!((s.min_s, s.median_s, s.max_s), (0.1, 0.3, 0.5));
        assert_eq!(
            Json::from(s).to_string(),
            "{\"min_s\": 0.1000, \"median_s\": 0.3000, \"max_s\": 0.5000}"
        );
    }

    #[test]
    fn scratch_dir_is_fresh_during_and_gone_after_success() {
        let dir = std::env::temp_dir().join("tdn_scratch_dir_test");
        std::fs::create_dir_all(&dir).unwrap();
        let stale = dir.join("ckpt_stale.tdnc");
        std::fs::write(&stale, b"left by an earlier run").unwrap();
        let seen = in_scratch_dir(&dir, |d| {
            assert!(d.is_dir(), "the scratch dir exists during the run");
            assert!(!stale.exists(), "stale files are cleared before the run");
            std::fs::write(d.join("ckpt_new.tdnc"), b"x")?;
            Ok(std::fs::read_dir(d)?.count())
        })
        .unwrap();
        assert_eq!(seen, 1);
        assert!(!dir.exists(), "the scratch dir is removed after success");

        // A failed run leaves its files for inspection.
        let err = in_scratch_dir(&dir, |d| {
            std::fs::write(d.join("evidence"), b"x")?;
            Err::<(), _>(io::Error::other("gate failed"))
        })
        .unwrap_err();
        assert_eq!(err.to_string(), "gate failed");
        assert!(dir.join("evidence").exists());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
