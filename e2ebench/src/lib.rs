//! Pure helpers of the `e2ebench` benchmark: order statistics, the
//! geometric mean, the `VmHWM` parser, metric-name validation, the result
//! line and the calibration probe's work. The measurement loops live in `main.rs`; everything here
//! is deterministic and unit-tested in `tests/helpers.rs`.

use std::fmt::Write as _;

/// Samples a reported percentile must leave above it: a p90 taken from
/// fewer than this many slower samples says more about one outlier than
/// about the tail.
pub const TAIL_SAMPLES: usize = 10;

/// Nearest-rank percentile `q` (in `0..=1`) of `samples`, or `None` when
/// fewer than [`TAIL_SAMPLES`] samples lie strictly beyond the selected
/// rank (including when `samples` is empty).
///
/// The rank is `ceil(q × n)` (1-based), so the samples beyond it number
/// `n − rank`; p90 therefore needs at least 100 samples.
pub fn percentile(samples: &[f64], q: f64) -> Option<f64> {
    if samples.is_empty() || !(0.0..=1.0).contains(&q) {
        return None;
    }
    let n = samples.len();
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    if n - rank < TAIL_SAMPLES {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(sorted[rank - 1])
}

/// Fewest samples for which [`percentile`] at `q` is defined.
pub fn min_samples(q: f64) -> usize {
    (1..)
        .find(|&n| n - ((q * n as f64).ceil() as usize).clamp(1, n) >= TAIL_SAMPLES)
        .expect("some sample count leaves TAIL_SAMPLES beyond any q < 1")
}

/// Median of `values` (mean of the middle pair for even counts), `None`
/// when empty. Used for repeated set-up timings, which need no tail.
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    Some(if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    })
}

/// Geometric mean of strictly positive, finite `values`; `None` when the
/// slice is empty or any value is not.
pub fn geomean(values: &[f64]) -> Option<f64> {
    if values.is_empty() || values.iter().any(|v| !v.is_finite() || *v <= 0.0) {
        return None;
    }
    let log_sum: f64 = values.iter().map(|v| v.ln()).sum();
    Some((log_sum / values.len() as f64).exp())
}

/// Peak resident set size in MiB from the text of `/proc/<pid>/status`
/// (the `VmHWM:  <n> kB` line), `None` when the line is absent or
/// malformed.
pub fn parse_vm_hwm(status: &str) -> Option<f64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let mut fields = line["VmHWM:".len()..].split_whitespace();
    let kib: u64 = fields.next()?.parse().ok()?;
    if fields.next()? != "kB" || fields.next().is_some() {
        return None;
    }
    Some(kib as f64 / 1024.0)
}

/// This process's peak RSS in MiB; `None` off Linux.
pub fn peak_rss_mb() -> Option<f64> {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .as_deref()
        .and_then(parse_vm_hwm)
}

/// The calibration probe's fixed work: fill, sort and bin 2^16 xorshift
/// words from a nonzero `seed`. It allocates, sorts and scatters like the measured program does,
/// so a slower host slows it alike; its result is returned so that the
/// work cannot be optimized away.
pub fn probe_work(seed: u64) -> u64 {
    let mut x = seed;
    let mut words: Vec<u64> = (0..1 << 16)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        })
        .collect();
    words.sort_unstable();
    let mut bins = vec![0u64; 4093];
    for (i, w) in words.iter().enumerate() {
        bins[(w % 4093) as usize] += i as u64;
    }
    bins.iter().sum::<u64>() ^ words[words.len() / 2]
}

/// Whether `name` is a valid metric or workload name: 1 to 64 characters
/// from `[A-Za-z0-9_.-]`, starting with a letter or digit.
pub fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    matches!(chars.next(), Some(c) if c.is_ascii_alphanumeric())
        && name.len() <= 64
        && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Metrics of one run, in the order they were recorded.
#[derive(Debug, Default)]
pub struct Metrics {
    entries: Vec<(String, f64, &'static str)>,
}

impl Metrics {
    /// Record `name = value unit`.
    ///
    /// # Panics
    /// On an invalid or repeated name, or a non-finite value: both are
    /// bugs in the benchmark, never properties of the measured program.
    pub fn push(&mut self, name: &str, value: f64, unit: &'static str) {
        assert!(valid_name(name), "invalid metric name `{name}`");
        assert!(
            self.entries.iter().all(|(n, _, _)| n != name),
            "metric `{name}` recorded twice"
        );
        assert!(value.is_finite(), "metric `{name}` is not finite: {value}");
        self.entries.push((name.to_string(), value, unit));
    }

    /// The result line: one JSON object with `correct`, `attempted`,
    /// `failed` and `metrics` (`{"name": {"value": v, "unit": u}}`).
    /// Values print with every digit (`f64`'s shortest round-trip form).
    pub fn result_line(&self, correct: bool, attempted: u64, failed: u64) -> String {
        let mut out = format!(
            r#"{{"correct": {correct}, "attempted": {attempted}, "failed": {failed}, "metrics": {{"#
        );
        for (i, (name, value, unit)) in self.entries.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            write!(out, r#""{name}": {{"value": {value}, "unit": "{unit}"}}"#)
                .expect("writing to a String cannot fail");
        }
        out.push_str("}}");
        out
    }
}
