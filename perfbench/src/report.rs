//! Failure accounting, metric collection and the result line.

use std::fmt::{self, Write as _};

/// Why an operation failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FailureKind {
    /// Outputs differ from the golden model.
    GoldenMismatch,
    /// `SimStats` (jit counters excluded) differ from the interpreted
    /// reference of the same run.
    StatsMismatch,
    /// `ulp_kernels::RunnerError`.
    RunnerError,
    /// `ulp_service::JobError`.
    JobError,
    /// `ulp_service::SubmitError`.
    SubmitError,
    /// `ulp_shard::MergeError`.
    MergeError,
    /// `ulp_shard::ShardError` (a shard job's runner error or a dead pool).
    ShardError,
}

impl FailureKind {
    /// Every kind, in report order.
    pub const ALL: [FailureKind; 7] = [
        FailureKind::GoldenMismatch,
        FailureKind::StatsMismatch,
        FailureKind::RunnerError,
        FailureKind::JobError,
        FailureKind::SubmitError,
        FailureKind::MergeError,
        FailureKind::ShardError,
    ];

    /// The name used in the report.
    pub fn name(self) -> &'static str {
        match self {
            FailureKind::GoldenMismatch => "golden_mismatch",
            FailureKind::StatsMismatch => "stats_mismatch",
            FailureKind::RunnerError => "runner_error",
            FailureKind::JobError => "job_error",
            FailureKind::SubmitError => "submit_error",
            FailureKind::MergeError => "merge_error",
            FailureKind::ShardError => "shard_error",
        }
    }
}

/// One failed check inside an operation.
#[derive(Debug, Clone)]
pub struct Failure {
    /// Its kind.
    pub kind: FailureKind,
    /// What failed, for the report.
    pub detail: String,
}

impl Failure {
    /// A failure of `kind` described by `detail`.
    pub fn new(kind: FailureKind, detail: impl fmt::Display) -> Failure {
        Failure {
            kind,
            detail: detail.to_string(),
        }
    }
}

/// How many failure details the report keeps.
const KEPT_DETAILS: usize = 8;

/// Operations attempted and failed, with failures counted by kind.
#[derive(Debug, Clone, Default)]
pub struct Tally {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations with at least one failed check.
    pub failed: u64,
    /// Failed checks per [`FailureKind::ALL`] entry.
    pub by_kind: [u64; FailureKind::ALL.len()],
    /// The first few failure details.
    pub details: Vec<String>,
}

impl Tally {
    /// Records one operation and the checks it failed.
    pub fn record(&mut self, failures: Vec<Failure>) {
        self.attempted += 1;
        if !failures.is_empty() {
            self.failed += 1;
        }
        for failure in failures {
            let slot = FailureKind::ALL
                .iter()
                .position(|k| *k == failure.kind)
                .expect("kind listed in ALL");
            self.by_kind[slot] += 1;
            if self.details.len() < KEPT_DETAILS {
                self.details
                    .push(format!("{}: {}", failure.kind.name(), failure.detail));
            }
        }
    }

    /// Adds another tally into this one.
    pub fn absorb(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        for (a, b) in self.by_kind.iter_mut().zip(other.by_kind) {
            *a += b;
        }
        for detail in other.details {
            if self.details.len() < KEPT_DETAILS {
                self.details.push(detail);
            }
        }
    }

    /// Failed operations as a share of those attempted.
    pub fn failed_frac(&self) -> f64 {
        if self.attempted == 0 {
            return 0.0;
        }
        self.failed as f64 / self.attempted as f64
    }

    /// The failure line: `failed_frac`, the counts it comes from, and the
    /// failed checks by kind.
    pub fn summary(&self) -> String {
        let mut line = format!(
            "failed_frac {} ({} of {} operations) reasons:",
            self.failed_frac(),
            self.failed,
            self.attempted
        );
        for (kind, count) in FailureKind::ALL.iter().zip(self.by_kind) {
            let _ = write!(line, " {}={count}", kind.name());
        }
        line
    }
}

/// Named metrics with units, in report order.
#[derive(Debug, Clone, Default)]
pub struct Metrics {
    entries: Vec<(String, f64, &'static str)>,
}

impl Metrics {
    /// Adds a metric.
    pub fn push(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.entries.push((name.into(), value, unit));
    }

    /// The metrics as `(name, value, unit)`.
    pub fn entries(&self) -> &[(String, f64, &'static str)] {
        &self.entries
    }

    /// The value of `name`.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.entries
            .iter()
            .find(|(n, _, _)| n == name)
            .map(|(_, v, _)| *v)
    }
}

/// The result line: one JSON object with `correct`, `attempted`,
/// `failed` and `metrics`.
pub fn result_json(tally: &Tally, metrics: &Metrics) -> String {
    let mut out = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        tally.failed == 0,
        tally.attempted,
        tally.failed
    );
    for (i, (name, value, unit)) in metrics.entries().iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        // A non-finite value is not JSON; report it as 0 and let the
        // metric's own line above show the problem.
        let value = if value.is_finite() { *value } else { 0.0 };
        let _ = write!(
            out,
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        );
    }
    out.push_str("}}");
    out
}

/// Median of `values` (mean of the middle two for an even count; 0 when
/// empty).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// Fewest samples the reported tail latency leaves above it.
pub const TAIL_SAMPLES: usize = 10;

/// The tail latency reported as `latency_ms_p99`, with the percentile it
/// is. With 1000 samples or more that is the nearest-rank p99. With
/// fewer it is the highest nearest-rank percentile that still leaves
/// [`TAIL_SAMPLES`] samples above it, and with 20 or fewer the median, so
/// that one slow outlier never sets the figure alone. `(0, 50)` when
/// empty.
pub fn tail(values: &[f64]) -> (f64, f64) {
    let n = values.len();
    if n <= 2 * TAIL_SAMPLES {
        return (median(values), 50.0);
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (n * 99).div_ceil(100).min(n - TAIL_SAMPLES);
    (sorted[rank - 1], 100.0 * rank as f64 / n as f64)
}

/// Arithmetic mean of `values` (0 when empty).
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.iter().sum::<f64>() / values.len() as f64
}

/// The process's peak resident set size (`VmHWM`) in MiB, or 0 where
/// `/proc` is unavailable.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|line| line.strip_prefix("VmHWM:"))
                .and_then(|rest| {
                    rest.trim()
                        .trim_end_matches("kB")
                        .trim()
                        .parse::<f64>()
                        .ok()
                })
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// SplitMix64: the benchmark's seeded generator for inputs and job mixes.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed` and `stream` (independent draws per use).
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut rng = Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F));
        rng.next_u64();
        rng
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A value uniform in `0..bound` (`bound > 0`).
    pub fn below(&mut self, bound: u64) -> u64 {
        self.next_u64() % bound
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tally_counts_operations_and_kinds() {
        let mut tally = Tally::default();
        tally.record(Vec::new());
        tally.record(vec![
            Failure::new(FailureKind::GoldenMismatch, "a"),
            Failure::new(FailureKind::StatsMismatch, "b"),
        ]);
        assert_eq!((tally.attempted, tally.failed), (2, 1));
        assert_eq!(tally.by_kind[0], 1);
        assert_eq!(tally.by_kind[1], 1);
        assert!(tally.summary().contains("golden_mismatch=1"));
        assert!((tally.failed_frac() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn tail_keeps_ten_samples_above_it() {
        let v = |n: u32| (1..=n).map(f64::from).collect::<Vec<_>>();
        assert_eq!(tail(&v(1000)), (990.0, 99.0));
        assert_eq!(tail(&v(100)), (90.0, 90.0));
        assert_eq!(tail(&v(20)), (10.5, 50.0));
        assert_eq!(tail(&[]), (0.0, 50.0));
        assert_eq!(median(&[3.0, 1.0, 2.0, 4.0]), 2.5);
    }

    #[test]
    fn rng_is_seeded() {
        let a: Vec<u64> = (0..4)
            .map({
                let mut r = Rng::new(7, 1);
                move |_| r.next_u64()
            })
            .collect();
        let b: Vec<u64> = (0..4)
            .map({
                let mut r = Rng::new(7, 1);
                move |_| r.next_u64()
            })
            .collect();
        assert_eq!(a, b);
        assert_ne!(Rng::new(7, 1).next_u64(), Rng::new(8, 1).next_u64());
    }
}
