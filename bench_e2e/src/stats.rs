//! Sample statistics and process probes shared by the benchmark and its
//! comparison mode.

/// Order statistics of one metric's samples.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    /// Number of samples.
    pub n: usize,
    /// Median (mean of the middle two for an even count).
    pub median: f64,
    /// First quartile, as Python's `statistics.quantiles(values, n=4)`.
    pub q1: f64,
    /// Third quartile, same method.
    pub q3: f64,
    /// The highest of p90, p99 and p99.9 that still has at least ten
    /// samples beyond it, with its label; `None` below 100 samples.
    pub tail: Option<(&'static str, f64)>,
}

impl Summary {
    /// Summarises `values`; `None` when there are none.
    pub fn of(values: &[f64]) -> Option<Summary> {
        if values.is_empty() {
            return None;
        }
        let mut sorted = values.to_vec();
        sorted.sort_by(f64::total_cmp);
        let n = sorted.len();
        let median = if n % 2 == 1 {
            sorted[n / 2]
        } else {
            (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
        };
        let (q1, q3) = quartiles(&sorted);
        Some(Summary {
            n,
            median,
            q1,
            q3,
            tail: tail(&sorted),
        })
    }

    /// Interquartile distance as a share of the median (0 for a zero
    /// median).
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }
}

/// Python's default ("exclusive") quartile method over sorted data; a
/// single sample is its own quartiles.
fn quartiles(sorted: &[f64]) -> (f64, f64) {
    let len = sorted.len();
    if len == 1 {
        return (sorted[0], sorted[0]);
    }
    let at = |i: usize| {
        let m = len + 1;
        let j = (i * m / 4).clamp(1, len - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
    };
    (at(1), at(3))
}

/// The tail rule: nearest-rank percentiles in per-mille, highest first,
/// keeping the first with at least ten samples beyond its rank. Integer
/// ranks keep p90 of exactly 100 samples from rounding up to rank 91.
fn tail(sorted: &[f64]) -> Option<(&'static str, f64)> {
    let n = sorted.len();
    [("p99.9", 999), ("p99", 990), ("p90", 900)]
        .into_iter()
        .find_map(|(label, per_mille)| {
            let rank = (n * per_mille).div_ceil(1000).max(1);
            (n - rank >= 10).then(|| (label, sorted[rank - 1]))
        })
}

/// Nearest-rank percentile `p` (in `[0, 100]`) of `values`; 0 when empty.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of `values` (0 when empty).
pub fn median(values: &[f64]) -> f64 {
    Summary::of(values).map_or(0.0, |s| s.median)
}

/// The process's peak resident set (`VmHWM`) in MiB, or `None` where
/// `/proc/self/status` is unavailable.
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    parse_vmhwm_kib(&status).map(|kib| kib as f64 / 1024.0)
}

/// Extracts the `VmHWM` line's kibibytes from a `/proc/<pid>/status`
/// text.
pub fn parse_vmhwm_kib(status: &str) -> Option<u64> {
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().strip_suffix("kB"))
        .and_then(|kib| kib.trim().parse().ok())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn tail_picks_the_highest_percentile_with_ten_samples_beyond() {
        assert_eq!(Summary::of(&ramp(9)).unwrap().tail, None);
        assert_eq!(Summary::of(&ramp(100)).unwrap().tail, Some(("p90", 90.0)));
        assert_eq!(
            Summary::of(&ramp(1472)).unwrap().tail,
            Some(("p99", 1458.0))
        );
        assert_eq!(
            Summary::of(&ramp(94_000)).unwrap().tail,
            Some(("p99.9", 93_906.0))
        );
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let s = Summary::of(&ramp(10)).unwrap();
        assert_eq!((s.q1, s.median, s.q3), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        let s = Summary::of(&[3.0, 1.0, 2.0]).unwrap();
        assert_eq!((s.q1, s.median, s.q3), (1.0, 2.0, 3.0));
        assert!((s.spread() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn vmhwm_is_parsed_from_proc_status() {
        let status =
            "Name:\tbench_e2e\nVmPeak:\t  300000 kB\nVmHWM:\t  123904 kB\nVmRSS:\t 1000 kB\n";
        assert_eq!(parse_vmhwm_kib(status), Some(123_904));
        assert_eq!(parse_vmhwm_kib("VmRSS:\t 1000 kB\n"), None);
        assert_eq!(parse_vmhwm_kib("VmHWM:\t lots kB\n"), None);
        if let Some(mib) = peak_rss_mib() {
            assert!(mib > 0.0);
        }
    }
}
