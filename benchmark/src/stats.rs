//! Order statistics for the benchmark's samples.
//!
//! Every timing metric is reported as its *quiet percentile* — the 1st
//! percentile ([`QUIET`]) of per-batch cost over all rounds. The 2-core
//! box is bimodal: a fixed integer kernel swings 1.5 ↔ 2.1 ns/iter, and
//! the slow mode can hold for nine tenths of a ten-second run. Means,
//! medians and even the 10th percentile then follow whichever mode the
//! run landed in (eight `steady_small` runs: rx p10 223–274 ns, p50
//! 261–288 ns), while the 1st percentile tracks the cost of the code
//! when the box is quiet and repeats (same runs: rx p1 215–225 ns, tx p1
//! 335–342 ns). The minimum repeats as well but hangs on a single batch.

/// Linear-interpolated percentile of an ascending slice (`q` in 0..=1).
/// `None` when empty.
pub fn percentile(sorted: &[f64], q: f64) -> Option<f64> {
    let last = sorted.len().checked_sub(1)?;
    let pos = q.clamp(0.0, 1.0) * last as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    Some(sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64))
}

/// The quantile timings are reported at.
pub const QUIET: f64 = 0.01;

/// Distribution summary of one metric's samples.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    /// Sample count.
    pub n: usize,
    /// The quiet percentile — the reported value of a timing metric.
    pub quiet: f64,
    /// Median.
    pub p50: f64,
    /// 99th percentile, only where at least ten samples lie beyond it.
    pub p99: Option<f64>,
    /// Interquartile range over the median: the run's own noise figure.
    pub spread: f64,
}

impl Summary {
    /// Summarises `samples` (consumed: sorted in place). `None` when empty.
    pub fn of(mut samples: Vec<f64>) -> Option<Summary> {
        samples.sort_by(f64::total_cmp);
        let p50 = percentile(&samples, 0.5)?;
        let q1 = percentile(&samples, 0.25)?;
        let q3 = percentile(&samples, 0.75)?;
        Some(Summary {
            n: samples.len(),
            quiet: percentile(&samples, QUIET)?,
            p50,
            // Ten samples beyond p99 need a thousand samples in all.
            p99: (samples.len() >= 1000)
                .then(|| percentile(&samples, 0.99))
                .flatten(),
            spread: if p50 == 0.0 { 0.0 } else { (q3 - q1) / p50 },
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_interpolates_between_ranks() {
        let v = [10.0, 20.0, 30.0, 40.0, 50.0];
        assert_eq!(percentile(&v, 0.0), Some(10.0));
        assert_eq!(percentile(&v, 0.5), Some(30.0));
        assert_eq!(percentile(&v, 1.0), Some(50.0));
        assert_eq!(percentile(&v, 0.1), Some(14.0));
        assert_eq!(percentile(&[], 0.5), None);
        assert_eq!(percentile(&[7.0], 0.1), Some(7.0));
    }

    #[test]
    fn quiet_percentile_ignores_a_dominant_slow_mode() {
        // 5 % of batches in the quiet mode, 95 % in a mode 40 % slower:
        // the quiet percentile stays in the quiet mode, the median and
        // the mean do not.
        let mut samples: Vec<f64> = (0..10).map(|i| 500.0 + (i % 5) as f64).collect();
        samples.extend((0..190).map(|i| 700.0 + (i % 5) as f64));
        let mean = samples.iter().sum::<f64>() / samples.len() as f64;
        let s = Summary::of(samples).unwrap();
        assert_eq!(s.n, 200);
        assert!(s.quiet < 505.0, "quiet {}", s.quiet);
        assert!(s.p50 >= 700.0 && mean > 650.0);
        assert!(s.p99.is_none(), "p99 needs ten samples beyond it");
    }

    #[test]
    fn p99_appears_with_a_thousand_samples() {
        let s = Summary::of((0..1000).map(f64::from).collect()).unwrap();
        assert!((s.p99.unwrap() - 989.01).abs() < 1e-9);
    }

    #[test]
    fn spread_is_iqr_over_median() {
        let s = Summary::of(vec![90.0, 100.0, 110.0, 100.0, 100.0]).unwrap();
        assert_eq!(s.p50, 100.0);
        assert_eq!(s.spread, 0.0);
        let s = Summary::of(vec![80.0, 90.0, 100.0, 110.0, 120.0]).unwrap();
        assert!((s.spread - 0.2).abs() < 1e-12);
    }
}
