//! Order statistics shared by the workloads and `compare`.

/// Sorts ascending; every sample the harness records is finite.
pub fn sorted(mut values: Vec<f64>) -> Vec<f64> {
    values.sort_by(|a, b| a.partial_cmp(b).expect("finite samples"));
    values
}

/// Nearest-rank percentile of an ascending slice; 0 for no samples.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

pub fn median(values: &[f64]) -> f64 {
    let s = sorted(values.to_vec());
    match s.len() {
        0 => 0.0,
        n if n % 2 == 1 => s[n / 2],
        n => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

/// The tail percentiles a workload may declare, highest first. p99 is the
/// ceiling: nothing higher was measured to repeat on a shared 2-core box.
pub const TAILS: [f64; 4] = [0.99, 0.95, 0.90, 0.75];

/// The highest percentile of [`TAILS`] that still has at least ten of
/// `samples` beyond it, or `None` under 40 samples.
pub fn highest_supported_tail(samples: usize) -> Option<f64> {
    TAILS
        .into_iter()
        .find(|p| samples as f64 * (1.0 - p) >= 10.0 - 1e-9)
}

/// `pNN of N samples (K beyond it)`, flagged when fewer than ten lie beyond
/// the declared tail.
pub fn tail_note(samples: usize, declared: f64) -> String {
    let beyond = (samples as f64 * (1.0 - declared)).round() as usize;
    let supported = highest_supported_tail(samples).is_some_and(|p| p >= declared);
    format!(
        "tail is p{:.0} of {samples} samples ({beyond} beyond it{})",
        declared * 100.0,
        if supported { "" } else { ": too few to repeat" }
    )
}

/// First and third quartile as Python's `statistics.quantiles(v, n=4)`
/// gives them (the exclusive method) — what the acceptance driver uses.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let s = sorted(values.to_vec());
    let n = s.len();
    if n < 2 {
        let v = s.first().copied().unwrap_or(0.0);
        return (v, v);
    }
    let at = |k: usize| {
        let pos = k as f64 * (n + 1) as f64 / 4.0;
        let j = (pos.floor() as usize).clamp(1, n - 1);
        let frac = pos - j as f64;
        s[j - 1] + (s[j] - s[j - 1]) * frac
    };
    (at(1), at(3))
}

/// Splits per-operation `(work, seconds)` samples into `segments`
/// contiguous runs and returns the median of each run's work ÷ seconds:
/// one stalled segment cannot move the figure the way it moves a mean.
pub fn segment_median_rate(samples: &[(f64, f64)], segments: usize) -> f64 {
    let segments = segments.clamp(1, samples.len().max(1));
    let rates: Vec<f64> = (0..segments)
        .map(|s| {
            let lo = s * samples.len() / segments;
            let hi = (s + 1) * samples.len() / segments;
            let (work, secs) = samples[lo..hi]
                .iter()
                .fold((0.0, 0.0), |(w, t), &(dw, dt)| (w + dw, t + dt));
            work / secs.max(1e-12)
        })
        .collect();
    median(&rates)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&s, 0.50), 50.0);
        assert_eq!(percentile(&s, 0.99), 99.0);
        assert_eq!(percentile(&s, 1.0), 100.0);
        assert_eq!(percentile(&s[..1], 0.99), 1.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        assert_eq!(highest_supported_tail(39), None);
        assert_eq!(highest_supported_tail(40), Some(0.75));
        assert_eq!(highest_supported_tail(100), Some(0.90));
        assert_eq!(highest_supported_tail(199), Some(0.90));
        assert_eq!(highest_supported_tail(200), Some(0.95));
        assert_eq!(highest_supported_tail(999), Some(0.95));
        assert_eq!(highest_supported_tail(1000), Some(0.99));
        assert_eq!(highest_supported_tail(1_000_000), Some(0.99));
    }

    #[test]
    fn median_of_even_and_odd() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&v);
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        let (q1, q3) = quartiles(&[16.0, 1.0, 8.0, 2.0, 4.0]);
        assert!((q1 - 1.5).abs() < 1e-12 && (q3 - 12.0).abs() < 1e-12);
    }

    #[test]
    fn segment_median_ignores_one_stalled_segment() {
        // Five segments of two ops each at 10 work/s; the last stalls 100x.
        let mut ops = vec![(1.0, 0.1); 10];
        ops[8].1 = 10.0;
        ops[9].1 = 10.0;
        assert!((segment_median_rate(&ops, 5) - 10.0).abs() < 1e-9);
        let mean = 10.0 / ops.iter().map(|o| o.1).sum::<f64>();
        assert!(mean < 1.0);
        assert_eq!(segment_median_rate(&[], 5), 0.0);
    }
}
