//! Order statistics for the report: medians, the tail-percentile rule, and
//! the spread figures the A/A check compares against the bounds.

/// Nearest rank of quantile `q` among `n` samples, 1-based.  The slack
/// keeps products such as 0.95 × 200, which floating point lands a hair
/// above 190, on the rank arithmetic gives.
fn rank(q: f64, n: usize) -> usize {
    ((q * n as f64 - 1e-9).ceil() as usize).clamp(1, n)
}

/// Nearest-rank quantile of an ascending slice (`q` in 0..=1).
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of no samples");
    sorted[rank(q, sorted.len()) - 1]
}

pub fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(|a, b| a.total_cmp(b));
    v
}

pub fn median(samples: &[f64]) -> f64 {
    quantile(&sorted(samples.to_vec()), 0.5)
}

/// The percentiles a report may name, ascending.
const LADDER: [f64; 6] = [0.50, 0.75, 0.90, 0.95, 0.99, 0.999];

/// The highest percentile of the ladder that still has at least ten
/// samples beyond it at sample count `n` — a percentile with fewer is one
/// or two outliers, not a tail.  `None` below 20 samples.
pub fn tail_quantile(n: usize) -> Option<f64> {
    LADDER
        .iter()
        .copied()
        .rfind(|&q| n > 0 && n - rank(q, n) >= 10)
}

pub fn geomean(values: &[f64]) -> f64 {
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

/// (max − min) / min of the per-round figures: how far the rounds of one
/// run disagree.
pub fn spread(values: &[f64]) -> f64 {
    let lo = values.iter().copied().fold(f64::INFINITY, f64::min);
    let hi = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    (hi - lo) / lo
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_rule_keeps_ten_samples_beyond() {
        assert_eq!(tail_quantile(19), None);
        assert_eq!(tail_quantile(20), Some(0.50));
        // 96 → p75 leaves 24, p90 would leave 9.
        assert_eq!(tail_quantile(96), Some(0.75));
        // 200 → p95 leaves exactly 10, p99 would leave 2.
        assert_eq!(tail_quantile(200), Some(0.95));
        // 24 000 → p99.9 leaves 24.
        assert_eq!(tail_quantile(24_000), Some(0.999));
        assert_eq!(tail_quantile(1_000), Some(0.99));
    }

    #[test]
    fn quantile_is_nearest_rank() {
        let s: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quantile(&s, 0.5), 5.0);
        assert_eq!(quantile(&s, 0.9), 9.0);
        assert_eq!(quantile(&s, 1.0), 10.0);
        assert_eq!(quantile(&s, 0.0), 1.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn geomean_and_spread() {
        assert!((geomean(&[1.0, 100.0]) - 10.0).abs() < 1e-9);
        assert!((spread(&[2.0, 3.0, 2.5]) - 0.5).abs() < 1e-12);
    }
}
