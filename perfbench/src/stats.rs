//! Order statistics over measured samples.

/// The `q`-quantile (`0.0..=1.0`) of `v` by linear interpolation between
/// closest ranks. Sorts `v` in place; 0 for an empty slice.
pub fn quantile(v: &mut [f64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// The median of `v` (sorts in place).
pub fn median(v: &mut [f64]) -> f64 {
    quantile(v, 0.5)
}

/// The highest percentile, at most the 99th, that still has at least ten
/// samples beyond it — the tail a sample of this size can resolve.
pub fn tail_q(n: usize) -> f64 {
    if n <= 10 {
        return 0.5;
    }
    ((n - 10) as f64 / n as f64).clamp(0.5, 0.99)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let mut v = vec![4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&mut v), 2.5);
        assert_eq!(quantile(&mut v, 0.0), 1.0);
        assert_eq!(quantile(&mut v, 1.0), 4.0);
        assert_eq!(median(&mut []), 0.0);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        assert_eq!(tail_q(100_000), 0.99);
        assert!((tail_q(100) - 0.9).abs() < 1e-12);
        assert_eq!(tail_q(5), 0.5);
    }
}
