//! Order statistics over latency samples.

/// Median (mean of the two middle values for an even count); 0 when empty.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Smallest value; 0 when empty.
pub fn min(values: &[f64]) -> f64 {
    values.iter().copied().reduce(f64::min).unwrap_or(0.0)
}

/// Nearest-rank percentile `p` in `(0, 1]`; 0 when empty.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    if v.is_empty() {
        return 0.0;
    }
    let rank = (p * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// How many samples lie strictly beyond the nearest-rank percentile `p`.
pub fn beyond(n: usize, p: f64) -> usize {
    n - ((p * n as f64).ceil() as usize).clamp(usize::from(n > 0), n)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn order_statistics() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&hundred, 0.9), 90.0);
        assert_eq!(percentile(&hundred, 0.5), 50.0);
        assert_eq!(beyond(100, 0.9), 10);
        assert_eq!(beyond(99, 0.9), 9);
        assert_eq!(beyond(0, 0.9), 0);
        assert_eq!(min(&[3.0, 1.0, 2.0]), 1.0);
        assert_eq!(min(&[]), 0.0);
    }
}
