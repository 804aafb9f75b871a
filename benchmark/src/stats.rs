//! Order statistics for latency samples and for the repeatability check.

/// A percentile is only reported when at least this many samples lie
/// beyond it; with fewer, the tail value is one or two outliers, not a
/// property of the workload.
pub const TAIL_MIN: usize = 10;

/// Nearest-rank percentile (`0 < p < 100`) of an ascending sample, or
/// `None` when fewer than [`TAIL_MIN`] samples lie beyond it.
pub fn percentile(sorted: &[f64], p: f64) -> Option<f64> {
    let n = sorted.len();
    let rank = ((p / 100.0 * n as f64).ceil() as usize).max(1);
    (rank + TAIL_MIN <= n).then(|| sorted[rank - 1])
}

/// Sorts `values` ascending. Timings and counts are never NaN.
pub fn sort(values: &mut [f64]) {
    values.sort_by(|a, b| a.partial_cmp(b).expect("samples are not NaN"));
}

/// Plain median (mean of the middle pair for even counts), 0 for an empty
/// sample. Used for per-layer figures, where a layer that did no work on a
/// workload reports 0.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    sort(&mut v);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// `[Q1, Q2, Q3]` exactly as Python's `statistics.quantiles(values, n=4)`
/// (the default "exclusive" method) gives them, so `--repeat` prints the
/// same spread the driver computes. Needs two or more values.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let n = values.len();
    if n < 2 {
        return None;
    }
    let mut v = values.to_vec();
    sort(&mut v);
    let m = n + 1;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..=3usize) {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    Some(out)
}

/// Interquartile distance as a share of the median — the spread the
/// driver holds against a metric's bound.
pub fn relative_spread(values: &[f64]) -> Option<f64> {
    let [q1, _, q3] = quartiles(values)?;
    let mid = median(values);
    (mid != 0.0).then(|| (q3 - q1) / mid.abs())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v = ramp(400);
        assert_eq!(percentile(&v, 50.0), Some(200.0));
        assert_eq!(percentile(&v, 95.0), Some(380.0));
        // 95 % of 201 is 190.95 → rank 191, leaving exactly 10 beyond.
        assert_eq!(percentile(&ramp(201), 95.0), Some(191.0));
    }

    #[test]
    fn percentile_refuses_a_thin_tail() {
        // rank 190 of 199 leaves 9 beyond.
        assert_eq!(percentile(&ramp(199), 95.0), None);
        assert_eq!(percentile(&ramp(19), 50.0), None);
        assert_eq!(percentile(&ramp(20), 50.0), Some(10.0));
        assert_eq!(percentile(&[], 50.0), None);
    }

    #[test]
    fn median_handles_empty_odd_and_even() {
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        assert_eq!(quartiles(&ramp(10)), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&ramp(5)), Some([1.5, 3.0, 4.5]));
        // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
        assert_eq!(quartiles(&[20.0, 10.0]), Some([7.5, 15.0, 22.5]));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn relative_spread_is_iqr_over_median() {
        let s = relative_spread(&ramp(10)).unwrap();
        assert!((s - 5.5 / 5.5).abs() < 1e-12);
        assert_eq!(relative_spread(&[0.0, 0.0, 0.0]), None);
    }
}
