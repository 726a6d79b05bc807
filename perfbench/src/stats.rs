//! Order statistics for the benchmark's reports.
//!
//! Tail percentiles use the nearest-rank rule and are refused when fewer
//! than [`MIN_BEYOND`] samples lie beyond them: a p99 over 200 samples
//! is the second-largest value, which says little about the tail.
//! Medians and quartiles follow Python's `statistics.median` and
//! `statistics.quantiles(values, n=4)` (the default "exclusive" method),
//! so the benchmark's own spreads read the same as a script's.

/// Samples a reported percentile needs strictly beyond its rank.
pub const MIN_BEYOND: usize = 10;

/// Ascending copy of `values` (total order; NaN sorts last).
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The median (mean of the two middle values for an even count), or
/// `None` for no samples.
pub fn median(values: &[f64]) -> Option<f64> {
    let v = sorted(values);
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(v[n / 2]),
        _ => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// First quartile, median and third quartile by the exclusive method of
/// Python's `statistics.quantiles(values, n=4)`; `None` below two samples.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64, f64)> {
    let v = sorted(values);
    let ld = v.len();
    if ld < 2 {
        return None;
    }
    let m = ld + 1;
    let q = |i: usize| {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Some((q(1), q(2), q(3)))
}

/// Nearest-rank percentile `p` (0 < p < 100) of `values`: the smallest
/// sample with at least `p`% of the samples at or below it. `None` when
/// fewer than [`MIN_BEYOND`] samples lie beyond that rank.
pub fn percentile(values: &[f64], p: f64) -> Option<f64> {
    assert!(p > 0.0 && p < 100.0, "percentile must lie in (0, 100)");
    let v = sorted(values);
    let n = v.len();
    let rank = (p * n as f64 / 100.0).ceil() as usize;
    if rank == 0 || n - rank < MIN_BEYOND {
        return None;
    }
    Some(v[rank - 1])
}

/// Median over `slices` equal time slices of the work rate: each
/// `(start, end, work)` interval spreads its work evenly over its span,
/// so an interval straddling two slices counts in both by its overlap.
/// A burst of interference slows one or two slices; the median shrugs it
/// off. `None` without intervals or with an empty span.
pub fn windowed_rate(intervals: &[(f64, f64, f64)], slices: usize) -> Option<f64> {
    let lo = intervals.iter().map(|i| i.0).fold(f64::INFINITY, f64::min);
    let hi = intervals
        .iter()
        .map(|i| i.1)
        .fold(f64::NEG_INFINITY, f64::max);
    if slices == 0 || hi.partial_cmp(&lo) != Some(std::cmp::Ordering::Greater) {
        return None;
    }
    let width = (hi - lo) / slices as f64;
    let mut work = vec![0.0; slices];
    for &(s, e, w) in intervals {
        let span = e - s;
        for (k, slot) in work.iter_mut().enumerate() {
            let (a, b) = (lo + k as f64 * width, lo + (k + 1) as f64 * width);
            let overlap = (e.min(b) - s.max(a)).max(0.0);
            *slot += if span > 0.0 {
                w * overlap / span
            } else if s >= a && s < b {
                w
            } else {
                0.0
            };
        }
    }
    let rates: Vec<f64> = work.iter().map(|w| w / width).collect();
    median(&rates)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        // Deliberately unsorted: 1..=n in reverse.
        (1..=n).rev().map(|i| i as f64).collect()
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0]), Some(3.0));
        assert_eq!(median(&[5.0, 1.0, 3.0]), Some(3.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        assert_eq!(quartiles(&ramp(10)), Some((2.75, 5.5, 8.25)));
        // statistics.quantiles([1, 2, 3, 4], n=4) == [1.25, 2.5, 3.75]
        assert_eq!(quartiles(&ramp(4)), Some((1.25, 2.5, 3.75)));
        // statistics.quantiles([7, 9], n=4) == [6.5, 8.0, 9.5]: the
        // exclusive method extrapolates beyond two samples.
        assert_eq!(quartiles(&[9.0, 7.0]), Some((6.5, 8.0, 9.5)));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn windowed_rate_spreads_straddling_work_and_ignores_one_slow_slice() {
        // Steady 10 units/s over [0, 10): every slice reads 10.
        let steady: Vec<(f64, f64, f64)> =
            (0..10).map(|i| (i as f64, i as f64 + 1.0, 10.0)).collect();
        assert_eq!(windowed_rate(&steady, 5), Some(10.0));
        // Intervals straddling slice edges split their work by overlap.
        let straddle = [(0.0, 1.5, 15.0), (1.5, 3.0, 15.0)];
        assert_eq!(windowed_rate(&straddle, 3), Some(10.0));
        // One stalled second in ten leaves the median untouched.
        let mut stalled = steady.clone();
        stalled[4].2 = 1.0;
        assert_eq!(windowed_rate(&stalled, 10), Some(10.0));
        assert_eq!(windowed_rate(&[], 4), None);
    }

    #[test]
    fn nearest_rank_picks_the_covering_sample() {
        let v = ramp(100);
        assert_eq!(percentile(&v, 50.0), Some(50.0));
        assert_eq!(percentile(&v, 90.0), Some(90.0));
        assert_eq!(percentile(&v, 89.5), Some(90.0));
    }

    #[test]
    fn percentiles_without_ten_samples_beyond_are_refused() {
        // p90 of 99 samples has rank 90, so only 9 samples lie beyond it.
        assert_eq!(percentile(&ramp(99), 90.0), None);
        assert_eq!(percentile(&ramp(100), 90.0), Some(90.0));
        // p99 needs at least 1000 samples.
        assert_eq!(percentile(&ramp(999), 99.0), None);
        assert_eq!(percentile(&ramp(1000), 99.0), Some(990.0));
        assert_eq!(percentile(&[], 50.0), None);
    }
}
