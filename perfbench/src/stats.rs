//! Order statistics over measured samples.

use std::collections::BTreeMap;

/// Median (mean of the two middle values for an even count).
pub fn median(xs: &[f64]) -> f64 {
    let s = sorted(xs);
    let n = s.len();
    assert!(n > 0, "median of no samples");
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// The median time of each input key, in key order, from `(key, time)`
/// samples.
///
/// The end-to-end times are taken over these rather than over all ops:
/// a workload's op times cluster by input with gaps between the clusters,
/// so the median of all ops jumps from one cluster to the next when the
/// slow ops of a few inputs shift it, while each input's own median holds.
pub fn key_medians(samples: impl IntoIterator<Item = (usize, f64)>) -> Vec<f64> {
    let mut by_key: BTreeMap<usize, Vec<f64>> = BTreeMap::new();
    for (key, t) in samples {
        by_key.entry(key).or_default().push(t);
    }
    by_key.values().map(|ts| median(ts)).collect()
}

/// The highest percentile with at least `beyond` samples above it:
/// returns `(value, percentile)`, or the maximum at percentile 100 when
/// there are too few samples.
pub fn tail(xs: &[f64], beyond: usize) -> (f64, f64) {
    let s = sorted(xs);
    let n = s.len();
    assert!(n > 0, "tail of no samples");
    if n <= beyond {
        return (s[n - 1], 100.0);
    }
    let i = n - 1 - beyond;
    (s[i], 100.0 * (i + 1) as f64 / n as f64)
}

/// Geometric mean of positive values.
pub fn geomean(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "geomean of no samples");
    (xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp()
}

pub fn mean(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "mean of no samples");
    xs.iter().sum::<f64>() / xs.len() as f64
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    s
}
