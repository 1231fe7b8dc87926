//! Order statistics for per-op samples.
//!
//! The gating statistic is the *fast decile* — what the code costs when
//! nothing else disturbs it (see `common::Phase` for how it is taken
//! over blocks). On the shared 2-core recording host medians wandered
//! 13-30 % run to run with neighbour cache/bandwidth pressure; medians
//! and tails are reported as diagnostics only.

/// Sorted copy of `v`.
pub fn sorted(v: &[f64]) -> Vec<f64> {
    let mut s = v.to_vec();
    s.sort_by(|a, b| a.total_cmp(b));
    s
}

/// The `q`-quantile (0..=1) of an already sorted, non-empty slice, with
/// linear interpolation between order statistics.
pub fn quantile_sorted(s: &[f64], q: f64) -> f64 {
    assert!(!s.is_empty(), "quantile of an empty sample");
    let pos = q.clamp(0.0, 1.0) * (s.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
}

pub fn quantile(v: &[f64], q: f64) -> f64 {
    quantile_sorted(&sorted(v), q)
}

pub fn mean(v: &[f64]) -> f64 {
    v.iter().sum::<f64>() / v.len() as f64
}

pub fn p10(v: &[f64]) -> f64 {
    quantile(v, 0.10)
}

pub fn median(v: &[f64]) -> f64 {
    quantile(v, 0.50)
}

/// Share of samples above `1.25 x` the fast decile: ops that something
/// (a neighbour, the OS) visibly slowed.
pub fn disturbed_share(v: &[f64]) -> f64 {
    let limit = 1.25 * p10(v);
    v.iter().filter(|&&x| x > limit).count() as f64 / v.len() as f64
}

/// Python's `statistics.quantiles(v, n=4)` (exclusive method): the
/// quartiles the driver computes spreads from.
pub fn quartiles(v: &[f64]) -> (f64, f64, f64) {
    let s = sorted(v);
    let n = s.len();
    if n == 1 {
        return (s[0], s[0], s[0]);
    }
    let at = |k: usize| {
        let pos = k as f64 * (n + 1) as f64 / 4.0;
        let j = (pos.floor() as usize).clamp(1, n - 1);
        let frac = (pos - j as f64).clamp(0.0, 1.0);
        s[j - 1] + (s[j] - s[j - 1]) * frac
    };
    (at(1), at(2), at(3))
}
