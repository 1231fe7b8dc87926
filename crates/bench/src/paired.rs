//! The one statistic every timed verdict of the harness reads: the
//! median of per-pass scores, with a distribution-free interval from
//! order statistics (the nonparametric method of Hoefler & Belli,
//! "Scientific Benchmarking of Parallel Computing Systems", SC'15).
//!
//! A timed comparison takes its samples through [`samples_s`]: every
//! arm once per pass, the first rotating, so the samples of one pass
//! share the host's drift. A score function turns each pass into one
//! score per verdict, scaled so that the verdict's bound is 1. A stall
//! that slows one pass moves one score, not the median. How many of n
//! scores fall below their true median is Binomial(n, ½) whatever their
//! distribution, so the interval's ranks come from that tail alone.
//!
//! A first round passes when its whole interval lies at or below 1 and
//! fails when it lies above 1. Otherwise it is unresolved: every arm
//! gets [`EXTRA_PASSES`] more passes, and the median of all passes
//! decides on which side of 1 it lies. The outcome is a pure function
//! of the samples.

use crate::{median, samples_s, Timed};
use std::fmt;

/// The passes an unresolved first round earns, the same for every
/// verdict. Even, so an odd first round stays odd.
pub const EXTRA_PASSES: usize = 10;

/// The coverage the interval aims at. Below n = 6 no inner pair of
/// ranks reaches it, and the interval is the whole sample.
const COVERAGE: f64 = 0.95;

/// The probability that the k-th smallest and the k-th largest of n
/// samples (0-based k) bracket their true median: 1 − 2·P(B ≤ k) for
/// B ~ Binomial(n, ½).
fn coverage(n: usize, k: usize) -> f64 {
    let (mut choose, mut tail) = (1.0, 0.0);
    for i in 0..=k {
        tail += choose;
        choose *= (n - i) as f64 / (i + 1) as f64;
    }
    1.0 - 2.0 * tail * 0.5f64.powi(n as i32)
}

/// The 0-based ranks `(k, n − 1 − k)` of the order statistics that
/// bound the median of `n` samples: the narrowest pair whose coverage
/// reaches 95 %, or the smallest and largest sample when none does.
pub fn interval_ranks(n: usize) -> (usize, usize) {
    let k = (1..n / 2).take_while(|&k| coverage(n, k) >= COVERAGE).last().unwrap_or(0);
    (k, n - 1 - k)
}

/// The median of some scores with its distribution-free interval.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Stat {
    /// The middle score, the upper middle of an even count.
    pub median: f64,
    /// The score at the lower rank of [`interval_ranks`].
    pub lo: f64,
    /// The score at the upper rank.
    pub hi: f64,
    /// How many scores, one per pass.
    pub passes: usize,
}

impl Stat {
    /// The statistic of `scores`, which must not be empty.
    pub fn of(scores: &[f64]) -> Stat {
        let mut sorted = scores.to_vec();
        sorted.sort_by(f64::total_cmp);
        let (lo, hi) = interval_ranks(sorted.len());
        Stat { median: median(&sorted), lo: sorted[lo], hi: sorted[hi], passes: sorted.len() }
    }

    /// Whether the whole interval lies on one side of 1.
    fn resolved(&self) -> bool {
        self.hi <= 1.0 || self.lo > 1.0
    }

    /// The JSON members `"median"`, `"interval"` and `"passes"`.
    pub fn json_members(&self) -> String {
        let Stat { median, lo, hi, passes } = self;
        format!("\"median\": {median:.4}, \"interval\": [{lo:.4}, {hi:.4}], \"passes\": {passes}")
    }
}

/// A timed verdict and the statistic that decided it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Verdict {
    /// The first round's statistic, or every pass's once it was extended.
    pub stat: Stat,
    /// Whether the first round was unresolved, so the median decided.
    pub extended: bool,
    /// Whether the verdict holds.
    pub pass: bool,
}

impl Verdict {
    /// The verdict on the scores of a first round, `first`, and of every
    /// pass taken, `all`: a resolved first round decides by its
    /// interval, an unresolved one by the side of 1 that `all`'s median
    /// lies on.
    pub fn of(first: &[f64], all: &[f64]) -> Verdict {
        let stat = Stat::of(first);
        if stat.resolved() {
            return Verdict { stat, extended: false, pass: stat.hi <= 1.0 };
        }
        let stat = Stat::of(all);
        Verdict { stat, extended: true, pass: stat.median <= 1.0 }
    }

    /// The verdict as a JSON object.
    pub fn json(&self) -> String {
        format!("{{{}, \"extended\": {}, \"pass\": {}}}", self.stat.json_members(), self.extended, self.pass)
    }
}

impl fmt::Display for Verdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let Stat { median, lo, hi, passes } = self.stat;
        let how = if self.extended { "extended after an unresolved first round" } else { "resolved" };
        write!(f, "median score {median:.3} in [{lo:.3}, {hi:.3}] over {passes} passes, {how}")
    }
}

/// Times `arms` through [`samples_s`] under `timing` and judges each
/// row of scores that `score` makes of the samples (`samples[arm][pass]`
/// to `scores[verdict][pass]`). If any row's first round is unresolved,
/// every arm gets [`EXTRA_PASSES`] more passes, once, and every row is
/// scored again over all of them. Returns the verdicts and every sample.
pub fn judge<T: Timed>(
    arms: usize,
    timing: (usize, usize),
    mut call: impl FnMut(usize) -> T,
    score: impl Fn(&[Vec<f64>]) -> Vec<Vec<f64>>,
) -> (Vec<Verdict>, Vec<Vec<f64>>) {
    let mut samples = samples_s(arms, timing, &mut call);
    let first = score(&samples);
    let mut all = first.clone();
    if first.iter().any(|s| !Stat::of(s).resolved()) {
        let more = samples_s(arms, (0, EXTRA_PASSES), &mut call);
        samples.iter_mut().zip(more).for_each(|(s, more)| s.extend(more));
        all = score(&samples);
    }
    (first.iter().zip(&all).map(|(f, a)| Verdict::of(f, a)).collect(), samples)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;
    use std::time::Duration;

    /// One row of scores: arm 1's sample over arm 0's, over `bound`, as
    /// `serve_soak`'s p99 ratio is.
    fn ratio_over(bound: f64) -> impl Fn(&[Vec<f64>]) -> Vec<Vec<f64>> {
        move |s| vec![s[1].iter().zip(&s[0]).map(|(b, a)| b / a / bound).collect()]
    }

    /// An arm that replays `table[arm]` in order, one µs entry per call.
    fn replay(table: [Vec<u64>; 2]) -> impl FnMut(usize) -> Duration {
        let mut next = [0, 0];
        move |arm| {
            next[arm] += 1;
            Duration::from_micros(table[arm][next[arm] - 1])
        }
    }

    /// Scores of n passes, evenly spread over `mid ± spread`.
    fn spread(n: usize, mid: f64, spread: f64) -> Vec<f64> {
        (0..n).map(|i| mid + spread * (2.0 * i as f64 / (n - 1) as f64 - 1.0)).collect()
    }

    #[test]
    fn the_interval_ranks_are_the_binomial_order_statistics() {
        // n = 5: no inner pair reaches 95 %, so min and max: 1 − 2/32
        assert_eq!(interval_ranks(5), (0, 4));
        assert!((coverage(5, 0) - 0.9375).abs() < 1e-12);
        assert!((coverage(5, 1) - 0.625).abs() < 1e-12);
        // n = 9: the 2nd and 8th, 1 − 2·10/512; the 3rd and 7th miss it
        assert_eq!(interval_ranks(9), (1, 7));
        assert!((coverage(9, 1) - 0.9609375).abs() < 1e-12);
        assert!((coverage(9, 2) - 0.8203125).abs() < 1e-12);
        // n = 15: the 4th and 12th, 1 − 2·576/32768
        assert_eq!(interval_ranks(15), (3, 11));
        assert!((coverage(15, 3) - 0.96484375).abs() < 1e-12);
        assert!((coverage(15, 4) - 0.88153076171875).abs() < 1e-12);
        assert_eq!((interval_ranks(1), interval_ranks(2)), ((0, 0), (0, 1)));
    }

    #[test]
    fn a_a_samples_pass() {
        // both arms replay the same times, in opposite orders
        let a: Vec<u64> = [100].into_iter().chain(100..109).collect();
        let b: Vec<u64> = [100].into_iter().chain((100..109).rev()).collect();
        let (v, samples) = judge(2, (1, 9), replay([a, b]), ratio_over(1.15));
        assert!(v[0].pass && !v[0].extended, "{}", v[0]);
        assert_eq!((samples[0].len(), samples[1].len()), (9, 9));
        assert!(v[0].stat.median < 1.0 / 1.15 + 0.01, "{}", v[0]);
    }

    #[test]
    fn one_stalled_pair_does_not_change_the_outcome() {
        // a passing and a failing round, each resolved
        let (good, bad) = (spread(9, 0.8, 0.05), spread(9, 1.3, 0.05));
        assert_eq!(Verdict::of(&good, &good), Verdict { stat: Stat::of(&good), extended: false, pass: true });
        assert!(!Verdict::of(&bad, &bad).pass && !Verdict::of(&bad, &bad).extended);
        // a stall 10× one pass's B arm, then one pass's A arm
        for i in [0, 4, 8] {
            let (mut slow, mut lucky) = (good.clone(), bad.clone());
            slow[i] *= 10.0;
            lucky[i] /= 10.0;
            let (slowed, sped) = (Verdict::of(&slow, &slow), Verdict::of(&lucky, &lucky));
            assert!(slowed.pass && !slowed.extended, "{slowed}");
            assert!(!sped.pass && !sped.extended, "{sped}");
            assert!((slowed.stat.median - Stat::of(&good).median).abs() < 0.05);
        }
    }

    #[test]
    fn a_shift_just_past_the_threshold_fails() {
        // every pass 2 % past the bound, with ±1 % noise
        let past = spread(15, 1.02, 0.01);
        assert!(!Verdict::of(&past, &past).pass);
        assert!(!Verdict::of(&past, &past).extended);
        // noise wider than the shift leaves the first round unresolved,
        // and the median of the extended round still fails
        let noisy = spread(15, 1.02, 0.05);
        let extended = [noisy.clone(), spread(EXTRA_PASSES, 1.02, 0.05)].concat();
        let v = Verdict::of(&noisy, &extended);
        assert!(v.extended && !v.pass && v.stat.passes == 15 + EXTRA_PASSES, "{v}");
    }

    #[test]
    fn an_unresolved_round_extends_once_and_its_verdict_is_a_function_of_the_samples() {
        // B straddles 1.15·A in the first round; the extra passes run
        // it at 1.1·A, so the median of all 19 passes decides: pass
        let a = vec![100u64; 9 + EXTRA_PASSES];
        let b: Vec<u64> =
            [105, 125, 110, 120, 112, 118, 111, 119, 116].into_iter().chain([110; EXTRA_PASSES]).collect();
        let run = || judge(2, (0, 9), replay([a.clone(), b.clone()]), ratio_over(1.15));
        let (v, samples) = run();
        assert!(v[0].extended && v[0].pass && v[0].stat.passes == 19, "{}", v[0]);
        assert_eq!((samples[0].len(), samples[1].len()), (19, 19));
        assert_eq!(run(), (v.clone(), samples));
        let text = v[0].to_string();
        assert!(text.contains("over 19 passes") && text.contains("extended"), "{text}");
        assert!(v[0].json().contains("\"passes\": 19, \"extended\": true, \"pass\": true"), "{}", v[0].json());
        // a resolved round takes no extra pass
        let calls = Cell::new(0);
        let (v, _) = judge(2, (0, 9), |_| calls.set(calls.get() + 1), |_| vec![vec![0.5; 9]]);
        assert!(v[0].pass && !v[0].extended && calls.get() == 18);
    }
}
