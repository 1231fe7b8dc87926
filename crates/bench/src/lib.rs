//! Shared plumbing for the benchmark harness binaries that regenerate
//! every table and figure of the paper; each binary's doc comment names
//! the table or figure it reproduces.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::time::Instant;

/// Times `f` over `reps` repetitions after `warmup` unrecorded runs;
/// returns seconds per repetition — the paper's measurement protocol
/// ("5 warm-up rounds and then averaging the time required for the next
/// 50 rounds"), scaled down for CI-sized runs.
pub fn time_per_round(warmup: usize, reps: usize, mut f: impl FnMut()) -> f64 {
    for _ in 0..warmup {
        f();
    }
    let start = Instant::now();
    for _ in 0..reps {
        f();
    }
    start.elapsed().as_secs_f64() / reps.max(1) as f64
}

/// Prints a markdown-style table row.
pub fn row(cells: &[String]) {
    println!("| {} |", cells.join(" | "));
}

/// Prints a markdown-style header + separator.
pub fn header(cells: &[&str]) {
    println!("| {} |", cells.join(" | "));
    println!("|{}|", cells.iter().map(|_| "---").collect::<Vec<_>>().join("|"));
}

/// Formats a float compactly.
pub fn fmt(v: f64) -> String {
    if v == 0.0 {
        "0".into()
    } else if v.abs() >= 1000.0 || v.abs() < 0.01 {
        format!("{v:.3e}")
    } else {
        format!("{v:.3}")
    }
}

/// Auto may be this factor slower than the best fixed strategy…
pub const GAP_BOUND: f64 = 1.15;
/// …or this many µs slower: the scheduler noise floor, which on a
/// shared host rivals whole rounds of the small nets. Every timed
/// verdict forgives a gap this small.
pub const ABS_SLACK_US: f64 = 3_000.0;

/// The planner verdict: the `Autotune` plan's median round is within
/// [`GAP_BOUND`] or [`ABS_SLACK_US`] of the best fixed strategy's.
pub fn auto_within_gap(auto_us: f64, best_fixed_us: f64) -> bool {
    auto_us / best_fixed_us <= GAP_BOUND || auto_us - best_fixed_us <= ABS_SLACK_US
}

/// The paper's headline verdict: ZNN's best forced strategy runs a
/// round no slower than the layerwise baseline, up to [`ABS_SLACK_US`].
pub fn beats_layerwise(best_forced_us: f64, layerwise_us: f64) -> bool {
    best_forced_us - layerwise_us <= ABS_SLACK_US
}

/// Reads one row of cases ordered by growing kernel, `fft_wins[i]`
/// being whether FFT beat direct at the i-th kernel: returns the index
/// of the crossover kernel (the first FFT win, `None` if FFT never
/// won) and whether FFT also won at every larger kernel.
pub fn crossover(fft_wins: &[bool]) -> (Option<usize>, bool) {
    let first = fft_wins.iter().position(|&w| w);
    let monotone = first.is_none_or(|i| fft_wins[i..].iter().all(|&w| w));
    (first, monotone)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timing_is_positive() {
        let t = time_per_round(0, 3, || {
            std::hint::black_box((0..10_000).sum::<u64>());
        });
        assert!(t > 0.0);
    }

    #[test]
    fn fmt_picks_reasonable_forms() {
        assert_eq!(fmt(0.0), "0");
        assert!(fmt(123456.5).contains('e'));
        assert!(!fmt(3.25).contains('e'));
    }

    #[test]
    fn gap_bound_and_slack_hold_exactly_at_their_boundaries() {
        // 115 / 100 rounds to the same double as the 1.15 literal
        assert!(auto_within_gap(115_000.0, 100_000.0));
        assert!(!auto_within_gap(115_001.0, 100_000.0));
        // below the bound's reach, the absolute slack decides
        assert!(auto_within_gap(4_000.0, 1_000.0));
        assert!(!auto_within_gap(4_000.5, 1_000.0));
    }

    #[test]
    fn beating_layerwise_forgives_only_the_slack() {
        assert!(beats_layerwise(90_000.0, 100_000.0));
        assert!(beats_layerwise(103_000.0, 100_000.0));
        assert!(!beats_layerwise(103_000.5, 100_000.0));
    }

    #[test]
    fn crossover_is_the_first_fft_win_and_must_hold_after_it() {
        assert_eq!(crossover(&[false, false, true, true]), (Some(2), true));
        assert_eq!(crossover(&[false, true, false, true]), (Some(1), false));
        assert_eq!(crossover(&[false, false, false]), (None, true));
    }
}
