//! Shared plumbing for the benchmark harness binaries that regenerate
//! every table and figure of the paper, and the verdicts they hold the
//! results to; each binary's doc comment names the table or figure it
//! reproduces.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

pub mod paired;

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};
use znn_plan::Machine;

/// What a timed call returns: `()` puts the whole call on the clock; a
/// `Duration` is the length of the call's own timed part, so setup
/// such as a spectrum clone or an output zero-fill stays off it.
pub trait Timed {
    /// The time to record for a call that took `whole`.
    fn on_clock(self, whole: Duration) -> Duration;
}

impl Timed for () {
    fn on_clock(self, whole: Duration) -> Duration {
        whole
    }
}

impl Timed for Duration {
    fn on_clock(self, _: Duration) -> Duration {
        self
    }
}

/// The harness's one timer: `samples[arm][pass]`, the seconds of each
/// call of each of `arms` alternatives, `call(i)` running the i-th.
/// Every arm is called `warmup` times before any is timed; then each of
/// `n` passes calls every arm once, the first rotating between passes,
/// so host drift spreads over all of them alike and the samples of one
/// pass are a pair the [`paired`] statistic compares. This is the
/// paper's protocol ("5 warm-up rounds and then averaging the time
/// required for the next 50 rounds") with a median, which one stall
/// cannot move, for the mean.
pub fn samples_s<T: Timed>(
    arms: usize,
    (warmup, n): (usize, usize),
    mut call: impl FnMut(usize) -> T,
) -> Vec<Vec<f64>> {
    for arm in 0..arms {
        (0..warmup).for_each(|_| _ = call(arm));
    }
    let mut samples = vec![Vec::with_capacity(n); arms];
    for pass in 0..n {
        for i in 0..arms {
            let arm = (pass + i) % arms;
            let t0 = Instant::now();
            let timed = call(arm);
            samples[arm].push(timed.on_clock(t0.elapsed()).as_secs_f64());
        }
    }
    samples
}

/// The median seconds per call of each arm, over [`samples_s`]'s samples.
pub fn median_s<T: Timed>(
    arms: usize,
    timing: (usize, usize),
    call: impl FnMut(usize) -> T,
) -> Vec<f64> {
    samples_s(arms, timing, call).iter().map(|s| median(s)).collect()
}

/// The middle sample, the upper middle of an even count.
pub fn median(samples: &[f64]) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted[sorted.len() / 2]
}

/// The `"machine"` field by which a BENCH file names its host: the
/// detected model's cores and probed single-thread rates, and the SIMD
/// ISA the kernels dispatch to.
pub fn machine_json() -> String {
    let (m, isa) = (Machine::host(), znn_simd::isa_name());
    format!(
        "\"machine\": {{\"name\": \"{}\", \"cores\": {}, \"isa\": \"{isa}\", \"gflops\": {:.3}, \
         \"bandwidth_gbs\": {:.3}}}",
        m.name, m.cores, m.gflops, m.bandwidth_gbs
    )
}

/// The names of the five records, one per bench bin: `BENCH_<name>.json`.
pub const RECORDS: [&str; 5] = ["fft", "sched", "plan", "serve", "fault"];

/// Where a run writes record `name`: the committed `BENCH_<name>.json`
/// in the working directory for a full run, under `target/smoke/` for
/// `--smoke`, so a smoke run never dirties the checkout.
pub fn record_path(name: &str, smoke: bool) -> PathBuf {
    let file = format!("BENCH_{name}.json");
    if smoke {
        Path::new("target/smoke").join(file)
    } else {
        file.into()
    }
}

/// The one record writer: writes record `name` as a JSON object of
/// `"smoke"`, the host's `"machine"` and `members` (each a rendered
/// `"key": value`) to [`record_path`]. A failed write exits 1, so no
/// check can pass against a stale copy.
pub fn write_record(name: &str, smoke: bool, members: &[String]) {
    let path = record_path(name, smoke);
    let mut all = vec![format!("\"smoke\": {smoke}"), machine_json()];
    all.extend_from_slice(members);
    let json = format!("{{\n  {}\n}}\n", all.join(",\n  "));
    let written = path.parent().map_or(Ok(()), std::fs::create_dir_all);
    match written.and_then(|()| std::fs::write(&path, json)) {
        Ok(()) => println!("\nwrote {}", path.display()),
        Err(e) => {
            eprintln!("\ncould not write {}: {e}", path.display());
            std::process::exit(1);
        }
    }
}

/// The key paths of the JSON document `json`: `a.b` for key `b` of the
/// object under key `a`, and `a[].b` for a key of any object in array
/// `a`, whatever the array's length. `Err` says where `json` stops
/// being JSON.
pub fn json_keys(json: &str) -> Result<BTreeSet<String>, String> {
    let mut p = JsonWalk { s: json.as_bytes(), at: 0, keys: BTreeSet::new() };
    p.value("")?;
    p.skip_ws();
    if p.at < p.s.len() {
        return Err(format!("trailing bytes at byte {}", p.at));
    }
    Ok(p.keys)
}

/// A recursive-descent walk over a JSON text that collects key paths.
struct JsonWalk<'a> {
    s: &'a [u8],
    at: usize,
    keys: BTreeSet<String>,
}

impl JsonWalk<'_> {
    fn skip_ws(&mut self) {
        while self.s.get(self.at).is_some_and(u8::is_ascii_whitespace) {
            self.at += 1;
        }
    }

    /// Consumes `c` after any whitespace, if it is next.
    fn eat(&mut self, c: u8) -> bool {
        self.skip_ws();
        let next = self.s.get(self.at) == Some(&c);
        self.at += usize::from(next);
        next
    }

    fn expect(&mut self, c: u8) -> Result<(), String> {
        if !self.eat(c) {
            return Err(format!("expected '{}' at byte {}", c as char, self.at));
        }
        Ok(())
    }

    /// Walks one value, the one at key path `path`.
    fn value(&mut self, path: &str) -> Result<(), String> {
        self.skip_ws();
        match self.s.get(self.at) {
            Some(b'{') => {
                self.at += 1;
                if self.eat(b'}') {
                    return Ok(());
                }
                loop {
                    self.skip_ws();
                    let key = self.string()?;
                    let key = if path.is_empty() { key } else { format!("{path}.{key}") };
                    self.expect(b':')?;
                    self.value(&key)?;
                    self.keys.insert(key);
                    if !self.eat(b',') {
                        return self.expect(b'}');
                    }
                }
            }
            Some(b'[') => {
                self.at += 1;
                if self.eat(b']') {
                    return Ok(());
                }
                let item = format!("{path}[]");
                loop {
                    self.value(&item)?;
                    if !self.eat(b',') {
                        return self.expect(b']');
                    }
                }
            }
            Some(b'"') => self.string().map(drop),
            _ => self.scalar(),
        }
    }

    /// The string at `at`, each escape reduced to the character after
    /// its backslash.
    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut text = Vec::new();
        loop {
            match self.s.get(self.at) {
                Some(b'"') => {
                    self.at += 1;
                    return Ok(String::from_utf8_lossy(&text).into_owned());
                }
                Some(b'\\') => {
                    text.extend(self.s.get(self.at + 1));
                    self.at += 2;
                }
                Some(&c) => {
                    text.push(c);
                    self.at += 1;
                }
                None => return Err("unterminated string".into()),
            }
        }
    }

    /// `true`, `false`, `null` or a number.
    fn scalar(&mut self) -> Result<(), String> {
        let from = self.at;
        let token_byte = |c: &u8| c.is_ascii_alphanumeric() || b"+-.".contains(c);
        while self.s.get(self.at).is_some_and(token_byte) {
            self.at += 1;
        }
        let token = std::str::from_utf8(&self.s[from..self.at]).unwrap_or("");
        let number = token.bytes().all(|c| c.is_ascii_digit() || b"+-.eE".contains(&c))
            && token.parse::<f64>().is_ok();
        if !number && !["true", "false", "null"].contains(&token) {
            return Err(format!("not a JSON value at byte {from}"));
        }
        Ok(())
    }
}

/// Checks a committed record against the smoke run of the same bin:
/// the committed one must come from a full run (`"smoke": false`) and
/// name its host (`"machine"`), and both must have the same key paths.
/// `Err` names what is wrong.
pub fn check_record(committed: &str, smoke: &str) -> Result<(), String> {
    let keys = json_keys(committed).map_err(|e| format!("committed record: {e}"))?;
    let smoke_keys = json_keys(smoke).map_err(|e| format!("smoke output: {e}"))?;
    if !keys.contains("smoke") || !committed.contains("\"smoke\": false") {
        return Err("the committed record is not from a full run (\"smoke\": false)".into());
    }
    if !keys.contains("machine") {
        return Err("the committed record names no \"machine\"".into());
    }
    let missing: Vec<_> = keys.difference(&smoke_keys).collect();
    let extra: Vec<_> = smoke_keys.difference(&keys).collect();
    if !missing.is_empty() || !extra.is_empty() {
        return Err(format!("smoke output lacks {missing:?} and adds {extra:?}"));
    }
    Ok(())
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
/// shared host rivals whole rounds of the small nets. `paper_compare`'s
/// gap and layerwise verdicts forgive a gap this small; `serve_soak`'s
/// p99 bound is a pure ratio.
pub const ABS_SLACK_US: f64 = 3_000.0;

/// The planner verdict's score of one pass, ≤ 1 when the `Autotune`
/// plan's round is within [`GAP_BOUND`] or [`ABS_SLACK_US`] of the best
/// fixed strategy's round of the same pass.
pub fn gap_score(auto_us: f64, best_fixed_us: f64) -> f64 {
    (auto_us / best_fixed_us / GAP_BOUND).min((auto_us - ABS_SLACK_US) / best_fixed_us)
}

/// The paper's headline verdict's score of one pass, ≤ 1 when ZNN's
/// best forced strategy runs a round no slower than the layerwise
/// baseline's round of the same pass, up to [`ABS_SLACK_US`].
pub fn layerwise_score(best_forced_us: f64, layerwise_us: f64) -> f64 {
    (best_forced_us - ABS_SLACK_US) / layerwise_us
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

/// The verdict ledger of a harness: prints each verdict as it is
/// checked, and turns any failure into a non-zero exit code.
#[derive(Default)]
pub struct Verdicts(Vec<String>);

impl Verdicts {
    /// Records the verdict `name`.
    pub fn check(&mut self, name: &str, pass: bool) {
        println!("verdict {name}: {}", if pass { "pass" } else { "FAIL" });
        if !pass {
            self.0.push(name.into());
        }
    }

    /// Records the timed verdict `name`, naming the statistic that
    /// decided it, so a failure says whether it failed in the first round
    /// or after an unresolved one was extended.
    pub fn timed(&mut self, name: &str, verdict: &paired::Verdict) {
        self.check(&format!("{name} [{verdict}]"), verdict.pass);
    }

    /// 0 if every verdict passed; else names each failure on stderr, 1.
    pub fn exit_code(&self) -> i32 {
        self.0.iter().for_each(|name| eprintln!("FAILED VERDICT: {name}"));
        i32::from(!self.0.is_empty())
    }
}

/// Equal up to a relative 1e-9: a closed form and the formula it is
/// checked against may group the same terms differently.
fn close(a: f64, b: f64) -> bool {
    (a - b).abs() <= 1e-9 * a.abs().max(b.abs())
}

fn non_decreasing(xs: &[f64]) -> bool {
    xs.windows(2).all(|w| w[0] <= w[1])
}

/// Fig 4: `curves[i]` is the Brent speedup at the i-th of growing
/// processor counts `ps`, over one grid of growing widths. Every curve
/// rises with width and stays within its P; the first width to reach
/// 0.75·P never shrinks as P grows, and is larger at the largest P than
/// at the smallest (a curve that never reaches it counts as past the
/// grid).
pub fn brent_curves_hold(ps: &[f64], curves: &[Vec<f64>]) -> bool {
    let reach: Vec<usize> = ps
        .iter()
        .zip(curves)
        .map(|(&p, c)| c.iter().position(|&s| s >= 0.75 * p).unwrap_or(usize::MAX))
        .collect();
    ps.iter().zip(curves).all(|(&p, c)| non_decreasing(c) && c.iter().all(|&s| s <= p || close(s, p)))
        && reach.windows(2).all(|w| w[0] <= w[1])
        && reach.first() < reach.last()
}

/// Fig 5: no simulated `(workers, speedup)` point exceeds what the
/// machine's cores and SMT lanes deliver to that many workers.
pub fn within_throughput(points: &[(usize, f64)], machine: &Machine) -> bool {
    points.iter().all(|&(w, s)| {
        let peak = machine.total_throughput(w);
        s <= peak || close(s, peak)
    })
}

/// Fig 5: over points of growing worker counts, the speedup never falls
/// while every worker has a core of its own.
pub fn rises_to_cores(points: &[(usize, f64)], cores: usize) -> bool {
    non_decreasing(&points.iter().filter(|p| p.0 <= cores).map(|p| p.1).collect::<Vec<_>>())
}

/// Figs 6–7: a wide enough net reaches 95 % of the machine's peak.
pub fn saturates(speedup: f64, peak: f64) -> bool {
    speedup >= 0.95 * peak
}

/// Tables I–II: a `LayerModel` count equals the formula its label prints.
pub fn matches_formula(model: f64, formula: f64) -> bool {
    close(model, formula)
}

/// Table II: over growing kernels, direct is cheaper at the smallest,
/// FFT at the largest, and once FFT wins it keeps winning.
pub fn direct_then_fft(fft_wins: &[bool]) -> bool {
    matches!(crossover(fft_wins), (Some(i), true) if i > 0)
}

/// Tables III–IV: over growing widths `fs`, each latency column of
/// `t_inf` grows from its first value only by one fixed multiple of
/// ⌈log₂ f⌉ (the binary collapse of f sums; 0 for a pass without one),
/// while the serial cost `t1` grows as f².
pub fn t_inf_log_t1_square(fs: &[f64], t_inf: &[Vec<f64>], t1: &[f64]) -> bool {
    let lg = |f: f64| f.log2().ceil() - fs[0].log2().ceil();
    let n = fs.len() - 1;
    let log_term = |ts: &Vec<f64>| {
        let step = (ts[n] - ts[0]) / lg(fs[n]);
        (0..=n).all(|i| close(ts[i] - ts[0], step * lg(fs[i])))
    };
    t_inf.iter().all(log_term) && (0..=n).all(|i| close(t1[i], t1[0] * (fs[i] / fs[0]).powi(2)))
}

/// §VII-C: a pool counter read after each round (bytes from the
/// system, misses) never moves after round 0.
pub fn flat_after_first_round(per_round: &[u64]) -> bool {
    per_round.iter().all(|&v| v == per_round[0])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timing_is_positive() {
        // an arm returning () is timed whole
        let t = median_s(1, (0, 3), |_| {
            std::hint::black_box((0..10_000).sum::<u64>());
        });
        assert!(t[0] > 0.0);
        let whole = median_s(1, (0, 3), |_| std::thread::sleep(Duration::from_millis(1)));
        assert!(whole[0] >= 1e-3);
    }

    #[test]
    fn median_rounds_rotate_the_first_engine_after_warming_each() {
        let mut calls = Vec::new();
        let s = median_s(3, (1, 3), |arm| {
            calls.push(arm);
            // setup the arm keeps off the clock
            std::thread::sleep(Duration::from_millis(2));
            Duration::from_micros(7 + arm as u64)
        });
        assert_eq!(s, [7e-6, 8e-6, 9e-6]);
        // one warm-up each, then passes starting at arms 0, 1, 2
        assert_eq!(calls, [0, 1, 2, 0, 1, 2, 1, 2, 0, 2, 0, 1]);
        assert_eq!(median(&[5.0, 1.0, 4.0, 2.0, 3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 3.0);
        // the samples behind the medians, pass-aligned per arm
        let s = samples_s(2, (0, 3), |arm| Duration::from_micros(1 + arm as u64));
        assert_eq!(s, [[1e-6; 3], [2e-6; 3]]);
    }

    fn keys(json: &str) -> Vec<String> {
        json_keys(json).expect("valid JSON").into_iter().collect()
    }

    #[test]
    fn json_keys_name_nested_objects_and_collapse_arrays() {
        let doc = r#"{"machine": {"name": "host", "cores": 2},
            "rows": [{"n": 16, "t": 1.5e-4}, {"n": 24, "u": -3}], "empty": {}, "list": [1, [2], []]}"#;
        let want = ["empty", "list", "machine", "machine.cores", "machine.name", "rows", "rows[].n"];
        assert_eq!(keys(doc), [&want[..], &["rows[].t", "rows[].u"]].concat());
        assert_eq!(keys("[{\"a\": {\"b\": null}}]"), ["[].a", "[].a.b"]);
        assert!(keys("7").is_empty() && keys(" \"text\" ").is_empty());
    }

    #[test]
    fn json_keys_read_escaped_strings_numbers_and_bools() {
        let doc = r#"{"say \"hi\"": "a \"quoted\" \\ value, {not: a key}", "t": true, "f": false,
            "x": 6.851e-6, "y": -12, "z": 0.5}"#;
        assert_eq!(keys(doc), ["f", "say \"hi\"", "t", "x", "y", "z"]);
        for bad in ["{\"a\": inf}", "{\"a\": NaN}", "{\"a\": -inf}", "{\"a\": 1,}", "{\"a\" 1}", "[1 2]", "\"open", "{} {}"] {
            assert!(json_keys(bad).is_err(), "{bad} is not JSON");
        }
    }

    #[test]
    fn a_record_checks_against_its_smoke_run_by_key_paths() {
        let full = r#"{"smoke": false, "machine": {"cores": 2}, "rows": [{"n": 1}, {"n": 2}]}"#;
        let smoke = r#"{"smoke": true, "machine": {"cores": 2}, "rows": [{"n": 1}]}"#;
        assert_eq!(check_record(full, smoke), Ok(()));
        assert!(check_record(full, &smoke.replace(r#"{"n": 1}"#, "{}")).is_err());
        assert!(check_record(full, &smoke.replace("rows", "cols")).is_err());
        assert!(check_record(&full.replace("false", "true"), smoke).is_err());
        assert!(check_record(&full.replace("machine", "host"), &smoke.replace("machine", "host")).is_err());
        assert!(check_record(full, "{").is_err());
    }

    #[test]
    fn a_failed_verdict_makes_a_non_zero_exit() {
        let mut v = Verdicts::default();
        v.check("holds", true);
        assert_eq!(v.exit_code(), 0);
        v.check("breaks", false);
        assert_eq!(v.exit_code(), 1);
    }

    #[test]
    fn brent_curves_rise_within_p_and_need_more_width_at_larger_p() {
        let (a, b) = (vec![7.0, 8.0, 8.0], vec![10.0, 16.0, 17.0]);
        assert!(brent_curves_hold(&[8.0, 18.0], &[a.clone(), b.clone()]));
        // a curve past P, a falling curve, reach shrinking or flat in P
        assert!(!brent_curves_hold(&[8.0, 18.0], &[vec![7.0, 8.1], b.clone()]));
        assert!(!brent_curves_hold(&[8.0, 18.0], &[a.clone(), vec![10.0, 16.0, 15.0]]));
        assert!(!brent_curves_hold(&[18.0, 20.0], &[b.clone(), vec![16.0, 17.0, 18.0]]));
        assert!(!brent_curves_hold(&[8.0, 18.0], &[a, vec![14.0, 16.0, 17.0]]));
        // a curve that never reaches 0.75·P lies past the grid
        assert!(brent_curves_hold(&[8.0, 18.0], &[vec![7.0], vec![10.0]]));
    }

    #[test]
    fn simulated_speedup_stays_within_throughput_rises_to_cores_and_saturates() {
        let m = Machine::xeon_e5_8core();
        assert!(within_throughput(&[(1, 1.0), (8, 8.0), (16, 10.4)], &m));
        assert!(!within_throughput(&[(8, 8.0), (12, 9.3)], &m));
        assert!(rises_to_cores(&[(1, 1.0), (4, 3.9), (8, 7.7), (12, 7.0)], 8));
        assert!(!rises_to_cores(&[(1, 1.0), (4, 3.9), (8, 3.8)], 8));
        assert!(saturates(9.9, 10.4) && !saturates(9.8, 10.4));
    }

    #[test]
    fn closed_forms_match_their_formulas_and_cross_over_once() {
        assert!(matches_formula(0.1 + 0.2, 0.3) && !matches_formula(4.424e5, 4.425e5));
        assert!(direct_then_fft(&[false, false, true, true]));
        assert!(!direct_then_fft(&[true, true]) && !direct_then_fft(&[false, false]));
        assert!(!direct_then_fft(&[false, true, false]));
    }

    #[test]
    fn latency_grows_by_the_log_term_while_work_grows_as_the_square() {
        let (fs, t1) = ([1.0, 4.0, 16.0, 64.0], [3.0, 48.0, 768.0, 12288.0]);
        let ok = vec![vec![1e6, 1.016e6, 1.032e6, 1.048e6], vec![1e6; 4]];
        assert!(t_inf_log_t1_square(&fs, &ok, &t1));
        assert!(!t_inf_log_t1_square(&fs, &[vec![1e6, 1.004e6, 1.016e6, 1.064e6]], &t1));
        assert!(!t_inf_log_t1_square(&fs, &ok, &[3.0, 12.0, 48.0, 192.0]));
    }

    #[test]
    fn a_pool_counter_is_flat_only_if_no_round_after_the_first_moves_it() {
        assert!(flat_after_first_round(&[256_256; 6]));
        assert!(!flat_after_first_round(&[7, 7, 8]));
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
        assert_eq!(gap_score(115_000.0, 100_000.0), 1.0);
        assert!(gap_score(115_001.0, 100_000.0) > 1.0);
        // below the bound's reach, the absolute slack decides
        assert_eq!(gap_score(4_000.0, 1_000.0), 1.0);
        assert!(gap_score(4_000.5, 1_000.0) > 1.0);
        assert!(gap_score(90_000.0, 100_000.0) < 1.0);
    }

    #[test]
    fn beating_layerwise_forgives_only_the_slack() {
        assert!(layerwise_score(90_000.0, 100_000.0) < 1.0);
        assert_eq!(layerwise_score(103_000.0, 100_000.0), 1.0);
        assert!(layerwise_score(103_000.5, 100_000.0) > 1.0);
    }

    #[test]
    fn crossover_is_the_first_fft_win_and_must_hold_after_it() {
        assert_eq!(crossover(&[false, false, true, true]), (Some(2), true));
        assert_eq!(crossover(&[false, true, false, true]), (Some(1), false));
        assert_eq!(crossover(&[false, false, false]), (None, true));
    }
}
