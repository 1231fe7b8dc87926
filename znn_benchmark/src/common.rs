//! What every workload shares: the timed-phase loop, failure
//! accounting, op-count policy and the run's outcome record.

use crate::host;
use crate::manifest::{RUN_SECONDS, TIMED_OPS, TIMED_OPS_W1};
use crate::stats;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

/// Result of one operation: its loss (training) or 0 (serving), or why
/// it failed. A failed op is counted, never fatal.
pub type OpResult = Result<f64, String>;

/// Arguments every run takes.
#[derive(Clone, Debug)]
pub struct RunArgs {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// Fixed operation counts for a run of `seconds`: the reference counts
/// scaled by `seconds / RUN_SECONDS`, with floors that keep a fast
/// decile meaningful in `--smoke`. Counts are fixed before the phase
/// starts — a loop boxed by the clock measures more ops when the host is
/// quiet and fewer when it is not, which moves every rate it reports.
pub struct OpCounts {
    /// Blocks each phase is cut into; the phases alternate block by
    /// block, and every round starts with a fresh set-up.
    pub rounds: usize,
    /// Ops per block at W workers (whole segments, so every block
    /// contributes rates).
    pub block_w: usize,
    /// Ops per block at one worker.
    pub block_w1: usize,
}

/// Warm-up ops of every set-up (the first builds FFT plans and kernel
/// spectra and fills the pools; by the third the pools have plateaued).
pub const WARMUP_OPS: usize = 3;

impl OpCounts {
    pub fn for_seconds(seconds: f64) -> Self {
        let scale = seconds / RUN_SECONDS as f64;
        let rounds = ((10.0 * scale).round() as usize).clamp(2, 10);
        let per_round = |total: usize| (total as f64 * scale / rounds as f64).round() as usize;
        OpCounts {
            rounds,
            block_w: per_round(TIMED_OPS)
                .next_multiple_of(SEGMENT_OPS)
                .max(SEGMENT_OPS),
            block_w1: per_round(TIMED_OPS_W1).max(3),
        }
    }
}

/// Shrinks a planned per-block count when the warm-up shows the host so
/// slow that the phase (`rounds` blocks) would overrun its share of
/// `--seconds` by more than half — the driver caps total time. Never
/// triggers on the recording host when it is quiet.
pub fn cap_block(
    planned: usize,
    rounds: usize,
    fastest_warm_ms: f64,
    share_s: f64,
    what: &str,
) -> usize {
    let budget_ms = 1.5 * share_s * 1e3;
    if (planned * rounds) as f64 * fastest_warm_ms <= budget_ms {
        return planned;
    }
    let capped = ((budget_ms / fastest_warm_ms / rounds as f64) as usize).clamp(3, planned);
    println!(
        "WARNING: {what}: fastest warm-up op took {fastest_warm_ms:.1} ms, {rounds} x {planned} ops would \
         overrun {share_s:.0} s by more than half; measuring {rounds} x {capped} ops instead"
    );
    capped
}

/// Runs `op` under `catch_unwind`, folding a panic into a failed op.
pub fn contained(op: &mut dyn FnMut() -> OpResult) -> OpResult {
    match catch_unwind(AssertUnwindSafe(op)) {
        Ok(r) => r,
        Err(p) => Err(p
            .downcast_ref::<&str>()
            .map(|s| s.to_string())
            .or_else(|| p.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "panic with a non-string payload".to_string())),
    }
}

/// Ops per rate segment: `ops_per_s` is the rate over the fastest run of
/// this many back-to-back ops. Also the block length of the traced run.
pub const SEGMENT_OPS: usize = 10;

/// Per-op samples of one timed phase, taken in blocks.
///
/// On the shared recording host the machine's speed shifts for seconds at
/// a time (a neighbour's burst slows every op by 15-30 %), so a statistic
/// over the whole phase mostly measures how much of the phase was quiet.
/// The gating figures therefore come from the *quietest block*: the fast
/// decile of the block whose fast decile is lowest, and the rate of the
/// fastest run of `SEGMENT_OPS` ops.
#[derive(Default)]
pub struct Phase {
    /// Wall ms of each successful op, in order.
    pub ms: Vec<f64>,
    /// Fast decile of each block.
    pub block_p10: Vec<f64>,
    /// Ops per second over each run of `SEGMENT_OPS` successful ops.
    pub segment_rates: Vec<f64>,
    pub attempted: usize,
    pub failed: usize,
    pub first_failure: Option<String>,
    pub wall_s: f64,
    /// Process CPU seconds over the blocks (0 where `/proc` has none).
    pub cpu_s: f64,
}

impl Phase {
    fn fail(&mut self, why: String) {
        self.failed += 1;
        self.first_failure.get_or_insert(why);
    }

    /// Adds one block: `results` pairs each op's outcome with its wall
    /// ms, `done_at_s` has the completion time of each op since the
    /// block started.
    pub fn record_block(
        &mut self,
        results: Vec<(OpResult, f64)>,
        done_at_s: &[f64],
        wall_s: f64,
        cpu_s: f64,
    ) {
        let mut ms = Vec::new();
        let mut done = Vec::new();
        for ((result, op_ms), &at) in results.into_iter().zip(done_at_s) {
            self.attempted += 1;
            match result {
                Ok(loss) if loss.is_finite() => {
                    ms.push(op_ms);
                    done.push(at);
                }
                Ok(loss) => self.fail(format!("non-finite loss {loss}")),
                Err(why) => self.fail(why),
            }
        }
        if !ms.is_empty() {
            self.block_p10.push(stats::p10(&ms));
        }
        let mut segment_start = 0.0;
        for segment in done.chunks_exact(SEGMENT_OPS) {
            let end = segment[SEGMENT_OPS - 1];
            self.segment_rates
                .push(SEGMENT_OPS as f64 / (end - segment_start).max(1e-9));
            segment_start = end;
        }
        self.ms.extend(ms);
        self.wall_s += wall_s;
        self.cpu_s += cpu_s;
    }

    /// Process CPU ms per successful op, where the host reports CPU time.
    pub fn cpu_ms_per_op(&self) -> Option<f64> {
        (self.cpu_s > 0.0 && !self.ms.is_empty()).then(|| self.cpu_s * 1e3 / self.ms.len() as f64)
    }

    /// Fast decile of the quietest block, ms.
    pub fn p10(&self) -> f64 {
        assert!(
            !self.block_p10.is_empty(),
            "every op of the phase failed: {}",
            self.first_failure.as_deref().unwrap_or("?")
        );
        self.block_p10.iter().copied().fold(f64::INFINITY, f64::min)
    }

    /// Ops per second over the fastest run of `SEGMENT_OPS` ops.
    pub fn rate(&self) -> f64 {
        self.segment_rates.iter().copied().fold(0.0, f64::max)
    }
}

/// Process CPU seconds since `start` (a `host::process_cpu_s` reading).
pub fn cpu_since(start: Option<f64>) -> f64 {
    start.zip(host::process_cpu_s()).map_or(0.0, |(a, b)| b - a)
}

/// Times one block of `n` sequential ops into `phase`.
pub fn run_block(phase: &mut Phase, n: usize, op: &mut dyn FnMut() -> OpResult) {
    let cpu0 = host::process_cpu_s();
    let start = Instant::now();
    let mut results = Vec::with_capacity(n);
    let mut done_at_s = Vec::with_capacity(n);
    for _ in 0..n {
        let t0 = Instant::now();
        let r = contained(op);
        results.push((r, t0.elapsed().as_secs_f64() * 1e3));
        done_at_s.push(start.elapsed().as_secs_f64());
    }
    phase.record_block(
        results,
        &done_at_s,
        start.elapsed().as_secs_f64(),
        cpu_since(cpu0),
    );
}

/// A phase of `n` ops in blocks of `block`.
pub fn run_phase(n: usize, block: usize, op: &mut dyn FnMut() -> OpResult) -> Phase {
    let mut phase = Phase::default();
    let mut left = n;
    while left > 0 {
        let this = block.min(left);
        run_block(&mut phase, this, op);
        left -= this;
    }
    phase
}

/// One named correctness check.
pub struct Check {
    pub name: &'static str,
    pub ok: bool,
    pub detail: String,
}

impl Check {
    pub fn new(name: &'static str, ok: bool, detail: String) -> Self {
        Check { name, ok, detail }
    }

    /// `|a - b| <= tol * max(|a|, |b|)`.
    pub fn close(name: &'static str, a: f64, b: f64, tol: f64) -> Self {
        let rel = (a - b).abs() / a.abs().max(b.abs()).max(f64::MIN_POSITIVE);
        Check::new(
            name,
            rel <= tol,
            format!("{a:.6e} vs {b:.6e}, rel {rel:.2e} (tol {tol:.0e})"),
        )
    }
}

/// Everything a run reports.
#[derive(Default)]
pub struct Outcome {
    pub metrics: Vec<(&'static str, f64)>,
    pub checks: Vec<Check>,
    pub attempted: usize,
    pub failed: usize,
    pub first_failure: Option<String>,
    pub steal_share: Option<f64>,
    pub disturbed_share: f64,
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn put(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            !self.metrics.iter().any(|(n, _)| *n == name),
            "{name} reported twice"
        );
        self.metrics.push((name, value));
    }

    pub fn put_opt(&mut self, name: &'static str, value: Option<f64>) {
        if let Some(v) = value {
            self.put(name, v);
        }
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| *v)
    }

    /// The spread of a phase's ops — diagnostics, never gating.
    pub fn put_op_distribution(&mut self, phase: &Phase) {
        let sorted = stats::sorted(&phase.ms);
        self.put("core.op_ms_p50", stats::quantile_sorted(&sorted, 0.5));
        self.put("core.op_ms_p90", stats::quantile_sorted(&sorted, 0.9));
        self.put("core.op_ms_max", *sorted.last().expect("non-empty phase"));
        self.disturbed_share = stats::disturbed_share(&phase.ms);
        self.put("core.disturbed_share", self.disturbed_share);
        self.put_opt("core.cpu_ms_op", phase.cpu_ms_per_op());
    }

    /// Probes the host (`Machine::detect`) and reports the roofline
    /// denominators.
    pub fn put_host(&mut self) -> znn_sim::Machine {
        let t0 = Instant::now();
        let machine = znn_sim::Machine::detect();
        self.put("sim.detect_ms", t0.elapsed().as_secs_f64() * 1e3);
        self.put("sim.host_gflops", machine.gflops);
        self.put("sim.host_gbs", machine.bandwidth_gbs);
        machine
    }

    pub fn absorb(&mut self, phase: &Phase) {
        self.attempted += phase.attempted;
        self.failed += phase.failed;
        if self.first_failure.is_none() {
            self.first_failure.clone_from(&phase.first_failure);
        }
    }
}

pub const MIB: f64 = (1 << 20) as f64;

/// `PoolSet` counters at one instant: hits, misses, bytes leased.
pub struct PoolCounters(usize, usize, usize);

impl PoolCounters {
    pub fn read(pools: &znn_alloc::PoolSet) -> Self {
        let s = pools.stats();
        PoolCounters(s.hits(), s.misses(), s.bytes_leased())
    }
}

impl Outcome {
    /// Allocator metrics over the `ops` ops run since `before` was read.
    pub fn put_alloc(&mut self, pools: &znn_alloc::PoolSet, before: &PoolCounters, ops: f64) {
        let after = PoolCounters::read(pools);
        let (hits, misses) = (after.0 - before.0, after.1 - before.1);
        self.put(
            "alloc.hit_rate",
            hits as f64 / (hits + misses).max(1) as f64,
        );
        self.put("alloc.misses_steady", misses as f64);
        self.put("alloc.resident_mb", pools.resident_bytes() as f64 / MIB);
        self.put(
            "alloc.leased_mb_op",
            (after.2 - before.2) as f64 / ops / MIB,
        );
    }
}

/// Relative difference of two images: `max|a-b| / max|a|`.
pub fn rel_diff(a: &znn_tensor::Image, b: &znn_tensor::Image) -> f64 {
    let scale = a
        .as_slice()
        .iter()
        .fold(0.0f32, |m, v| m.max(v.abs()))
        .max(f32::MIN_POSITIVE);
    (a.max_abs_diff(b) / scale) as f64
}
