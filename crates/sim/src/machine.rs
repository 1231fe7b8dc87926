//! Machine models for the Table V hardware.

use std::sync::OnceLock;
use std::time::{Duration, Instant};

/// Wall-clock budget of each host microprobe.
const PROBE_BUDGET: Duration = Duration::from_millis(5);

/// A shared-memory machine model: core count, hardware threads, clock,
/// and an SMT throughput curve.
///
/// `smt_throughput[t-1]` is the *total* throughput of one core running
/// `t` threads, relative to one thread on one core. Desktop/server
/// Xeons gain ~25–30% from the second hyperthread; Xeon Phi's in-order
/// cores need at least two threads to approach peak and keep gaining
/// (more slowly) up to four — matching the three-slope curves of Fig 5.
#[derive(Clone, Debug)]
pub struct Machine {
    /// Marketing name.
    pub name: &'static str,
    /// Physical cores.
    pub cores: usize,
    /// Hardware threads (cores × SMT ways).
    pub hw_threads: usize,
    /// Clock in GHz (scales absolute, not relative, results).
    pub ghz: f64,
    /// Total core throughput at 1..=ways threads.
    pub smt_throughput: Vec<f64>,
    /// Sustained single-thread f32 throughput in GFLOP/s — the
    /// absolute price of one FLOP for planners that turn FLOP counts
    /// into wall time. Nominal for the Table V machines, measured by a
    /// microprobe for [`Machine::detect`]; either way it is only a
    /// *prior* the planner calibrates online.
    pub gflops: f64,
    /// Sustained single-thread memory bandwidth in GB/s (prices
    /// bandwidth-bound sweeps; same prior status as `gflops`).
    pub bandwidth_gbs: f64,
}

impl Machine {
    /// 8-core Intel Xeon E5-2666 v3 (Amazon EC2 c4.4xlarge).
    pub fn xeon_e5_8core() -> Machine {
        Machine {
            name: "8-core Xeon E5-2666 v3",
            cores: 8,
            hw_threads: 16,
            ghz: 2.9,
            smt_throughput: vec![1.0, 1.3],
            gflops: 23.2,
            bandwidth_gbs: 55.0,
        }
    }

    /// 18-core Intel Xeon E5-2666 v3 (Amazon EC2 c4.8xlarge).
    pub fn xeon_e5_18core() -> Machine {
        Machine {
            name: "18-core Xeon E5-2666 v3",
            cores: 18,
            hw_threads: 36,
            ghz: 2.9,
            smt_throughput: vec![1.0, 1.3],
            gflops: 23.2,
            bandwidth_gbs: 55.0,
        }
    }

    /// 40-core (4-way) Intel Xeon E7-4850.
    pub fn xeon_e7_40core() -> Machine {
        Machine {
            name: "40-core Xeon E7-4850",
            cores: 40,
            hw_threads: 80,
            ghz: 2.0,
            smt_throughput: vec![1.0, 1.3],
            gflops: 8.0,
            bandwidth_gbs: 30.0,
        }
    }

    /// 60-core Intel Xeon Phi 5110P (Knights Corner), 4 hardware
    /// threads per core; a single in-order thread cannot saturate a
    /// core, giving the three-slope curve of Fig 5(d)/(h).
    pub fn xeon_phi() -> Machine {
        Machine {
            name: "Xeon Phi 5110P",
            cores: 60,
            hw_threads: 240,
            ghz: 1.053,
            smt_throughput: vec![1.0, 1.7, 1.85, 1.95],
            gflops: 8.4,
            bandwidth_gbs: 40.0,
        }
    }

    /// A machine model of the **current host**: core count from the
    /// OS, single-thread FLOP and bandwidth rates from one-shot
    /// microprobes (a vectorisable multiply-add sweep and a large
    /// `memcpy`, each bounded by time, ~5 ms, not by iteration
    /// count). The probes are deliberately rough — the model is a
    /// planner *prior*, refined online from measured round times —
    /// but they anchor absolute predictions to the right order of
    /// magnitude on unknown hardware, where a hardcoded Table V model
    /// could be off by 10×. Every call probes afresh; engines share
    /// [`Machine::host`].
    ///
    /// SMT topology is not probed: the model treats every hardware
    /// thread as a core with a flat throughput curve, which makes
    /// `total_throughput` linear in the worker count — the safe
    /// default when the OS only reports `available_parallelism`.
    pub fn detect() -> Machine {
        let hw = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        Machine {
            name: "host (detected)",
            cores: hw,
            hw_threads: hw,
            ghz: 0.0, // unknown; absolute speed lives in `gflops`
            smt_throughput: vec![1.0],
            gflops: flop_probe(),
            bandwidth_gbs: bandwidth_probe(),
        }
    }

    /// The current host's model, probed by [`Machine::detect`] on first
    /// use and cached for the life of the process — what every engine
    /// that builds its own planner prices through, so N engines probe
    /// once and agree on the fan-out sweep.
    pub fn host() -> &'static Machine {
        static HOST: OnceLock<Machine> = OnceLock::new();
        HOST.get_or_init(Machine::detect)
    }

    /// All Table V machines.
    pub fn table_v() -> Vec<Machine> {
        vec![
            Machine::xeon_e5_8core(),
            Machine::xeon_e5_18core(),
            Machine::xeon_e7_40core(),
            Machine::xeon_phi(),
        ]
    }

    /// SMT ways per core.
    pub fn ways(&self) -> usize {
        self.hw_threads / self.cores
    }

    /// Total machine throughput with `workers` threads (workers spread
    /// round-robin over cores), in single-thread units.
    pub fn total_throughput(&self, workers: usize) -> f64 {
        let workers = workers.min(self.hw_threads);
        let base = workers / self.cores; // threads on every core
        let extra = workers % self.cores; // cores with one more
        let t_of = |t: usize| -> f64 {
            if t == 0 {
                0.0
            } else {
                self.smt_throughput[(t - 1).min(self.smt_throughput.len() - 1)]
            }
        };
        (self.cores - extra) as f64 * t_of(base) + extra as f64 * t_of(base + 1)
    }

    /// Per-worker speed with `workers` active (uniform approximation).
    pub fn worker_speed(&self, workers: usize) -> f64 {
        if workers == 0 {
            return 0.0;
        }
        let workers = workers.min(self.hw_threads);
        self.total_throughput(workers) / workers as f64
    }
}

/// Repeats `work` until [`PROBE_BUDGET`] is spent — so a slow or
/// contended host gets a rough figure, never a long stall — and
/// returns (repetitions, elapsed seconds).
fn run_for_budget(mut work: impl FnMut()) -> (f64, f64) {
    let start = Instant::now();
    let mut reps = 0.0;
    loop {
        work();
        reps += 1.0;
        let dt = start.elapsed();
        if dt >= PROBE_BUDGET {
            return (reps, dt.as_secs_f64());
        }
    }
}

/// Measured single-thread f32 throughput, GFLOP/s: 32 independent
/// `a * m + x` chains (eight SSE, four AVX2 or two AVX-512 vectors —
/// enough to cover the multiply→add latency), written as plain
/// arithmetic so the compiler vectorises them whatever the target
/// features. `f32::mul_add` without `+fma` is a libm call per lane,
/// which measured the call, not the core.
fn flop_probe() -> f64 {
    const LANES: usize = 32;
    const BLOCK: u32 = 4096;
    let mut acc = [1.0f32; LANES];
    let mul = std::hint::black_box(0.999_999f32);
    let (blocks, secs) = run_for_budget(|| {
        for i in 0..BLOCK {
            let x = (i & 1023) as f32 * 1e-9;
            for a in acc.iter_mut() {
                *a = *a * mul + x;
            }
        }
    });
    std::hint::black_box(acc);
    let flops = blocks * (BLOCK as usize * LANES * 2) as f64; // mul + add per lane
    (flops / secs / 1e9).max(0.1)
}

/// Measured single-thread copy bandwidth, GB/s (read + write bytes),
/// over buffers far larger than L2. The first copy faults the
/// destination's pages in and is not timed.
fn bandwidth_probe() -> f64 {
    const WORDS: usize = 2 << 20; // 8 MiB per buffer
    let src = vec![1u32; WORDS];
    let mut dst = vec![0u32; WORDS];
    dst.copy_from_slice(&src);
    let (reps, secs) = run_for_budget(|| {
        dst.copy_from_slice(&src);
        std::hint::black_box(&mut dst);
    });
    let bytes = reps * (2 * WORDS * std::mem::size_of::<u32>()) as f64;
    (bytes / secs / 1e9).max(0.1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_v_matches_paper() {
        let ms = Machine::table_v();
        assert_eq!(ms.len(), 4);
        assert_eq!(
            ms.iter().map(|m| m.cores).collect::<Vec<_>>(),
            vec![8, 18, 40, 60]
        );
        assert_eq!(
            ms.iter().map(|m| m.hw_threads).collect::<Vec<_>>(),
            vec![16, 36, 80, 240]
        );
    }

    #[test]
    fn throughput_is_linear_up_to_core_count() {
        let m = Machine::xeon_e5_18core();
        for w in 1..=18 {
            assert!((m.total_throughput(w) - w as f64).abs() < 1e-9);
        }
    }

    #[test]
    fn hyperthreads_add_less_than_cores() {
        let m = Machine::xeon_e5_8core();
        let at_cores = m.total_throughput(8);
        let at_ht = m.total_throughput(16);
        assert!(at_ht > at_cores);
        let ht_gain = at_ht - at_cores;
        assert!(ht_gain < at_cores * 0.5, "HT gain too large: {ht_gain}");
    }

    #[test]
    fn phi_keeps_gaining_to_four_threads_per_core() {
        let m = Machine::xeon_phi();
        let t60 = m.total_throughput(60);
        let t120 = m.total_throughput(120);
        let t240 = m.total_throughput(240);
        assert!(t120 > t60 * 1.3, "second thread should add a lot");
        assert!(t240 > t120, "threads 3-4 still add something");
        assert!(t240 - t120 < t120 - t60, "but less than the second");
    }

    #[test]
    fn oversubscription_is_capped() {
        let m = Machine::xeon_e5_8core();
        assert_eq!(m.total_throughput(1000), m.total_throughput(16));
    }

    #[test]
    fn detect_reports_sane_host_numbers() {
        let m = Machine::detect();
        assert!(m.cores >= 1);
        assert_eq!(m.cores, m.hw_threads);
        // microprobes can be slow under emulation/contention but must
        // land at a physically plausible order of magnitude
        assert!(m.gflops > 0.05 && m.gflops < 1000.0, "gflops {}", m.gflops);
        assert!(
            m.bandwidth_gbs > 0.05 && m.bandwidth_gbs < 2000.0,
            "bandwidth {}",
            m.bandwidth_gbs
        );
        // flat SMT curve → throughput linear in workers
        assert!((m.total_throughput(m.cores) - m.cores as f64).abs() < 1e-9);
    }

    #[test]
    fn detect_is_time_bounded() {
        // each probe stops at its ~5 ms budget; the bound here leaves
        // room for page faults and a contended test host, and is still
        // far below the old iteration-counted probe (~230 ms)
        let t0 = Instant::now();
        let m = Machine::detect();
        let dt = t0.elapsed();
        assert!(dt < Duration::from_millis(100), "detect took {dt:?}");
        assert!(m.gflops.is_finite() && m.gflops > 0.0);
        assert!(m.bandwidth_gbs.is_finite() && m.bandwidth_gbs > 0.0);
    }

    #[test]
    fn host_is_probed_once_per_process() {
        // two probes never time identically; two reads of one do
        let (a, b) = (Machine::host(), Machine::host());
        assert!(std::ptr::eq(a, b));
        assert_eq!(a.gflops.to_bits(), b.gflops.to_bits());
        assert_eq!(a.name, "host (detected)");
    }

    #[test]
    fn table_v_priors_have_absolute_rates() {
        for m in Machine::table_v() {
            assert!(m.gflops > 0.0 && m.bandwidth_gbs > 0.0, "{}", m.name);
        }
    }

    #[test]
    fn worker_speed_decreases_when_sharing_cores() {
        let m = Machine::xeon_e5_8core();
        assert!(m.worker_speed(8) > m.worker_speed(16));
        assert!((m.worker_speed(1) - 1.0).abs() < 1e-9);
    }
}
