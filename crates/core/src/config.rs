//! Engine configuration.

use std::path::PathBuf;
use std::sync::Arc;
use znn_alloc::PoolSet;
use znn_fault::FaultPlan;
use znn_ops::{ConvMethod, Loss};
use znn_plan::{PlanConfig, Planner};
use znn_sched::QueuePolicy;

/// Where and how often training snapshots its state to disk.
#[derive(Clone, Debug)]
pub struct CheckpointConfig {
    /// Directory snapshots are written into (created if missing).
    pub dir: PathBuf,
    /// Write a snapshot every this many completed rounds (and always
    /// one at the end of a run). `0` disables periodic snapshots but
    /// keeps the final one.
    pub every: u64,
    /// Newest snapshots retained on disk; older ones are pruned after
    /// each write. `0` keeps all.
    pub keep: usize,
}

impl CheckpointConfig {
    /// Snapshots into `dir` every 25 rounds, keeping the newest 3.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        CheckpointConfig {
            dir: dir.into(),
            every: 25,
            keep: 3,
        }
    }
}

/// Thresholds for the health sentinels and the rollback loop
/// (`Trainer::run_recoverable`).
#[derive(Clone, Debug)]
pub struct HealthPolicy {
    /// Healthy-loss window the divergence detector compares against: a
    /// round is divergent when its loss exceeds `divergence_factor ×`
    /// the rolling median of the last `divergence_window` healthy
    /// losses. `0` disables divergence detection (non-finite values
    /// still trip the sentinels).
    pub divergence_window: usize,
    /// Multiple of the rolling median loss that counts as divergence.
    pub divergence_factor: f64,
    /// Consecutive failed rounds tolerated before training aborts with
    /// a diagnostic.
    pub max_retries: u32,
    /// Learning-rate multiplier applied on each rollback (compounds
    /// across consecutive failures, resets after a healthy round).
    pub lr_backoff: f64,
}

impl Default for HealthPolicy {
    fn default() -> Self {
        HealthPolicy {
            divergence_window: 16,
            divergence_factor: 10.0,
            max_retries: 3,
            lr_backoff: 0.5,
        }
    }
}

/// How the engine chooses between direct and FFT convolution (§IV).
///
/// Every policy resolves to one [`znn_plan::NetPlan`] at construction
/// (`Znn::net_plan`) and the engine executes only that plan; a caller
/// who already holds a plan passes it to `Znn::with_plan` instead.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum ConvPolicy {
    /// Price both methods per conv edge through the `znn-plan` cost
    /// model and keep the cheaper — the paper's layerwise choice, made
    /// without timing anything. Methods and pads are a pure function of
    /// (graph, output shape, `memoize_fft`), the same on every host and
    /// under any load; only the bit-safe fan-out is host-dependent.
    #[default]
    Autotune,
    /// Always direct convolution.
    ForceDirect,
    /// Always FFT convolution.
    ForceFft,
}

/// What a [`ConvPolicy`] resolves to: the one source of conv methods
/// and pads shared by `Znn` and `DenseNet`.
pub(crate) enum Chooser {
    /// One method everywhere, `good_shape` pads. No planner or machine
    /// model exists on this path.
    Forced(ConvMethod),
    /// Per-geometry argmin of the planner's cost model.
    Priced(Arc<Planner>),
}

impl ConvPolicy {
    /// Resolves the policy — the only place a `ConvPolicy` is matched
    /// to methods. Under `Autotune`, `planner` is the caller's shared
    /// planner, or `None` for a private one over the once-per-process
    /// host machine model, pricing FFT edges with `memoize_fft`.
    pub(crate) fn chooser(self, planner: Option<&Arc<Planner>>, memoize_fft: bool) -> Chooser {
        match self {
            ConvPolicy::ForceDirect => Chooser::Forced(ConvMethod::Direct),
            ConvPolicy::ForceFft => Chooser::Forced(ConvMethod::Fft),
            ConvPolicy::Autotune => Chooser::Priced(match planner {
                Some(p) => Arc::clone(p),
                None => Arc::new(Planner::new(PlanConfig {
                    memoize_fft,
                    ..PlanConfig::host()
                })),
            }),
        }
    }
}

/// Training-engine configuration.
#[derive(Clone, Debug)]
pub struct TrainConfig {
    /// Worker threads (the paper's "predetermined number of workers").
    pub workers: usize,
    /// Global queue policy (§VI-A default, §X alternatives).
    pub queue: QueuePolicy,
    /// Use the §X work-stealing scheduler instead of the global
    /// priority queue (priorities are then ignored).
    pub work_stealing: bool,
    /// Worker cap for intra-transform FFT line parallelism. `None`
    /// (the default) shares the scheduler's thread budget: transforms
    /// may fan out across up to [`TrainConfig::workers`] chunks, which
    /// run on the task's own thread and on idle scheduler workers
    /// donating to the engine's fork-join pool — never on extra OS
    /// threads. `Some(1)` forces transforms serial; `Some(n)` caps the
    /// fan-out at `n` chunks. Transforms are bit-for-bit identical for
    /// every value.
    pub fft_threads: Option<usize>,
    /// SGD learning rate η.
    pub learning_rate: f32,
    /// Momentum coefficient (0 disables; classic heavy-ball).
    pub momentum: f32,
    /// L2 weight decay coefficient (0 disables).
    pub weight_decay: f32,
    /// Convolution method selection.
    pub conv: ConvPolicy,
    /// The planner [`ConvPolicy::Autotune`] prices through (unused by
    /// the forced policies). `None` (the default): the engine builds
    /// its own over the once-per-process host machine model. `Some`:
    /// share one, to read its calibration trajectory; its
    /// `PlanConfig::memoize_fft` must equal [`TrainConfig::memoize_fft`].
    pub planner: Option<Arc<Planner>>,
    /// Memoize FFTs of images and kernels across passes (Table II).
    pub memoize_fft: bool,
    /// Loss function.
    pub loss: Loss,
    /// Dropout probability on hidden transfer edges (§XI extension);
    /// `None` disables. Inverted dropout: outputs scale by `1/(1-p)` at
    /// train time, inference needs no correction.
    pub dropout: Option<f32>,
    /// Seed for parameter init and dropout masks.
    pub seed: u64,
    /// The §VII-C recycling pools every hot-path buffer is leased from:
    /// images, half-spectra, FFT scratch, dropout masks, direct-conv
    /// outputs. The default is the process-wide [`PoolSet::global`], so
    /// all engines in a process share one flat footprint and
    /// steady-state rounds allocate nothing; `None` falls back to plain
    /// `Vec` allocation (the pre-pool behaviour, kept for ablation and
    /// the CLI's `--no-pool`). Pooling never changes a computed bit.
    pub pools: Option<Arc<PoolSet>>,
    /// Durable-checkpoint settings; `None` (the default) trains
    /// without touching disk.
    pub checkpoint: Option<CheckpointConfig>,
    /// Health-sentinel thresholds for divergence detection and
    /// rollback.
    pub health: HealthPolicy,
    /// Deterministic fault-injection plan (tests and the `fault_soak`
    /// bench). `None` — the default and the production setting — costs
    /// one pointer check per potential fault site.
    pub faults: Option<Arc<FaultPlan>>,
}

impl Default for TrainConfig {
    fn default() -> Self {
        TrainConfig {
            workers: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
            queue: QueuePolicy::Priority,
            work_stealing: false,
            fft_threads: None,
            learning_rate: 0.01,
            momentum: 0.0,
            weight_decay: 0.0,
            conv: ConvPolicy::Autotune,
            planner: None,
            memoize_fft: true,
            loss: Loss::Mse,
            dropout: None,
            seed: 0x5EED,
            pools: Some(PoolSet::global()),
            checkpoint: None,
            health: HealthPolicy::default(),
            faults: None,
        }
    }
}

impl TrainConfig {
    /// A deterministic, single-purpose config for tests: direct conv,
    /// no momentum/decay/dropout.
    pub fn test_default(workers: usize) -> Self {
        TrainConfig {
            workers,
            conv: ConvPolicy::ForceDirect,
            memoize_fft: false,
            ..Default::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_sane() {
        let c = TrainConfig::default();
        assert!(c.workers >= 1);
        assert_eq!(c.conv, ConvPolicy::Autotune);
        assert!(c.planner.is_none(), "the engine builds its own planner");
        assert!(c.memoize_fft);
        assert!(c.dropout.is_none());
        // FFT line parallelism shares the scheduler's budget by default
        assert!(c.fft_threads.is_none());
        // fault tolerance machinery is fully off by default
        assert!(c.checkpoint.is_none());
        assert!(c.faults.is_none());
        assert!(c.health.max_retries >= 1);
        // hot-path buffers lease from the process-wide pool by default
        assert!(c
            .pools
            .as_ref()
            .is_some_and(|p| Arc::ptr_eq(p, &PoolSet::global())));
    }

    #[test]
    fn test_default_pins_determinism_knobs() {
        let c = TrainConfig::test_default(2);
        assert_eq!(c.workers, 2);
        assert_eq!(c.conv, ConvPolicy::ForceDirect);
        assert!(!c.memoize_fft);
    }
}
