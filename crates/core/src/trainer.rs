//! A training-loop driver on top of [`crate::Znn`]: datasets, learning
//! rate schedules, progress reporting, and parameter checkpoints.
//!
//! The engine itself (following the paper) only knows about single
//! rounds; this module packages the loop every user writes anyway.

use crate::checkpoint::{latest_valid, Checkpoint};
use crate::data::Dataset;
use crate::engine::Znn;
use znn_fault::FaultKind;
use znn_graph::init::ParamSet;
use znn_tensor::Image;

/// Learning-rate schedules.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum LrSchedule {
    /// Constant η.
    Constant,
    /// `η · decay^(round / step)` (staircase exponential decay).
    StepDecay {
        /// Multiplier applied every `every` rounds.
        decay: f32,
        /// Interval in rounds.
        every: u64,
    },
    /// Linear warm-up from `η/10` over the given number of rounds, then
    /// constant.
    Warmup {
        /// Warm-up length in rounds.
        rounds: u64,
    },
}

impl LrSchedule {
    /// The multiplier applied to the base learning rate at `round`.
    pub fn factor(&self, round: u64) -> f32 {
        match *self {
            LrSchedule::Constant => 1.0,
            LrSchedule::StepDecay { decay, every } => {
                decay.powi((round / every.max(1)) as i32)
            }
            LrSchedule::Warmup { rounds } => {
                if rounds == 0 || round >= rounds {
                    1.0
                } else {
                    0.1 + 0.9 * (round as f32 / rounds as f32)
                }
            }
        }
    }
}

/// Progress record for one reporting window.
#[derive(Clone, Copy, Debug)]
pub struct Progress {
    /// First round of the window.
    pub round: u64,
    /// Mean loss over the window.
    pub mean_loss: f64,
    /// Learning-rate factor in effect.
    pub lr_factor: f32,
}

/// How a recoverable training run ended (other than in error).
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum TrainOutcome {
    /// All requested rounds ran (possibly after recovered faults).
    Completed {
        /// Loss of the final round.
        final_loss: f64,
    },
    /// A simulated crash (fault injection, [`FaultKind::Crash`]) ended
    /// the run between rounds; resume from the checkpoint directory.
    Interrupted {
        /// Rounds completed when the crash fired.
        at_round: u64,
    },
}

/// Why a recoverable training run gave up.
#[derive(Debug)]
pub enum TrainError {
    /// The same round failed health checks more than
    /// [`crate::HealthPolicy::max_retries`] times in a row, each retry
    /// starting from the last good state with a backed-off learning
    /// rate.
    RetriesExhausted {
        /// The round that kept failing (1-based).
        round: u64,
        /// Rollback-and-retry attempts made.
        retries: u32,
        /// What the last failure looked like.
        diagnostic: String,
    },
    /// Writing a durable checkpoint failed.
    Checkpoint(std::io::Error),
}

impl std::fmt::Display for TrainError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TrainError::RetriesExhausted {
                round,
                retries,
                diagnostic,
            } => write!(
                f,
                "training aborted at round {round} after {retries} rollback retries: {diagnostic}"
            ),
            TrainError::Checkpoint(e) => write!(f, "checkpoint write failed: {e}"),
        }
    }
}

impl std::error::Error for TrainError {}

/// In-memory copy of the last known-good training state, captured
/// after every healthy round (cheap next to a round: two buffer
/// copies, no disk).
struct LastGood {
    round: u64,
    params: ParamSet,
    velocities: Vec<Option<Image>>,
}

/// The training loop driver.
///
/// The engine's learning rate is fixed at construction, so the schedule
/// is applied by shrinking the per-round target residual (`t' = y +
/// f·(t−y)`), which scales the MSE gradient by exactly the schedule
/// factor — equivalent to scaling the SGD step.
pub struct Trainer<'a, D: Dataset> {
    znn: &'a Znn,
    data: D,
    schedule: LrSchedule,
    round: u64,
    history: Vec<f64>,
}

impl<'a, D: Dataset> Trainer<'a, D> {
    /// A trainer for `znn` drawing samples from `data`.
    pub fn new(znn: &'a Znn, data: D) -> Self {
        Trainer {
            znn,
            data,
            schedule: LrSchedule::Constant,
            round: 0,
            history: Vec::new(),
        }
    }

    /// Sets the learning-rate schedule.
    pub fn with_schedule(mut self, schedule: LrSchedule) -> Self {
        self.schedule = schedule;
        self
    }

    /// Runs `rounds` training rounds; invokes `report` every
    /// `report_every` rounds with windowed statistics.
    pub fn run(
        &mut self,
        rounds: u64,
        report_every: u64,
        mut report: impl FnMut(Progress),
    ) -> f64 {
        let mut window = Vec::new();
        let mut last = 0.0;
        for _ in 0..rounds {
            let factor = self.schedule.factor(self.round);
            let (inputs, mut targets) = self.data.sample(self.round);
            // schedule-by-target-scaling: targets move toward the
            // current output only when factor != 1, which reduces the
            // effective step; constant schedules take the fast path
            if (factor - 1.0).abs() >= f32::EPSILON {
                self.blend_targets(factor, &inputs, &mut targets);
            }
            last = self.znn.train_step(&inputs, &targets);
            window.push(last);
            self.history.push(last);
            self.round += 1;
            if self.round.is_multiple_of(report_every.max(1)) {
                report(Progress {
                    round: self.round - window.len() as u64,
                    mean_loss: window.iter().sum::<f64>() / window.len() as f64,
                    lr_factor: factor,
                });
                window.clear();
            }
        }
        last
    }

    /// Resumes from the newest valid snapshot in the configured
    /// checkpoint directory ([`crate::CheckpointConfig::dir`]), if any:
    /// parameters, optimizer velocities and the round counter are all
    /// restored, so the continuation is bit-identical to a run that was
    /// never interrupted. Returns the restored round, or `None` when no
    /// checkpointing is configured or no valid snapshot exists (corrupt
    /// ones are skipped, falling back to the previous snapshot).
    ///
    /// A snapshot taken from another network — a different edge count,
    /// kernel shape, or set of biases and velocities — is refused with
    /// [`std::io::ErrorKind::InvalidData`] naming the first mismatch,
    /// before anything is installed.
    pub fn resume(&mut self) -> std::io::Result<Option<u64>> {
        let Some(cc) = &self.znn.config().checkpoint else {
            return Ok(None);
        };
        match latest_valid(&cc.dir)? {
            Some(c) => {
                fits(&c, &self.znn.params()).map_err(|what| {
                    std::io::Error::new(
                        std::io::ErrorKind::InvalidData,
                        format!(
                            "checkpoint of round {} in {} does not fit this network: {what}",
                            c.round,
                            cc.dir.display()
                        ),
                    )
                })?;
                self.znn.set_params(&c.params);
                self.znn.set_optimizer_state(&c.velocities);
                self.znn.set_round(c.round);
                self.round = c.round;
                Ok(Some(c.round))
            }
            None => Ok(None),
        }
    }

    /// Like [`Trainer::run`], but fault tolerant. Runs `rounds` rounds
    /// with three layers of protection:
    ///
    /// 1. **Panic containment** — a panicking task fails its round
    ///    ([`Znn::try_train_step`]), not the process.
    /// 2. **Health sentinels** — after each round: the loss must be
    ///    finite, must not exceed [`crate::HealthPolicy`]'s
    ///    `divergence_factor` × the rolling median of recent healthy
    ///    losses, and every parameter must be finite.
    /// 3. **Rollback with backoff** — an unhealthy round rolls back to
    ///    the last good state (in memory; captured after every healthy
    ///    round) and retries the *same* round with the learning rate
    ///    scaled down by `lr_backoff` per consecutive failure. More
    ///    than `max_retries` consecutive failures abort with a
    ///    diagnostic; any healthy round resets the backoff.
    ///
    /// With [`crate::CheckpointConfig`] set, durable snapshots are
    /// written every `every` rounds and at the end of the run.
    pub fn run_recoverable(
        &mut self,
        rounds: u64,
        report_every: u64,
        mut report: impl FnMut(Progress),
    ) -> Result<TrainOutcome, TrainError> {
        let health = self.znn.config().health.clone();
        let start = self.round;
        let mut window = Vec::new();
        let mut healthy_losses: Vec<f64> = Vec::new();
        let mut last = 0.0;
        let mut consecutive_failures: u32 = 0;
        let mut backoff = 1.0f64;
        let mut last_good = self.capture_good();
        while self.round - start < rounds {
            let factor = self.schedule.factor(self.round) * backoff as f32;
            let (inputs, mut targets) = self.data.sample(self.round);
            if (factor - 1.0).abs() >= f32::EPSILON {
                self.blend_targets(factor, &inputs, &mut targets);
            }
            let diagnostic = match self.znn.try_train_step(&inputs, &targets) {
                Err(e) => Some(e.to_string()),
                Ok(loss) if !loss.is_finite() => {
                    Some(format!("non-finite loss {loss} at round {}", self.round + 1))
                }
                Ok(loss) if diverged(loss, &healthy_losses, &health) => Some(format!(
                    "loss {loss:.3e} exceeds {}x the rolling median at round {}",
                    health.divergence_factor,
                    self.round + 1
                )),
                Ok(loss) if !self.znn.params_all_finite() => Some(format!(
                    "non-finite parameter after round {} (loss {loss:.3e})",
                    self.round + 1
                )),
                Ok(loss) => {
                    last = loss;
                    None
                }
            };
            if let Some(diagnostic) = diagnostic {
                consecutive_failures += 1;
                if consecutive_failures > health.max_retries {
                    // leave the engine on the last good state, not the
                    // poisoned one, so the caller can keep using it
                    self.rollback(&last_good);
                    return Err(TrainError::RetriesExhausted {
                        round: last_good.round + 1,
                        retries: consecutive_failures - 1,
                        diagnostic,
                    });
                }
                self.rollback(&last_good);
                backoff *= health.lr_backoff;
                continue;
            }
            // healthy round: advance, re-arm the safety net
            consecutive_failures = 0;
            backoff = 1.0;
            self.round += 1;
            window.push(last);
            self.history.push(last);
            healthy_losses.push(last);
            last_good = self.capture_good();
            if self.round.is_multiple_of(report_every.max(1)) {
                report(Progress {
                    round: self.round - window.len() as u64,
                    mean_loss: window.iter().sum::<f64>() / window.len() as f64,
                    lr_factor: factor,
                });
                window.clear();
            }
            let cc = self.znn.config().checkpoint.clone();
            if let Some(cc) = &cc {
                if cc.every > 0 && self.round.is_multiple_of(cc.every) {
                    self.write_checkpoint(cc).map_err(TrainError::Checkpoint)?;
                }
            }
            // fault injection: a crash between rounds — the run ends
            // here with whatever snapshots already reached disk, and a
            // later process resumes from them
            if let Some(faults) = &self.znn.config().faults {
                if faults.take(FaultKind::Crash, self.round) {
                    return Ok(TrainOutcome::Interrupted {
                        at_round: self.round,
                    });
                }
            }
        }
        if let Some(cc) = self.znn.config().checkpoint.clone() {
            self.write_checkpoint(&cc).map_err(TrainError::Checkpoint)?;
        }
        Ok(TrainOutcome::Completed { final_loss: last })
    }

    /// Blends targets toward the current prediction (`t' = y + f·(t −
    /// y)`), scaling the MSE gradient by `factor`.
    fn blend_targets(&self, factor: f32, inputs: &[Image], targets: &mut [Image]) {
        let preds = self.znn.forward(inputs);
        for (t, y) in targets.iter_mut().zip(&preds) {
            let mut blended = y.clone();
            for (b, (&tv, &yv)) in blended
                .as_mut_slice()
                .iter_mut()
                .zip(t.as_slice().iter().zip(y.as_slice()))
            {
                *b = yv + factor * (tv - yv);
            }
            *t = blended;
        }
    }

    fn capture_good(&self) -> LastGood {
        LastGood {
            round: self.round,
            params: self.znn.params(),
            velocities: self.znn.optimizer_state(),
        }
    }

    fn rollback(&mut self, good: &LastGood) {
        self.znn.set_params(&good.params);
        self.znn.set_optimizer_state(&good.velocities);
        self.znn.set_round(good.round);
        self.round = good.round;
    }

    fn write_checkpoint(&self, cc: &crate::CheckpointConfig) -> std::io::Result<()> {
        let ckpt = Checkpoint {
            round: self.round,
            params: self.znn.params(),
            velocities: self.znn.optimizer_state(),
        };
        ckpt.write_atomic(&cc.dir, cc.keep)?;
        Ok(())
    }

    /// Rounds completed so far.
    pub fn rounds_done(&self) -> u64 {
        self.round
    }

    /// Full per-round loss history.
    pub fn history(&self) -> &[f64] {
        &self.history
    }

    /// Parameter checkpoint (forces pending updates).
    pub fn checkpoint(&self) -> ParamSet {
        self.znn.params()
    }

    /// Restores a checkpoint.
    pub fn restore(&self, params: &ParamSet) {
        self.znn.set_params(params);
    }
}

/// Checks snapshot `c` against the live parameters `live`: the same
/// edge count, the same kernel shape (or none) on every edge, a bias
/// exactly where the network has one, and a velocity only on a kernel
/// of its shape. Names the first mismatch.
fn fits(c: &Checkpoint, live: &ParamSet) -> Result<(), String> {
    let n = live.kernels.len();
    if c.params.kernels.len() != n {
        return Err(format!(
            "{} edges in the snapshot, {n} in the network",
            c.params.kernels.len()
        ));
    }
    let shape = |k: Option<&Image>| k.map_or("none".to_string(), |k| k.shape().to_string());
    for i in 0..n {
        let want = live.kernels[i].as_ref().map(Image::shape);
        if c.params.kernels[i].as_ref().map(Image::shape) != want {
            return Err(format!(
                "edge {i} kernel is {} in the snapshot, {} in the network",
                shape(c.params.kernels[i].as_ref()),
                shape(live.kernels[i].as_ref())
            ));
        }
        if c.params.biases[i].is_some() != live.biases[i].is_some() {
            return Err(format!("edge {i} bias presence differs"));
        }
        if let Some(v) = &c.velocities[i] {
            if Some(v.shape()) != want {
                return Err(format!(
                    "edge {i} velocity is {} in the snapshot, kernel {} in the network",
                    v.shape(),
                    shape(live.kernels[i].as_ref())
                ));
            }
        }
    }
    Ok(())
}

/// True when `loss` exceeds the policy's multiple of the rolling
/// median of recent healthy losses. Needs a full window before it can
/// trip — early training is too noisy to judge — and floors the median
/// at `1e-12` so a perfectly-converged run (median 0) doesn't flag
/// every subsequent nonzero loss.
fn diverged(loss: f64, healthy: &[f64], health: &crate::HealthPolicy) -> bool {
    let w = health.divergence_window;
    if w == 0 || healthy.len() < w {
        return false;
    }
    let mut recent: Vec<f64> = healthy[healthy.len() - w..].to_vec();
    recent.sort_by(|a, b| a.partial_cmp(b).expect("healthy losses are finite"));
    let median = recent[w / 2];
    loss > health.divergence_factor * median.max(1e-12)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{RandomDataset, TrainConfig};
    use znn_graph::NetBuilder;
    use znn_ops::Transfer;
    use znn_tensor::Vec3;

    fn tiny() -> Znn {
        let (g, _) = NetBuilder::new("tr", 1)
            .conv(2, Vec3::cube(2))
            .transfer(Transfer::Tanh)
            .conv(1, Vec3::cube(2))
            .build()
            .unwrap();
        Znn::new(g, Vec3::cube(2), TrainConfig::test_default(1)).unwrap()
    }

    fn data(znn: &Znn) -> RandomDataset {
        RandomDataset {
            input_shape: znn.input_shape(),
            output_shape: Vec3::cube(2),
            inputs: 1,
            outputs: 1,
            seed: 7,
        }
    }

    #[test]
    fn schedules_produce_expected_factors() {
        assert_eq!(LrSchedule::Constant.factor(100), 1.0);
        let s = LrSchedule::StepDecay {
            decay: 0.5,
            every: 10,
        };
        assert_eq!(s.factor(0), 1.0);
        assert_eq!(s.factor(10), 0.5);
        assert_eq!(s.factor(25), 0.25);
        let w = LrSchedule::Warmup { rounds: 10 };
        assert!((w.factor(0) - 0.1).abs() < 1e-6);
        assert!(w.factor(5) < 1.0);
        assert_eq!(w.factor(10), 1.0);
    }

    #[test]
    fn run_reports_windows_and_counts_rounds() {
        let znn = tiny();
        let mut trainer = Trainer::new(&znn, data(&znn));
        let mut reports = Vec::new();
        trainer.run(9, 3, |p| reports.push(p));
        assert_eq!(trainer.rounds_done(), 9);
        assert_eq!(reports.len(), 3);
        assert_eq!(trainer.history().len(), 9);
        assert!(reports.iter().all(|p| p.mean_loss.is_finite()));
    }

    #[test]
    fn checkpoint_restore_round_trips() {
        let znn = tiny();
        let mut trainer = Trainer::new(&znn, data(&znn));
        let before = trainer.checkpoint();
        trainer.run(5, 5, |_| {});
        let after = trainer.checkpoint();
        assert!(before.max_abs_diff(&after) > 0.0, "training changed nothing");
        trainer.restore(&before);
        assert_eq!(trainer.checkpoint().max_abs_diff(&before), 0.0);
    }

    #[test]
    fn warmup_changes_the_early_trajectory() {
        let a = tiny();
        let b = tiny();
        let mut t1 = Trainer::new(&a, data(&a));
        let mut t2 = Trainer::new(&b, data(&b)).with_schedule(LrSchedule::Warmup { rounds: 8 });
        t1.run(4, 4, |_| {});
        t2.run(4, 4, |_| {});
        let d = a.params().max_abs_diff(&b.params());
        assert!(d > 0.0, "warm-up had no effect");
    }
}
