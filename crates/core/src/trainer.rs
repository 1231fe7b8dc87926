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
    /// Step factor (schedule × backoff) of the window's last round.
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
    /// [`crate::HealthPolicy::max_retries`] times before a round past it
    /// was healthy, each retry starting from the state before the
    /// culprit update with a backed-off SGD step.
    RetriesExhausted {
        /// The round whose failure exhausted the retries (1-based).
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

/// The training loop driver.
///
/// Each round's SGD step is `learning_rate ×` the schedule's factor ×
/// the rollback backoff; the factor goes to the engine with the round,
/// and losses are always taken against the true targets.
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

    /// Runs `rounds` rounds of [`Trainer::run_recoverable`], invoking
    /// `report` every `report_every` rounds with windowed statistics,
    /// and returns the last healthy round's loss. Panics with the
    /// diagnostic if the run gives up ([`TrainError`]).
    pub fn run(&mut self, rounds: u64, report_every: u64, report: impl FnMut(Progress)) -> f64 {
        if let Err(e) = self.run_recoverable(rounds, report_every, report) {
            panic!("{e}");
        }
        self.history.last().copied().unwrap_or(0.0)
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

    /// The training loop: runs `rounds` rounds, each with its step
    /// factor, and checks [`crate::HealthPolicy`]'s sentinels after
    /// every one. A failed round rolls back to the state before the
    /// update that caused it and retries with the step backed off by
    /// `lr_backoff` per failure (`docs/ARCHITECTURE.md` §5):
    /// - a non-finite or divergent loss at round k blames round k−1's
    ///   update: round k−1 is re-run from the state it ran on (round k
    ///   is retried when that state is not kept: at this run's first
    ///   round, or right after such a rollback);
    /// - a non-finite parameter after round k, or a contained panic,
    ///   retries round k from the state it ran on.
    ///
    /// Failures count against the round that failed and reset once a
    /// round past it is healthy; more than `max_retries` abort, leaving
    /// the engine on the rolled-back state. [`Trainer::history`] drops
    /// the loss of a re-run round. With [`crate::CheckpointConfig`]
    /// set, durable snapshots are written every `every` rounds and once
    /// at the end.
    pub fn run_recoverable(
        &mut self,
        rounds: u64,
        report_every: u64,
        mut report: impl FnMut(Progress),
    ) -> Result<TrainOutcome, TrainError> {
        let health = self.znn.config().health.clone();
        let cc = self.znn.config().checkpoint.clone();
        let start = self.round;
        // this run's losses, and with them the healthy-loss window
        let base = self.history.len();
        // the state the next round runs on, and the one the round
        // before it ran on
        let mut cur = self.capture();
        let mut prev: Option<Checkpoint> = None;
        let mut failures: u32 = 0;
        let mut failed_round = 0;
        let mut backoff = 1.0f64;
        let mut saved_at = None;
        while self.round - start < rounds {
            let k = self.round + 1;
            let factor = self.schedule.factor(self.round) * backoff as f32;
            let (inputs, targets) = self.data.sample(self.round);
            // Err((diagnostic, whether the previous update is to blame))
            let verdict = match self.znn.train_round(&inputs, &targets, factor) {
                Err(e) => Err((e.to_string(), false)),
                Ok(loss) if !loss.is_finite() => {
                    Err((format!("non-finite loss {loss} at round {k}"), true))
                }
                Ok(loss) if diverged(loss, &self.history[base..], &health) => Err((
                    format!(
                        "loss {loss:.3e} exceeds {}x the rolling median at round {k}",
                        health.divergence_factor
                    ),
                    true,
                )),
                Ok(loss) if !self.znn.params_all_finite() => Err((
                    format!("non-finite parameter after round {k} (loss {loss:.3e})"),
                    false,
                )),
                Ok(loss) => Ok(loss),
            };
            let loss = match verdict {
                Ok(loss) => loss,
                Err((diagnostic, blame_previous)) => {
                    failures += 1;
                    failed_round = failed_round.max(k);
                    if blame_previous {
                        if let Some(p) = prev.take() {
                            // round k−1 is re-run: its loss no longer stands
                            self.history.pop();
                            cur = p;
                        }
                    }
                    self.rollback(&cur);
                    if failures > health.max_retries {
                        return Err(TrainError::RetriesExhausted {
                            round: k,
                            retries: failures - 1,
                            diagnostic,
                        });
                    }
                    backoff *= health.lr_backoff;
                    continue;
                }
            };
            self.round = k;
            self.history.push(loss);
            prev = Some(std::mem::replace(&mut cur, self.capture()));
            if k > failed_round {
                failures = 0;
                backoff = 1.0;
            }
            let every = report_every.max(1);
            if k.is_multiple_of(every) {
                // the rounds since the last report, or since the start
                let window = (k - start).min(every) as usize;
                let window = &self.history[self.history.len() - window..];
                report(Progress {
                    round: k - window.len() as u64,
                    mean_loss: window.iter().sum::<f64>() / window.len() as f64,
                    lr_factor: factor,
                });
            }
            if let Some(cc) = &cc {
                if cc.every > 0 && k.is_multiple_of(cc.every) {
                    cur.write_atomic(&cc.dir, cc.keep).map_err(TrainError::Checkpoint)?;
                    saved_at = Some(k);
                }
            }
            // fault injection: a crash between rounds — the run ends
            // here with whatever snapshots already reached disk, and a
            // later process resumes from them
            if let Some(faults) = &self.znn.config().faults {
                if faults.take(FaultKind::Crash, k) {
                    return Ok(TrainOutcome::Interrupted { at_round: k });
                }
            }
        }
        if let Some(cc) = &cc {
            if saved_at != Some(self.round) {
                cur.write_atomic(&cc.dir, cc.keep).map_err(TrainError::Checkpoint)?;
            }
        }
        Ok(TrainOutcome::Completed {
            final_loss: self.history[base..].last().copied().unwrap_or(0.0),
        })
    }

    /// The training state the next round runs on, kept in memory for
    /// rollback and written as is when a checkpoint is due.
    fn capture(&self) -> Checkpoint {
        Checkpoint {
            round: self.round,
            params: self.znn.params(),
            velocities: self.znn.optimizer_state(),
        }
    }

    fn rollback(&mut self, to: &Checkpoint) {
        self.znn.set_params(&to.params);
        self.znn.set_optimizer_state(&to.velocities);
        self.znn.set_round(to.round);
        self.round = to.round;
    }

    /// Rounds completed so far.
    pub fn rounds_done(&self) -> u64 {
        self.round
    }

    /// The loss of every round that stands, in order, against the true
    /// targets; a rolled-back round's entry is replaced by its re-run.
    pub fn history(&self) -> &[f64] {
        &self.history
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
        let before = znn.params();
        trainer.run(5, 5, |_| {});
        let after = znn.params();
        assert!(before.max_abs_diff(&after) > 0.0, "training changed nothing");
        znn.set_params(&before);
        assert_eq!(znn.params().max_abs_diff(&before), 0.0);
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
