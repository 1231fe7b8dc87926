//! Pins for the training driver's step factor and rollback target: a
//! learning-rate schedule scales the SGD step itself (not the targets),
//! every loss the trainer records is taken against the true targets,
//! and a loss spike caused by the previous round's update is recovered
//! by rolling back past that update.

use std::cell::RefCell;
use std::rc::Rc;
use znn_core::{Dataset, LrSchedule, RandomDataset, TrainConfig, TrainOutcome, Trainer, Znn};
use znn_graph::init::ParamSet;
use znn_graph::NetBuilder;
use znn_ops::{Loss, Transfer};
use znn_tensor::{Image, Vec3};

/// A tiny conv net at one worker (bit-deterministic), with momentum so
/// the optimizer velocity takes part in every update.
fn tiny(cfg: impl FnOnce(&mut TrainConfig)) -> Znn {
    let (g, _) = NetBuilder::new("driver", 1)
        .conv(2, Vec3::cube(2))
        .transfer(Transfer::Tanh)
        .conv(1, Vec3::cube(2))
        .build()
        .unwrap();
    let mut c = TrainConfig {
        momentum: 0.9,
        ..TrainConfig::test_default(1)
    };
    cfg(&mut c);
    Znn::new(g, Vec3::cube(2), c).unwrap()
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

/// Every kernel, bias and velocity of `znn` as raw bits.
fn bits(znn: &Znn) -> Vec<u32> {
    let ParamSet { kernels, biases } = znn.params();
    let velocities = znn.optimizer_state();
    let images = kernels.iter().chain(&velocities).flatten();
    let values = images.flat_map(|k| k.as_slice().to_vec());
    values
        .chain(biases.into_iter().flatten())
        .map(f32::to_bits)
        .collect()
}

/// Bits and loss of one round under `Warmup { rounds: 10 }` (factor
/// 0.1), then of one `train_step` of an engine whose learning rate is
/// already `0.01 × 0.1`, on the same sample.
fn warmup_round(loss: Loss) -> [(Vec<u32>, f64); 2] {
    let warm = LrSchedule::Warmup { rounds: 10 };
    assert_eq!(warm.factor(0), 0.1);
    let a = tiny(|c| c.loss = loss);
    let b = tiny(|c| {
        c.loss = loss;
        c.learning_rate = 0.01 * warm.factor(0);
    });
    assert!(
        bits(&a) == bits(&b),
        "both engines start from the same init"
    );

    let mut trainer = Trainer::new(&a, data(&a)).with_schedule(warm);
    trainer.run(1, 1, |_| {});
    let (ins, outs) = data(&b).sample(0);
    let loss_b = b.train_step(&ins, &outs);
    [(bits(&a), trainer.history()[0]), (bits(&b), loss_b)]
}

#[test]
fn schedule_scales_the_step_under_mse() {
    let [(scheduled, _), (smaller_lr, _)] = warmup_round(Loss::Mse);
    assert!(
        scheduled == smaller_lr,
        "the schedule must scale the SGD step"
    );
}

#[test]
fn schedule_scales_the_step_under_squared_hinge() {
    let [(scheduled, _), (smaller_lr, _)] = warmup_round(Loss::SquaredHinge);
    assert!(
        scheduled == smaller_lr,
        "the schedule must scale the SGD step"
    );
}

#[test]
fn recorded_losses_are_true_losses() {
    for loss in [Loss::Mse, Loss::SquaredHinge] {
        let [(_, recorded), (_, truth)] = warmup_round(loss);
        assert_eq!(
            recorded.to_bits(),
            truth.to_bits(),
            "{loss:?}: the recorded loss {recorded} must be taken against the true targets ({truth})"
        );
    }
}

/// The round whose targets are poisoned the first time it is sampled.
const POISONED: u64 = 3;
/// How far the poisoned targets are scaled.
const POISON: f32 = 300.0;

/// Scales round [`POISONED`]'s targets absurdly the first time that
/// round is sampled only, and counts how often each round is sampled.
struct PoisonOnce<D: Dataset> {
    inner: D,
    samples: Rc<RefCell<Vec<u32>>>,
}

impl<D: Dataset> Dataset for PoisonOnce<D> {
    fn sample(&mut self, round: u64) -> (Vec<Image>, Vec<Image>) {
        let (ins, mut outs) = self.inner.sample(round);
        let mut samples = self.samples.borrow_mut();
        if samples.len() <= round as usize {
            samples.resize(round as usize + 1, 0);
        }
        samples[round as usize] += 1;
        if round == POISONED && samples[round as usize] == 1 {
            for t in &mut outs {
                *t = t.map(|v| (v + 1.0) * POISON);
            }
        }
        (ins, outs)
    }
}

#[test]
fn an_update_caused_spike_rolls_back_past_the_update() {
    // a window of four: the poisoned round itself is judged before the
    // window is full, so only the next round's loss can trip
    let window = 4;
    let policy = |c: &mut TrainConfig| c.health.divergence_window = window;

    // reference: the poisoned update, then the next round on its
    // parameters — the loss spike the sentinel must catch
    let r = tiny(policy);
    let mut d = PoisonOnce {
        inner: data(&r),
        samples: Rc::default(),
    };
    let losses: Vec<f64> = (0..=POISONED)
        .map(|round| {
            let (ins, outs) = d.sample(round);
            r.train_step(&ins, &outs)
        })
        .collect();
    let (ins, outs) = d.sample(POISONED + 1);
    let spiked = r.train_step(&ins, &outs);
    let mut sorted = losses;
    sorted.sort_by(f64::total_cmp);
    let median = sorted[window / 2];
    assert!(
        !spiked.is_finite() || spiked > 10.0 * median,
        "the poisoned update must make the next round spike: {spiked} vs median {median}"
    );
    assert!(
        r.params_all_finite(),
        "the poisoned update must stay finite"
    );

    let znn = tiny(policy);
    let samples = Rc::default();
    let mut trainer = Trainer::new(
        &znn,
        PoisonOnce {
            inner: data(&znn),
            samples: Rc::clone(&samples),
        },
    );
    let outcome = trainer.run_recoverable(8, 8, |_| {});
    assert!(
        matches!(outcome, Ok(TrainOutcome::Completed { .. })),
        "a one-off spike must be recovered, got {outcome:?}"
    );
    assert_eq!(trainer.history().len(), 8, "one loss per round that stands");
    let retried = trainer.history()[POISONED as usize + 1];
    assert_ne!(
        retried.to_bits(),
        spiked.to_bits(),
        "the retried round must not run on the spiked parameters"
    );
    assert_eq!(
        samples.borrow()[POISONED as usize],
        2,
        "the culprit round is re-run, on clean targets"
    );
    assert!(znn.params_all_finite());
}
