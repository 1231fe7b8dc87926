//! Inputs and targets are checked before a round changes any engine
//! state: a rejected call leaves the round counter, the queued tasks
//! and the node state as they were, so the next correct round computes
//! exactly what a fresh engine's first round does.

use std::panic::{catch_unwind, AssertUnwindSafe};
use znn_core::{TrainConfig, Znn};
use znn_graph::{Graph, NetBuilder};
use znn_ops::Transfer;
use znn_tensor::{ops, Image, Vec3};

const OUT: Vec3 = Vec3::new(4, 4, 4);

/// Two input nodes, fan-in 2 into every conv node (a two-term sum is
/// order-independent, so the loss is bit-reproducible at any worker
/// count).
fn two_input_net() -> Graph {
    NetBuilder::new("two-inputs", 2)
        .conv(2, Vec3::cube(3))
        .transfer(Transfer::Tanh)
        .conv(1, Vec3::cube(2))
        .transfer(Transfer::Linear)
        .build()
        .unwrap()
        .0
}

fn engine() -> Znn {
    Znn::new(two_input_net(), OUT, TrainConfig::test_default(2)).unwrap()
}

fn sample(znn: &Znn) -> (Vec<Image>, Vec<Image>) {
    let shape = znn.input_shape();
    let inputs = vec![ops::random(shape, 1), ops::random(shape, 2)];
    let targets = vec![ops::random(OUT, 3).map(|v| 0.3 * v)];
    (inputs, targets)
}

/// The loss of a fresh engine's first round on `sample`.
fn fresh_first_loss() -> f64 {
    let znn = engine();
    let (inputs, targets) = sample(&znn);
    znn.train_step(&inputs, &targets)
}

#[test]
fn a_wrong_shaped_second_input_changes_nothing() {
    let znn = engine();
    let (inputs, targets) = sample(&znn);
    let bad = [
        inputs[0].clone(),
        ops::random(znn.input_shape() + Vec3::one(), 4),
    ];
    let train = catch_unwind(AssertUnwindSafe(|| znn.train_step(&bad, &targets)));
    assert!(train.is_err(), "a wrong-shaped input must be rejected");
    let infer = catch_unwind(AssertUnwindSafe(|| znn.forward(&bad)));
    assert!(infer.is_err(), "a wrong-shaped input must be rejected");
    assert_eq!(znn.round(), 0);
    assert_eq!(
        znn.train_step(&inputs, &targets).to_bits(),
        fresh_first_loss().to_bits(),
        "the rejected calls must leave no trace in the next round"
    );
}

#[test]
fn a_wrong_target_count_changes_nothing() {
    let znn = engine();
    let (inputs, targets) = sample(&znn);
    let two = [targets[0].clone(), targets[0].clone()];
    let wrong_shape = [ops::random(OUT + Vec3::one(), 5)];
    for bad in [&[][..], &two[..], &wrong_shape[..]] {
        let r = catch_unwind(AssertUnwindSafe(|| znn.train_step(&inputs, bad)));
        assert!(r.is_err(), "{} targets must be rejected", bad.len());
        assert_eq!(znn.round(), 0, "a rejected call must not advance the round");
    }
    assert_eq!(
        znn.train_step(&inputs, &targets).to_bits(),
        fresh_first_loss().to_bits(),
        "the rejected calls must leave no trace in the next round"
    );
}
