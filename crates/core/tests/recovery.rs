//! End-to-end pins for the fault-tolerance layer: durable checkpoints
//! survive a kill bit-identically, corrupt snapshots fall back to older
//! valid ones, the decoder rejects hostile payloads without panicking,
//! a snapshot of another network is refused on resume, injected panics
//! leak no pooled bytes, every fault class recovers, and a truly
//! divergent run aborts after bounded retries with the engine left on
//! its last good state.

use proptest::prelude::*;
use std::path::PathBuf;
use std::sync::Arc;
use znn_alloc::PoolSet;
use znn_core::checkpoint::crc32;
use znn_core::{
    latest_valid, Checkpoint, CheckpointConfig, Dataset, RandomDataset, TrainConfig, TrainError,
    TrainOutcome, Trainer, Znn,
};
use znn_fault::{FaultKind, FaultPlan};
use znn_graph::init::ParamSet;
use znn_graph::NetBuilder;
use znn_ops::Transfer;
use znn_tensor::{Image, Vec3};

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "znn-recovery-{}-{tag}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A tiny conv net with momentum, so checkpoints carry non-trivial
/// optimizer velocity alongside the parameters.
fn tiny(
    checkpoint: Option<CheckpointConfig>,
    faults: Option<Arc<FaultPlan>>,
    pools: Option<Arc<PoolSet>>,
) -> Znn {
    let (g, _) = NetBuilder::new("rec", 1)
        .conv(2, Vec3::cube(2))
        .transfer(Transfer::Tanh)
        .conv(1, Vec3::cube(2))
        .build()
        .unwrap();
    let cfg = TrainConfig {
        momentum: 0.9,
        checkpoint,
        faults,
        pools,
        ..TrainConfig::test_default(2)
    };
    Znn::new(g, Vec3::cube(2), cfg).unwrap()
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
fn kill_and_resume_is_bit_identical() {
    // baseline: 10 uninterrupted rounds
    let a = tiny(None, None, None);
    let mut ta = Trainer::new(&a, data(&a));
    assert!(matches!(
        ta.run_recoverable(10, 10, |_| {}),
        Ok(TrainOutcome::Completed { .. })
    ));

    // killed run: crash after round 5 with a snapshot every round...
    let dir = tmpdir("resume");
    let mut cc = CheckpointConfig::new(&dir);
    cc.every = 1;
    let plan = Arc::new(FaultPlan::new().crash_after(5));
    let b = tiny(Some(cc.clone()), Some(plan), None);
    let mut tb = Trainer::new(&b, data(&b));
    assert_eq!(
        tb.run_recoverable(10, 10, |_| {}).unwrap(),
        TrainOutcome::Interrupted { at_round: 5 }
    );

    // ...then a fresh engine resumes from disk and finishes the budget
    let c = tiny(Some(cc), None, None);
    let mut tc = Trainer::new(&c, data(&c));
    assert_eq!(tc.resume().unwrap(), Some(5));
    assert!(matches!(
        tc.run_recoverable(5, 5, |_| {}),
        Ok(TrainOutcome::Completed { .. })
    ));

    // params AND optimizer velocities match the uninterrupted run
    // bit for bit (f32 round-trips through the checkpoint as raw bits)
    assert_eq!(a.params(), c.params(), "parameters diverged after resume");
    assert_eq!(
        a.optimizer_state(),
        c.optimizer_state(),
        "momentum velocities diverged after resume"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Snapshot files in `dir`, newest round last.
fn snapshot_paths(dir: &PathBuf) -> Vec<PathBuf> {
    let mut v: Vec<_> = std::fs::read_dir(dir)
        .unwrap()
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|x| x == "znn"))
        .collect();
    v.sort();
    v
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn corrupt_newest_checkpoint_falls_back_to_older(
        flip in any::<bool>(),
        pos in any::<usize>(),
    ) {
        let znn = tiny(None, None, None);
        let mut trainer = Trainer::new(&znn, data(&znn));
        let dir = tmpdir("corrupt");

        trainer.run(5, 5, |_| {});
        Checkpoint {
            round: 5,
            params: znn.params(),
            velocities: znn.optimizer_state(),
        }
        .write_atomic(&dir, 0)
        .unwrap();
        trainer.run(5, 5, |_| {});
        Checkpoint {
            round: 10,
            params: znn.params(),
            velocities: znn.optimizer_state(),
        }
        .write_atomic(&dir, 0)
        .unwrap();

        // corrupt the newest snapshot: either flip one byte anywhere
        // or truncate to a strictly shorter prefix
        let newest = snapshot_paths(&dir).pop().unwrap();
        let mut bytes = std::fs::read(&newest).unwrap();
        if flip {
            let at = pos % bytes.len();
            bytes[at] ^= 1 << (at % 8);
        } else {
            bytes.truncate(pos % bytes.len());
        }
        std::fs::write(&newest, &bytes).unwrap();

        // the loader must skip it and land on the older valid snapshot
        let restored = latest_valid(&dir).unwrap();
        let _ = std::fs::remove_dir_all(&dir);
        let restored = restored.expect("older snapshot must still load");
        prop_assert_eq!(restored.round, 5);
    }
}

/// A snapshot with every record kind: kernels with and without a
/// velocity, a bias, and an edge with nothing.
fn corpus_seed() -> Checkpoint {
    let img = |s: f32| {
        Image::from_fn([2, 3, 2], |Vec3([x, y, z])| {
            (x * 6 + y * 2 + z) as f32 * 0.1 - s
        })
    };
    Checkpoint {
        round: 12,
        params: ParamSet {
            kernels: vec![Some(img(0.0)), None, Some(img(1.0)), None],
            biases: vec![None, Some(-0.5), None, None],
        },
        velocities: vec![Some(img(2.0)), None, None, None],
    }
}

/// Payload offsets of every image-shape `u64` in `c`'s encoding.
fn shape_offsets(c: &Checkpoint) -> Vec<usize> {
    let mut out = Vec::new();
    let mut at = 8; // the edge count
    let mut image = |at: &mut usize, img: &Option<Image>| {
        *at += 1; // presence tag
        if let Some(img) = img {
            out.extend([*at, *at + 8, *at + 16]);
            *at += 24 + 4 * img.len();
        }
    };
    for i in 0..c.params.kernels.len() {
        image(&mut at, &c.params.kernels[i]);
        at += 1 + if c.params.biases[i].is_some() { 4 } else { 0 };
        image(&mut at, &c.velocities[i]);
    }
    out
}

/// A file image of `payload` with a valid header and CRC, so only the
/// decoder's structural checks can reject it.
fn framed(round: u64, payload: &[u8]) -> Vec<u8> {
    let crc_input = [&round.to_le_bytes()[..], payload].concat();
    [
        &b"ZNNCKPT1"[..],
        &round.to_le_bytes(),
        &(payload.len() as u64).to_le_bytes(),
        &crc32(&crc_input).to_le_bytes(),
        payload,
    ]
    .concat()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Decoder corpus: one structural mutation of a valid snapshot —
    /// a hostile edge count or image shape, a truncation, or one
    /// overwritten byte — re-CRC'd. `decode` must return, never panic
    /// or allocate what the payload cannot hold, and anything it
    /// accepts must re-encode to the same bytes.
    #[test]
    fn decoder_survives_hostile_payloads(
        kind in 0u8..4,
        pick in any::<usize>(),
        value in any::<u64>(),
    ) {
        let seed = corpus_seed();
        let file = seed.encode();
        let mut payload = file[28..].to_vec();
        match kind {
            0 => payload[..8].copy_from_slice(&value.to_le_bytes()),
            1 => {
                let offsets = shape_offsets(&seed);
                let at = offsets[pick % offsets.len()];
                payload[at..at + 8].copy_from_slice(&value.to_le_bytes());
            }
            2 => payload.truncate(pick % payload.len()),
            _ => {
                let at = pick % payload.len();
                payload[at] = value as u8;
            }
        }
        let bytes = framed(seed.round, &payload);
        if let Ok(c) = Checkpoint::decode(&bytes) {
            prop_assert_eq!(c.encode(), bytes, "accepted a payload it cannot reproduce");
        }
    }
}

/// The tiny net's shape with the first layer's width and kernel
/// changed, for snapshots that do not fit.
fn other_net(dir: &PathBuf, width: usize, kernel: usize) -> Znn {
    let (g, _) = NetBuilder::new("other", 1)
        .conv(width, Vec3::cube(kernel))
        .transfer(Transfer::Tanh)
        .conv(1, Vec3::cube(2))
        .build()
        .unwrap();
    let cfg = TrainConfig {
        momentum: 0.9,
        checkpoint: Some(CheckpointConfig::new(dir)),
        ..TrainConfig::test_default(2)
    };
    Znn::new(g, Vec3::cube(2), cfg).unwrap()
}

#[test]
fn resume_refuses_another_networks_snapshot() {
    let dir = tmpdir("foreign");
    let mut cc = CheckpointConfig::new(&dir);
    cc.every = 1;
    let a = tiny(Some(cc), None, None);
    let mut ta = Trainer::new(&a, data(&a));
    assert!(matches!(
        ta.run_recoverable(3, 3, |_| {}),
        Ok(TrainOutcome::Completed { .. })
    ));

    // more edges, fewer edges, and the same edges with another kernel
    for (width, kernel, names) in [(3, 2, "edges"), (1, 2, "edges"), (2, 3, "kernel")] {
        let b = other_net(&dir, width, kernel);
        let before = b.params();
        let mut tb = Trainer::new(&b, data(&b));
        let err = tb.resume().expect_err("a foreign snapshot must be refused");
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "{err}");
        assert!(
            err.to_string().contains(names),
            "width {width} kernel {kernel}: {err}"
        );
        // nothing was installed, and training still runs from round 0
        assert_eq!(b.params(), before);
        assert_eq!(tb.rounds_done(), 0);
        assert!(tb.run(1, 1, |_| {}).is_finite());
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn injected_panic_leaks_no_pooled_bytes() {
    let pools = PoolSet::new();
    let plan = Arc::new(FaultPlan::new().task_panic_at(2).lease_fail_at(3));
    let znn = tiny(None, Some(Arc::clone(&plan)), Some(Arc::clone(&pools)));
    {
        let mut trainer = Trainer::new(&znn, data(&znn));
        assert!(matches!(
            trainer.run_recoverable(5, 5, |_| {}),
            Ok(TrainOutcome::Completed { .. })
        ));
    }
    assert_eq!(plan.fired(), 2, "both arms must actually fire");
    assert!(
        znn.stats().task_panics >= 1,
        "the injected panic must surface in the stats"
    );
    // the engine holds no leases between rounds; every buffer the
    // unwound rounds leased must already be home
    drop(znn);
    assert_eq!(
        pools.stats().bytes_in_use(),
        0,
        "pooled bytes leaked across an unwound round"
    );
}

#[test]
fn every_recoverable_fault_class_completes() {
    for kind in [FaultKind::TaskPanic, FaultKind::LeaseFail, FaultKind::NanPoke] {
        let plan = Arc::new(FaultPlan::new().arm(kind, 2));
        let pools = (kind == FaultKind::LeaseFail).then(PoolSet::new);
        let znn = tiny(None, Some(Arc::clone(&plan)), pools);
        let mut trainer = Trainer::new(&znn, data(&znn));
        let outcome = trainer.run_recoverable(4, 4, |_| {});
        assert!(
            matches!(outcome, Ok(TrainOutcome::Completed { .. })),
            "{}: expected completion, got {outcome:?}",
            kind.name()
        );
        assert_eq!(plan.fired(), 1, "{} never fired", kind.name());
        assert!(znn.params_all_finite(), "{} left bad params", kind.name());
    }
}

/// Scales targets absurdly from a given round on, so the loss explodes
/// deterministically — the retried round re-samples the same poison.
struct PoisonFrom<D: Dataset> {
    inner: D,
    from: u64,
}

impl<D: Dataset> Dataset for PoisonFrom<D> {
    fn sample(&mut self, round: u64) -> (Vec<Image>, Vec<Image>) {
        let (ins, mut outs) = self.inner.sample(round);
        if round >= self.from {
            for t in &mut outs {
                *t = t.map(|v| (v + 1.0) * 1.0e8);
            }
        }
        (ins, outs)
    }
}

#[test]
fn divergence_aborts_after_bounded_retries_on_last_good_state() {
    let (g, _) = NetBuilder::new("div", 1)
        .conv(2, Vec3::cube(2))
        .transfer(Transfer::Tanh)
        .conv(1, Vec3::cube(2))
        .build()
        .unwrap();
    let mut cfg = TrainConfig {
        momentum: 0.9,
        ..TrainConfig::test_default(2)
    };
    // a small window so four healthy rounds arm the detector, and a
    // small retry budget so the test ends quickly
    cfg.health.divergence_window = 4;
    cfg.health.max_retries = 2;
    let znn = Znn::new(g, Vec3::cube(2), cfg).unwrap();
    let mut trainer = Trainer::new(
        &znn,
        PoisonFrom {
            inner: data(&znn),
            from: 4,
        },
    );
    let err = trainer.run_recoverable(10, 10, |_| {}).unwrap_err();
    match err {
        TrainError::RetriesExhausted {
            round,
            retries,
            diagnostic,
        } => {
            assert_eq!(round, 5, "the first poisoned round keeps failing");
            assert_eq!(retries, 2, "exactly max_retries rollback retries");
            assert!(
                diagnostic.contains("rolling median"),
                "diagnostic should name the tripped sentinel: {diagnostic}"
            );
        }
        other => panic!("expected RetriesExhausted, got {other}"),
    }
    // the engine was rolled back to the last good state: finite
    // params, trainer rewound, and another (healthy) step still works
    assert!(znn.params_all_finite());
    assert_eq!(trainer.rounds_done(), 3, "trainer rewound to before the culprit update");
    let mut d = data(&znn);
    let (ins, outs) = d.sample(3);
    assert!(znn.try_train_step(&ins, &outs).unwrap().is_finite());
}
