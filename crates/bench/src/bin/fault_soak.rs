//! Fault soak — fault-tolerance telemetry for the recovery layer:
//!
//! * `"checkpoint"` — durable-snapshot cost: seconds to write one
//!   atomic CRC-checked checkpoint (tmp + fsync + rename + prune) and
//!   to restore the newest valid one, plus its on-disk size. This is
//!   the price of `--checkpoint-every`, paid once per interval.
//! * `"overhead"` — per-round cost of the training driver: a bare
//!   `Znn::train_step` loop over the dataset's samples vs
//!   `Trainer::run_recoverable` on the same samples without
//!   checkpoints (their cost is the `"checkpoint"` record), blocks of
//!   rounds timed interleaved under `samples_s`. The median of the
//!   per-pair ratios, with its [`paired`] interval, is what the health
//!   sentinels and rollback-state capture add to every round
//!   (`overhead_pct_round`); it is recorded, not asserted.
//! * `"faults"` — one record per fault class (`task_panic`,
//!   `lease_fail`, `nan_poke`, `crash`) injected mid-run through a
//!   deterministic `FaultPlan`: did training survive to the requested
//!   round count, and what did the recovery cost over a clean run
//!   (`recovery_s`)? The crash record times the checkpoint `resume()`
//!   instead, since its recovery is a fresh process.
//! * `"pool"` — pooled-buffer conservation under unwinding: after a
//!   run whose injected panic unwound mid-round, every leased buffer
//!   must be back in pool custody (`pool_leaked_bytes` = 0).
//!
//! Writes `BENCH_fault.json`, and exits non-zero through `Verdicts`
//! unless every fault class survives and no pooled byte leaks.
//! `--smoke` shrinks the net and round count (CI keeps the recovery
//! paths from rotting without paying for the full soak).

use std::sync::Arc;
use std::time::Instant;
use znn_alloc::PoolSet;
use znn_bench::{fmt, header, median, median_s, paired, row, samples_s, write_record, Verdicts};
use znn_core::{
    latest_valid, Checkpoint, CheckpointConfig, ConvPolicy, Dataset, RandomDataset, TrainConfig,
    TrainOutcome, Trainer, Znn,
};
use znn_fault::{FaultKind, FaultPlan};
use znn_graph::NetBuilder;
use znn_ops::Transfer;
use znn_tensor::Vec3;

struct FaultRecord {
    kind: &'static str,
    survived: bool,
    clean_s: f64,
    faulted_s: f64,
    recovery_s: f64,
    resume_s: Option<f64>,
}

/// The one knob set: net width/rounds scale with `--smoke`, everything
/// else (momentum so velocities are non-trivial, direct conv + no
/// memoization for bit-determinism, 2 workers so containment really
/// crosses threads) is pinned.
struct Soak {
    out: usize,
    rounds: u64,
}

impl Soak {
    fn znn(
        &self,
        pools: Option<Arc<PoolSet>>,
        checkpoint: Option<CheckpointConfig>,
        faults: Option<Arc<FaultPlan>>,
    ) -> Znn {
        let (g, _) = NetBuilder::new("soak", 1)
            .conv(2, Vec3::cube(2))
            .transfer(Transfer::Tanh)
            .conv(1, Vec3::cube(2))
            .build()
            .expect("soak net builds");
        let cfg = TrainConfig {
            workers: 2,
            momentum: 0.9,
            conv: ConvPolicy::ForceDirect,
            memoize_fft: false,
            pools,
            checkpoint,
            faults,
            ..TrainConfig::default()
        };
        Znn::new(g, Vec3::cube(self.out), cfg).expect("soak net sizes")
    }

    fn data(&self, znn: &Znn) -> RandomDataset {
        RandomDataset {
            input_shape: znn.input_shape(),
            output_shape: Vec3::cube(self.out),
            inputs: 1,
            outputs: 1,
            seed: 7,
        }
    }

    /// Runs `rounds` recoverable rounds on a fresh engine with the
    /// given plan; returns (outcome, seconds).
    fn timed_run(
        &self,
        pools: Option<Arc<PoolSet>>,
        checkpoint: Option<CheckpointConfig>,
        faults: Option<Arc<FaultPlan>>,
    ) -> (Result<TrainOutcome, znn_core::TrainError>, f64) {
        let znn = self.znn(pools, checkpoint, faults);
        let mut trainer = Trainer::new(&znn, self.data(&znn));
        let start = Instant::now();
        let outcome = trainer.run_recoverable(self.rounds, self.rounds, |_| {});
        (outcome, start.elapsed().as_secs_f64())
    }
}

fn tmpdir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("znn-fault-soak-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let soak = Soak {
        out: if smoke { 2 } else { 4 },
        rounds: if smoke { 8 } else { 24 },
    };
    let rounds = soak.rounds;
    let mut v = Verdicts::default();
    let mut members = vec![format!("\"rounds\": {rounds}")];

    // --- checkpoint cost: one atomic durable write, one restore -----
    let ckpt_dir = tmpdir("ckpt");
    {
        let znn = soak.znn(None, None, None);
        let mut trainer = Trainer::new(&znn, soak.data(&znn));
        trainer.run(3, 3, |_| {});
        let ckpt = Checkpoint {
            round: trainer.rounds_done(),
            params: znn.params(),
            velocities: znn.optimizer_state(),
        };
        let timing = if smoke { (1, 5) } else { (2, 21) };
        let t = median_s(2, timing, |i| {
            if i == 0 {
                ckpt.write_atomic(&ckpt_dir, 3).expect("checkpoint writes");
            } else {
                let restored = latest_valid(&ckpt_dir).expect("checkpoint dir reads");
                assert!(restored.is_some_and(|c| c.round == ckpt.round));
            }
        });
        let (write_s, restore_s) = (t[0], t[1]);
        let bytes = std::fs::read_dir(&ckpt_dir)
            .expect("checkpoint dir lists")
            .filter_map(|e| e.ok()?.metadata().ok())
            .map(|m| m.len())
            .max()
            .unwrap_or(0);
        println!("# fault soak — checkpoint cost\n");
        header(&["snapshot bytes", "write s", "restore s"]);
        row(&[bytes.to_string(), fmt(write_s), fmt(restore_s)]);
        members.push(format!(
            "\"checkpoint\": {{\"bytes\": {bytes}, \"checkpoint_write_s\": {write_s:.6e}, \
             \"checkpoint_restore_s\": {restore_s:.6e}}}"
        ));
    }
    let _ = std::fs::remove_dir_all(&ckpt_dir);

    // --- training-driver overhead per round -------------------------
    {
        // one block of `rounds` rounds is a few hundred µs, so a single
        // pair is noise: interleave many and take each side's median
        let blocks = 15;
        let plain = soak.znn(None, None, None);
        let mut plain_data = soak.data(&plain);
        let mut plain_round = 0;
        let recoverable = soak.znn(None, None, None);
        let mut trainer = Trainer::new(&recoverable, soak.data(&recoverable));
        let t = samples_s(2, (1, blocks), |i| {
            if i == 0 {
                for round in plain_round..plain_round + rounds {
                    let (inputs, targets) = plain_data.sample(round);
                    plain.train_step(&inputs, &targets);
                }
                plain.flush_updates();
                plain_round += rounds;
            } else {
                let outcome = trainer.run_recoverable(rounds, rounds, |_| {});
                assert!(
                    matches!(outcome, Ok(TrainOutcome::Completed { .. })),
                    "overhead run must complete"
                );
            }
        });
        let (plain_s, rec_s) = (median(&t[0]) / rounds as f64, median(&t[1]) / rounds as f64);
        let ratio = paired::Stat::of(&t[1].iter().zip(&t[0]).map(|(r, p)| r / p).collect::<Vec<_>>());
        let overhead_pct = (ratio.median - 1.0) * 100.0;
        println!(
            "\n# training driver vs bare train_step loop \
             (median of {blocks} interleaved blocks of {rounds} rounds, no checkpoints)\n"
        );
        header(&["plain s/round", "recoverable s/round", "overhead", "ratio interval"]);
        row(&[
            fmt(plain_s),
            fmt(rec_s),
            format!("{overhead_pct:.1}%"),
            format!("[{:.3}, {:.3}]", ratio.lo, ratio.hi),
        ]);
        members.push(format!(
            "\"overhead\": {{\"plain_round_s\": {plain_s:.6e}, \"recoverable_round_s\": {rec_s:.6e}, \
             \"overhead_pct_round\": {overhead_pct:.2}, \"ratio\": {{{}}}}}",
            ratio.json_members()
        ));
    }

    // --- per-fault-class recovery ------------------------------------
    let mid = (rounds / 2).max(1);
    let (_, clean_s) = {
        let r = soak.timed_run(None, None, None);
        assert!(matches!(r.0, Ok(TrainOutcome::Completed { .. })));
        r
    };
    let mut records: Vec<FaultRecord> = Vec::new();
    for kind in [FaultKind::TaskPanic, FaultKind::LeaseFail, FaultKind::NanPoke] {
        let plan = Arc::new(FaultPlan::new().arm(kind, mid));
        // LeaseFail fires at a pooled lease site, so that run keeps a
        // pool; the others run pool-free to stay minimal.
        let pools = (kind == FaultKind::LeaseFail).then(PoolSet::new);
        let (outcome, faulted_s) = soak.timed_run(pools, None, Some(Arc::clone(&plan)));
        let survived =
            matches!(outcome, Ok(TrainOutcome::Completed { .. })) && plan.fired() == 1;
        records.push(FaultRecord {
            kind: kind.name(),
            survived,
            clean_s,
            faulted_s,
            recovery_s: (faulted_s - clean_s).max(0.0),
            resume_s: None,
        });
    }
    {
        // crash: run dies between rounds with snapshots on disk; a
        // fresh engine resumes from them and finishes the budget
        let dir = tmpdir("crash");
        let mut cc = CheckpointConfig::new(&dir);
        cc.every = 1;
        let plan = Arc::new(FaultPlan::new().crash_after(mid));
        let (outcome, faulted_s) =
            soak.timed_run(None, Some(cc.clone()), Some(Arc::clone(&plan)));
        let interrupted = matches!(outcome, Ok(TrainOutcome::Interrupted { at_round }) if at_round == mid);
        let znn = soak.znn(None, Some(cc), None);
        let mut trainer = Trainer::new(&znn, soak.data(&znn));
        let start = Instant::now();
        let resumed = trainer.resume().expect("resume reads checkpoint dir");
        let resume_s = start.elapsed().as_secs_f64();
        let finished = trainer.run_recoverable(rounds - mid, rounds, |_| {});
        let survived = interrupted
            && resumed == Some(mid)
            && matches!(finished, Ok(TrainOutcome::Completed { .. }));
        let _ = std::fs::remove_dir_all(&dir);
        records.push(FaultRecord {
            kind: FaultKind::Crash.name(),
            survived,
            clean_s,
            faulted_s,
            recovery_s: resume_s,
            resume_s: Some(resume_s),
        });
    }
    {
        // recurring: the same fault class on a schedule, not a one-shot
        // — every third round is poisoned, each poisoned round rolls
        // back and retries, and the consecutive-failure counter resets
        // between firings, so training survives all of them
        let expected = (rounds / 3) as usize;
        let plan = Arc::new(FaultPlan::new().every_n(FaultKind::TaskPanic, 3, 3));
        let (outcome, faulted_s) = soak.timed_run(None, None, Some(Arc::clone(&plan)));
        let survived =
            matches!(outcome, Ok(TrainOutcome::Completed { .. })) && plan.fired() == expected;
        records.push(FaultRecord {
            kind: "task_panic_recurring",
            survived,
            clean_s,
            faulted_s,
            recovery_s: (faulted_s - clean_s).max(0.0),
            resume_s: None,
        });
    }
    let faults_survived = records.iter().filter(|r| r.survived).count();
    println!(
        "\n# injected faults — one per class at round {mid} of {rounds}, \
         plus task_panic recurring every 3 rounds\n"
    );
    header(&["fault", "survived", "clean s", "faulted s", "recovery s"]);
    for r in &records {
        row(&[
            r.kind.to_string(),
            r.survived.to_string(),
            fmt(r.clean_s),
            fmt(r.faulted_s),
            fmt(r.recovery_s),
        ]);
    }
    let recs: Vec<String> = records
        .iter()
        .map(|r| {
            v.check(&format!("{} survived", r.kind), r.survived);
            let resume = r.resume_s.map_or(String::new(), |s| format!(", \"resume_s\": {s:.6e}"));
            format!(
                "    {{\"kind\": \"{}\", \"survived\": {}, \"clean_s\": {:.6e}, \
                 \"faulted_s\": {:.6e}, \"recovery_s\": {:.6e}{resume}}}",
                r.kind, r.survived, r.clean_s, r.faulted_s, r.recovery_s
            )
        })
        .collect();
    members.push(format!("\"faults\": [\n{}\n  ]", recs.join(",\n")));
    members.push(format!("\"faults_survived\": {faults_survived}"));
    // a dropped or renamed class must fail too, not only a failed one
    v.check("faults_survived == 5: all five fault classes survived", faults_survived == 5);
    v.check(
        "the recurring task_panic class was run",
        records.iter().any(|r| r.kind == "task_panic_recurring"),
    );

    // --- pooled-buffer conservation under unwinding ------------------
    {
        let pools = PoolSet::new();
        let plan = Arc::new(FaultPlan::new().task_panic_at(mid).lease_fail_at(mid + 1));
        let (outcome, _) = soak.timed_run(Some(Arc::clone(&pools)), None, Some(plan));
        assert!(
            matches!(outcome, Ok(TrainOutcome::Completed { .. })),
            "pool-conservation run must complete"
        );
        // the engine is dropped inside timed_run; every lease must be home
        let leaked = pools.stats().bytes_in_use();
        let resident = pools.resident_bytes();
        println!("\n# pool custody after injected panics\n");
        header(&["leaked bytes", "resident bytes"]);
        row(&[leaked.to_string(), resident.to_string()]);
        v.check("pool_leaked_bytes == 0 after a mid-round unwind", leaked == 0);
        members.push(format!(
            "\"pool\": {{\"pool_leaked_bytes\": {leaked}, \"pool_resident_bytes\": {resident}}}"
        ));
    }

    println!(
        "\nshape check: all {} fault classes survive ({faults_survived} did) and zero\n\
         pooled bytes stay leased after a mid-round unwind.",
        records.len()
    );
    write_record("fault", smoke, &members);
    std::process::exit(v.exit_code());
}
