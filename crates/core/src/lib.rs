//! The ZNN training engine: task-parallel gradient learning for 3D
//! ConvNets on shared-memory machines (the paper's primary
//! contribution).
//!
//! [`Znn`] executes a [`znn_graph::Graph`] as the paper describes:
//!
//! * the computation decomposes into **per-edge forward, backward and
//!   update tasks** scheduled on a global priority queue (§V–VI), with
//!   priorities from the two distance orderings of `znn-graph`;
//! * convergent convolutions accumulate through the **wait-free
//!   concurrent summation** of Algorithm 4 — in the *frequency domain*
//!   when a node's incoming edges share a transform geometry, so a node
//!   pays one inverse FFT regardless of fan-in (§IV);
//! * update tasks run at the lowest priority and are **forced** by the
//!   next round's forward tasks (Algorithms 1–3), so parameters are
//!   written cache-hot right before use and no thread ever blocks;
//! * direct vs FFT convolution is decided **once, per layer, before
//!   training** (§IV): every [`ConvPolicy`] resolves to one
//!   `znn_plan::NetPlan` at construction ([`Znn::net_plan`]) — forced
//!   policies to a single-method plan, `Autotune` to the `znn-plan`
//!   cost model's per-edge argmin — and the engine executes only that
//!   plan ([`Znn::with_plan`] takes a caller's plan instead). FFT
//!   **memoization** reuses forward-pass transforms in the backward and
//!   update passes (Table II);
//! * image buffers are recycled through the pooled allocator of
//!   §VII-C.
//!
//! The engine supports dense and sparse ("skip kernel") training,
//! dropout and multi-scale topologies (§XI extensions), SGD with
//! momentum and weight decay, and exposes per-round scheduler and
//! memory statistics for the paper's experiments.
//!
//! Training is **fault tolerant** (see `docs/ARCHITECTURE.md` §Fault
//! tolerance): a panicking task poisons its round instead of the
//! process ([`Znn::try_train_step`]), [`checkpoint`] persists durable
//! CRC-checked snapshots, and [`Trainer::run_recoverable`], the one
//! training loop, rolls back past the update that tripped a health
//! sentinel and retries with a backed-off SGD step. Schedules and
//! backoff scale the update tasks' step, never the targets. The
//! `znn-fault` crate injects deterministic faults through
//! [`TrainConfig::faults`] to test all of it.

#![warn(missing_docs)]
#![forbid(unsafe_code)]
#![warn(unreachable_pub)]

pub mod checkpoint;
mod config;
mod data;
pub mod dense;
mod engine;
mod state;
mod trainer;

pub use checkpoint::{latest_valid, Checkpoint, CheckpointError};
pub use config::{CheckpointConfig, ConvPolicy, HealthPolicy, TrainConfig};
pub use data::{BlobsDataset, Dataset, RandomDataset};
pub use dense::{BlockEvent, Cancelled, DenseConfig, DenseError, DenseNet};
pub use engine::{RoundError, RoundStats, Znn};
pub use trainer::{LrSchedule, Progress, TrainError, TrainOutcome, Trainer};
