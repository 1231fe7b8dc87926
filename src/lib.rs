//! # ZNN-rs
//!
//! A from-scratch Rust reproduction of **ZNN** (Zlateski, Lee, Seung —
//! IPDPS 2016): a fast and scalable algorithm for training 3D
//! convolutional networks on multi-core and many-core shared-memory
//! machines.
//!
//! This facade re-exports the workspace crates:
//!
//! * [`tensor`] — dense 3D tensors (`znn-tensor`),
//! * [`alloc`] — pooled power-of-two allocators (`znn-alloc`, §VII-C),
//! * [`fft`] — 3D FFT and frequency-domain convolution (`znn-fft`, §IV),
//! * [`ops`] — convolution / pooling / filtering / transfer ops and their
//!   Jacobians (`znn-ops`, §II–III),
//! * [`sched`] — the task scheduler, FORCE semantics and wait-free
//!   concurrent summation (`znn-sched`, §VI–VII),
//! * [`graph`] — the computation graph and task priorities (`znn-graph`,
//!   §II, §V–VI),
//! * [`core`] — the training engine (`znn-core`),
//! * [`plan`] — the one cost model (`znn-plan`): per-edge pricing, the
//!   paper's closed forms and Brent's-theorem bounds (§V-A), the
//!   execution planner (§IV's crossover, priced per edge), and the
//!   discrete-event machine simulator of the scalability
//!   experiments (§VIII),
//! * [`baseline`] — the layer-at-a-time data-parallel comparator
//!   (`znn-baseline`, §IX).
//!
//! See `examples/quickstart.rs` for a five-minute tour.

#![forbid(unsafe_code)]
#![warn(unreachable_pub)]

pub use znn_alloc as alloc;
pub use znn_baseline as baseline;
pub use znn_core as core;
pub use znn_fft as fft;
pub use znn_graph as graph;
pub use znn_ops as ops;
pub use znn_plan as plan;
pub use znn_sched as sched;
pub use znn_serve as serve;
pub use znn_tensor as tensor;
