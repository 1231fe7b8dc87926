//! Overload-safe batched dense-inference serving.
//!
//! `znn-serve` productionizes the dense sliding-window workload
//! ([`znn_core::DenseNet`], the Fig. 2 one-pass equivalent of sliding
//! a recognition net over every output position) behind a bounded
//! MPMC request queue and a fixed set of batch workers, modeled on the
//! fixed-worker/batched-input/fan-back server shape of holmes'
//! parallel search server. All workers share one read-only-after-warmup
//! memoized kernel-spectrum cache and lease every buffer from the
//! pooled allocator, so steady-state serving allocates nothing and
//! resident memory stays flat under sustained traffic.
//!
//! Robustness is the point, enforced at four layers:
//!
//! 1. **Admission control** — [`Server::submit`] polls the queue's
//!    lock-free depth gauge and sheds with [`Rejected::Overloaded`]
//!    once the watermark is reached, *before* latency collapses. The
//!    shed rate is a first-class stat ([`ServeStats::shed_rate`]).
//! 2. **Graceful degradation** — past a second watermark, workers
//!    halve their batch size (faster turnaround) before any load is
//!    shed.
//! 3. **Deadlines** — every request may carry a latency budget. Each
//!    volume is evaluated once, whole, and the budget is checked
//!    cooperatively before every node step; an expired request
//!    cancels mid-volume ([`Rejected::DeadlineExceeded`]) with nothing
//!    recomputed, returns its pooled leases by RAII, and never blocks
//!    the batch behind it.
//! 4. **Panic containment** — each request is evaluated under
//!    `catch_unwind` with RAII-lease discipline: one malformed request
//!    poisons only its own response ([`Rejected::Panicked`]), never
//!    the server, and leaks zero pool bytes.
//!
//! Deterministic fault injection ([`znn_fault`]) drives all of it in
//! tests and the `serve_soak` bench: `SlowTask` stalls a request
//! mid-volume, `TaskPanic` panics it, `RejectLease` refuses its
//! buffer lease — keyed by request id, with recurring and
//! seeded-probabilistic schedules.
//!
//! ```
//! use std::sync::Arc;
//! use znn_core::{DenseConfig, DenseNet};
//! use znn_graph::NetBuilder;
//! use znn_ops::Transfer;
//! use znn_serve::{ServeConfig, Server};
//! use znn_tensor::{ops, Vec3};
//!
//! let graph = NetBuilder::new("net", 1)
//!     .conv(1, Vec3::flat(3, 3))
//!     .transfer(Transfer::Tanh)
//!     .build()
//!     .unwrap()
//!     .0;
//! let net = Arc::new(DenseNet::new(graph, 7, DenseConfig::default()).unwrap());
//! net.warmup(Vec3::flat(16, 16));
//! let server = Server::start(Arc::clone(&net), ServeConfig::default());
//! let out = server
//!     .submit(ops::random(Vec3::flat(16, 16), 1), None)
//!     .unwrap()
//!     .wait()
//!     .unwrap();
//! assert_eq!(Some(out.shape()), net.output_shape_for(Vec3::flat(16, 16)));
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]
#![warn(unreachable_pub)]

mod queue;
mod server;
mod stats;

pub use queue::{BoundedQueue, PushError};
pub use server::{Rejected, ServeConfig, Server, Ticket};
pub use stats::ServeStats;
