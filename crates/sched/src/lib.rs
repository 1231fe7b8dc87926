//! ZNN's task scheduling and synchronization machinery (paper §VI–VII).
//!
//! The entire gradient-learning computation is decomposed into tasks
//! (one forward, backward and update task per computation-graph edge)
//! that a fixed set of workers execute from a **global priority queue**.
//! This crate implements that machinery, independent of what the tasks
//! compute:
//!
//! * [`queue`] — the global task queue as a *heap of lists*: insertion
//!   and removal cost O(log K) in the number of **distinct priorities**
//!   K rather than O(log N) in the number of tasks (§VII-A). FIFO and
//!   LIFO policies from §X are provided for the scheduling ablation.
//! * [`executor`] — the priority scheduler: each worker repeatedly
//!   picks the highest-priority ready task and runs it (§VI-B). A task
//!   runs start to finish on the worker that picked it — an FFT inside
//!   a convolution task included — so the worker count is the whole
//!   thread budget.
//! * [`pool`] — a persistent fork-join [`ThreadPool`], with
//!   [`ThreadPool::scope`] and the free [`scope`] on the
//!   [`global_pool`]; the layer-at-a-time baseline splits each layer
//!   over it.
//! * [`stealing`] — the work-stealing alternative scheduler mentioned in
//!   §X: the fork-join pool behind the [`Scheduler`] interface.
//!
//!   These are **one worker pool with three queue disciplines** — the
//!   heap-of-lists priority queue, the same queue in FIFO or LIFO order,
//!   and per-worker work-stealing deques — sharing one worker loop,
//!   park/wake protocol, panic containment, quiescence wait and
//!   shutdown.
//! * [`update`] — the FORCE state machine of Algorithms 1–3: forward
//!   tasks *force* their edge's pending update task — executing it
//!   inline (Queued), delegating themselves to its executor (Executing),
//!   or proceeding (Completed) — so **no thread ever waits** on an
//!   update and the updated kernel is used while cache-hot.
//! * [`sum`] — the wait-free concurrent summation of Algorithm 4: the
//!   O(n³) image additions happen outside the critical section; only
//!   pointer swaps happen inside.
//! * [`latch`] — a countdown latch used to detect the end of a training
//!   round.
//!
//! Priorities are `u64`s where **smaller runs earlier**; update tasks
//! use [`UPDATE_PRIORITY`] (the lowest of all, §VI-A).

#![warn(missing_docs)]
#![warn(clippy::undocumented_unsafe_blocks)]
#![warn(unreachable_pub)]

mod deque;
pub mod executor;
pub mod latch;
pub mod pool;
pub mod queue;
pub mod stealing;
pub mod sum;
pub mod update;
mod worker;

pub use executor::{Executor, SchedStats, Scheduler, Task};
pub use latch::Latch;
pub use pool::{global_pool, scope, Scope, ThreadPool};
pub use queue::QueuePolicy;
pub use stealing::StealingExecutor;
pub use sum::{Accumulate, ConcurrentSum};
pub use update::UpdateHandle;

/// The priority of update tasks — lower than every other task (§VI-A:
/// "the update tasks will have the lowest priority of all tasks").
pub const UPDATE_PRIORITY: u64 = u64::MAX;

#[cfg(test)]
mod tests;
