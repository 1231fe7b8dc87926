//! `znn-plan` — the one cost model: it prices the work of every edge,
//! turns prices into the engine's execution plan, and schedules the
//! same prices on the paper's machines.
//!
//! The paper's §IV observation is that the direct-vs-FFT crossover is
//! input-size *and* machine dependent, so any static choice is wrong
//! somewhere. Timing both paths at construction answers the method
//! question, but it cannot see pad shapes, and its answer moves with
//! whatever else the host is doing at that moment. This crate instead *prices* every candidate
//! strategy, and is the engine's only chooser:
//!
//! 1. [`cost`] is the only place work is priced: each edge's forward,
//!    backward and update work by class, from the paper's Tables I–II
//!    made pad- and radix-aware (the closed forms, as the paper states
//!    them, are [`flops`], [`tinf`] and [`brent`]: Tables I–IV, Eq. 1–2);
//! 2. a [`Machine`] — a Table V model or the microprobed host from
//!    [`Machine::detect`] — turns FLOPs into µs, and the Brent bound
//!    `T₁/P + T∞` turns edge costs into a round-time prediction;
//! 3. the [`Planner`] picks the argmin: per-edge method and per-node
//!    pad;
//! 4. the plan is fixed for the engine's life: the planner holds no
//!    state, so its answers are a pure function of (config, graph,
//!    output shape, workers) and never drift with measured
//!    round times — the Brent bound is a property of the task graph
//!    and the machine, not of any one run;
//! 5. [`simulate`] list-schedules a [`NetPlan`]'s task graph, priced
//!    by [`cost::task_costs`], on a [`Machine`] (§VIII, Figs 5–7).

//!
//! There is one path from policy to execution in `znn-core`: every
//! `ConvPolicy` resolves to one [`NetPlan`] at `Znn::new` — the forced
//! policies to [`NetPlan::force`], `Autotune` to [`Planner::plan`] —
//! and the engine runs only that plan (`Znn::with_plan` accepts a
//! caller's). `DenseNet` asks [`Planner::choose_forward`] per
//! geometry, once per input shape: its per-shape plan is cached and
//! derived through the same `znn-core` step that builds the engine's
//! conv geometry. Methods are compared in FLOP-equivalents — the machine's
//! speed would divide both prices — so methods and pads are a pure
//! function of (graph, output shape, `memoize_fft`): a resumed
//! `Autotune` run replays the same plan on any host. Only the
//! predicted times depend on the machine model.
//!
//! ```
//! use znn_plan::{Machine, PlanConfig, Planner};
//! use znn_graph::builder::scalability_net_3d;
//! use znn_tensor::Vec3;
//!
//! let (graph, _) = scalability_net_3d(2);
//! let planner = Planner::new(PlanConfig::for_machine(Machine::xeon_e5_18core()));
//! let plan = planner.plan(&graph, Vec3::cube(8), 18, 18).unwrap();
//! assert_eq!(plan.edges.len(), graph.edge_count());
//! assert!(plan.predicted_round_us > 0.0);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]
#![warn(unreachable_pub)]

pub mod brent;
pub mod cost;
pub mod flops;
pub mod machine;
mod planner;
mod sim;
pub mod tinf;

pub use machine::Machine;
pub use planner::{EdgePlan, NetPlan, PlanConfig, Planner};
pub use sim::{simulate, SimConfig, SimResult};

/// The paper's FFT constant (footnote 4): an `n³` transform costs `C·n³·log₂ n³`.
pub const DEFAULT_C: f64 = 5.0;
