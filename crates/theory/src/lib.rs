//! Compatibility stub: the paper's closed forms live in `znn-plan`
//! (`znn_plan::flops`, `znn_plan::tinf`, `znn_plan::brent`). This crate
//! only re-exports what the out-of-workspace `znn_benchmark` crate
//! imports from it; the next change to the benchmark deletes it.

#![forbid(unsafe_code)]
#![warn(unreachable_pub)]

pub use znn_plan::brent::{achievable_speedup, NetworkModel};
pub use znn_plan::flops::{ConvAlgorithm, LayerModel};
pub use znn_plan::DEFAULT_C;
