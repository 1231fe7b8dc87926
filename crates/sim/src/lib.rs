//! Compatibility stub: the simulator and the machine models live in
//! `znn-plan` (`znn_plan::simulate`, `znn_plan::machine`). This crate only
//! re-exports what the out-of-workspace `znn_benchmark` crate imports
//! from it; the next change to the benchmark deletes it.

#![forbid(unsafe_code)]
#![warn(unreachable_pub)]

pub use znn_plan::Machine;
