//! The ZNN computation graph (paper §II) and everything derived from
//! its structure: shape inference, the two distance-based strict
//! orderings that become task priorities (§VI-A), and the task
//! dependency graph of one gradient-learning iteration (§V, Fig 3).
//!
//! A ConvNet is a DAG whose **nodes are 3D images** and whose **edges
//! are filtering operations** — convolution (possibly sparse),
//! max-pooling, max-filtering, or a transfer function. Edges converging
//! on a node sum their outputs. ZNN "works for general computation
//! graphs", and so does this crate; [`builder`] provides the layered
//! fully-connected architectures of the paper's experiments as a
//! convenience on top.

#![warn(missing_docs)]
#![forbid(unsafe_code)]
#![warn(unreachable_pub)]

pub mod builder;
pub mod init;
mod graph;
pub mod priority;
pub mod shapes;
pub mod taskgraph;

pub use builder::NetBuilder;
pub use graph::{Edge, EdgeId, EdgeOp, Graph, GraphError, Node, NodeId};
pub use taskgraph::{TaskGraph, TaskId, TaskKind, TaskSpec};
