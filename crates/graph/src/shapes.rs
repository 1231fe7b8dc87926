//! Shape inference over the computation graph.
//!
//! Forward inference propagates input shapes through every edge and
//! checks that convergent edges agree. Backward inference computes the
//! input patch a desired output patch requires — the "field of view"
//! arithmetic of §II-A.

use crate::graph::{Graph, GraphError, NodeId};
use std::collections::HashMap;
use znn_tensor::Vec3;

/// Errors from shape inference.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ShapeError {
    /// An edge cannot be applied to its input shape.
    DoesNotFit {
        /// Name of the source node.
        node: String,
        /// The offending input shape.
        input: Vec3,
    },
    /// Two convergent edges produce different shapes at the named node.
    ConvergenceMismatch {
        /// Name of the target node.
        node: String,
        /// The two disagreeing shapes.
        shapes: (Vec3, Vec3),
    },
    /// A structural error surfaced during traversal.
    Graph(GraphError),
}

impl std::fmt::Display for ShapeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ShapeError::DoesNotFit { node, input } => {
                write!(f, "edge out of node {node} does not fit input {input}")
            }
            ShapeError::ConvergenceMismatch { node, shapes } => write!(
                f,
                "convergent edges at {node} produce {} vs {}",
                shapes.0, shapes.1
            ),
            ShapeError::Graph(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for ShapeError {}

/// Propagates shapes from the inputs; returns the shape of every node.
///
/// `input_shape` is applied to every input node (the paper's networks
/// have a single input; multi-input graphs with distinct shapes can use
/// [`infer_shapes_multi`]).
pub fn infer_shapes(graph: &Graph, input_shape: Vec3) -> Result<HashMap<NodeId, Vec3>, ShapeError> {
    let seed = graph
        .inputs()
        .into_iter()
        .map(|n| (n, input_shape))
        .collect();
    infer_shapes_multi(graph, seed)
}

/// Shape propagation with per-input shapes.
pub fn infer_shapes_multi(
    graph: &Graph,
    inputs: HashMap<NodeId, Vec3>,
) -> Result<HashMap<NodeId, Vec3>, ShapeError> {
    let order = graph.topo_order().map_err(ShapeError::Graph)?;
    let mut shapes: HashMap<NodeId, Vec3> = inputs;
    for n in order {
        let Some(&shape) = shapes.get(&n) else {
            continue; // unreachable node with no seed
        };
        for &eid in &graph.node(n).out_edges {
            let edge = graph.edge(eid);
            let out = edge.op.output_shape(shape).ok_or_else(|| ShapeError::DoesNotFit {
                node: graph.node(n).name.clone(),
                input: shape,
            })?;
            match shapes.get(&edge.to) {
                None => {
                    shapes.insert(edge.to, out);
                }
                Some(&existing) if existing == out => {}
                Some(&existing) => {
                    return Err(ShapeError::ConvergenceMismatch {
                        node: graph.node(edge.to).name.clone(),
                        shapes: (existing, out),
                    })
                }
            }
        }
    }
    Ok(shapes)
}

/// Computes the input shape required for every output node to have
/// shape `output_shape` — walking the graph backwards with the
/// per-edge inverse shape rule and taking the elementwise maximum where
/// paths merge.
pub fn required_input_shape(graph: &Graph, output_shape: Vec3) -> Result<Vec3, ShapeError> {
    let order = graph.topo_order().map_err(ShapeError::Graph)?;
    let mut need: HashMap<NodeId, Vec3> = graph
        .outputs()
        .into_iter()
        .map(|n| (n, output_shape))
        .collect();
    for &n in order.iter().rev() {
        let Some(&out_need) = need.get(&n) else {
            continue;
        };
        for &eid in &graph.node(n).in_edges {
            let edge = graph.edge(eid);
            let in_need = edge.op.required_input_shape(out_need);
            need.entry(edge.from)
                .and_modify(|v| *v = Vec3::max(v, in_need))
                .or_insert(in_need);
        }
    }
    // every input node receives the same patch shape; take the maximum
    // requirement over all of them (paths not reaching any output place
    // no requirement and default to the others')
    let inputs = graph.inputs();
    if inputs.is_empty() {
        return Err(ShapeError::Graph(GraphError::NoInputs));
    }
    let shape = inputs
        .iter()
        .filter_map(|n| need.get(n).copied())
        .reduce(|a, b| Vec3::max(&a, b))
        .expect("at least one input is reachable from an output");
    Ok(shape)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::EdgeOp;
    use znn_ops::Transfer;

    fn chain() -> Graph {
        // in -C3-> a -T-> b -P2-> c
        let mut g = Graph::new();
        let i = g.add_node("in");
        let a = g.add_node("a");
        let b = g.add_node("b");
        let c = g.add_node("c");
        g.add_edge(
            i,
            a,
            EdgeOp::Conv {
                kernel: Vec3::cube(3),
                sparsity: Vec3::one(),
            },
        );
        g.add_edge(
            a,
            b,
            EdgeOp::Transfer {
                function: Transfer::Relu,
            },
        );
        g.add_edge(
            b,
            c,
            EdgeOp::MaxPool {
                window: Vec3::cube(2),
            },
        );
        g
    }

    #[test]
    fn forward_inference_walks_the_chain() {
        let g = chain();
        let shapes = infer_shapes(&g, Vec3::cube(10)).unwrap();
        assert_eq!(shapes[&NodeId(1)], Vec3::cube(8));
        assert_eq!(shapes[&NodeId(2)], Vec3::cube(8));
        assert_eq!(shapes[&NodeId(3)], Vec3::cube(4));
    }

    #[test]
    fn backward_inference_inverts_forward() {
        let g = chain();
        let input = required_input_shape(&g, Vec3::cube(4)).unwrap();
        assert_eq!(input, Vec3::cube(10));
        let shapes = infer_shapes(&g, input).unwrap();
        assert_eq!(shapes[&NodeId(3)], Vec3::cube(4));
    }

    #[test]
    fn merging_paths_take_the_elementwise_maximum() {
        // two paths needing 1x9x1 and 2x1x1 must get 2x9x1, not the
        // lexicographic maximum 2x1x1 — whether the paths merge at one
        // input node or at two separate inputs
        let conv = |x, y, z| EdgeOp::Conv {
            kernel: Vec3::new(x, y, z),
            sparsity: Vec3::one(),
        };
        let mut one_input = Graph::new();
        let i = one_input.add_node("in");
        let a = one_input.add_node("a");
        let b = one_input.add_node("b");
        one_input.add_edge(i, a, conv(1, 9, 1));
        one_input.add_edge(i, b, conv(2, 1, 1));
        let mut two_inputs = Graph::new();
        let i1 = two_inputs.add_node("in1");
        let i2 = two_inputs.add_node("in2");
        let out = two_inputs.add_node("out");
        two_inputs.add_edge(i1, out, conv(1, 9, 1));
        two_inputs.add_edge(i2, out, conv(2, 1, 1));
        for g in [one_input, two_inputs] {
            let need = required_input_shape(&g, Vec3::one()).unwrap();
            assert_eq!(need, Vec3::new(2, 9, 1));
        }
    }

    #[test]
    fn too_small_input_errors() {
        let g = chain();
        let err = infer_shapes(&g, Vec3::cube(2)).unwrap_err();
        assert!(matches!(err, ShapeError::DoesNotFit { .. }));
    }

    #[test]
    fn indivisible_pooling_errors() {
        let g = chain();
        // input 9 -> conv -> 7, pooling by 2 fails
        let err = infer_shapes(&g, Vec3::cube(9)).unwrap_err();
        assert!(matches!(err, ShapeError::DoesNotFit { .. }));
    }

    #[test]
    fn convergence_mismatch_is_detected() {
        let mut g = Graph::new();
        let i = g.add_node("in");
        let a = g.add_node("a");
        let b = g.add_node("b");
        let h = g.add_node("h");
        let c3 = EdgeOp::Conv {
            kernel: Vec3::cube(3),
            sparsity: Vec3::one(),
        };
        let c5 = EdgeOp::Conv {
            kernel: Vec3::cube(5),
            sparsity: Vec3::one(),
        };
        g.add_edge(i, a, c3);
        g.add_edge(i, b, c3);
        g.add_edge(a, h, c3); // 10 -> 8 -> 6
        g.add_edge(b, h, c5); // 10 -> 8 -> 4: mismatch at h
        let err = infer_shapes(&g, Vec3::cube(10)).unwrap_err();
        assert!(matches!(err, ShapeError::ConvergenceMismatch { .. }));
    }

    #[test]
    fn sparse_field_of_view_matches_hand_computation() {
        // C(k=3,s=2): fov grows by s(k-1) = 4
        let mut g = Graph::new();
        let i = g.add_node("in");
        let o = g.add_node("out");
        g.add_edge(
            i,
            o,
            EdgeOp::Conv {
                kernel: Vec3::cube(3),
                sparsity: Vec3::cube(2),
            },
        );
        assert_eq!(required_input_shape(&g, Vec3::one()).unwrap(), Vec3::cube(5));
    }
}
