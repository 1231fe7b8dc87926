//! The task dependency graph of one gradient-learning iteration
//! (paper §V, Fig 3).
//!
//! Every computation-graph edge contributes a forward, a backward and —
//! if trainable — an update task. A data-provider task feeds the input
//! nodes and one loss-gradient task per output node starts the backward
//! phase. Following Fig 3, an iteration is drawn as steps 3–5 of one
//! round followed by steps 1–2 of the next: backward tasks at the top,
//! then updates, then the data provider and the forward tasks, with
//! each forward task of a trainable edge additionally depending on that
//! edge's update task. This composite round is what the discrete-event
//! simulator (`znn_plan::simulate`) schedules to predict speedup.

use crate::graph::{EdgeId, Graph, NodeId};
use crate::priority;
use std::collections::HashMap;

/// Index of a task in a [`TaskGraph`].
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct TaskId(pub usize);

/// What a task computes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TaskKind {
    /// Forward transform of an edge.
    Forward(EdgeId),
    /// Backward (Jacobian) transform of an edge.
    Backward(EdgeId),
    /// Parameter update of a trainable edge.
    Update(EdgeId),
    /// Supplies the training sample to the named input node.
    DataProvider(NodeId),
    /// Computes ∂loss/∂output at the named output node.
    LossGradient(NodeId),
}

/// One task with its dependencies and queue priority.
#[derive(Clone, Debug)]
pub struct TaskSpec {
    /// What this task computes.
    pub kind: TaskKind,
    /// Tasks that must complete first.
    pub deps: Vec<TaskId>,
    /// Queue priority (smaller runs earlier; updates use `u64::MAX`).
    pub priority: u64,
}

/// The task dependency graph of one training iteration.
#[derive(Clone, Debug)]
pub struct TaskGraph {
    /// All tasks; `deps` index into this vector.
    pub tasks: Vec<TaskSpec>,
}

impl TaskGraph {
    /// Builds the composite-round task graph for `graph` (backward →
    /// update → forward of the next sample, per Fig 3).
    pub fn build(graph: &Graph) -> TaskGraph {
        let fwd_prio = priority::forward_priorities(graph);
        let bwd_prio = priority::backward_priorities(graph);
        let mut tasks: Vec<TaskSpec> = Vec::new();
        let mut bwd_of: HashMap<EdgeId, TaskId> = HashMap::new();
        let mut upd_of: HashMap<EdgeId, TaskId> = HashMap::new();
        let mut fwd_of: HashMap<EdgeId, TaskId> = HashMap::new();
        let mut loss_of: HashMap<NodeId, TaskId> = HashMap::new();

        // loss gradients at every output node start the round
        for out in graph.outputs() {
            let id = TaskId(tasks.len());
            tasks.push(TaskSpec {
                kind: TaskKind::LossGradient(out),
                deps: vec![],
                priority: 0,
            });
            loss_of.insert(out, id);
        }

        // backward tasks, created in reverse topological order so deps
        // already exist
        let order = graph.topo_order().expect("graph must be acyclic");
        for &node in order.iter().rev() {
            for &eid in &graph.node(node).in_edges {
                debug_assert_eq!(graph.edge(eid).to, node);
                let mut deps: Vec<TaskId> = Vec::new();
                if let Some(&lg) = loss_of.get(&node) {
                    deps.push(lg);
                }
                for &down in &graph.node(node).out_edges {
                    deps.push(bwd_of[&down]);
                }
                let id = TaskId(tasks.len());
                tasks.push(TaskSpec {
                    kind: TaskKind::Backward(eid),
                    deps,
                    priority: bwd_prio[&eid],
                });
                bwd_of.insert(eid, id);
            }
        }

        // update tasks depend on the edge's backward task (the forward
        // image is retained from the previous forward pass)
        for (i, e) in graph.edges().iter().enumerate() {
            let eid = EdgeId(i);
            if e.op.is_trainable() {
                let id = TaskId(tasks.len());
                tasks.push(TaskSpec {
                    kind: TaskKind::Update(eid),
                    deps: vec![bwd_of[&eid]],
                    priority: u64::MAX,
                });
                upd_of.insert(eid, id);
            }
        }

        // the data provider for the next sample has no dependencies
        let mut provider_of: HashMap<NodeId, TaskId> = HashMap::new();
        for input in graph.inputs() {
            let id = TaskId(tasks.len());
            tasks.push(TaskSpec {
                kind: TaskKind::DataProvider(input),
                deps: vec![],
                priority: 0,
            });
            provider_of.insert(input, id);
        }

        // forward tasks in topological order: depend on the forward
        // tasks producing their source node (or its data provider), and
        // on their own update task
        for &node in order.iter() {
            for &eid in &graph.node(node).out_edges {
                debug_assert_eq!(graph.edge(eid).from, node);
                let mut deps: Vec<TaskId> = Vec::new();
                if let Some(&p) = provider_of.get(&node) {
                    deps.push(p);
                }
                for &up in &graph.node(node).in_edges {
                    deps.push(fwd_of[&up]);
                }
                if let Some(&u) = upd_of.get(&eid) {
                    deps.push(u);
                }
                let id = TaskId(tasks.len());
                tasks.push(TaskSpec {
                    kind: TaskKind::Forward(eid),
                    deps,
                    priority: fwd_prio[&eid],
                });
                fwd_of.insert(eid, id);
            }
        }

        TaskGraph { tasks }
    }

    /// Number of tasks.
    pub fn len(&self) -> usize {
        self.tasks.len()
    }

    /// True when the graph holds no tasks.
    pub fn is_empty(&self) -> bool {
        self.tasks.is_empty()
    }

    /// Verifies the dependency relation is acyclic (it is by
    /// construction; exposed for tests).
    pub fn is_acyclic(&self) -> bool {
        // deps always reference earlier ids except forward-on-forward,
        // which follow topological order; do a real check anyway
        let n = self.tasks.len();
        let mut indeg = vec![0usize; n];
        let mut out: Vec<Vec<usize>> = vec![Vec::new(); n];
        for (i, t) in self.tasks.iter().enumerate() {
            for d in &t.deps {
                out[d.0].push(i);
                indeg[i] += 1;
            }
        }
        let mut stack: Vec<usize> = (0..n).filter(|&i| indeg[i] == 0).collect();
        let mut seen = 0;
        while let Some(i) = stack.pop() {
            seen += 1;
            for &j in &out[i] {
                indeg[j] -= 1;
                if indeg[j] == 0 {
                    stack.push(j);
                }
            }
        }
        seen == n
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::{scalability_net_3d, NetBuilder};
    use crate::graph::EdgeOp;
    use znn_ops::Transfer;
    use znn_tensor::Vec3;

    #[test]
    fn task_counts_match_structure() {
        let (g, _) = NetBuilder::new("t", 2)
            .conv(3, Vec3::cube(2))
            .transfer(Transfer::Relu)
            .build()
            .unwrap();
        let tg = TaskGraph::build(&g);
        let e = g.edge_count();
        let trainable = g
            .edges()
            .iter()
            .filter(|edge| edge.op.is_trainable())
            .count();
        // fwd + bwd per edge, update per trainable, 2 providers, 3 loss grads
        assert_eq!(tg.len(), 2 * e + trainable + 2 + 3);
        assert!(tg.is_acyclic());
    }

    #[test]
    fn forward_depends_on_update_of_same_edge() {
        let (g, _) = NetBuilder::new("t", 1)
            .conv(2, Vec3::cube(2))
            .build()
            .unwrap();
        let tg = TaskGraph::build(&g);
        for (i, t) in tg.tasks.iter().enumerate() {
            if let TaskKind::Forward(e) = t.kind {
                let has_update_dep = t.deps.iter().any(|d| {
                    matches!(tg.tasks[d.0].kind, TaskKind::Update(ue) if ue == e)
                });
                assert!(has_update_dep, "forward task {i} missing update dep");
            }
        }
    }

    #[test]
    fn backward_of_output_edges_depends_on_loss_gradient() {
        let (g, _) = NetBuilder::new("t", 1)
            .conv(2, Vec3::cube(2))
            .transfer(Transfer::Tanh)
            .build()
            .unwrap();
        let tg = TaskGraph::build(&g);
        for t in &tg.tasks {
            if let TaskKind::Backward(e) = t.kind {
                if g.node(g.edge(e).to).out_edges.is_empty() {
                    assert!(t
                        .deps
                        .iter()
                        .any(|d| matches!(tg.tasks[d.0].kind, TaskKind::LossGradient(_))));
                }
            }
        }
    }

    #[test]
    fn pooling_edges_have_no_update_task() {
        let (g, _) = NetBuilder::new("t", 1)
            .conv(1, Vec3::cube(2))
            .max_pool(Vec3::one())
            .build()
            .unwrap();
        let tg = TaskGraph::build(&g);
        for t in &tg.tasks {
            if let TaskKind::Update(e) = t.kind {
                assert!(
                    !matches!(g.edge(e).op, EdgeOp::MaxPool { .. }),
                    "pooling edge has an update task"
                );
            }
        }
    }

    #[test]
    fn paper_net_task_graph_scales_quadratically_in_width() {
        let t4 = TaskGraph::build(&scalability_net_3d(4).0).len();
        let t8 = TaskGraph::build(&scalability_net_3d(8).0).len();
        // conv tasks dominate: ~3w² edges × 3 tasks
        assert!(t8 > 3 * t4);
        assert!(TaskGraph::build(&scalability_net_3d(4).0).is_acyclic());
    }

    #[test]
    fn update_tasks_use_lowest_priority() {
        let (g, _) = NetBuilder::new("t", 1)
            .conv(2, Vec3::cube(2))
            .transfer(Transfer::Relu)
            .build()
            .unwrap();
        let tg = TaskGraph::build(&g);
        for t in &tg.tasks {
            match t.kind {
                TaskKind::Update(_) => assert_eq!(t.priority, u64::MAX),
                _ => assert!(t.priority < u64::MAX),
            }
        }
    }
}
