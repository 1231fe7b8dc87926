//! The layer-at-a-time data-parallel engine (the "GPU-style" baseline).
//!
//! GPU ConvNet frameworks parallelize *within* a layer and synchronize
//! *between* layers (paper §XI: "computation on one whole layer at a
//! time"). This engine reproduces that execution model on the CPU: all
//! edges whose source sits at the same depth run in parallel, then a
//! barrier, then the next depth. Each level is one fork-join scope on
//! `znn-sched`'s [global pool](znn_sched::global_pool), a persistent
//! worker pool — no threads are spawned per level. Convolution is always
//! direct — the property that drives the FFT-vs-direct crossover in
//! Figs 8–9.

use crate::reference::{ReferenceNet, Saved};
use znn_graph::{shapes, EdgeOp, Graph};
use znn_ops::{conv, Loss};
use znn_sched::{global_pool, ThreadPool};
use znn_tensor::{ops, Image, Vec3};

/// Evaluates `f` on every item on `pool`, one contiguous chunk per pool
/// worker, and returns the results in input order — so the output
/// equals the sequential `items.iter().map(f).collect()` exactly.
pub(crate) fn chunked_map<T: Sync, R: Send>(
    pool: &ThreadPool,
    items: &[T],
    f: impl Fn(&T) -> R + Sync,
) -> Vec<R> {
    let chunks = pool.workers().min(items.len());
    if chunks <= 1 {
        return items.iter().map(f).collect();
    }
    let f = &f;
    let chunks: Vec<&[T]> = items.chunks(items.len().div_ceil(chunks)).collect();
    let mut parts: Vec<Vec<R>> = chunks.iter().map(|c| Vec::with_capacity(c.len())).collect();
    pool.scope(|s| {
        for (chunk, out) in chunks.iter().zip(parts.iter_mut()) {
            s.spawn(move |_| out.extend(chunk.iter().map(f)));
        }
    });
    parts.into_iter().flatten().collect()
}

/// Layer-parallel trainer with barriers between depths.
pub struct LayerwiseNet {
    inner: ReferenceNet,
    fwd_levels: Vec<Vec<usize>>, // edge ids grouped by source-node depth
    bwd_levels: Vec<Vec<usize>>, // edge ids grouped by target-node depth-from-outputs
}

impl LayerwiseNet {
    /// Builds the engine; see [`ReferenceNet::new`] for sizing.
    pub fn new(graph: Graph, output_shape: Vec3, seed: u64) -> Result<Self, shapes::ShapeError> {
        let depth_in = znn_graph::priority::distance_from_inputs(&graph);
        let depth_out = znn_graph::priority::distance_to_outputs(&graph);
        let max_in = depth_in.iter().copied().max().unwrap_or(0);
        let max_out = depth_out.iter().copied().max().unwrap_or(0);
        let mut fwd_levels = vec![Vec::new(); max_in + 1];
        let mut bwd_levels = vec![Vec::new(); max_out + 1];
        for (i, e) in graph.edges().iter().enumerate() {
            fwd_levels[depth_in[e.from.0]].push(i);
            bwd_levels[depth_out[e.to.0]].push(i);
        }
        let inner = ReferenceNet::new(graph, output_shape, seed)?;
        Ok(LayerwiseNet {
            inner,
            fwd_levels,
            bwd_levels,
        })
    }

    /// The input patch shape.
    pub fn input_shape(&self) -> Vec3 {
        self.inner.input_shape()
    }

    /// Parameter access (aligning engines in tests).
    pub fn params_mut(&mut self) -> &mut znn_graph::init::ParamSet {
        self.inner.params_mut()
    }

    /// Immutable parameter access.
    pub fn params(&self) -> &znn_graph::init::ParamSet {
        self.inner.params()
    }

    /// Layer-parallel forward pass.
    pub fn forward(&mut self, inputs: &[Image]) -> Vec<Image> {
        let graph = self.inner.graph.clone();
        let input_nodes = graph.inputs();
        assert_eq!(inputs.len(), input_nodes.len());
        let mut sums: Vec<Option<Image>> = vec![None; graph.node_count()];
        for (n, img) in input_nodes.iter().zip(inputs) {
            assert_eq!(img.shape(), self.inner.input_shape);
            sums[n.0] = Some(img.clone());
        }
        for level in &self.fwd_levels {
            // finalize the images of this level's source nodes
            for &eid in level {
                let from = graph.edges()[eid].from;
                if let Some(img) = sums[from.0].take() {
                    self.inner.node_fwd[from.0] = Some(img);
                }
            }
            // barrier-synchronized parallel sweep over the level's edges
            let inner = &self.inner;
            let results: Vec<(usize, Image, Saved)> = chunked_map(global_pool(), level, |&eid| {
                let from = graph.edges()[eid].from;
                let img = inner.node_fwd[from.0]
                    .as_ref()
                    .expect("level order fills source images");
                let (out, saved) = inner.edge_forward(eid, img);
                (eid, out, saved)
            });
            // deterministic sequential accumulation
            for (eid, out, saved) in results {
                self.inner.saved[eid] = saved;
                let to = graph.edges()[eid].to;
                match &mut sums[to.0] {
                    None => sums[to.0] = Some(out),
                    Some(acc) => ops::add_assign(acc, &out),
                }
            }
        }
        // output nodes never have out-edges: their sums become images now
        graph
            .outputs()
            .iter()
            .map(|o| {
                let img = sums[o.0].take().expect("forward reaches outputs");
                self.inner.node_fwd[o.0] = Some(img.clone());
                img
            })
            .collect()
    }

    /// Layer-parallel backward + SGD update.
    pub fn backward(&mut self, output_grads: &[Image], eta: f32) {
        let graph = self.inner.graph.clone();
        let outputs = graph.outputs();
        assert_eq!(output_grads.len(), outputs.len());
        let mut sums: Vec<Option<Image>> = vec![None; graph.node_count()];
        for (n, g) in outputs.iter().zip(output_grads) {
            sums[n.0] = Some(g.clone());
        }
        let mut node_bwd: Vec<Option<Image>> = vec![None; graph.node_count()];
        let mut kernel_grads: Vec<(usize, Image)> = Vec::new();
        let mut bias_grads: Vec<(usize, f32)> = Vec::new();
        for level in &self.bwd_levels {
            for &eid in level {
                let to = graph.edges()[eid].to;
                if let Some(g) = sums[to.0].take() {
                    node_bwd[to.0] = Some(g);
                }
            }
            // parallel: backward transform + parameter gradients
            let inner = &self.inner;
            let results: Vec<(usize, Image, Option<Image>, Option<f32>)> =
                chunked_map(global_pool(), level, |&eid| {
                    let e = &graph.edges()[eid];
                    let g = node_bwd[e.to.0].as_ref().expect("level order");
                    let back = inner.edge_backward(eid, g);
                    let (dw, db) = match e.op {
                        EdgeOp::Conv { kernel, sparsity } => {
                            let x = inner.node_fwd[e.from.0]
                                .as_ref()
                                .expect("forward retained");
                            (Some(conv::kernel_gradient(x, g, kernel, sparsity)), None)
                        }
                        EdgeOp::Transfer { .. } => (None, Some(back.sum())),
                        _ => (None, None),
                    };
                    (eid, back, dw, db)
                });
            for (eid, back, dw, db) in results {
                if let Some(dw) = dw {
                    kernel_grads.push((eid, dw));
                }
                if let Some(db) = db {
                    bias_grads.push((eid, db));
                }
                let from = graph.edges()[eid].from;
                match &mut sums[from.0] {
                    None => sums[from.0] = Some(back),
                    Some(acc) => ops::add_assign(acc, &back),
                }
            }
        }
        for (eid, dw) in kernel_grads {
            let w = self.inner.params.kernels[eid].as_mut().expect("kernel");
            ops::sub_scaled(w, eta, &dw);
        }
        for (eid, db) in bias_grads {
            let b = self.inner.params.biases[eid].as_mut().expect("bias");
            *b -= eta * db;
        }
    }

    /// One training step; returns the loss.
    pub fn train_step(
        &mut self,
        inputs: &[Image],
        targets: &[Image],
        loss: Loss,
        eta: f32,
    ) -> f64 {
        let outputs = self.forward(inputs);
        let mut total = 0.0;
        let grads: Vec<Image> = outputs
            .iter()
            .zip(targets)
            .map(|(y, t)| {
                total += loss.value(y, t);
                loss.gradient(y, t)
            })
            .collect();
        self.backward(&grads, eta);
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use znn_graph::builder::comparison_net;
    use znn_graph::NetBuilder;
    use znn_ops::Transfer;
    use znn_tensor::Tensor3;

    #[test]
    fn layerwise_matches_reference_forward() {
        let (g, _) = NetBuilder::new("lw", 1)
            .conv(3, Vec3::cube(2))
            .transfer(Transfer::Tanh)
            .conv(2, Vec3::cube(2))
            .build()
            .unwrap();
        let mut seq = ReferenceNet::new(g.clone(), Vec3::cube(2), 5).unwrap();
        let mut par = LayerwiseNet::new(g, Vec3::cube(2), 5).unwrap();
        let x = ops::random(seq.input_shape(), 6);
        let a = seq.forward(std::slice::from_ref(&x));
        let b = par.forward(&[x]);
        assert!(a[0].max_abs_diff(&b[0]) < 1e-5);
    }

    #[test]
    fn layerwise_matches_reference_after_training_steps() {
        let (g, _) = comparison_net(2, Vec3::flat(3, 3), Vec3::flat(2, 2), false);
        let mut seq = ReferenceNet::new(g.clone(), Vec3::flat(2, 2), 7).unwrap();
        let mut par = LayerwiseNet::new(g, Vec3::flat(2, 2), 7).unwrap();
        let x = ops::random(seq.input_shape(), 8);
        let t = Tensor3::<f32>::zeros(Vec3::flat(2, 2));
        for step in 0..5 {
            let la = seq.train_step(std::slice::from_ref(&x), std::slice::from_ref(&t), Loss::Mse, 0.02);
            let lb = par.train_step(std::slice::from_ref(&x), std::slice::from_ref(&t), Loss::Mse, 0.02);
            assert!(
                (la - lb).abs() < 1e-4 * (1.0 + la.abs()),
                "step {step}: {la} vs {lb}"
            );
        }
        assert!(seq.params().max_abs_diff(par.params()) < 1e-3);
    }

    #[test]
    fn sparse_training_runs_on_the_layerwise_engine() {
        let (g, _) = comparison_net(2, Vec3::flat(3, 3), Vec3::flat(2, 2), true);
        let mut net = LayerwiseNet::new(g, Vec3::flat(3, 3), 9).unwrap();
        let x = ops::random(net.input_shape(), 10);
        let t = Tensor3::<f32>::zeros(Vec3::flat(3, 3));
        let l0 = net.train_step(std::slice::from_ref(&x), std::slice::from_ref(&t), Loss::Mse, 0.02);
        let mut l = l0;
        for _ in 0..20 {
            l = net.train_step(std::slice::from_ref(&x), std::slice::from_ref(&t), Loss::Mse, 0.02);
        }
        assert!(l < l0);
    }
}
