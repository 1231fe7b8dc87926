//! Forward-only **dense-output** inference over a computation graph.
//!
//! Training wants gradients; serving wants *throughput on `&self`*.
//! [`DenseNet`] is the inference twin of [`crate::Znn`]: it evaluates a
//! (typically max-filtering) graph forward-only, with
//!
//! * **shared immutable state** — one net is safely shared by any
//!   number of worker threads (`&self` evaluation; the two interior
//!   caches sit behind locks and are read-only after warmup);
//! * **one plan per input shape** — derived through the step `Znn`
//!   builds its engine with (`NetGeometry::derive`) on the first
//!   evaluation at a shape, and only looked up after that;
//! * **memoized kernel spectra** — FFT-convolved edges transform each
//!   kernel once per transform geometry and every subsequent volume
//!   reuses the cached half-spectrum (§IV memoization, here across
//!   *requests* instead of across *passes*);
//! * **frequency-domain node sums** — a node whose in-edges are all
//!   FFT convolutions sharing one pad and crop (the rule `Znn` uses)
//!   adds every in-edge product into one pooled half-spectrum and pays
//!   one inverse transform when it is reached, not one per edge (§IV);
//!   the evaluation is sequential, so each sum runs in a fixed edge
//!   order and is deterministic;
//! * **cooperative cancellation** — [`DenseNet::forward_blocked`]
//!   evaluates the whole volume once and calls a checkpoint closure
//!   before each node step, so a server can abandon an expired request
//!   mid-volume with nothing recomputed, and every pooled lease is
//!   returned by RAII on the early exit.
//!
//! This is the library home of the `examples/sliding_window.rs` fast
//! path: the paper's Fig. 2 equivalence (a max-pooling net slid over
//! every output position computes the same function as the max-filtering
//! net run once) means a `DenseNet` over the filtering graph *is* the
//! dense sliding-window output, produced in one pass.

use crate::config::{Chooser, ConvPolicy};
use crate::state::{Contribution, NetGeometry, SpectrumCache};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::fmt;
use std::iter::zip;
use std::ops::ControlFlow;
use std::sync::Arc;
use znn_alloc::{lease_image, PoolSet};
use znn_fft::{good_shape, spectra, FftEngine};
use znn_graph::init::ParamSet;
use znn_graph::{shapes, EdgeOp, Graph, GraphError, NodeId};
use znn_ops::filter::max_filter_output;
use znn_ops::pool::max_pool;
use znn_ops::ConvMethod;
use znn_plan::Planner;
use znn_sched::Accumulate;
use znn_tensor::{ops, Image, Spectrum, Vec3};

/// Configuration for a [`DenseNet`].
#[derive(Clone)]
pub struct DenseConfig {
    /// Direct-vs-FFT selection per convolution geometry: forced, or
    /// (`Autotune`) priced by [`Planner::choose_forward`] — a pure
    /// function of the geometry, so nothing is timed on the serving
    /// path and every net resolves the same methods. FFT pads are
    /// `good_shape` when forced and the planner's radix-aware
    /// [`Planner::pad_for`] when priced.
    pub conv: ConvPolicy,
    /// Pooled allocator for outputs, windows and spectra; `None`
    /// falls back to plain allocation.
    pub pools: Option<Arc<PoolSet>>,
    /// Ignored: every transform runs on the calling thread. Kept for
    /// callers that still set it.
    pub fft_threads: usize,
    /// Memoize kernel half-spectra per (edge, transform shape). On by
    /// default — this is the read-only-after-warmup cache servers
    /// share across requests.
    pub memoize_spectra: bool,
    /// The planner `ConvPolicy::Autotune` prices through (unused by
    /// the forced policies). `None` (the default) lets the net build
    /// its own over the once-per-process host machine model; `Some`
    /// prices through a given machine model. A planner holds no state,
    /// so sharing one with other engines changes no answer.
    pub planner: Option<Arc<Planner>>,
}

impl Default for DenseConfig {
    fn default() -> Self {
        DenseConfig {
            conv: ConvPolicy::default(),
            pools: Some(PoolSet::global()),
            fft_threads: 1,
            memoize_spectra: true,
            planner: None,
        }
    }
}

/// Why a [`DenseNet`] could not be constructed.
#[derive(Debug)]
pub enum DenseError {
    /// The graph failed structural validation.
    Graph(GraphError),
    /// The graph admits no valid input shape.
    Shape(shapes::ShapeError),
}

impl fmt::Display for DenseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DenseError::Graph(e) => write!(f, "invalid graph: {e}"),
            DenseError::Shape(e) => write!(f, "invalid shapes: {e}"),
        }
    }
}

impl std::error::Error for DenseError {}

impl From<GraphError> for DenseError {
    fn from(e: GraphError) -> Self {
        DenseError::Graph(e)
    }
}

impl From<shapes::ShapeError> for DenseError {
    fn from(e: shapes::ShapeError) -> Self {
        DenseError::Shape(e)
    }
}

/// A [`DenseNet::forward_blocked`] evaluation stopped early because
/// its checkpoint closure returned [`ControlFlow::Break`]. All pooled
/// leases held for the cancelled evaluation have already been
/// returned. The counts are node steps (the fields keep their
/// historical names).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Cancelled {
    /// Node steps fully computed before the cancellation.
    pub blocks_done: usize,
    /// Total node steps the evaluation would have computed.
    pub blocks_total: usize,
}

impl fmt::Display for Cancelled {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "dense evaluation cancelled after {}/{} node steps",
            self.blocks_done, self.blocks_total
        )
    }
}

impl std::error::Error for Cancelled {}

/// Progress report passed to the [`DenseNet::forward_blocked`]
/// checkpoint before each node step (one graph node, in topological
/// order, over the whole volume).
#[derive(Debug, Clone, Copy)]
pub struct BlockEvent {
    /// Zero-based index of the node step about to run.
    pub index: usize,
    /// Total node steps in this evaluation (the graph's node count).
    pub total: usize,
}

/// A thread-safe forward-only evaluator producing dense outputs.
///
/// Construction validates the graph; evaluation is `&self` and may be
/// called concurrently from any number of threads. The per-shape plans
/// and the memoized kernel spectra are filled on first use — call
/// [`DenseNet::warmup`] once per served input shape to make them
/// read-only before sharing the net across server workers.
pub struct DenseNet {
    graph: Graph,
    params: ParamSet,
    fov: Vec3,
    cfg: DenseConfig,
    /// `cfg.conv` resolved once at construction.
    chooser: Chooser,
    fft: Arc<FftEngine>,
    /// The graph's topological order: one node step each.
    order: Vec<NodeId>,
    /// The plan per input shapes (one per input node); it depends only
    /// on shapes and the conv policy, so new parameters keep it.
    plans: Mutex<HashMap<Vec<Vec3>, Arc<NetGeometry>>>,
    /// Memoized kernel half-spectra per edge, keyed by transform shape
    /// — the cross-request §IV cache.
    kernel_spectra: Vec<SpectrumCache>,
}

impl DenseNet {
    /// Builds a dense evaluator over `graph` with deterministic
    /// parameter initialization from `seed`.
    pub fn new(graph: Graph, seed: u64, cfg: DenseConfig) -> Result<Self, DenseError> {
        let params = ParamSet::init(&graph, seed);
        Self::with_params(graph, params, cfg)
    }

    /// Builds a dense evaluator over `graph` using the given
    /// parameters (e.g. carried over from a trained [`crate::Znn`]).
    pub fn with_params(graph: Graph, params: ParamSet, cfg: DenseConfig) -> Result<Self, DenseError> {
        graph.validate()?;
        // the minimal input establishes that the graph admits *some*
        // dense evaluation; each concrete input shape gets its own plan
        // on first use
        let fov = shapes::required_input_shape(&graph, Vec3::one())?;
        let order = graph.topo_order()?;
        let edges = graph.edge_count();
        let mut fft = FftEngine::new();
        if let Some(p) = &cfg.pools {
            fft = fft.with_buffer_pools(Arc::clone(p));
        }
        let chooser = cfg.conv.chooser(cfg.planner.as_ref(), cfg.memoize_spectra);
        Ok(DenseNet {
            graph,
            params,
            fov,
            cfg,
            chooser,
            fft: Arc::new(fft),
            order,
            plans: Mutex::new(HashMap::new()),
            kernel_spectra: (0..edges).map(|_| SpectrumCache::default()).collect(),
        })
    }

    /// The graph this net evaluates.
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// Immutable access to the parameters.
    pub fn params(&self) -> &ParamSet {
        &self.params
    }

    /// Mutable access to the parameters. Invalidates the memoized
    /// kernel spectra (they are derived from the kernels being
    /// replaced); the per-shape plans stay.
    pub fn params_mut(&mut self) -> &mut ParamSet {
        self.kernel_spectra.iter().for_each(SpectrumCache::clear);
        &mut self.params
    }

    /// The pooled allocator this net leases from, if any (servers use
    /// it to report resident bytes alongside serving stats).
    pub fn pools(&self) -> Option<&Arc<PoolSet>> {
        self.cfg.pools.as_ref()
    }

    /// The field of view: the input shape that produces a single
    /// output voxel. For the shift-invariant graphs dense inference
    /// targets, an input of shape `n` produces output
    /// `n − fov + 1`.
    pub fn fov(&self) -> Vec3 {
        self.fov
    }

    /// Input shape required to produce `output_shape` dense outputs.
    pub fn input_shape_for(&self, output_shape: Vec3) -> Result<Vec3, shapes::ShapeError> {
        shapes::required_input_shape(&self.graph, output_shape)
    }

    /// Dense output shape for an input of shape `input`, or `None` if
    /// the input is smaller than the field of view.
    pub fn output_shape_for(&self, input: Vec3) -> Option<Vec3> {
        input.valid_conv(self.fov)
    }

    /// Number of kernel half-spectra currently memoized.
    pub fn memoized_spectra(&self) -> usize {
        self.kernel_spectra.iter().map(SpectrumCache::len).sum()
    }

    /// Bytes of kernel half-spectra currently memoized — the
    /// read-only-after-warmup cache shared across requests.
    pub fn memoized_spectrum_bytes(&self) -> usize {
        self.kernel_spectra.iter().map(SpectrumCache::bytes).sum()
    }

    /// Runs one throwaway evaluation at `input_shape` so every interior
    /// cache (the shape's plan, kernel spectra, FFT plans, pool
    /// classes) is populated.
    /// After warmup, evaluation at this shape takes no interior locks
    /// beyond cheap cache reads and allocates only from the pools.
    pub fn warmup(&self, input_shape: Vec3) {
        let inputs: Vec<Image> = self
            .graph
            .inputs()
            .iter()
            .map(|_| lease_image(self.cfg.pools.as_ref(), input_shape))
            .collect();
        let _ = self.forward_steps(&inputs, &mut |_| ControlFlow::Continue(()));
    }

    /// Dense forward pass for a single-input, single-output graph.
    ///
    /// The output has shape [`DenseNet::output_shape_for`]`(input.shape())`.
    pub fn forward(&self, input: &Image) -> Image {
        assert_eq!(self.graph.inputs().len(), 1, "forward wants a single-input graph");
        assert_eq!(self.graph.outputs().len(), 1, "forward wants a single-output graph");
        let never = &mut |_: &BlockEvent| ControlFlow::Continue(());
        let outs = self.forward_steps(std::slice::from_ref(input), never);
        let mut outs = outs.expect("a no-op checkpoint never cancels");
        outs.pop().expect("single output")
    }

    /// Dense forward pass with cooperative cancellation, for a
    /// single-input, single-output **shift-invariant** graph (no
    /// `MaxPool` edges — convert pooling nets to max-filtering nets
    /// first; the two compute the same dense function, Fig. 2).
    ///
    /// The whole volume is evaluated once, node by node in topological
    /// order; before each node step, `checkpoint` is called and may
    /// return [`ControlFlow::Break`] to abandon the evaluation (a
    /// server checks the request deadline here). The output is the
    /// same computation as [`DenseNet::forward`], so the two agree
    /// bitwise under every [`ConvPolicy`]. On cancellation every
    /// pooled lease has already been returned by RAII and the partial
    /// results are discarded.
    ///
    /// `_block` is unused: evaluation no longer tiles the output. The
    /// argument stays only so existing callers keep compiling.
    pub fn forward_blocked(
        &self,
        input: &Image,
        _block: Vec3,
        checkpoint: &mut dyn FnMut(&BlockEvent) -> ControlFlow<()>,
    ) -> Result<Image, Cancelled> {
        assert_eq!(self.graph.inputs().len(), 1, "forward_blocked wants a single-input graph");
        assert_eq!(self.graph.outputs().len(), 1, "forward_blocked wants a single-output graph");
        assert!(
            !self
                .graph
                .edges()
                .iter()
                .any(|e| matches!(e.op, EdgeOp::MaxPool { .. })),
            "forward_blocked requires a shift-invariant (max-filtering) graph; \
             found a MaxPool edge — build the equivalent max-filter net instead"
        );
        assert!(
            self.output_shape_for(input.shape()).is_some(),
            "input {} smaller than field of view {}",
            input.shape(),
            self.fov
        );
        let mut outs = self.forward_steps(std::slice::from_ref(input), checkpoint)?;
        Ok(outs.pop().expect("single output"))
    }

    /// The one evaluator behind every forward entry, returning the
    /// output node images in [`Graph::outputs`] order: each node in
    /// topological order is one step, and `checkpoint` is called
    /// before it. A `Break` drops every intermediate (returning its
    /// pooled bytes) and reports the steps already done.
    fn forward_steps(
        &self,
        inputs: &[Image],
        checkpoint: &mut dyn FnMut(&BlockEvent) -> ControlFlow<()>,
    ) -> Result<Vec<Image>, Cancelled> {
        let input_nodes = self.graph.inputs();
        assert_eq!(
            inputs.len(),
            input_nodes.len(),
            "expected {} input images",
            input_nodes.len()
        );
        let plan = self.plan(inputs.iter().map(|img| img.shape()).collect());
        let mut sums: Vec<Option<Contribution>> =
            (0..self.graph.node_count()).map(|_| None).collect();
        for (n, img) in input_nodes.iter().zip(inputs) {
            sums[n.0] = Some(Contribution::Spatial(img.clone()));
        }
        let outputs = self.graph.outputs();
        let mut outs: HashMap<usize, Image> = HashMap::new();
        let total = self.order.len();
        for (index, &n) in self.order.iter().enumerate() {
            if let ControlFlow::Break(()) = checkpoint(&BlockEvent { index, total }) {
                return Err(Cancelled {
                    blocks_done: index,
                    blocks_total: total,
                });
            }
            let sum = sums[n.0].take().expect("topological order fills sums");
            let img = sum.into_image(&self.fft, plan.fwd_freq[n.0]);
            let img = img.expect("forward contributions are always read");
            // the node's forward spectrum is computed once and shared
            // by every FFT-convolved edge leaving it (§IV)
            let node_spec = SpectrumCache::default();
            for &eid in &self.graph.node(n).out_edges {
                let to = self.graph.edge(eid).to;
                let out = self.edge_forward(eid.0, &img, &plan, to, &node_spec);
                match &mut sums[to.0] {
                    None => sums[to.0] = Some(out),
                    Some(acc) => acc.accumulate(out),
                }
            }
            if outputs.contains(&n) {
                outs.insert(n.0, img);
            }
        }
        Ok(outputs
            .iter()
            .map(|o| outs.remove(&o.0).expect("outputs filled by forward"))
            .collect())
    }

    /// The plan for evaluation at `input_shapes` (one per input node),
    /// derived on first use at those shapes.
    pub(crate) fn plan(&self, input_shapes: Vec<Vec3>) -> Arc<NetGeometry> {
        if let Some(p) = self.plans.lock().get(&input_shapes) {
            return Arc::clone(p);
        }
        let inputs = zip(self.graph.inputs(), input_shapes.iter().copied()).collect();
        let shape_of = shapes::infer_shapes_multi(&self.graph, inputs);
        let shape_of = shape_of.expect("input shapes must fit the graph");
        let plan = Arc::new(NetGeometry::derive(
            &self.graph,
            &shape_of,
            |_, n, k, sparsity| match &self.chooser {
                Chooser::Forced(method) => (*method, good_shape(n)),
                Chooser::Priced(p) => p.choose_forward(n, k, sparsity),
            },
            false,
        ));
        Arc::clone(self.plans.lock().entry(input_shapes).or_insert(plan))
    }

    fn kernel_spectrum(&self, eid: usize, w: &Image, sparsity: Vec3, m: Vec3) -> Arc<Spectrum> {
        // sparse kernels land on the skip lattice, exactly as in training
        let compute = || spectra::kernel_spectrum(&self.fft, w, sparsity, m);
        if !self.cfg.memoize_spectra {
            return Arc::new(compute());
        }
        self.kernel_spectra[eid].get_or_compute(m, compute)
    }

    /// One edge's forward contribution to node `to` under `plan`. An
    /// FFT product into a node that sums in the frequency domain is
    /// returned untransformed.
    fn edge_forward(
        &self,
        eid: usize,
        input: &Image,
        plan: &NetGeometry,
        to: NodeId,
        node_spec: &SpectrumCache,
    ) -> Contribution {
        let e = &self.graph.edges()[eid];
        let out = match e.op {
            EdgeOp::Conv { sparsity, .. } => {
                let geom = plan.conv[eid]
                    .as_ref()
                    .expect("every conv edge has a geometry");
                let w = self.params.kernels[eid].as_ref().expect("conv kernel");
                match geom.method {
                    ConvMethod::Direct => {
                        let d = geom.direct.as_ref().expect("direct edge has its tables");
                        let mut out = lease_image(self.cfg.pools.as_ref(), d.output_shape());
                        d.forward_into(input, w, &mut out);
                        out
                    }
                    ConvMethod::Fft => {
                        let m = geom.m;
                        let x_spec =
                            node_spec.get_or_compute(m, || self.fft.forward_padded(input, m));
                        let w_spec = self.kernel_spectrum(eid, w, sparsity, m);
                        let prod = ops::mul_s(&x_spec, &w_spec);
                        if plan.fwd_freq[to.0].is_some() {
                            return Contribution::Freq(prod);
                        }
                        self.fft
                            .inverse_real(prod, geom.crop_at, plan.node_shape[to.0])
                    }
                }
            }
            EdgeOp::MaxPool { window } => max_pool(input, window).output,
            EdgeOp::MaxFilter { window, sparsity } => max_filter_output(input, window, sparsity),
            EdgeOp::Transfer { function } => {
                let b = self.params.biases[eid].expect("transfer bias");
                function.forward(input, b)
            }
        };
        Contribution::Spatial(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use znn_graph::builder::scalability_net_3d;

    /// A plan is derived once per input shape: warmup fills it, requests
    /// at that shape only look it up, and a second shape adds one.
    #[test]
    fn plans_are_cached_per_input_shape() {
        for conv in [
            ConvPolicy::ForceDirect,
            ConvPolicy::ForceFft,
            ConvPolicy::Autotune,
        ] {
            let cfg = DenseConfig {
                conv,
                ..DenseConfig::default()
            };
            let mut dense = DenseNet::new(scalability_net_3d(2).0, 3, cfg).unwrap();
            let plans = |d: &DenseNet| d.plans.lock().len();
            let n = Vec3([28, 27, 26]);
            assert_eq!(plans(&dense), 0);
            dense.warmup(n);
            assert_eq!(plans(&dense), 1, "{conv:?}");
            let first = dense.plan(vec![n]);
            for seed in 0..3 {
                dense.forward(&ops::random(n, seed));
                dense
                    .forward_blocked(&ops::random(n, seed), n, &mut |_| ControlFlow::Continue(()))
                    .unwrap();
            }
            assert_eq!(plans(&dense), 1, "{conv:?}");
            assert!(Arc::ptr_eq(&first, &dense.plan(vec![n])));
            // new parameters keep the plan: it depends only on shapes
            let _ = dense.params_mut();
            dense.forward(&ops::random(n, 9));
            assert_eq!(plans(&dense), 1, "{conv:?}");
            let m = Vec3([27, 27, 27]);
            dense.forward(&ops::random(m, 4));
            dense.forward(&ops::random(m, 5));
            assert_eq!(plans(&dense), 2, "{conv:?}");
        }
    }
}
