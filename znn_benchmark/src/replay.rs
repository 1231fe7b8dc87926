//! One operation replayed on one thread, layer call by layer call.
//!
//! The engine runs its layer calls inside scheduler tasks, where this
//! crate cannot put spans. So the traced run *replays* an operation
//! here: the same public layer functions, at the same shapes and the
//! same counts the engine performs — one forward transform per node per
//! distinct pad, one spectrum MAC per edge per pass, one inverse per
//! node per pass, one kernel re-transform and one kernel-gradient
//! inverse per edge per update — each call inside a span. The replay is
//! also a second, independent statement of the arithmetic: its loss
//! must agree with the engine's.

use crate::common::Outcome;
use crate::stats;
use crate::trace::Tracer;
use std::sync::Arc;
use znn_alloc::{lease_image, PoolSet};
use znn_fft::{good_shape, spectra, FftEngine};
use znn_graph::init::ParamSet;
use znn_graph::{shapes, EdgeOp, Graph, NodeId};
use znn_ops::filter::{max_filter, max_filter_backward, FilterImpl};
use znn_ops::{conv, ConvMethod, Loss};
use znn_plan::cost;
use znn_tensor::{ops, pad, Image, Spectrum, Tensor3, Vec3};

/// Work counted at the call sites of one replayed operation, for rates
/// (computed FLOPs and computed bytes — cache misses are not in them).
#[derive(Clone, Copy, Default, Debug)]
pub struct Work {
    /// Complex bins through `ops::mul_s`.
    pub cmac_elems: f64,
    /// Bytes through time-domain `ops::add_assign` (two reads, one write).
    pub add_bytes: f64,
    /// Model FLOPs of the image forward transforms.
    pub fwd_flops: f64,
    /// Bytes of the image forward transforms (real input + half-spectrum).
    pub fwd_bytes: f64,
    /// FLOPs of direct convolution, all three passes.
    pub direct_flops: f64,
}

/// Turns the spans of the replays into per-layer metrics — whichever the
/// replayed op has spans for; a layer it never entered gets none.
///
/// A layer's time is the fast decile over the replays of its self time,
/// scaled to one engine op (`rounds_per_op` replayed rounds). The layers'
/// sum plus `driver_ms_op` (work of the op outside the replayed rounds) is
/// set against `op_ms_p10_w1`, the engine's own time at one worker.
pub fn put_layer_metrics(
    out: &mut Outcome,
    tracer: &Tracer,
    work: &Work,
    fft: &FftEngine,
    rounds_per_op: f64,
    driver_ms_op: f64,
    op_ms_p10_w1: f64,
) {
    let self_ms = tracer.self_ms_per_op();
    let layer = |names: &[&str]| -> Option<f64> {
        let spans: Vec<_> = names.iter().filter_map(|n| self_ms.get(n)).collect();
        (!spans.is_empty()).then(|| {
            spans
                .iter()
                .map(|per_op| stats::p10(per_op) * rounds_per_op)
                .sum()
        })
    };
    // seconds per replayed round, the base of the rates
    let round_s = |names: &[&str]| layer(names).map(|ms| ms / rounds_per_op / 1e3);

    const TRANSFORMS: [&str; 4] = [
        "fft.fwd",
        "fft.inv",
        "fft.kernel_grad",
        "fft.kernel_spectrum",
    ];
    out.put_opt("fft.fwd_ms_op", layer(&["fft.fwd"]));
    out.put_opt("fft.inv_ms_op", layer(&["fft.inv", "fft.kernel_grad"]));
    out.put_opt("fft.kernel_spectrum_ms_op", layer(&["fft.kernel_spectrum"]));
    if let Some(s) = round_s(&["fft.fwd"]) {
        let first_replay_op = tracer.first_op_with("replay").expect("replays were traced");
        let transforms: usize = TRANSFORMS
            .iter()
            .map(|n| tracer.count_in_op(n, first_replay_op))
            .sum();
        out.put("fft.transforms_op", transforms as f64 * rounds_per_op);
        out.put("fft.cached_plans", fft.cached_plans() as f64);
        out.put("fft.fwd_gflops", work.fwd_flops / s / 1e9);
        out.put("fft.fwd_gbs", work.fwd_bytes / s / 1e9);
    }
    if let Some(s) = round_s(&["tensor.mul_s"]) {
        out.put("simd.cmac_ns_elem", s * 1e9 / work.cmac_elems);
    }
    out.put_opt("ops.direct_fwd_ms_op", layer(&["ops.direct_fwd"]));
    out.put_opt("ops.direct_bwd_ms_op", layer(&["ops.direct_bwd"]));
    out.put_opt("ops.direct_upd_ms_op", layer(&["ops.direct_upd"]));
    if let Some(s) = round_s(&["ops.direct_fwd", "ops.direct_bwd", "ops.direct_upd"]) {
        out.put("ops.direct_gflops", work.direct_flops / s / 1e9);
    }
    out.put_opt("ops.maxfilter_ms_op", layer(&["ops.maxfilter"]));
    out.put_opt("ops.transfer_ms_op", layer(&["ops.transfer"]));
    out.put_opt("ops.loss_ms_op", layer(&["ops.loss"]));
    out.put_opt("tensor.padcrop_ms_op", layer(&["tensor.padcrop"]));
    if let Some(s) = round_s(&["tensor.add"]) {
        out.put("tensor.add_gbs", work.add_bytes / s / 1e9);
    }

    // every span the replay itself recorded is a layer call; `core.*` and
    // `serve.*` spans wrap the engine and the server, `replay` is the root
    let layer_names: Vec<&str> = self_ms
        .keys()
        .copied()
        .filter(|n| n.contains('.') && !n.starts_with("core.") && !n.starts_with("serve."))
        .collect();
    let layers_sum = layer(&layer_names).unwrap_or(0.0) + driver_ms_op;
    out.put("core.layers_sum_ms_op", layers_sum);
    out.put("core.attributed_share", layers_sum / op_ms_p10_w1);
    out.put("core.unattributed_ms_op", op_ms_p10_w1 - layers_sum);
}

/// A frequency- or time-domain partial sum at a node.
enum Sum {
    Empty,
    Time(Image),
    Freq(Spectrum),
}

impl Sum {
    fn take(&mut self) -> Sum {
        std::mem::replace(self, Sum::Empty)
    }
}

/// Single-threaded replay of the training engine's round.
pub struct TrainReplay<'a> {
    graph: &'a Graph,
    shape: Vec<Vec3>,
    order: Vec<NodeId>,
    pub params: ParamSet,
    fft_conv: bool,
    pub fft: FftEngine,
    pools: Arc<PoolSet>,
    lr: f32,
    pub tracer: &'a Tracer,
    pub work: Work,
}

impl<'a> TrainReplay<'a> {
    pub fn new(
        graph: &'a Graph,
        output_shape: Vec3,
        seed: u64,
        method: ConvMethod,
        lr: f32,
        pools: Arc<PoolSet>,
        tracer: &'a Tracer,
    ) -> Self {
        let input_shape = shapes::required_input_shape(graph, output_shape).expect("valid net");
        let map = shapes::infer_shapes(graph, input_shape).expect("valid net");
        TrainReplay {
            graph,
            shape: (0..graph.node_count()).map(|i| map[&NodeId(i)]).collect(),
            order: graph.topo_order().expect("valid net"),
            params: ParamSet::init(graph, seed),
            fft_conv: method == ConvMethod::Fft,
            fft: FftEngine::with_threads(1).with_buffer_pools(Arc::clone(&pools)),
            pools,
            lr,
            tracer,
            work: Work::default(),
        }
    }

    fn add_time(&mut self, sum: &mut Sum, mut v: Image) {
        // Algorithm 4: the arriving contribution absorbs the parked one
        match sum.take() {
            Sum::Empty => {}
            Sum::Time(parked) => {
                self.work.add_bytes += 12.0 * v.len() as f64;
                self.tracer
                    .span("tensor.add", || ops::add_assign(&mut v, &parked));
            }
            Sum::Freq(_) => unreachable!("mixed domains at one node"),
        }
        *sum = Sum::Time(v);
    }

    fn add_freq(&mut self, sum: &mut Sum, mut v: Spectrum) {
        match sum.take() {
            Sum::Empty => {}
            Sum::Freq(parked) => self
                .tracer
                .span("tensor.add_s", || ops::add_assign_s(&mut v, &parked)),
            Sum::Time(_) => unreachable!("mixed domains at one node"),
        }
        *sum = Sum::Freq(v);
    }

    fn image_spectrum(&mut self, img: &Image, m: Vec3) -> Spectrum {
        self.work.fwd_flops += cost::fft3_flops(m);
        self.work.fwd_bytes += 4.0 * img.len() as f64 + 8.0 * Spectrum::half_shape(m).len() as f64;
        self.tracer
            .span("fft.fwd", || self.fft.forward_padded(img, m))
    }

    fn kernel_spectrum(&self, w: &Image, sparsity: Vec3, m: Vec3) -> Spectrum {
        self.tracer.span("fft.kernel_spectrum", || {
            if sparsity == Vec3::one() {
                self.fft.forward_padded(w, m)
            } else {
                let dilated = self
                    .tracer
                    .span("tensor.padcrop", || pad::dilate(w, sparsity));
                self.fft.forward_padded(&dilated, m)
            }
        })
    }

    /// One training round on `inputs`/`targets`; returns the loss.
    pub fn train_step(&mut self, inputs: &[Image], targets: &[Image]) -> f64 {
        let t = self.tracer;
        let g = self.graph;
        let nodes = g.node_count();
        let edges = g.edge_count();
        let mut fwd_sum: Vec<Sum> = (0..nodes).map(|_| Sum::Empty).collect();
        let mut fwd_img: Vec<Option<Image>> = vec![None; nodes];
        let mut fwd_spec: Vec<Option<Spectrum>> = (0..nodes).map(|_| None).collect();
        let mut w_spec: Vec<Option<Spectrum>> = (0..edges).map(|_| None).collect();
        let mut saved_y: Vec<Option<Image>> = vec![None; edges];
        let mut argmax: Vec<Option<Tensor3<u32>>> = vec![None; edges];
        for (n, img) in g.inputs().iter().zip(inputs) {
            fwd_sum[n.0] = Sum::Time(img.clone());
        }

        // forward
        for &n in &self.order.clone() {
            let img = match fwd_sum[n.0].take() {
                Sum::Time(i) => i,
                Sum::Freq(spec) => {
                    // all in-edges are FFT convs of one geometry
                    let e = g.edge(g.node(n).in_edges[0]);
                    let EdgeOp::Conv { kernel, sparsity } = e.op else {
                        unreachable!()
                    };
                    let crop_at = kernel.dilated(sparsity) - Vec3::one();
                    let shape = self.shape[n.0];
                    t.span("fft.inv", || self.fft.inverse_real(spec, crop_at, shape))
                }
                Sum::Empty => unreachable!("topological order fills sums"),
            };
            for &eid in &g.node(n).out_edges {
                let to = g.edge(eid).to.0;
                match g.edge(eid).op {
                    EdgeOp::Conv { kernel, sparsity } => {
                        let w = self.params.kernels[eid.0].clone().expect("conv kernel");
                        if self.fft_conv {
                            let m = good_shape(self.shape[n.0]);
                            if fwd_spec[n.0].is_none() {
                                fwd_spec[n.0] = Some(self.image_spectrum(&img, m));
                            }
                            let ws = self.kernel_spectrum(&w, sparsity, m);
                            let xs = fwd_spec[n.0].as_ref().expect("just computed");
                            self.work.cmac_elems += xs.stored_bins() as f64;
                            let prod = t.span("tensor.mul_s", || ops::mul_s(xs, &ws));
                            w_spec[eid.0] = Some(ws);
                            let mut sum = fwd_sum[to].take();
                            self.add_freq(&mut sum, prod);
                            fwd_sum[to] = sum;
                        } else {
                            let out_shape =
                                conv::valid_shape(img.shape(), kernel, sparsity).expect("valid");
                            let mut out =
                                t.span("alloc.lease", || lease_image(Some(&self.pools), out_shape));
                            self.work.direct_flops += 2.0 * (out_shape.len() * kernel.len()) as f64;
                            t.span("ops.direct_fwd", || {
                                conv::conv_valid_into(&img, &w, sparsity, &mut out)
                            });
                            let mut sum = fwd_sum[to].take();
                            self.add_time(&mut sum, out);
                            fwd_sum[to] = sum;
                        }
                    }
                    EdgeOp::Transfer { function } => {
                        let bias = self.params.biases[eid.0].expect("transfer bias");
                        let y = t.span("ops.transfer", || function.forward(&img, bias));
                        // the engine keeps one copy for the Jacobian and
                        // passes one on
                        saved_y[eid.0] = Some(t.span("tensor.copy", || y.clone()));
                        fwd_sum[to] = Sum::Time(y);
                    }
                    EdgeOp::MaxFilter { window, sparsity } => {
                        let r = t.span("ops.maxfilter", || {
                            max_filter(&img, window, sparsity, FilterImpl::Deque)
                        });
                        argmax[eid.0] = Some(r.argmax);
                        fwd_sum[to] = Sum::Time(r.output);
                    }
                    EdgeOp::MaxPool { .. } => unimplemented!("no workload uses pooling edges"),
                }
            }
            fwd_img[n.0] = Some(img);
        }

        // loss and its gradient at the outputs
        let mut bwd_sum: Vec<Sum> = (0..nodes).map(|_| Sum::Empty).collect();
        let mut loss = 0.0;
        for (o, target) in g.outputs().iter().zip(targets) {
            let y = fwd_img[o.0].as_ref().expect("forward completed");
            let grad = t.span("ops.loss", || {
                loss += Loss::Mse.value(y, target);
                Loss::Mse.gradient(y, target)
            });
            bwd_sum[o.0] = Sum::Time(grad);
        }

        // backward, with each edge's update right behind its gradient
        for &n in self.order.clone().iter().rev() {
            if g.node(n).in_edges.is_empty() && matches!(bwd_sum[n.0], Sum::Empty) {
                continue;
            }
            let grad = match bwd_sum[n.0].take() {
                Sum::Time(i) => i,
                Sum::Freq(spec) => {
                    let shape = self.shape[n.0];
                    t.span("fft.inv", || {
                        self.fft.inverse_real(spec, Vec3::zero(), shape)
                    })
                }
                Sum::Empty => unreachable!("reverse topological order fills sums"),
            };
            let mut g_spec: Option<Spectrum> = None;
            for &eid in &g.node(n).in_edges {
                let from = g.edge(eid).from.0;
                match g.edge(eid).op {
                    EdgeOp::Conv { kernel, sparsity } => {
                        if self.fft_conv {
                            let m = good_shape(self.shape[from]);
                            if g_spec.is_none() {
                                g_spec = Some(self.image_spectrum(&grad, m));
                            }
                            let gs = g_spec.as_ref().expect("just computed");
                            let ws = w_spec[eid.0].take().expect("memoized in the forward pass");
                            let vs = t.span("fft.spectra", || {
                                spectra::flip_spectrum(&ws, kernel.dilated(sparsity))
                            });
                            self.work.cmac_elems += gs.stored_bins() as f64;
                            let prod = t.span("tensor.mul_s", || ops::mul_s(gs, &vs));
                            let mut sum = bwd_sum[from].take();
                            self.add_freq(&mut sum, prod);
                            bwd_sum[from] = sum;
                            // update from the memoized spectra
                            let xs = fwd_spec[from]
                                .as_ref()
                                .expect("memoized in the forward pass");
                            let corr = t.span("fft.spectra", || spectra::corr_spectrum(xs, gs));
                            let dw = t.span("fft.kernel_grad", || {
                                spectra::kernel_gradient_from_corr(
                                    &self.fft, corr, kernel, sparsity,
                                )
                            });
                            let w = self.params.kernels[eid.0].as_mut().expect("conv kernel");
                            t.span("tensor.sgd", || ops::sub_scaled(w, self.lr, &dw));
                        } else {
                            let x = fwd_img[from].as_ref().expect("forward image retained");
                            let w = self.params.kernels[eid.0].as_ref().expect("conv kernel");
                            self.work.direct_flops +=
                                2.0 * ((x.len() + grad.len()) * kernel.len()) as f64;
                            let back = t.span("ops.direct_bwd", || {
                                conv::input_gradient(&grad, w, sparsity)
                            });
                            let mut sum = bwd_sum[from].take();
                            self.add_time(&mut sum, back);
                            bwd_sum[from] = sum;
                            let dw = t.span("ops.direct_upd", || {
                                conv::kernel_gradient(x, &grad, kernel, sparsity)
                            });
                            let w = self.params.kernels[eid.0].as_mut().expect("conv kernel");
                            t.span("tensor.sgd", || ops::sub_scaled(w, self.lr, &dw));
                        }
                    }
                    EdgeOp::Transfer { function } => {
                        let y = saved_y[eid.0].take().expect("forward before backward");
                        let (back, db) = t.span("ops.transfer", || {
                            let back = function.backward(&grad, &y);
                            let db = back.sum();
                            (back, db)
                        });
                        *self.params.biases[eid.0].as_mut().expect("transfer bias") -= self.lr * db;
                        bwd_sum[from] = Sum::Time(back);
                    }
                    EdgeOp::MaxFilter { .. } => {
                        let am = argmax[eid.0].take().expect("forward before backward");
                        let in_shape = self.shape[from];
                        let back = t.span("ops.maxfilter", || {
                            max_filter_backward(&grad, &am, in_shape)
                        });
                        bwd_sum[from] = Sum::Time(back);
                    }
                    EdgeOp::MaxPool { .. } => unimplemented!("no workload uses pooling edges"),
                }
            }
        }
        loss
    }
}

/// Single-threaded replay of `DenseNet::forward_blocked` for a
/// single-input, single-output FFT-convolved filtering net: per block a
/// halo'd window crop, per node one forward transform shared by its
/// out-edges, per edge one MAC against the cached kernel spectrum and
/// one inverse, time-domain sums, and the block pasted into the output.
pub struct DenseReplay<'a> {
    graph: &'a Graph,
    order: Vec<NodeId>,
    params: &'a ParamSet,
    fov: Vec3,
    pub fft: FftEngine,
    pools: Arc<PoolSet>,
    /// The read-only-after-warm-up cache: (edge, transform shape).
    kernel_spectra: std::collections::HashMap<(usize, Vec3), Spectrum>,
    pub tracer: &'a Tracer,
    pub work: Work,
}

impl<'a> DenseReplay<'a> {
    pub fn new(
        graph: &'a Graph,
        params: &'a ParamSet,
        pools: Arc<PoolSet>,
        tracer: &'a Tracer,
    ) -> Self {
        DenseReplay {
            graph,
            order: graph.topo_order().expect("valid net"),
            params,
            fov: shapes::required_input_shape(graph, Vec3::one()).expect("valid net"),
            fft: FftEngine::with_threads(1).with_buffer_pools(Arc::clone(&pools)),
            pools,
            kernel_spectra: std::collections::HashMap::new(),
            tracer,
            work: Work::default(),
        }
    }

    fn forward(&mut self, input: Image) -> Image {
        let t = self.tracer;
        let g = self.graph;
        let mut sums: Vec<Option<Image>> = vec![None; g.node_count()];
        sums[g.inputs()[0].0] = Some(input);
        let out_node = g.outputs()[0];
        for &n in &self.order.clone() {
            let img = sums[n.0].take().expect("topological order fills sums");
            if n == out_node {
                return img;
            }
            let mut x_spec: Option<Spectrum> = None;
            for &eid in &g.node(n).out_edges {
                let out = match g.edge(eid).op {
                    EdgeOp::Conv { kernel, sparsity } => {
                        let m = good_shape(img.shape());
                        if x_spec.is_none() {
                            self.work.fwd_flops += cost::fft3_flops(m);
                            self.work.fwd_bytes +=
                                4.0 * img.len() as f64 + 8.0 * Spectrum::half_shape(m).len() as f64;
                            x_spec = Some(t.span("fft.fwd", || self.fft.forward_padded(&img, m)));
                        }
                        if !self.kernel_spectra.contains_key(&(eid.0, m)) {
                            let w = self.params.kernels[eid.0].as_ref().expect("conv kernel");
                            let ws = t.span("fft.kernel_spectrum", || {
                                self.fft.forward_padded(&pad::dilate(w, sparsity), m)
                            });
                            self.kernel_spectra.insert((eid.0, m), ws);
                        }
                        let xs = x_spec.as_ref().expect("just computed");
                        let ws = &self.kernel_spectra[&(eid.0, m)];
                        self.work.cmac_elems += xs.stored_bins() as f64;
                        let prod = t.span("tensor.mul_s", || ops::mul_s(xs, ws));
                        let kd = kernel.dilated(sparsity);
                        let out_shape = img.shape().valid_conv(kd).expect("valid");
                        t.span("fft.inv", || {
                            self.fft.inverse_real(prod, kd - Vec3::one(), out_shape)
                        })
                    }
                    EdgeOp::Transfer { function } => {
                        let b = self.params.biases[eid.0].expect("transfer bias");
                        t.span("ops.transfer", || function.forward(&img, b))
                    }
                    EdgeOp::MaxFilter { window, sparsity } => t.span("ops.maxfilter", || {
                        max_filter(&img, window, sparsity, FilterImpl::Deque).output
                    }),
                    EdgeOp::MaxPool { .. } => {
                        unimplemented!("blocked evaluation needs a filtering net")
                    }
                };
                let to = g.edge(eid).to.0;
                match &mut sums[to] {
                    None => sums[to] = Some(out),
                    Some(acc) => {
                        self.work.add_bytes += 12.0 * out.len() as f64;
                        t.span("tensor.add", || ops::add_assign(acc, &out));
                    }
                }
            }
        }
        unreachable!("the output node is in the topological order")
    }

    /// One whole volume, tiled exactly as the server tiles it.
    pub fn forward_blocked(&mut self, input: &Image, block: Vec3) -> Image {
        let t = self.tracer;
        let out_shape = input
            .shape()
            .valid_conv(self.fov)
            .expect("input covers the field of view");
        let halo = self.fov - Vec3::one();
        let mut out = t.span("alloc.lease", || lease_image(Some(&self.pools), out_shape));
        let counts = Vec3([
            out_shape[0].div_ceil(block[0]),
            out_shape[1].div_ceil(block[1]),
            out_shape[2].div_ceil(block[2]),
        ]);
        for b in counts.iter() {
            let origin = b * block;
            let shape = Vec3::min(&(out_shape - origin), block);
            let mut win = t.span("alloc.lease", || {
                lease_image(Some(&self.pools), shape + halo)
            });
            t.span("tensor.padcrop", || pad::crop_into(input, origin, &mut win));
            let block_out = self.forward(win);
            t.span("tensor.padcrop", || {
                pad::pad_into(&block_out, &mut out, origin)
            });
        }
        out
    }
}
