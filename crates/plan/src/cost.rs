//! The one cost model: what each edge of a network costs in each pass,
//! from the paper's FLOP counts (Tables I–II) made pad- and
//! radix-aware. `pass_work` is the only place the work of a pass is
//! stated, split into four classes: **transform** (3D r2c/c2r at the
//! **padded** shape the engine plans, each line length decomposed into
//! its 2^a·3^b·5^c radix stages and weighted per radix, which is why
//! 5-smooth pads usually beat power-of-two pads despite more voxels),
//! **pointwise** (half-spectrum products, sums, flips), **direct**
//! (time-domain multiply-adds) and **sweep** (transfer, pooling,
//! filtering). The planner prices the round of `round_work`; the
//! simulator prices each task of [`task_costs`]. Shared work is
//! amortized the way the engine shares it: a node's image transform
//! across its out-edges, the inverse of a node sum across its in-edges.

use crate::{EdgePlan, NetPlan, DEFAULT_C};
use std::collections::HashMap;
use znn_graph::{shapes, EdgeOp, Graph, NodeId, TaskGraph, TaskKind};
use znn_ops::ConvMethod;
use znn_tensor::Vec3;

/// Relative cost per log₂ unit of a radix-4 stage (the workhorse of
/// the iterative Stockham path; two log₂ units per stage).
const W_RADIX4: f64 = 0.85;
/// Relative cost per log₂ unit of a radix-2 stage.
const W_RADIX2: f64 = 1.0;
/// Relative cost per log₂ unit of a radix-3 stage (log₂3 ≈ 1.585
/// units per stage).
const W_RADIX3: f64 = 1.1;
/// Relative cost per log₂ unit of a radix-5 stage (log₂5 ≈ 2.322
/// units per stage).
const W_RADIX5: f64 = 1.25;

/// Weighted stage cost of a 5-smooth line length, in equivalent
/// radix-2 log₂ units. `stage_units(l) / log2(l)` is the mix factor
/// relative to the textbook `N·log₂N`; a pure power of two running
/// radix-4 stages comes out *below* 1.0.
pub(crate) fn stage_units(len: usize) -> f64 {
    if len <= 1 {
        return 0.0;
    }
    let mut l = len;
    let mut units = 0.0;
    while l.is_multiple_of(4) {
        units += 2.0 * W_RADIX4;
        l /= 4;
    }
    while l.is_multiple_of(2) {
        units += W_RADIX2;
        l /= 2;
    }
    while l.is_multiple_of(3) {
        units += W_RADIX3 * 3f64.log2();
        l /= 3;
    }
    while l.is_multiple_of(5) {
        units += W_RADIX5 * 5f64.log2();
        l /= 5;
    }
    if l > 1 {
        // non-smooth residue: priced as a generic O(n²)-ish straggler,
        // heavily penalized so the planner never *prefers* it (the
        // engine's pad candidates are always smooth, so this only
        // triggers for hand-built plans)
        units += 4.0 * (l as f64).log2();
    }
    units
}

/// FLOPs of one 3D r2c (or c2r) transform at padded shape `m`: the
/// theory model's `C·N·log₂N` per axis, radix-weighted, halved for the
/// half-spectrum (the r2c packed stage does each real axis pass at
/// half length, and the two complex axes sweep half the bins).
pub fn fft3_flops(m: Vec3) -> f64 {
    let n = m.len() as f64;
    if m.len() <= 1 {
        return 0.0;
    }
    let units: f64 = m.0.iter().map(|&l| stage_units(l)).sum();
    0.5 * DEFAULT_C * n * units
}

/// FLOPs of one pointwise pass over the half-spectrum of pad `m`
/// (complex multiply ≈ 6 real FLOPs per bin, ≈ `m.len()/2` bins —
/// folded to `3·|m|` and priced at [`PW_EFF`] because these sweeps are
/// bandwidth-bound, not FLOP-bound).
pub(crate) fn pointwise_flops(m: Vec3) -> f64 {
    3.0 * m.len() as f64
}

/// Effective FLOP efficiency of pointwise/bandwidth-bound sweeps
/// relative to the machine's dense-kernel throughput.
pub const PW_EFF: f64 = 0.25;

/// One pass of an edge: the three passes of a training round, or the
/// forward pass of serving.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Pass {
    /// Training forward pass.
    Forward,
    /// Training backward pass (the input gradient).
    Backward,
    /// Training update pass (the kernel or bias gradient).
    Update,
    /// Serving forward pass: kernel spectra are kept across requests.
    Serve,
}

/// The work of one edge in one pass (or a round), by class, in FLOPs.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Work {
    /// Transforms the pass always runs, one term each in run order (0
    /// when unused); a transform shared by `d` edges enters at `1/d`.
    pub transforms: [f64; 3],
    /// Transforms memoization saves (Table II), added last.
    pub retransforms: f64,
    /// Half-spectrum pointwise sweeps (bandwidth-bound: [`PW_EFF`]).
    pub pointwise: f64,
    /// Direct convolution, 2 per multiply-accumulate.
    pub direct: f64,
    /// Transfer, max-pool and max-filter sweeps (bandwidth-bound).
    pub sweep: f64,
}

impl Work {
    /// All transform FLOPs, re-transforms last.
    pub fn transform(&self) -> f64 {
        self.transforms.iter().sum::<f64>() + self.retransforms
    }

    /// FLOP-equivalents: the bandwidth-bound classes (pointwise, sweep)
    /// divided by [`PW_EFF`], plus the rest — the unit the planner
    /// compares methods in and the simulator schedules in.
    pub(crate) fn flop_eq(&self) -> f64 {
        self.transform() + self.direct + (self.pointwise + self.sweep) / PW_EFF
    }
}

/// One edge as the cost model sees it.
#[derive(Clone, Copy, Debug)]
pub struct EdgeSite {
    /// The edge's operation.
    pub op: EdgeOp,
    /// Image shape at the from-node.
    pub from: Vec3,
    /// Image shape at the to-node.
    pub to: Vec3,
    /// Edges sharing the from-node's image transform (its out-degree).
    pub d_out: usize,
    /// Edges sharing the inverse of the to-node's sum (its in-degree).
    pub d_in: usize,
    /// Method and pad of a convolution edge; `None` for other ops.
    pub conv: Option<(ConvMethod, Vec3)>,
}

/// The site of every edge of `graph` (image shapes `shape_of`), indexed
/// like `graph.edges()`, each convolution run as its entry of `plan`.
pub(crate) fn edge_sites(
    graph: &Graph,
    shape_of: &HashMap<NodeId, Vec3>,
    plan: &[Option<EdgePlan>],
) -> Vec<EdgeSite> {
    let sites = graph.edges().iter().zip(plan).map(|(e, ep)| EdgeSite {
        op: e.op,
        from: shape_of[&e.from],
        to: shape_of[&e.to],
        d_out: graph.node(e.from).out_edges.len().max(1),
        d_in: graph.node(e.to).in_edges.len().max(1),
        conv: ep.map(|ep| (ep.method, ep.pad)),
    });
    sites.collect()
}

/// The work of one edge in one pass. Without `memoize` (Table II) the
/// backward pass re-transforms the kernel, the update its two operands.
///
/// # Panics
///
/// If the site is a convolution without a method and pad.
pub(crate) fn pass_work(site: &EdgeSite, pass: Pass, memoize: bool) -> Work {
    let nu = site.from.len() as f64;
    let nv = site.to.len() as f64;
    let mut w = Work::default();
    match site.op {
        EdgeOp::Conv { kernel, sparsity } => {
            let (method, pad) = site.conv.expect("conv edge must be planned");
            match method {
                ConvMethod::Direct => {
                    // |out|·|k| MACs, the backward |n|·|k|; skip kernels
                    // touch as many taps, sparsity only moves `out`
                    let taps = kernel.len() as f64;
                    w.direct = match site.from.valid_conv(kernel.dilated(sparsity)) {
                        Some(_) if pass == Pass::Backward => 2.0 * taps * nu,
                        Some(out) => 2.0 * taps * out.len() as f64,
                        None => f64::INFINITY,
                    };
                }
                ConvMethod::Fft => {
                    let t3 = fft3_flops(pad);
                    let (d_out, d_in) = (site.d_out as f64, site.d_in as f64);
                    // per pass: transforms in the order they run, the
                    // memoizable re-transforms (in units of t3) and the
                    // pointwise sweeps. Forward: shared image transform,
                    // kernel transform, shared inverse; product and
                    // frequency-domain sum. Backward: shared gradient
                    // transform, shared inverse, kernel re-transform;
                    // product and spectrum flip. Update: the kernel-
                    // gradient inverse, two forward re-transforms; the
                    // correlation product. Serve: shared image transform
                    // and inverse; product.
                    let (transforms, retransforms, sweeps) = match pass {
                        Pass::Forward => ([t3 / d_out, t3, t3 / d_in], 0.0, 2.0),
                        Pass::Backward => ([t3 / d_in, t3 / d_out, 0.0], 1.0, 2.0),
                        Pass::Update => ([t3, 0.0, 0.0], 2.0, 1.0),
                        Pass::Serve => ([t3 / d_out, t3 / d_in, 0.0], 0.0, 1.0),
                    };
                    w.transforms = transforms;
                    w.retransforms = if memoize { 0.0 } else { retransforms * t3 };
                    w.pointwise = sweeps * pointwise_flops(pad);
                }
            }
        }
        // the update is the bias gradient
        EdgeOp::Transfer { .. } => {
            w.sweep = if pass == Pass::Update {
                nv + 1.0
            } else {
                2.0 * nv
            }
        }
        // forward scan, backward scatter
        EdgeOp::MaxPool { window } | EdgeOp::MaxFilter { window, .. } => {
            w.sweep = match pass {
                Pass::Forward | Pass::Serve => {
                    6.0 * nu * (window.len() as f64).log2().max(1.0) + nv
                }
                Pass::Backward => nv + nu,
                Pass::Update => 0.0,
            }
        }
    }
    w
}

/// The work of one edge over a training round, summed class by class;
/// transforms in the order the passes run them, re-transforms last.
pub(crate) fn round_work(site: &EdgeSite, memoize: bool) -> Work {
    let passes = [Pass::Forward, Pass::Backward, Pass::Update].map(|p| pass_work(site, p, memoize));
    let total = |class: fn(&Work) -> f64| passes.iter().map(class).sum::<f64>();
    Work {
        transforms: [passes.iter().flat_map(|p| p.transforms).sum(), 0.0, 0.0],
        retransforms: total(|w| w.retransforms),
        pointwise: total(|w| w.pointwise),
        direct: total(|w| w.direct),
        sweep: total(|w| w.sweep),
    }
}

/// The task graph of `graph` trained at `output_shape` under `plan`,
/// each task priced in FLOP-equivalents — what [`crate::simulate`]
/// schedules. An edge task costs its pass of `pass_work`; data and
/// loss-gradient tasks cost nothing, as the planner's round has none.
pub fn task_costs(
    graph: &Graph,
    output_shape: Vec3,
    plan: &NetPlan,
    memoize: bool,
) -> Result<(TaskGraph, Vec<f64>), shapes::ShapeError> {
    let input_shape = shapes::required_input_shape(graph, output_shape)?;
    let shape_of = shapes::infer_shapes(graph, input_shape)?;
    let tg = TaskGraph::build(graph);
    let sites = edge_sites(graph, &shape_of, &plan.edges);
    let costs = tg
        .tasks
        .iter()
        .map(|t| match t.kind {
            TaskKind::Forward(e) => pass_work(&sites[e.0], Pass::Forward, memoize).flop_eq(),
            TaskKind::Backward(e) => pass_work(&sites[e.0], Pass::Backward, memoize).flop_eq(),
            TaskKind::Update(e) => pass_work(&sites[e.0], Pass::Update, memoize).flop_eq(),
            TaskKind::DataProvider(_) | TaskKind::LossGradient(_) => 0.0,
        })
        .collect();
    Ok((tg, costs))
}

#[cfg(test)]
mod tests {
    use super::*;
    use znn_graph::builder::scalability_net_3d;
    use znn_graph::NetBuilder;

    /// A convolution of an `n` image by a `k` kernel at pad `n`.
    fn conv_site(n: Vec3, k: Vec3, method: ConvMethod, d_out: usize, d_in: usize) -> EdgeSite {
        let op = EdgeOp::Conv {
            kernel: k,
            sparsity: Vec3::one(),
        };
        EdgeSite {
            op,
            from: n,
            to: n,
            d_out,
            d_in,
            conv: Some((method, n)),
        }
    }

    fn forced_costs(g: &Graph, out: Vec3, m: ConvMethod, memo: bool) -> (TaskGraph, Vec<f64>) {
        task_costs(g, out, &NetPlan::force(g, out, m, 1, false).unwrap(), memo).unwrap()
    }

    fn total(costs: &[f64]) -> f64 {
        costs.iter().sum()
    }

    #[test]
    fn smooth_pads_beat_pow2_pads() {
        // 24 = 2³·3 stays 24 under good_shape but inflates to 32 under
        // pow2; the radix-aware model must prefer the smooth pad
        assert!(fft3_flops(Vec3::cube(24)) < fft3_flops(Vec3::cube(32)));
        assert!(fft3_flops(Vec3::flat(48, 60)) < fft3_flops(Vec3::flat(64, 64)));
    }

    #[test]
    fn pure_pow2_mix_is_below_textbook() {
        // radix-4 stages price a 64-point line below C·N·log₂N
        let l = 64usize;
        assert!(stage_units(l) < (l as f64).log2());
    }

    #[test]
    fn direct_cost_grows_with_kernel_fft_does_not() {
        let n = Vec3::cube(24);
        let direct = |k| round_work(&conv_site(n, Vec3::cube(k), ConvMethod::Direct, 1, 1), true);
        let d3 = direct(3).direct;
        let d7 = direct(7).direct;
        assert!(d7 > 5.0 * d3);
        let fft = round_work(&conv_site(n, Vec3::cube(3), ConvMethod::Fft, 1, 1), true);
        let (t3, p3) = (fft.transform(), fft.pointwise);
        assert!(t3 > 0.0 && p3 > 0.0);
        // the paper's crossover: at 3³ direct wins, at 7³ FFT wins
        assert!(d3 < t3 + p3 / PW_EFF);
        assert!(d7 > t3 + p3 / PW_EFF);
    }

    #[test]
    fn memoization_only_cheapens() {
        let site = conv_site(Vec3::cube(32), Vec3::cube(3), ConvMethod::Fft, 2, 3);
        let plain = round_work(&site, false).transform();
        let memo = round_work(&site, true).transform();
        assert!(memo < plain);
    }

    #[test]
    fn degenerate_shapes_are_finite() {
        assert_eq!(fft3_flops(Vec3::one()), 0.0);
        assert_eq!(stage_units(1), 0.0);
        let site = conv_site(Vec3::cube(4), Vec3::cube(8), ConvMethod::Direct, 1, 1);
        assert!(round_work(&site, true).direct.is_infinite());
    }

    #[test]
    fn fft_layer_transform_counts_match_table_ii() {
        // one fully connected conv layer f -> f' with memoization: its
        // per-pass transforms, summed over the layer, are Table II's
        // right column — f + f' + ff' forward, f + f' backward, ff' update
        let (f, fp) = (3.0, 4.0);
        let (g, _) = NetBuilder::new("layer", 3)
            .conv(4, Vec3::cube(3))
            .build()
            .unwrap();
        let out = Vec3::cube(6);
        let plan = NetPlan::force(&g, out, ConvMethod::Fft, 1, false).unwrap();
        let shape_of = shapes::infer_shapes(&g, Vec3::cube(8)).unwrap();
        let t3 = fft3_flops(plan.edges[0].unwrap().pad);
        let sites = edge_sites(&g, &shape_of, &plan.edges);
        for (pass, table) in [
            (Pass::Forward, f + fp + f * fp),
            (Pass::Backward, f + fp),
            (Pass::Update, f * fp),
        ] {
            let count: f64 = sites
                .iter()
                .map(|s| pass_work(s, pass, true).transform() / t3)
                .sum();
            assert!(
                (count - table).abs() < 1e-12 * table,
                "{pass:?}: {count} vs {table}"
            );
        }
    }

    #[test]
    fn totals_scale_quadratically_with_width() {
        let out = Vec3::cube(12);
        let t = |w: usize| {
            let (g, _) = scalability_net_3d(w);
            let (_, c) = forced_costs(&g, out, ConvMethod::Direct, false);
            total(&c)
        };
        let ratio = t(16) / t(8);
        assert!((3.0..4.5).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn memoization_cheapens_backward_and_update_only() {
        let out = Vec3::cube(12);
        let (g, _) = scalability_net_3d(4);
        let (tg, plain) = forced_costs(&g, out, ConvMethod::Fft, false);
        let (_, memo) = forced_costs(&g, out, ConvMethod::Fft, true);
        for (i, t) in tg.tasks.iter().enumerate() {
            match t.kind {
                TaskKind::Forward(_) | TaskKind::DataProvider(_) | TaskKind::LossGradient(_) => {
                    assert_eq!(plain[i], memo[i], "forward costs must not change");
                }
                TaskKind::Backward(e) | TaskKind::Update(e) => {
                    if matches!(g.edge(e).op, EdgeOp::Conv { .. }) {
                        assert!(memo[i] <= plain[i], "memoized task {i} costs more");
                    }
                }
            }
        }
        assert!(total(&memo) < total(&plain));
    }

    #[test]
    fn every_task_has_a_finite_nonnegative_cost() {
        let (g, _) = scalability_net_3d(3);
        for (method, memo) in [
            (ConvMethod::Direct, false),
            (ConvMethod::Fft, false),
            (ConvMethod::Fft, true),
        ] {
            let (_, costs) = forced_costs(&g, Vec3::cube(12), method, memo);
            assert!(costs.iter().all(|c| c.is_finite() && *c >= 0.0));
        }
    }
}
