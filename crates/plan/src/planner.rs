//! The planner: prices the cost model through a [`Machine`] and picks
//! a per-edge execution plan — a pure function of its configuration
//! and the net it is asked about.

use crate::cost::{self, EdgeSite, Pass};
use crate::Machine;
use std::collections::HashMap;
use znn_fft::{good_shape, pow2_shape};
use znn_graph::{shapes, EdgeOp, Graph, NodeId};
use znn_ops::ConvMethod;
use znn_tensor::{Spectrum, Vec3};

/// Rough wall-clock cost of scheduling one engine task (enqueue +
/// dequeue + latch traffic).
const SCHED_OVERHEAD_US: f64 = 2.0;

/// Backward + update work relative to the forward pass along the
/// critical path (the backward sweep mirrors the forward one and the
/// update adds roughly half again).
const ROUND_CRIT_FACTOR: f64 = 2.5;

/// Planner configuration: the machine model and the memoization flag
/// FFT edges are priced with.
#[derive(Clone, Debug)]
pub struct PlanConfig {
    /// The machine model costs are priced through. Use
    /// [`Machine::detect`] for the current host or a Table V model for
    /// simulation studies.
    pub machine: Machine,
    /// Whether the engine memoizes FFTs across passes (Table II). An
    /// engine that builds its own planner copies its
    /// `TrainConfig::memoize_fft` here.
    pub memoize_fft: bool,
}

impl PlanConfig {
    /// A config priced through the given machine model, with
    /// memoization on.
    pub fn for_machine(machine: Machine) -> Self {
        PlanConfig {
            machine,
            memoize_fft: true,
        }
    }

    /// A config priced through the microprobed model of the current
    /// host, probed once per process ([`Machine::host`]).
    pub fn host() -> Self {
        Self::for_machine(Machine::host().clone())
    }
}

impl Default for PlanConfig {
    fn default() -> Self {
        Self::host()
    }
}

/// The chosen execution strategy for one convolution edge.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct EdgePlan {
    /// Direct or FFT convolution.
    pub method: ConvMethod,
    /// The padded transform shape FFT edges plan at. Chosen per *node*
    /// (all out-edges of a node share it), so frequency-domain
    /// accumulation stays eligible.
    pub pad: Vec3,
    /// Predicted per-round time of this edge at plan time, µs.
    pub predicted_us: f64,
}

/// A complete execution plan for one network.
#[derive(Clone, Debug, PartialEq)]
pub struct NetPlan {
    /// Per-edge plans, indexed like `graph.edges()`; `None` for
    /// non-convolution edges.
    pub edges: Vec<Option<EdgePlan>>,
    /// Predicted round time, µs.
    pub predicted_round_us: f64,
}

impl NetPlan {
    /// A fixed single-method plan: every conv edge uses `method`, and
    /// pads are `good_shape` (or `pow2_shape` with `pow2`). This is
    /// what the engine's forced conv policies resolve to, and the
    /// "best fixed strategy" grid the planner is benchmarked against.
    /// `_fft_threads` is ignored: every transform runs on the thread of
    /// the task that needs it. It is kept for callers that still pass
    /// a fan-out.
    pub fn force(
        graph: &Graph,
        output_shape: Vec3,
        method: ConvMethod,
        _fft_threads: usize,
        pow2: bool,
    ) -> Result<NetPlan, shapes::ShapeError> {
        let input_shape = shapes::required_input_shape(graph, output_shape)?;
        let shape_of = shapes::infer_shapes(graph, input_shape)?;
        let edges = graph
            .edges()
            .iter()
            .map(|e| match e.op {
                EdgeOp::Conv { .. } => {
                    let n = shape_of[&e.from];
                    let pad = if pow2 { pow2_shape(n) } else { good_shape(n) };
                    Some(EdgePlan {
                        method,
                        pad,
                        predicted_us: 0.0,
                    })
                }
                _ => None,
            })
            .collect();
        Ok(NetPlan {
            edges,
            predicted_round_us: 0.0,
        })
    }
}

/// The execution planner.
///
/// [`Planner::plan`] chooses, per conv edge, direct vs FFT convolution
/// and the padded transform shape, by pricing the [`cost`] FLOP model
/// through the configured [`Machine`]. The round-time prediction is
/// the Brent bound `T₁/P + T∞` — total work spread over the workers
/// plus the critical path — and scheduling overhead.
///
/// A planner holds nothing but its [`PlanConfig`]: every answer is a
/// function of the configuration and the arguments, so one planner may
/// be shared by any number of engines and nets.
#[derive(Debug)]
pub struct Planner {
    cfg: PlanConfig,
}

impl Planner {
    /// A planner with the given configuration.
    pub fn new(cfg: PlanConfig) -> Self {
        Planner { cfg }
    }

    /// Computes a plan for `graph` trained at `output_shape` with
    /// `workers` scheduler threads. Deterministic: the same inputs and
    /// configuration always produce the identical plan. `_budget` is
    /// ignored: no transform fans out, so there is no fan-out to
    /// choose. It is kept for callers that still pass one.
    pub fn plan(
        &self,
        graph: &Graph,
        output_shape: Vec3,
        workers: usize,
        _budget: usize,
    ) -> Result<NetPlan, shapes::ShapeError> {
        let input_shape = shapes::required_input_shape(graph, output_shape)?;
        let shape_of = shapes::infer_shapes(graph, input_shape)?;
        let workers = workers.max(1);

        // pads are keyed per *node*: every out-edge of a node transforms
        // the same image, and the engine's frequency-domain summation
        // requires all contributions at a node to share the transform
        // shape — a per-edge pad would silently forfeit it
        let node_pad: HashMap<NodeId, Vec3> = shape_of
            .iter()
            .map(|(&node, &n)| (node, self.pad_for(n)))
            .collect();

        // per-edge method choice: the per-edge argmin of the cost
        // model, compared in FLOP-equivalents — the machine's speed
        // would divide both sides, so it is left out and the choice is
        // exactly the same on every host
        let unplanned = vec![None; graph.edge_count()];
        let sites = cost::edge_sites(graph, &shape_of, &unplanned);
        let mut edges: Vec<Option<EdgePlan>> = Vec::with_capacity(graph.edge_count());
        for (e, site) in graph.edges().iter().zip(sites) {
            match e.op {
                EdgeOp::Conv { .. } => {
                    let pad = node_pad[&e.from];
                    let price = |method| {
                        let site = EdgeSite {
                            conv: Some((method, pad)),
                            ..site
                        };
                        cost::round_work(&site, self.cfg.memoize_fft).flop_eq()
                    };
                    let direct = price(ConvMethod::Direct);
                    let fft = price(ConvMethod::Fft);
                    let (method, flops) = if direct <= fft {
                        (ConvMethod::Direct, direct)
                    } else {
                        (ConvMethod::Fft, fft)
                    };
                    edges.push(Some(EdgePlan {
                        method,
                        pad,
                        predicted_us: self.us(flops),
                    }));
                }
                _ => edges.push(None),
            }
        }

        let priced = self.price_edges(graph, &shape_of, &edges);
        Ok(NetPlan {
            edges,
            predicted_round_us: self.round_us(&priced, workers),
        })
    }

    /// Prices an arbitrary plan (typically a [`NetPlan::force`] fixed
    /// strategy) through this planner's model: the predicted round time
    /// in µs. This is the "what would that strategy cost" query behind
    /// the planner-vs-best-fixed gap report, and it satisfies the argmin
    /// property by construction — no plan prices below the one
    /// [`Planner::plan`] picks.
    pub fn price(
        &self,
        graph: &Graph,
        output_shape: Vec3,
        workers: usize,
        plan: &NetPlan,
    ) -> Result<f64, shapes::ShapeError> {
        let input_shape = shapes::required_input_shape(graph, output_shape)?;
        let shape_of = shapes::infer_shapes(graph, input_shape)?;
        let priced = self.price_edges(graph, &shape_of, &plan.edges);
        Ok(self.round_us(&priced, workers.max(1)))
    }

    /// Work totals of a concrete per-edge plan: the round cost of each
    /// edge, the critical path and the task population.
    fn price_edges(
        &self,
        graph: &Graph,
        shape_of: &HashMap<NodeId, Vec3>,
        edges: &[Option<EdgePlan>],
    ) -> PricedNet {
        let edge_us: Vec<f64> = cost::edge_sites(graph, shape_of, edges)
            .iter()
            .map(|site| {
                let w = cost::round_work(site, self.cfg.memoize_fft);
                self.us(w.transform()) + (self.us(w.direct) + self.us_pw(w.pointwise + w.sweep))
            })
            .collect();
        PricedNet {
            work_us: edge_us.iter().sum(),
            crit_us: critical_path(graph, &edge_us),
            n_tasks: (3 * graph.edge_count()) as f64,
        }
    }

    /// The predicted round time, µs: the Brent bound `T₁/P + T∞` —
    /// total work spread over the machine's `workers`-thread
    /// throughput plus the critical path — plus task-scheduling
    /// overhead.
    fn round_us(&self, priced: &PricedNet, workers: usize) -> f64 {
        let throughput = self.cfg.machine.total_throughput(workers).max(1e-9);
        priced.work_us / throughput
            + ROUND_CRIT_FACTOR * priced.crit_us
            + SCHED_OVERHEAD_US * priced.n_tasks
    }

    /// Direct/FFT choice for a single *serving* (forward-only)
    /// geometry — what `DenseNet` runs under `ConvPolicy::Autotune`.
    /// Returns the method and the pad FFT would use. Like
    /// [`Planner::plan`] it compares FLOP-equivalents, so the answer
    /// is a pure function of the geometry.
    pub fn choose_forward(&self, n: Vec3, k: Vec3, sparsity: Vec3) -> (ConvMethod, Vec3) {
        let pad = self.pad_for(n);
        // forward only: the shared image transform amortizes across a
        // dense layer's edges (assume it is shared at least once), kernel
        // spectra are kept across requests (free in steady state), plus
        // the pointwise product and the per-edge inverse
        let price = |method| {
            let site = EdgeSite {
                op: EdgeOp::Conv { kernel: k, sparsity },
                from: n,
                to: n,
                d_out: 2,
                d_in: 1,
                conv: Some((method, pad)),
            };
            cost::pass_work(&site, Pass::Serve, true).flop_eq()
        };
        let direct = price(ConvMethod::Direct);
        let fft = price(ConvMethod::Fft);
        if direct <= fft {
            (ConvMethod::Direct, pad)
        } else {
            (ConvMethod::Fft, pad)
        }
    }

    /// The pad this planner assigns to images of shape `n`: the
    /// cheaper of the 5-smooth and power-of-two pads under the
    /// radix-aware transform model. Always a valid engine transform
    /// shape (even or unit packed axis).
    pub fn pad_for(&self, n: Vec3) -> Vec3 {
        let smooth = good_shape(n);
        let pow2 = pow2_shape(n);
        let pad = if cost::fft3_flops(pow2) < cost::fft3_flops(smooth) {
            pow2
        } else {
            smooth
        };
        debug_assert!(Spectrum::packed_axis_is_even(pad));
        pad
    }

    /// µs of `flops` on one worker of the machine.
    fn us(&self, flops: f64) -> f64 {
        flops / (self.cfg.machine.gflops * 1e3)
    }

    /// µs of bandwidth-bound `flops` (pointwise sweeps) on one worker.
    fn us_pw(&self, flops: f64) -> f64 {
        flops / (self.cfg.machine.gflops * cost::PW_EFF * 1e3)
    }
}

/// Priced work totals of a concrete plan.
struct PricedNet {
    /// Total per-round work across all edges, µs at one thread.
    work_us: f64,
    /// The T∞ term: the forward pass along the critical path, µs.
    crit_us: f64,
    /// Scheduled tasks per round (scheduling-overhead population).
    n_tasks: f64,
}

/// Longest path through the DAG, accumulating per-edge forward-pass
/// costs (one third of `edge_us`, which holds full rounds) — Kahn
/// topological order, O(V+E).
fn critical_path(graph: &Graph, edge_us: &[f64]) -> f64 {
    let n = graph.node_count();
    let mut indeg: Vec<usize> = (0..n).map(|i| graph.node(NodeId(i)).in_edges.len()).collect();
    let mut ready: Vec<usize> = (0..n).filter(|&i| indeg[i] == 0).collect();
    // cost of the heaviest chain ending at node i
    let mut best = vec![0.0f64; n];
    while let Some(i) = ready.pop() {
        for &e in &graph.node(NodeId(i)).out_edges {
            let to = graph.edge(e).to.0;
            // forward share of the full-round edge cost
            best[to] = best[to].max(best[i] + edge_us[e.0] / 3.0);
            indeg[to] -= 1;
            if indeg[to] == 0 {
                ready.push(to);
            }
        }
    }
    best.into_iter().fold(0.0, f64::max)
}
