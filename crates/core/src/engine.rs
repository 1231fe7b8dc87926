//! The task-parallel training engine.

use crate::config::{Chooser, TrainConfig};
use crate::state::{
    Contribution, ConvEdge, EdgeState, FreqPlan, MaxEdge, NetGeometry, NodeState, TransferEdge,
};
use parking_lot::Mutex;
use std::iter::zip;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;
use znn_fault::FaultKind;
use znn_fft::{spectra, FftEngine};
use znn_graph::init::{bias_init, kernel_init, ParamSet};
use znn_graph::{priority, shapes, EdgeId, EdgeOp, Graph, NodeId};
use znn_ops::filter::{max_filter, max_filter_backward, max_filter_output, FilterImpl};
use znn_ops::pool::{max_pool, max_pool_backward};
use znn_ops::{ConvMethod, Transfer};
use znn_plan::NetPlan;
use znn_sched::{Executor, Latch, Scheduler, StealingExecutor, UPDATE_PRIORITY};
use znn_tensor::{ops, Image, Tensor3, Vec3};

/// Statistics of one training round.
#[derive(Clone, Copy, Debug, Default)]
pub struct RoundStats {
    /// Total tasks executed so far by the scheduler.
    pub tasks_executed: u64,
    /// FORCE outcomes so far: updates found complete.
    pub force_already_done: u64,
    /// FORCE outcomes so far: updates run inline by the forcing thread.
    pub force_ran_inline: u64,
    /// FORCE outcomes so far: subtasks delegated to the running update.
    pub force_delegated: u64,
    /// Peak number of distinct priorities in the queue (heap-of-lists K).
    pub peak_distinct_priorities: u64,
    /// Pool leases served by recycling so far (§VII-C allocator). Zero
    /// when pooling is disabled.
    pub alloc_hits: u64,
    /// Pool leases that touched the system allocator so far. Stops
    /// growing once the footprint plateaus (after the first few
    /// rounds).
    pub alloc_misses: u64,
    /// Bytes resident in the pool's custody — the footprint of pooled
    /// buffers; never decreases, at most ~2× the live working set
    /// (power-of-two rounding).
    pub alloc_resident_bytes: u64,
    /// Cumulative bytes leased (hits and misses alike) — the allocation
    /// churn per round is the delta of this counter across rounds.
    pub alloc_leased_bytes: u64,
    /// Tasks that panicked and were contained (engine containment plus
    /// any raw scheduler-level catches). Nonzero means at least one
    /// round was poisoned since construction.
    pub task_panics: u64,
    /// Wall time of the last completed training round, µs (0 before
    /// the first round).
    pub round_us: u64,
}

impl RoundStats {
    /// Fraction of pool leases served by recycling, `0.0` before any
    /// lease. Approaches 1.0 in steady-state training — the §VII-C
    /// "memory never returned, always reused" property.
    pub fn alloc_hit_rate(&self) -> f64 {
        let total = self.alloc_hits + self.alloc_misses;
        if total == 0 {
            0.0
        } else {
            self.alloc_hits as f64 / total as f64
        }
    }
}

struct Inner {
    graph: Graph,
    node_shape: Vec<Vec3>,
    nodes: Vec<NodeState>,
    edges: Vec<EdgeState>,
    fwd_prio: Vec<u64>,
    bwd_prio: Vec<u64>,
    fft: Arc<FftEngine>,
    cfg: TrainConfig,
    /// The paper's priority executor or the §X work-stealing
    /// alternative.
    sched: Box<dyn Scheduler>,
    fwd_latch: Latch,
    bwd_latch: Latch,
    training: AtomicBool,
    round: AtomicU64,
    /// This round's SGD step factor, as `f32` bits. Relaxed: it is
    /// stored before the round submits its first task, and submission
    /// orders it before every read in that round's tasks.
    step: AtomicU32,
    input_shape: Vec3,
    /// Set by the first contained panic of the round; checked by the
    /// driver after each latch wait.
    round_failed: AtomicBool,
    /// Panic payload of the first contained panic (diagnostics).
    panic_note: Mutex<Option<String>>,
    /// Engine-contained task panics since construction.
    task_panics: AtomicU64,
    /// The one execution plan this engine runs.
    net_plan: Arc<NetPlan>,
    /// Wall time of the last completed round, µs.
    last_round_us: AtomicU64,
}

/// A training round that was poisoned by a panicking task. By the time
/// a caller sees this, the engine has already **recovered**: stragglers
/// drained, pending updates flushed, partial per-round state discarded
/// — the next round (or a retry of this one) runs on a clean engine.
#[derive(Debug)]
pub struct RoundError {
    /// The 1-based round number that failed.
    pub round: u64,
    /// Payload of the first panic observed in the round.
    pub note: String,
}

impl std::fmt::Display for RoundError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "training round {} poisoned: {}", self.round, self.note)
    }
}

impl std::error::Error for RoundError {}

/// Human-readable description of a panic payload.
fn describe_panic(p: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = p.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = p.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// The ZNN engine: builds runtime state for a computation graph and
/// trains it with the paper's task-parallel algorithm. See the crate
/// docs for the moving parts.
pub struct Znn {
    inner: Arc<Inner>,
}

impl Drop for Znn {
    fn drop(&mut self) {
        // drain pending updates and the task queue so no queued closure
        // keeps the runtime alive past the engine
        self.flush_updates();
        self.inner.sched.wait_quiescent();
    }
}

impl Znn {
    /// Builds an engine for `graph`, sized so output nodes produce
    /// `output_shape` patches. [`TrainConfig::conv`] is resolved to one
    /// [`NetPlan`] here — forced policies through [`NetPlan::force`],
    /// `Autotune` through [`znn_plan::Planner::plan`] — and the engine
    /// executes only that plan.
    pub fn new(
        graph: Graph,
        output_shape: Vec3,
        cfg: TrainConfig,
    ) -> Result<Self, shapes::ShapeError> {
        graph.validate().map_err(shapes::ShapeError::Graph)?;
        let plan = match cfg.conv.chooser(None, cfg.memoize_fft) {
            Chooser::Forced(method) => NetPlan::force(&graph, output_shape, method, 1, false)?,
            Chooser::Priced(p) => p.plan(&graph, output_shape, cfg.workers, 1)?,
        };
        Self::build(graph, output_shape, cfg, Arc::new(plan))
    }

    /// Builds an engine that executes a caller-supplied plan — replaying
    /// a previously reported plan, or pinning one strategy for A/B
    /// comparison. [`TrainConfig::conv`] is not consulted.
    ///
    /// Panics if the plan does not fit the graph: one entry per edge,
    /// every conv pad at least the from-node shape with an even (or
    /// unit) packed axis. Out-edges of a node should share a pad (as
    /// [`NetPlan::force`] and planner-produced plans do).
    pub fn with_plan(
        graph: Graph,
        output_shape: Vec3,
        cfg: TrainConfig,
        plan: Arc<NetPlan>,
    ) -> Result<Self, shapes::ShapeError> {
        graph.validate().map_err(shapes::ShapeError::Graph)?;
        Self::build(graph, output_shape, cfg, plan)
    }

    fn build(
        graph: Graph,
        output_shape: Vec3,
        cfg: TrainConfig,
        net_plan: Arc<NetPlan>,
    ) -> Result<Self, shapes::ShapeError> {
        let input_shape = shapes::required_input_shape(&graph, output_shape)?;
        let shape_map = shapes::infer_shapes(&graph, input_shape)?;
        assert_eq!(
            net_plan.edges.len(),
            graph.edge_count(),
            "plan must have one entry per graph edge"
        );

        // every transform runs on the thread of the task that needs it,
        // so the scheduler's workers are the whole thread budget. Every
        // engine-allocated buffer (spectra, inverse outputs)
        // leases from the configured PoolSet, so steady-state rounds
        // never touch the system allocator (§VII-C)
        let mut fft = FftEngine::new();
        if let Some(pools) = &cfg.pools {
            fft = fft.with_buffer_pools(Arc::clone(pools));
        }
        let fft = Arc::new(fft);

        let sched: Box<dyn Scheduler> = if cfg.work_stealing {
            Box::new(StealingExecutor::new(cfg.workers))
        } else {
            Box::new(Executor::new(cfg.workers, cfg.queue))
        };

        // method and pad of every conv edge come from the plan; an FFT
        // edge without memoized spectra takes its kernel gradient
        // directly too
        let plan = |i: usize, _, _, _| {
            let ep = net_plan.edges[i]
                .unwrap_or_else(|| panic!("plan is missing an entry for conv edge {i}"));
            (ep.method, ep.pad)
        };
        let geom = NetGeometry::derive(&graph, &shape_map, plan, !cfg.memoize_fft);

        // per-edge runtime state with deterministic parameter init
        let edges: Vec<EdgeState> = graph
            .edges()
            .iter()
            .zip(geom.conv)
            .enumerate()
            .map(|(i, (e, geom))| match e.op {
                EdgeOp::Conv { kernel, sparsity } => EdgeState::Conv(ConvEdge {
                    kernel: Mutex::new(kernel_init(cfg.seed, EdgeId(i), kernel)),
                    velocity: Mutex::new(None),
                    geom: geom.expect("every conv edge has a geometry"),
                    kernel_spectrum: Mutex::new(None),
                    update: znn_sched::UpdateHandle::new(),
                    k: kernel,
                    sparsity,
                }),
                EdgeOp::Transfer { function } => EdgeState::Transfer(TransferEdge {
                    bias: Mutex::new(bias_init(cfg.seed, EdgeId(i))),
                    function,
                    saved_output: Mutex::new(None),
                    dropout_mask: Mutex::new(None),
                    update: znn_sched::UpdateHandle::new(),
                }),
                EdgeOp::MaxPool { window } => EdgeState::Max(MaxEdge {
                    window,
                    sparsity: Vec3::one(),
                    is_pool: true,
                    argmax: Mutex::new(None),
                }),
                EdgeOp::MaxFilter { window, sparsity } => EdgeState::Max(MaxEdge {
                    window,
                    sparsity,
                    is_pool: false,
                    argmax: Mutex::new(None),
                }),
            })
            .collect();

        // node state + frequency-accumulation eligibility; backward:
        // out-edge products are full correlations cropped at the
        // origin, so only the transform shape must agree (always true
        // for planner pads, which are keyed per node; a hand-built plan
        // with divergent pads merely loses the frequency-domain sum,
        // not correctness)
        let node_geom = zip(geom.fwd_freq, &geom.node_shape);
        let nodes: Vec<NodeState> = zip(graph.nodes(), node_geom)
            .map(|(node, (fwd_freq, &shape))| {
                let out = node.out_edges.iter().map(|&e| match &edges[e.0] {
                    EdgeState::Conv(c) => Some((c.geom.method, c.geom.m, Vec3::zero())),
                    _ => None,
                });
                NodeState {
                    fwd_freq,
                    bwd_freq: FreqPlan::for_sum(out, shape),
                    ..NodeState::new(node.in_edges.len(), node.out_edges.len())
                }
            })
            .collect();

        let fwd_prio_map = priority::forward_priorities(&graph);
        let bwd_prio_map = priority::backward_priorities(&graph);
        let fwd_prio: Vec<u64> = (0..graph.edge_count())
            .map(|i| fwd_prio_map[&EdgeId(i)])
            .collect();
        let bwd_prio: Vec<u64> = (0..graph.edge_count())
            .map(|i| bwd_prio_map[&EdgeId(i)])
            .collect();

        let inner = Arc::new(Inner {
            graph,
            node_shape: geom.node_shape,
            nodes,
            edges,
            fwd_prio,
            bwd_prio,
            fft,
            cfg,
            sched,
            // latches start open until a round arms them
            fwd_latch: Latch::new(0),
            bwd_latch: Latch::new(0),
            training: AtomicBool::new(false),
            round: AtomicU64::new(0),
            step: AtomicU32::new(1.0f32.to_bits()),
            input_shape,
            round_failed: AtomicBool::new(false),
            panic_note: Mutex::new(None),
            task_panics: AtomicU64::new(0),
            net_plan,
            last_round_us: AtomicU64::new(0),
        });
        Ok(Znn { inner })
    }

    /// The input patch shape the network consumes.
    pub fn input_shape(&self) -> Vec3 {
        self.inner.input_shape
    }

    /// The underlying graph.
    pub fn graph(&self) -> &Graph {
        &self.inner.graph
    }

    /// The convolution method edge `e` runs (`None` for non-conv edges).
    pub fn conv_method(&self, e: EdgeId) -> Option<ConvMethod> {
        match &self.inner.edges[e.0] {
            EdgeState::Conv(c) => Some(c.geom.method),
            _ => None,
        }
    }

    /// Inference: one forward pass, no dropout, no learning. Pending
    /// updates from a previous training round are forced first (by the
    /// forward tasks themselves, per Algorithm 1).
    ///
    /// Panics, before any state changes, unless `inputs` match the
    /// input nodes in count and shape.
    pub fn forward(&self, inputs: &[Image]) -> Vec<Image> {
        self.check_inputs(inputs);
        self.inner.training.store(false, Ordering::Release);
        self.run_forward(inputs);
        if self.inner.round_failed.load(Ordering::Acquire) {
            // inference has no Result channel; recover (so the engine
            // stays usable) and surface the contained panic cleanly
            // instead of hanging or returning stale outputs
            let note = self.recover_round();
            panic!("forward pass poisoned by a task panic: {note}");
        }
        self.inner
            .graph
            .outputs()
            .iter()
            .map(|o| {
                let img = self.inner.nodes[o.0].fwd_image.lock();
                img.as_ref().expect("forward completed").as_ref().clone()
            })
            .collect()
    }

    /// One training round: forward, loss, backward. Parameter updates
    /// are scheduled at the lowest priority and will be *forced* by the
    /// next round's forward pass (or by [`Znn::flush_updates`]).
    /// Returns the loss.
    ///
    /// Panics if a task panicked during the round (the engine is
    /// recovered first); use [`Znn::try_train_step`] to handle that as
    /// a value instead.
    pub fn train_step(&self, inputs: &[Image], targets: &[Image]) -> f64 {
        match self.try_train_step(inputs, targets) {
            Ok(loss) => loss,
            Err(e) => panic!("unhandled {e}"),
        }
    }

    /// One training round, with panic containment: a panicking task
    /// *poisons the round* instead of killing its worker thread (and
    /// eventually the process). On poison, the engine recovers itself —
    /// stragglers drained, pending updates flushed, partial sums and
    /// caches discarded, round counter rewound so a retry replays the
    /// same dropout/sampling streams — and the contained panic comes
    /// back as [`RoundError`].
    ///
    /// Panics, before any state changes, unless `inputs` match the
    /// input nodes and `targets` the output nodes in count and shape.
    pub fn try_train_step(&self, inputs: &[Image], targets: &[Image]) -> Result<f64, RoundError> {
        self.train_round(inputs, targets, 1.0)
    }

    /// [`Znn::try_train_step`] whose updates step by `learning_rate ×
    /// step` (weight decay and momentum's new term included), fixed
    /// when armed, so a later round that FORCEs them keeps this step.
    /// At `step = 1.0` that is `learning_rate` bit for bit.
    pub(crate) fn train_round(
        &self,
        inputs: &[Image],
        targets: &[Image],
        step: f32,
    ) -> Result<f64, RoundError> {
        self.check_inputs(inputs);
        let outputs = self.inner.graph.outputs();
        assert_eq!(targets.len(), outputs.len(), "one target per output");
        for (o, t) in outputs.iter().zip(targets) {
            assert_eq!(t.shape(), self.inner.node_shape[o.0], "target shape mismatch");
        }
        self.inner.training.store(true, Ordering::Release);
        self.inner.step.store(step.to_bits(), Ordering::Relaxed);
        let round_start = Instant::now();
        let round = self.inner.round.fetch_add(1, Ordering::Relaxed) + 1;
        self.run_forward(inputs);
        if self.inner.round_failed.load(Ordering::Acquire) {
            return Err(self.fail_round(round));
        }

        let mut loss_total = 0.0;
        let mut grads: Vec<(NodeId, Image)> = outputs
            .iter()
            .zip(targets)
            .map(|(&o, t)| {
                let y = {
                    let img = self.inner.nodes[o.0].fwd_image.lock();
                    Arc::clone(img.as_ref().expect("forward completed"))
                };
                loss_total += self.inner.cfg.loss.value(&y, t);
                (o, self.inner.cfg.loss.gradient(&y, t))
            })
            .collect();
        // fault injection: corrupt one gradient voxel, exercising the
        // trainer's non-finite-parameter sentinel downstream
        if let Some(faults) = &self.inner.cfg.faults {
            if faults.take(FaultKind::NanPoke, round) {
                if let Some((_, g)) = grads.first_mut() {
                    g.as_mut_slice()[0] = f32::NAN;
                }
            }
        }

        // backward phase
        self.inner.bwd_latch.reset(self.inner.graph.inputs().len());
        for (o, g) in grads {
            let g = Arc::new(g);
            let node = &self.inner.nodes[o.0];
            node.bwd_spectra.clear();
            if self.inner.graph.node(o).in_edges.is_empty() {
                // degenerate single-node graph
                self.inner.bwd_latch.count_down();
                continue;
            }
            for &e in &self.inner.graph.node(o).in_edges {
                Inner::submit_backward(&self.inner, e, Arc::clone(&g));
            }
        }
        self.inner.bwd_latch.wait();
        if self.inner.round_failed.load(Ordering::Acquire) {
            return Err(self.fail_round(round));
        }
        self.inner
            .last_round_us
            .store(round_start.elapsed().as_micros() as u64, Ordering::Relaxed);
        Ok(loss_total)
    }

    /// The execution plan this engine runs: method and pad per conv
    /// edge, fixed at construction.
    pub fn net_plan(&self) -> &Arc<NetPlan> {
        &self.inner.net_plan
    }

    /// Recovery + bookkeeping for a poisoned round: restores engine
    /// invariants and rewinds the round counter so a retry of this
    /// round sees the same round number (dropout masks and dataset
    /// sampling are round-seeded — replaying the stream is what makes
    /// retries deterministic).
    fn fail_round(&self, round: u64) -> RoundError {
        let note = self.recover_round();
        self.inner.round.fetch_sub(1, Ordering::Relaxed);
        RoundError { round, note }
    }

    /// Restores every engine invariant a poisoned round can break, in
    /// dependency order. See `docs/ARCHITECTURE.md` §Fault tolerance.
    fn recover_round(&self) -> String {
        let inner = &self.inner;
        // 1. quiesce: panicked tasks were contained, healthy stragglers
        //    run to completion against saturating latches
        inner.sched.wait_quiescent();
        // 2. drive every armed update handle back to Idle (next round's
        //    backward pass must be able to arm); update bodies are
        //    themselves contained, so forcing cannot re-panic the driver
        self.flush_updates();
        inner.sched.wait_quiescent();
        // 3. discard all partial per-round state
        for node in &inner.nodes {
            node.fwd_sum.reset();
            node.bwd_sum.reset();
            node.fwd_spectra.clear();
            node.bwd_spectra.clear();
        }
        for e in &inner.edges {
            match e {
                // a panic between a kernel write and its spectrum
                // invalidation would leave a stale memoized transform
                EdgeState::Conv(c) => *c.kernel_spectrum.lock() = None,
                EdgeState::Transfer(t) => {
                    *t.saved_output.lock() = None;
                    *t.dropout_mask.lock() = None;
                }
                EdgeState::Max(m) => *m.argmax.lock() = None,
            }
        }
        inner.round_failed.store(false, Ordering::Release);
        inner
            .panic_note
            .lock()
            .take()
            .unwrap_or_else(|| "task panic (payload lost)".to_string())
    }

    /// Rounds completed since construction (or since a resume or rollback restored the count).
    pub fn round(&self) -> u64 {
        self.inner.round.load(Ordering::Relaxed)
    }

    /// Overwrites the round counter. Resuming from a checkpoint must
    /// restore this alongside the parameters: the counter seeds the
    /// per-round dropout masks, so a resumed run only reproduces an
    /// uninterrupted one bit-for-bit if the streams line up.
    pub(crate) fn set_round(&self, round: u64) {
        self.inner.round.store(round, Ordering::Relaxed);
    }

    /// The engine's configuration.
    pub fn config(&self) -> &TrainConfig {
        &self.inner.cfg
    }

    /// Snapshot of the optimizer state: per-edge momentum velocities
    /// (`None` for non-conv edges and before the first momentum
    /// update). Flushes pending updates first.
    pub fn optimizer_state(&self) -> Vec<Option<Image>> {
        self.flush_updates();
        self.inner
            .edges
            .iter()
            .map(|e| match e {
                EdgeState::Conv(c) => c.velocity.lock().clone(),
                _ => None,
            })
            .collect()
    }

    /// Restores optimizer state captured by [`Znn::optimizer_state`].
    pub(crate) fn set_optimizer_state(&self, velocities: &[Option<Image>]) {
        self.flush_updates();
        assert_eq!(
            velocities.len(),
            self.inner.edges.len(),
            "one velocity slot per edge"
        );
        for (e, v) in self.inner.edges.iter().zip(velocities) {
            if let EdgeState::Conv(c) = e {
                *c.velocity.lock() = v.clone();
            }
        }
    }

    /// True when every trainable parameter is finite — the cheap fused
    /// health scan the trainer runs after each round (no clones; one
    /// pass over kernels and biases in place, short-circuiting on the
    /// first bad value). Flushes pending updates first so the scan sees
    /// this round's writes.
    pub fn params_all_finite(&self) -> bool {
        self.flush_updates();
        self.inner.edges.iter().all(|e| match e {
            EdgeState::Conv(c) => c.kernel.lock().as_slice().iter().all(|v| v.is_finite()),
            EdgeState::Transfer(t) => t.bias.lock().is_finite(),
            EdgeState::Max(_) => true,
        })
    }

    /// Forces every pending parameter update to completion (used before
    /// reading parameters and at the end of training), waiting for any
    /// that a worker is still running.
    pub fn flush_updates(&self) {
        for e in &self.inner.edges {
            if let Some(h) = e.update_handle() {
                h.complete();
            }
        }
    }

    /// Snapshot of all trainable parameters (flushes updates first).
    pub fn params(&self) -> ParamSet {
        self.flush_updates();
        let g = &self.inner.graph;
        let mut kernels = Vec::with_capacity(g.edge_count());
        let mut biases = Vec::with_capacity(g.edge_count());
        for e in &self.inner.edges {
            match e {
                EdgeState::Conv(c) => {
                    kernels.push(Some(c.kernel.lock().clone()));
                    biases.push(None);
                }
                EdgeState::Transfer(t) => {
                    kernels.push(None);
                    biases.push(Some(*t.bias.lock()));
                }
                EdgeState::Max(_) => {
                    kernels.push(None);
                    biases.push(None);
                }
            }
        }
        ParamSet { kernels, biases }
    }

    /// Overwrites all trainable parameters (aligning engines in tests).
    pub fn set_params(&self, p: &ParamSet) {
        self.flush_updates();
        for (i, e) in self.inner.edges.iter().enumerate() {
            match e {
                EdgeState::Conv(c) => {
                    if let Some(k) = &p.kernels[i] {
                        *c.kernel.lock() = k.clone();
                        *c.kernel_spectrum.lock() = None;
                    }
                }
                EdgeState::Transfer(t) => {
                    if let Some(b) = p.biases[i] {
                        *t.bias.lock() = b;
                    }
                }
                EdgeState::Max(_) => {}
            }
        }
    }

    /// Scheduler / FORCE / allocator statistics accumulated since
    /// construction. The `alloc_*` fields snapshot the configured
    /// [`znn_alloc::PoolSet`]; note the default pool is process-wide,
    /// so they aggregate every pooled engine in the process.
    pub fn stats(&self) -> RoundStats {
        let s = self.inner.sched.stats();
        let mut f = RoundStats {
            tasks_executed: s.executed,
            peak_distinct_priorities: s.peak_distinct_priorities,
            // engine containment catches panics before the scheduler's
            // worker-level catch sees them, so the two counts are
            // disjoint populations and sum cleanly
            task_panics: self.inner.task_panics.load(Ordering::Relaxed) + s.task_panics,
            round_us: self.inner.last_round_us.load(Ordering::Relaxed),
            ..Default::default()
        };
        if let Some(pools) = &self.inner.cfg.pools {
            f.alloc_hits = pools.stats().hits() as u64;
            f.alloc_misses = pools.stats().misses() as u64;
            f.alloc_resident_bytes = pools.resident_bytes() as u64;
            f.alloc_leased_bytes = pools.stats().bytes_leased() as u64;
        }
        for e in &self.inner.edges {
            if let Some(h) = e.update_handle() {
                f.force_already_done += h.stats().already_done.load(Ordering::Relaxed);
                f.force_ran_inline += h.stats().ran_inline.load(Ordering::Relaxed);
                f.force_delegated += h.stats().delegated.load(Ordering::Relaxed);
            }
        }
        f
    }

    /// Count of spectra currently memoized (for §IX-B accounting).
    pub fn memoized_spectra(&self) -> usize {
        self.inner
            .nodes
            .iter()
            .map(|n| n.fwd_spectra.len() + n.bwd_spectra.len())
            .sum()
    }

    /// Bytes of half-spectra currently memoized — the paper's main RAM
    /// consumer (§IV), about half of what full complex spectra of the
    /// same transform shapes would hold.
    pub fn memoized_spectrum_bytes(&self) -> usize {
        self.inner
            .nodes
            .iter()
            .map(|n| n.fwd_spectra.bytes() + n.bwd_spectra.bytes())
            .sum()
    }

    /// Bytes of kernel half-spectra currently memoized on the conv
    /// edges — what `memoize_fft` keeps beyond the per-round node
    /// spectra of [`Znn::memoized_spectrum_bytes`] (§IX-B); 0 with it
    /// off, and after new kernels are written until the next pass.
    pub fn memoized_kernel_spectrum_bytes(&self) -> usize {
        let kept = |e: &EdgeState| match e {
            EdgeState::Conv(c) => c.kernel_spectrum.lock().clone(),
            _ => None,
        };
        self.inner
            .edges
            .iter()
            .filter_map(kept)
            .map(|k| k.stored_bytes())
            .sum()
    }

    /// Panics unless `inputs` match the input nodes in count and shape.
    /// Called before a round changes any state, so a rejected call
    /// leaves the engine as it was.
    fn check_inputs(&self, inputs: &[Image]) {
        let n = self.inner.graph.inputs().len();
        assert_eq!(inputs.len(), n, "expected {n} inputs");
        for img in inputs {
            assert_eq!(img.shape(), self.inner.input_shape, "input shape mismatch");
        }
    }

    /// Queues the forward pass of checked `inputs` and waits for it.
    fn run_forward(&self, inputs: &[Image]) {
        let input_nodes = self.inner.graph.inputs();
        self.inner
            .fwd_latch
            .reset(self.inner.graph.outputs().len());
        for (&n, img) in input_nodes.iter().zip(inputs) {
            let node = &self.inner.nodes[n.0];
            node.fwd_spectra.clear();
            let img = Arc::new(img.clone());
            *node.fwd_image.lock() = Some(Arc::clone(&img));
            if self.inner.graph.node(n).out_edges.is_empty() {
                self.inner.fwd_latch.count_down();
                continue;
            }
            for &e in &self.inner.graph.node(n).out_edges {
                Inner::submit_forward(&self.inner, e, Arc::clone(&img));
            }
        }
        self.inner.fwd_latch.wait();
    }
}

impl Inner {
    /// Runs `f` with panic containment: a panic is caught here — before
    /// it can kill the executing thread — and *poisons the round*: the
    /// first payload is recorded for diagnostics and both phase latches
    /// are forced open so the driver returns from its wait and runs
    /// recovery, instead of blocking forever on events the dead task
    /// can no longer deliver.
    fn run_contained(inner: &Arc<Inner>, f: impl FnOnce()) {
        if let Err(payload) = catch_unwind(AssertUnwindSafe(f)) {
            inner.task_panics.fetch_add(1, Ordering::Relaxed);
            {
                let mut note = inner.panic_note.lock();
                if note.is_none() {
                    *note = Some(describe_panic(payload.as_ref()));
                }
            }
            inner.round_failed.store(true, Ordering::Release);
            inner.fwd_latch.open();
            inner.bwd_latch.open();
        }
    }

    /// Algorithm 1: the forward task forces the edge's pending update,
    /// then runs DO-FORWARD.
    fn submit_forward(inner: &Arc<Inner>, e: EdgeId, input: Arc<Image>) {
        let prio = inner.fwd_prio[e.0];
        let inner2 = Arc::clone(inner);
        inner.sched.submit(
            prio,
            Box::new(move || {
                let inner4 = Arc::clone(&inner2);
                Inner::run_contained(&inner4, move || {
                    let inner3 = Arc::clone(&inner2);
                    let do_fwd: Box<dyn FnOnce() + Send> =
                        Box::new(move || Inner::do_forward(&inner3, e, input));
                    match inner2.edges[e.0].update_handle() {
                        Some(h) => h.force(do_fwd),
                        None => do_fwd(),
                    }
                });
            }),
        );
    }

    /// DO-FORWARD: apply the edge transform, accumulate into the target
    /// node's sum, and unfold dependent tasks if this was the last
    /// contribution.
    fn do_forward(inner: &Arc<Inner>, e: EdgeId, input: Arc<Image>) {
        // fault injection: a task that dies mid-round (the containment
        // path every unexpected panic takes)
        if let Some(faults) = &inner.cfg.faults {
            if faults.take(FaultKind::TaskPanic, inner.round.load(Ordering::Relaxed)) {
                panic!("fault-injection: task panic on edge {}", e.0);
            }
        }
        let edge = inner.graph.edge(e);
        let to = edge.to;
        let contribution = match &inner.edges[e.0] {
            EdgeState::Conv(c) => Inner::conv_forward(inner, c, edge.from, to, &input),
            EdgeState::Transfer(t) => {
                let bias = *t.bias.lock();
                let mut y = t.function.forward(&input, bias);
                // §XI dropout extension on hidden transfer edges
                if inner.training.load(Ordering::Acquire) {
                    if let Some(p) = inner.cfg.dropout {
                        if !inner.graph.node(to).out_edges.is_empty() {
                            let mask = Inner::dropout_mask(inner, e, y.shape(), p);
                            ops::mul_assign(&mut y, &mask);
                            *t.dropout_mask.lock() = Some(Arc::new(mask));
                        }
                    }
                }
                let y = Arc::new(y);
                *t.saved_output.lock() = Some(Arc::clone(&y));
                Contribution::Spatial(y.as_ref().clone())
            }
            EdgeState::Max(m) => {
                if m.is_pool {
                    let r = max_pool(&input, m.window);
                    *m.argmax.lock() = Some(r.argmax);
                    Contribution::Spatial(r.output)
                } else if inner.training.load(Ordering::Acquire) {
                    let r = max_filter(&input, m.window, m.sparsity, FilterImpl::Deque);
                    *m.argmax.lock() = Some(r.argmax);
                    Contribution::Spatial(r.output)
                } else {
                    // inference runs no backward pass, so nothing reads an argmax
                    Contribution::Spatial(max_filter_output(&input, m.window, m.sparsity))
                }
            }
        };
        let node = &inner.nodes[to.0];
        if node.fwd_sum.add(contribution) {
            Inner::finalize_forward(inner, to);
        }
    }

    /// A zero-filled image leased from the configured pools (plain
    /// allocation when pooling is disabled).
    fn lease_image(inner: &Inner, shape: Vec3) -> Image {
        // fault injection: a refused lease, modelled as a panic at the
        // lease site — it exercises RAII custody of every buffer the
        // unwinding task already holds (leaked bytes show up in
        // PoolStats::bytes_in_use, which tests pin to zero)
        if let Some(faults) = &inner.cfg.faults {
            if faults.take(FaultKind::LeaseFail, inner.round.load(Ordering::Relaxed)) {
                panic!("fault-injection: buffer lease refused for {shape}");
            }
        }
        znn_alloc::lease_image(inner.cfg.pools.as_ref(), shape)
    }

    fn conv_forward(
        inner: &Arc<Inner>,
        c: &ConvEdge,
        from: NodeId,
        to: NodeId,
        input: &Image,
    ) -> Contribution {
        match c.geom.method {
            ConvMethod::Direct => {
                let d = c.geom.direct.as_ref().expect("direct edge has its tables");
                let w = c.kernel.lock();
                let mut out = Inner::lease_image(inner, d.output_shape());
                d.forward_into(input, &w, &mut out);
                Contribution::Spatial(out)
            }
            ConvMethod::Fft => {
                let m = c.geom.m;
                // the source node's image spectrum is computed once and
                // shared by every edge leaving that node (§IV)
                let x_spec = inner.nodes[from.0]
                    .fwd_spectra
                    .get_or_compute(m, || inner.fft.forward_padded(input, m));
                let w_spec = Inner::kernel_spectrum(inner, c, m);
                let prod = ops::mul_s(&x_spec, &w_spec);
                let node = &inner.nodes[to.0];
                match node.fwd_freq {
                    // defer the inverse transform to the node sum: one
                    // inverse FFT per node, not per edge
                    Some(_) => Contribution::Freq(prod),
                    None => Contribution::Spatial(inner.fft.inverse_real(
                        prod,
                        c.geom.crop_at,
                        inner.node_shape[to.0],
                    )),
                }
            }
        }
    }

    fn dropout_mask(inner: &Arc<Inner>, e: EdgeId, shape: Vec3, p: f32) -> Image {
        let round = inner.round.load(Ordering::Relaxed);
        let seed = inner
            .cfg
            .seed
            .wrapping_add(0xD807)
            .wrapping_mul(round.wrapping_add(1))
            .wrapping_add(e.0 as u64);
        let keep = 1.0 - p;
        let mut mask = Inner::lease_image(inner, shape);
        ops::fill_with(&mut mask, |i| {
            let u = (ops::splitmix_f32(seed, i as u64) + 1.0) * 0.5; // [0,1)
            if u < keep {
                1.0 / keep
            } else {
                0.0
            }
        });
        mask
    }

    fn finalize_forward(inner: &Arc<Inner>, v: NodeId) {
        let node = &inner.nodes[v.0];
        let total = node.fwd_sum.take().into_image(&inner.fft, node.fwd_freq);
        let img = total.expect("forward contributions are always read");
        debug_assert_eq!(img.shape(), inner.node_shape[v.0]);
        node.fwd_spectra.clear();
        let img = Arc::new(img);
        *node.fwd_image.lock() = Some(Arc::clone(&img));
        let out_edges = &inner.graph.node(v).out_edges;
        if out_edges.is_empty() {
            inner.fwd_latch.count_down();
        } else {
            for &e in out_edges {
                Inner::submit_forward(inner, e, Arc::clone(&img));
            }
        }
    }

    fn submit_backward(inner: &Arc<Inner>, e: EdgeId, grad: Arc<Image>) {
        let prio = inner.bwd_prio[e.0];
        let inner2 = Arc::clone(inner);
        inner.sched.submit(
            prio,
            Box::new(move || {
                let inner3 = Arc::clone(&inner2);
                Inner::run_contained(&inner3, move || Inner::do_backward(&inner2, e, grad));
            }),
        );
    }

    /// Algorithm 2: backward transform, arm + enqueue the update task,
    /// accumulate into the source node's backward sum.
    ///
    /// A source node without in-edges (a network input) has a backward
    /// image nobody reads, so its out-edges skip the input-side work and
    /// contribute [`Contribution::Unread`]: they still arm their updates
    /// and still count toward the node's completion.
    fn do_backward(inner: &Arc<Inner>, e: EdgeId, grad: Arc<Image>) {
        let edge = inner.graph.edge(e);
        let (from, to) = (edge.from, edge.to);
        let read = !inner.graph.node(from).in_edges.is_empty();
        let contribution = match &inner.edges[e.0] {
            EdgeState::Conv(c) => {
                // Algorithm 2 order matters: the backward transform must
                // read the kernel *before* the update task is armed — an
                // idle worker may pick the update up immediately and
                // modify the kernel.
                let out = if read {
                    Inner::conv_backward(inner, c, from, to, &grad)
                } else {
                    Contribution::Unread
                };
                Inner::arm_conv_update(inner, e, c, from, to, &grad);
                out
            }
            EdgeState::Transfer(t) => {
                let y = {
                    let s = t.saved_output.lock();
                    Arc::clone(s.as_ref().expect("forward before backward"))
                };
                let back = {
                    // dropout: the mask multiplies the chain in both
                    // directions
                    if let Some(mask) = t.dropout_mask.lock().take() {
                        let mut g = grad.as_ref().clone();
                        ops::mul_assign(&mut g, &mask);
                        t.function.backward(&g, &y)
                    } else {
                        t.function.backward(&grad, &y)
                    }
                };
                // §III-B: bias gradient is the sum of the backward image
                let db = Transfer::bias_gradient(&back);
                // weight decay does not apply to biases
                Inner::arm_bias_update(inner, e, db);
                if read {
                    Contribution::Spatial(back)
                } else {
                    Contribution::Unread
                }
            }
            EdgeState::Max(m) => {
                // forward stores a fresh argmax every training round
                let argmax = m.argmax.lock().take().expect("forward before backward");
                let node_shape = inner.node_shape[from.0];
                if !read {
                    Contribution::Unread
                } else if m.is_pool {
                    Contribution::Spatial(max_pool_backward(&grad, &argmax, node_shape))
                } else {
                    Contribution::Spatial(max_filter_backward(&grad, &argmax, node_shape))
                }
            }
        };
        let node = &inner.nodes[from.0];
        if node.bwd_sum.add(contribution) {
            Inner::finalize_backward(inner, from);
        }
    }

    fn conv_backward(
        inner: &Arc<Inner>,
        c: &ConvEdge,
        from: NodeId,
        to: NodeId,
        grad: &Arc<Image>,
    ) -> Contribution {
        match c.geom.method {
            ConvMethod::Direct => {
                let d = c.geom.direct.as_ref().expect("direct edge has its tables");
                let w = c.kernel.lock();
                let mut out = Inner::lease_image(inner, inner.node_shape[from.0]);
                d.input_gradient_into(grad, &w, &mut out);
                Contribution::Spatial(out)
            }
            ConvMethod::Fft => {
                let m = c.geom.m;
                let g_spec = inner.nodes[to.0].bwd_spectra.get_or_compute(m, || {
                    inner.fft.forward_padded(grad, m)
                });
                let w_spec = Inner::kernel_spectrum(inner, c, m);
                let v_spec = spectra::flip_spectrum(&w_spec, c.k.dilated(c.sparsity));
                let prod = ops::mul_s(&g_spec, &v_spec);
                let node = &inner.nodes[from.0];
                if node.bwd_freq.is_some() {
                    Contribution::Freq(prod)
                } else {
                    Contribution::Spatial(inner.fft.inverse_real(
                        prod,
                        Vec3::zero(),
                        inner.node_shape[from.0],
                    ))
                }
            }
        }
    }

    /// The memoized kernel half-spectrum (Table II): computed in the
    /// forward pass and reused by backward/update when memoization is
    /// on. Sparse kernels are read onto the skip lattice by the pruned
    /// transform itself.
    fn kernel_spectrum(inner: &Arc<Inner>, c: &ConvEdge, m: Vec3) -> Arc<znn_tensor::Spectrum> {
        let compute = || spectra::kernel_spectrum(&inner.fft, &c.kernel.lock(), c.sparsity, m);
        if inner.cfg.memoize_fft {
            let mut cached = c.kernel_spectrum.lock();
            if let Some(s) = cached.as_ref() {
                return Arc::clone(s);
            }
            let spec = Arc::new(compute());
            *cached = Some(Arc::clone(&spec));
            spec
        } else {
            Arc::new(compute())
        }
    }

    fn arm_conv_update(
        inner: &Arc<Inner>,
        e: EdgeId,
        c: &ConvEdge,
        from: NodeId,
        to: NodeId,
        grad: &Arc<Image>,
    ) {
        // capture what the update needs *now* (Algorithm 2 line 4):
        // the forward image (and optionally spectra) of this round
        let x = {
            let img = inner.nodes[from.0].fwd_image.lock();
            Arc::clone(img.as_ref().expect("forward image retained"))
        };
        let use_fft = c.geom.method == ConvMethod::Fft && inner.cfg.memoize_fft;
        let (x_spec, g_spec) = if use_fft {
            let m = c.geom.m;
            let xs = inner.nodes[from.0]
                .fwd_spectra
                .get_or_compute(m, || inner.fft.forward_padded(&x, m));
            let gs = inner.nodes[to.0]
                .bwd_spectra
                .get_or_compute(m, || inner.fft.forward_padded(grad, m));
            (Some(xs), Some(gs))
        } else {
            (None, None)
        };
        let grad = Arc::clone(grad);
        let eta = inner.eta();
        let inner2 = Arc::clone(inner);
        let handle = c.update.clone();
        // the containment sits INSIDE the armed closure: if the update
        // work panicked out of the closure, the FORCE state machine
        // would never run finish() and the handle would stay Executing
        // forever — every later arm() would die on it
        handle.arm(Box::new(move || {
            let inner4 = Arc::clone(&inner2);
            Inner::run_contained(&inner4, move || {
                let EdgeState::Conv(c) = &inner2.edges[e.0] else {
                    unreachable!()
                };
                let dw = match (&x_spec, &g_spec) {
                    (Some(xs), Some(gs)) => {
                        let corr = spectra::corr_spectrum(xs, gs);
                        spectra::kernel_gradient_from_corr(&inner2.fft, corr, c.k, c.sparsity)
                    }
                    _ => {
                        let d = c
                            .geom
                            .direct
                            .as_ref()
                            .expect("direct kernel gradient has its tables");
                        d.kernel_gradient(&x, &grad)
                    }
                };
                Inner::apply_sgd(inner2.as_ref(), c, dw, eta);
            });
        }));
        Inner::submit_update_entry(inner, c.update.queue_entry());
    }

    /// Queues an update's scheduler entry with panic containment. The
    /// armed work is contained, but a *delegated* FORCE subtask (a
    /// forward task attached while the update ran) executes inside this
    /// entry on whichever thread finishes the update — and can unfold
    /// the whole downstream graph inline. A panic there must poison the
    /// round like any other task panic.
    fn submit_update_entry(inner: &Arc<Inner>, entry: znn_sched::Task) {
        let inner2 = Arc::clone(inner);
        inner.sched.submit(
            UPDATE_PRIORITY,
            Box::new(move || {
                let inner3 = Arc::clone(&inner2);
                Inner::run_contained(&inner3, entry);
            }),
        );
    }

    /// The step size of the updates armed in this round.
    fn eta(&self) -> f32 {
        self.cfg.learning_rate * f32::from_bits(self.step.load(Ordering::Relaxed))
    }

    fn apply_sgd(inner: &Inner, c: &ConvEdge, mut dw: Image, eta: f32) {
        let cfg = &inner.cfg;
        let mut w = c.kernel.lock();
        if cfg.weight_decay > 0.0 {
            // dw += wd * w
            ops::axpy(&mut dw, 1.0, &w.map(|v| v * cfg.weight_decay));
        }
        if cfg.momentum > 0.0 {
            let mut vel = c.velocity.lock();
            let v = vel.get_or_insert_with(|| Tensor3::zeros(w.shape()));
            // v = momentum*v - eta*dw ; w += v
            ops::scale(v, cfg.momentum);
            ops::sub_scaled(v, eta, &dw);
            ops::add_assign(&mut w, v);
        } else {
            ops::sub_scaled(&mut w, eta, &dw);
        }
        // the kernel changed: its memoized spectrum is stale
        *c.kernel_spectrum.lock() = None;
    }

    fn arm_bias_update(inner: &Arc<Inner>, e: EdgeId, db: f32) {
        let eta = inner.eta();
        let inner2 = Arc::clone(inner);
        let EdgeState::Transfer(t) = &inner.edges[e.0] else {
            unreachable!()
        };
        let handle = t.update.clone();
        // contained inside the closure for the same reason as conv
        // updates: finish() must always run
        handle.arm(Box::new(move || {
            let inner3 = Arc::clone(&inner2);
            Inner::run_contained(&inner3, move || {
                let EdgeState::Transfer(t) = &inner2.edges[e.0] else {
                    unreachable!()
                };
                *t.bias.lock() -= eta * db;
            });
        }));
        Inner::submit_update_entry(inner, t.update.queue_entry());
    }

    fn finalize_backward(inner: &Arc<Inner>, u: NodeId) {
        let node = &inner.nodes[u.0];
        let Some(img) = node.bwd_sum.take().into_image(&inner.fft, node.bwd_freq) else {
            // an input node: its backward pass is complete
            node.bwd_spectra.clear();
            inner.bwd_latch.count_down();
            return;
        };
        node.bwd_spectra.clear();
        let img = Arc::new(img);
        for &e in &inner.graph.node(u).in_edges {
            Inner::submit_backward(inner, e, Arc::clone(&img));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ConvPolicy, DenseConfig, DenseNet};
    use znn_graph::builder::{comparison_net, scalability_net_3d};

    /// Training and serving derive conv geometry by one rule: at the
    /// engine's input shape, a `DenseNet` under the same forced policy
    /// plans every conv edge's method, pad and crop, and every node's
    /// forward frequency-domain sum, as the `Znn` does.
    #[test]
    fn dense_net_derives_the_engine_geometry() {
        let nets = [
            (scalability_net_3d(2).0, Vec3::cube(2)),
            (
                comparison_net(3, Vec3::flat(5, 5), Vec3::flat(2, 2), true).0,
                Vec3::flat(4, 4),
            ),
        ];
        for (graph, out) in nets {
            for conv in [ConvPolicy::ForceDirect, ConvPolicy::ForceFft] {
                let cfg = TrainConfig {
                    conv,
                    ..TrainConfig::test_default(1)
                };
                let znn = Znn::new(graph.clone(), out, cfg).unwrap();
                let dense = DenseNet::new(
                    graph.clone(),
                    1,
                    DenseConfig {
                        conv,
                        ..DenseConfig::default()
                    },
                )
                .unwrap();
                let plan = dense.plan(vec![znn.input_shape()]);
                let mut fft_sums = 0;
                for (i, e) in znn.inner.edges.iter().enumerate() {
                    let dense_geom = plan.conv[i].as_ref().map(|g| (g.method, g.m, g.crop_at));
                    let znn_geom = match e {
                        EdgeState::Conv(c) => Some((c.geom.method, c.geom.m, c.geom.crop_at)),
                        _ => None,
                    };
                    assert_eq!(dense_geom, znn_geom, "edge {i} under {conv:?}");
                }
                for (i, node) in znn.inner.nodes.iter().enumerate() {
                    assert_eq!(plan.fwd_freq[i], node.fwd_freq, "node {i} under {conv:?}");
                    fft_sums += usize::from(node.fwd_freq.is_some());
                }
                assert_eq!(plan.node_shape, znn.inner.node_shape);
                // the comparison is not vacuous: FFT nets sum in the
                // frequency domain somewhere, direct ones nowhere
                assert_eq!(fft_sums > 0, conv == ConvPolicy::ForceFft, "{conv:?}");
            }
        }
    }
}
