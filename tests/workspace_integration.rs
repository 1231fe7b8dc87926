//! Cross-crate integration tests exercised through the `znn` facade:
//! paper-level invariants that tie several subsystems together.

use znn::baseline::{LayerwiseNet, ReferenceNet};
use znn::core::{ConvPolicy, TrainConfig, Znn};
use znn::graph::builder::{comparison_net, scalability_net_2d, scalability_net_3d};
use znn::graph::{shapes, TaskGraph};
use znn::ops::{ConvMethod, Loss, Transfer};
use znn::plan::brent::{achievable_speedup, NetworkModel};
use znn::plan::cost::task_costs;
use znn::plan::flops::ConvAlgorithm;
use znn::plan::{simulate, Machine, NetPlan, SimConfig};
use znn::tensor::{ops, pad, Tensor3, Vec3};

/// All three engines (task-parallel, sequential reference, layerwise
/// baseline) agree on the paper's 3D benchmark architecture.
#[test]
fn three_engines_agree_on_the_paper_network() {
    let w = 2usize;
    let out = Vec3::cube(4);
    let (g, _) = scalability_net_3d(w);
    let znn = Znn::new(g.clone(), out, TrainConfig::test_default(2)).unwrap();
    let mut reference = ReferenceNet::new(g.clone(), out, 0x5EED).unwrap();
    let mut layerwise = LayerwiseNet::new(g, out, 0x5EED).unwrap();
    let x = ops::random(znn.input_shape(), 11);
    let a = znn.forward(std::slice::from_ref(&x)).remove(0);
    let b = reference.forward(std::slice::from_ref(&x)).remove(0);
    let c = layerwise.forward(&[x]).remove(0);
    assert!(a.max_abs_diff(&b) < 1e-4);
    assert!(b.max_abs_diff(&c) < 1e-4);
}

/// The Fig 2 equivalence across the whole stack: a dense sliding-window
/// evaluation of a pooling net equals one pass of the sparse filtering
/// net, computed by the task-parallel engine.
#[test]
fn sliding_window_equivalence_through_the_engine() {
    let k = Vec3::flat(3, 3);
    let p = Vec3::flat(2, 2);
    let (pool_net, _) = comparison_net(2, k, p, false);
    let (filt_net, _) = comparison_net(2, k, p, true);
    let fov = shapes::required_input_shape(&pool_net, Vec3::flat(1, 1)).unwrap();

    let dense_shape = Vec3::flat(3, 3);
    let filt = Znn::new(filt_net, dense_shape, TrainConfig::test_default(2)).unwrap();
    let mut slider = ReferenceNet::new(pool_net, Vec3::flat(1, 1), 0x5EED).unwrap();

    let image = ops::random(filt.input_shape(), 21);
    let fast = filt.forward(std::slice::from_ref(&image)).remove(0);
    for at in dense_shape.iter() {
        let window = pad::crop(&image, at, fov);
        let one = slider.forward(&[window]).remove(0);
        assert!(
            (fast[at] - one.at((0, 0, 0))).abs() < 1e-4,
            "window at {at}: sparse {} vs sliding {}",
            fast[at],
            one.at((0, 0, 0))
        );
    }
}

/// The simulator's speedups respect the Brent bound computed by the
/// analytic model — simulation can never beat theory.
#[test]
fn simulated_speedup_respects_the_brent_bound() {
    for width in [4usize, 16] {
        let (g, _) = scalability_net_3d(width);
        let plan = NetPlan::force(&g, Vec3::cube(12), ConvMethod::Direct, 1, false).unwrap();
        let (tg, costs) = task_costs(&g, Vec3::cube(12), &plan, false).unwrap();
        let machine = Machine::xeon_e7_40core();
        let sim = simulate(
            &tg,
            &costs,
            &machine,
            &SimConfig {
                workers: 40,
                ..Default::default()
            },
        );
        // an analytic model of the same family of networks; the bound
        // uses the same processor count
        let model = NetworkModel::fully_connected(4, width as f64, 3.0, 12.0);
        let bound = achievable_speedup(&model, ConvAlgorithm::Direct, 40.0);
        // the simulated net has filter layers the model lacks, so allow
        // headroom — the invariant is "not wildly above the bound"
        assert!(
            sim.speedup <= bound * 1.5 + 2.0,
            "width {width}: simulated {} vs bound {bound}",
            sim.speedup
        );
        assert!(sim.speedup >= 1.0);
    }
}

/// Task graphs of the benchmark networks are well-formed at every width
/// used by the figures.
#[test]
fn benchmark_task_graphs_are_acyclic_at_figure_widths() {
    for w in [5usize, 30, 80] {
        assert!(TaskGraph::build(&scalability_net_3d(w).0).is_acyclic());
        assert!(TaskGraph::build(&scalability_net_2d(w).0).is_acyclic());
    }
}

/// End-to-end: training through the facade with FFT + memoization on a
/// 2D (flat) network converges on a representable target.
#[test]
fn facade_end_to_end_2d_training() {
    let (g, _) = znn::graph::NetBuilder::new("e2e", 1)
        .conv(3, Vec3::flat(5, 5))
        .transfer(Transfer::Tanh)
        .conv(1, Vec3::flat(5, 5))
        .build()
        .unwrap();
    let out = Vec3::flat(4, 4);
    let cfg = TrainConfig {
        conv: ConvPolicy::ForceFft,
        memoize_fft: true,
        learning_rate: 0.05,
        loss: Loss::Mse,
        ..TrainConfig::test_default(2)
    };
    let znn = Znn::new(g.clone(), out, cfg).unwrap();
    let mut teacher = ReferenceNet::new(g, out, 4242).unwrap();
    let x = ops::random(znn.input_shape(), 33);
    let t = teacher.forward(std::slice::from_ref(&x)).remove(0);
    let first = znn.train_step(std::slice::from_ref(&x), std::slice::from_ref(&t));
    let mut last = first;
    for _ in 0..40 {
        last = znn.train_step(std::slice::from_ref(&x), std::slice::from_ref(&t));
    }
    assert!(last < 0.6 * first, "{first} -> {last}");
}

/// The pooled allocator integrates with tensors end to end.
#[test]
fn image_pool_round_trips_tensors() {
    let pool = znn::alloc::PoolSet::new();
    let mut img = pool.image(Vec3::cube(8));
    img.as_mut_slice().fill(3.0);
    assert_eq!(img.sum(), 3.0 * 512.0);
    drop(img);
    let again = pool.image(Vec3::cube(8));
    assert!(again.as_slice().iter().all(|&v| v == 0.0));
    assert_eq!(pool.stats().hits(), 1);
}

/// Degenerate graphs: a single conv edge trains without deadlock.
#[test]
fn minimal_graph_trains() {
    let mut g = znn::graph::Graph::new();
    let a = g.add_node("in");
    let b = g.add_node("out");
    g.add_edge(
        a,
        b,
        znn::graph::EdgeOp::Conv {
            kernel: Vec3::cube(2),
            sparsity: Vec3::one(),
        },
    );
    let znn = Znn::new(g, Vec3::cube(3), TrainConfig::test_default(1)).unwrap();
    let x = ops::random(znn.input_shape(), 1);
    let t = Tensor3::<f32>::zeros(Vec3::cube(3));
    let l0 = znn.train_step(std::slice::from_ref(&x), std::slice::from_ref(&t));
    let mut l = l0;
    for _ in 0..20 {
        l = znn.train_step(std::slice::from_ref(&x), std::slice::from_ref(&t));
    }
    assert!(l < l0);
}
