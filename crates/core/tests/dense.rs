//! Parity and robustness tests for the forward-only dense evaluator.
//!
//! The ground truth is the sequential [`ReferenceNet`] sliding a
//! max-pooling net over every output position (the Fig. 2 left-hand
//! side); [`DenseNet`] over the equivalent max-filtering graph must
//! compute the same dense output in one pass, plain or through the
//! cancellable `forward_blocked` entry, on either convolution backend,
//! and must return every pooled lease when an evaluation is cancelled
//! at any node step.

use std::ops::ControlFlow;
use std::sync::Arc;
use znn_alloc::PoolSet;
use znn_baseline::ReferenceNet;
use znn_core::{ConvPolicy, DenseConfig, DenseNet};
use znn_graph::builder::scalability_net_3d;
use znn_graph::{EdgeOp, Graph, NetBuilder};
use znn_ops::{ConvMethod, Transfer};
use znn_plan::{PlanConfig, Planner};
use znn_tensor::{ops, pad, Image, Tensor3, Vec3};

/// A tiny max-pooling recognition net: C3 T P2 C3 T, field of view 9².
fn pooling_net() -> Graph {
    NetBuilder::new("pool", 1)
        .conv(3, Vec3::flat(3, 3))
        .transfer(Transfer::Tanh)
        .max_pool(Vec3::flat(2, 2))
        .conv(1, Vec3::flat(3, 3))
        .transfer(Transfer::Tanh)
        .build()
        .unwrap()
        .0
}

/// The same net with max-filtering + skip kernels (Fig 2, right).
fn filtering_net() -> Graph {
    NetBuilder::new("filter", 1)
        .conv(3, Vec3::flat(3, 3))
        .transfer(Transfer::Tanh)
        .max_filter(Vec3::flat(2, 2))
        .conv(1, Vec3::flat(3, 3))
        .transfer(Transfer::Tanh)
        .build()
        .unwrap()
        .0
}

/// `in → a` (conv `k_a`), then `in → out` (conv `k_skip`) and `a → out`
/// (conv `k_out`) converge: the two in-edges of `out` see different
/// source shapes and kernels, so they differ in crop, pad or method.
fn skip_net(k_a: Vec3, k_skip: Vec3, k_out: Vec3) -> Graph {
    let conv = |kernel| EdgeOp::Conv {
        kernel,
        sparsity: Vec3::one(),
    };
    let mut g = Graph::new();
    let input = g.add_node("in");
    let a = g.add_node("a");
    let out = g.add_node("out");
    g.add_edge(input, a, conv(k_a));
    g.add_edge(input, out, conv(k_skip));
    g.add_edge(a, out, conv(k_out));
    g
}

/// `DenseNet` under `conv` against the direct-only net on the same
/// parameters.
fn max_diff_from_direct(graph: Graph, conv: ConvPolicy, input: Vec3) -> f32 {
    let image = ops::random(input, 4);
    let direct = DenseNet::new(graph.clone(), 8, dense_cfg(ConvPolicy::ForceDirect)).unwrap();
    let other = DenseNet::new(graph, 8, dense_cfg(conv)).unwrap();
    direct.forward(&image).max_abs_diff(&other.forward(&image))
}

fn dense_cfg(conv: ConvPolicy) -> DenseConfig {
    DenseConfig {
        conv,
        ..DenseConfig::default()
    }
}

/// Dense net with the sliding reference's parameters carried over.
fn dense_from_reference(slider: &ReferenceNet, conv: ConvPolicy) -> DenseNet {
    DenseNet::with_params(filtering_net(), slider.params().clone(), dense_cfg(conv)).unwrap()
}

#[test]
fn dense_matches_sliding_reference() {
    let mut slider = ReferenceNet::new(pooling_net(), Vec3::flat(1, 1), 7).unwrap();
    let fov = slider.input_shape();
    let image = ops::random(Vec3::flat(20, 20), 42);
    let n = image.shape();
    let dense_shape = Vec3::flat(n[1] - fov[1] + 1, n[2] - fov[2] + 1);

    let mut slow = Tensor3::<f32>::zeros(dense_shape);
    for y in 0..dense_shape[1] {
        for z in 0..dense_shape[2] {
            let window = pad::crop(&image, Vec3::new(0, y, z), fov);
            let out = slider.forward(&[window]).remove(0);
            slow.set((0, y, z), out.at((0, 0, 0)));
        }
    }

    for conv in [ConvPolicy::ForceDirect, ConvPolicy::ForceFft] {
        let dense = dense_from_reference(&slider, conv);
        assert_eq!(dense.output_shape_for(n), Some(dense_shape));
        assert_eq!(dense.input_shape_for(dense_shape).unwrap(), n);
        let fast = dense.forward(&image);
        let diff = slow.max_abs_diff(&fast);
        assert!(
            diff < 1e-4,
            "Fig 2 equivalence must hold under {conv:?}: max diff {diff:.2e}"
        );
    }
}

#[test]
fn blocked_matches_whole_bitwise_under_direct() {
    let slider = ReferenceNet::new(pooling_net(), Vec3::flat(1, 1), 11).unwrap();
    let dense = dense_from_reference(&slider, ConvPolicy::ForceDirect);
    let image = ops::random(Vec3::flat(23, 26), 5);
    let whole = dense.forward(&image);

    // block shapes that divide, straddle, and exceed the output volume
    for block in [
        Vec3::flat(5, 6),
        Vec3::flat(7, 7),
        Vec3::flat(1, 18),
        Vec3::flat(64, 64),
    ] {
        let mut seen = 0usize;
        let blocked = dense
            .forward_blocked(&image, block, &mut |ev| {
                assert!(ev.index < ev.total);
                seen += 1;
                ControlFlow::Continue(())
            })
            .unwrap();
        // one checkpoint per node step, whatever the block argument
        assert_eq!(seen, dense.graph().node_count());
        assert_eq!(whole.shape(), blocked.shape());
        assert_eq!(
            whole.max_abs_diff(&blocked),
            0.0,
            "direct blocked evaluation must be bitwise identical (block {block})"
        );
    }
}

fn bits(img: &Image) -> Vec<u32> {
    img.as_slice().iter().map(|v| v.to_bits()).collect()
}

/// Conv edges of `graph` (all FFT-convolved under `ForceFft`).
fn conv_edges(graph: &Graph) -> usize {
    graph
        .edges()
        .iter()
        .filter(|e| matches!(e.op, EdgeOp::Conv { .. }))
        .count()
}

/// A width-2 all-to-all 2D filtering net: under `ForceFft` the nodes
/// after the second conv layer take frequency-domain sums.
fn all_to_all_net() -> Graph {
    NetBuilder::new("all-to-all", 1)
        .conv(2, Vec3::flat(3, 3))
        .transfer(Transfer::Tanh)
        .max_filter(Vec3::flat(2, 2))
        .conv(2, Vec3::flat(3, 3))
        .transfer(Transfer::Tanh)
        .conv(1, Vec3::flat(3, 3))
        .transfer(Transfer::Tanh)
        .build()
        .unwrap()
        .0
}

#[test]
fn blocked_matches_whole_bitwise_under_every_policy() {
    // the paper's 3D scalability net (fov 26³) takes frequency-domain
    // sums in every all-to-all layer; blocked evaluation is the same
    // computation as `forward`, so FFT holds bitwise too
    let graph = scalability_net_3d(2).0;
    let image = ops::random(Vec3([28, 27, 26]), 6);
    for conv in [ConvPolicy::ForceDirect, ConvPolicy::ForceFft, ConvPolicy::Autotune] {
        let dense = DenseNet::new(graph.clone(), 19, dense_cfg(conv)).unwrap();
        let whole = dense.forward(&image);
        let blocked = dense
            .forward_blocked(&image, Vec3::one(), &mut |_| ControlFlow::Continue(()))
            .unwrap();
        assert_eq!(whole.shape(), Vec3([3, 2, 1]));
        assert_eq!(bits(&whole), bits(&blocked), "blocked != whole under {conv:?}");
    }
}

#[test]
fn cancellation_at_every_step_returns_every_pooled_lease() {
    let image = ops::random(Vec3::flat(22, 21), 3);
    for conv in [ConvPolicy::ForceFft, ConvPolicy::ForceDirect] {
        let pools = PoolSet::new();
        let cfg = DenseConfig {
            conv,
            pools: Some(Arc::clone(&pools)),
            ..DenseConfig::default()
        };
        let dense = DenseNet::new(all_to_all_net(), 5, cfg).unwrap();
        // the memoized kernel spectra are pooled leases the net keeps
        // on purpose; everything else must come home on every break
        dense.warmup(image.shape());
        let cached = pools.stats().bytes_in_use();
        let steps = dense.graph().node_count();
        for k in 0..steps {
            let err = dense
                .forward_blocked(&image, Vec3::one(), &mut |ev| {
                    assert_eq!(ev.total, steps);
                    if ev.index == k {
                        ControlFlow::Break(())
                    } else {
                        ControlFlow::Continue(())
                    }
                })
                .unwrap_err();
            assert_eq!((err.blocks_done, err.blocks_total), (k, steps), "{conv:?}");
            assert_eq!(
                pools.stats().bytes_in_use(),
                cached,
                "break at step {k} under {conv:?} must return every pooled lease"
            );
        }
        drop(dense);
        assert_eq!(pools.stats().bytes_in_use(), 0, "{conv:?}");
    }
}

#[test]
fn one_blocked_evaluation_memoizes_one_spectrum_per_fft_edge() {
    // 8³-style tiling of this volume would have met several window
    // shapes (the edge blocks are smaller), each its own transform
    // shape; the whole window has one
    let graph = all_to_all_net();
    let edges = conv_edges(&graph);
    let dense = DenseNet::new(graph, 23, dense_cfg(ConvPolicy::ForceFft)).unwrap();
    let image = ops::random(Vec3::flat(29, 34), 8);
    dense
        .forward_blocked(&image, Vec3::flat(8, 8), &mut |_| ControlFlow::Continue(()))
        .unwrap();
    assert_eq!(dense.memoized_spectra(), edges);
}

#[test]
fn blocked_fft_matches_whole_within_tolerance() {
    let slider = ReferenceNet::new(pooling_net(), Vec3::flat(1, 1), 13).unwrap();
    let dense = dense_from_reference(&slider, ConvPolicy::ForceFft);
    let image = ops::random(Vec3::flat(21, 24), 9);
    let whole = dense.forward(&image);
    let blocked = dense
        .forward_blocked(&image, Vec3::flat(6, 5), &mut |_| ControlFlow::Continue(()))
        .unwrap();
    let diff = whole.max_abs_diff(&blocked);
    assert!(diff < 1e-4, "FFT blocked vs whole: max diff {diff:.2e}");
}

#[test]
fn cancellation_returns_every_pooled_lease() {
    let pools = PoolSet::new();
    let cfg = DenseConfig {
        conv: ConvPolicy::ForceDirect,
        pools: Some(Arc::clone(&pools)),
        ..DenseConfig::default()
    };
    let dense = DenseNet::new(filtering_net(), 3, cfg).unwrap();
    let image = ops::random(Vec3::flat(24, 24), 1);

    let err = dense
        .forward_blocked(&image, Vec3::flat(4, 4), &mut |ev| {
            if ev.index == 2 {
                ControlFlow::Break(())
            } else {
                ControlFlow::Continue(())
            }
        })
        .unwrap_err();
    assert_eq!(err.blocks_done, 2);
    assert!(err.blocks_total > 2);
    assert_eq!(
        pools.stats().bytes_in_use(),
        0,
        "cancelled evaluation must return every pooled lease"
    );
}

#[test]
fn completed_blocked_evaluation_returns_every_pooled_lease() {
    // the max-filter layer leases its output and pass scratch from the
    // input's pool; once the result drops, nothing may still be leased
    let pools = PoolSet::new();
    let cfg = DenseConfig {
        conv: ConvPolicy::ForceDirect,
        pools: Some(Arc::clone(&pools)),
        ..DenseConfig::default()
    };
    let dense = DenseNet::new(filtering_net(), 3, cfg).unwrap();
    let image = ops::random(Vec3::flat(24, 24), 1);
    let out = dense
        .forward_blocked(&image, Vec3::flat(5, 7), &mut |_| ControlFlow::Continue(()))
        .unwrap();
    assert_eq!(out, dense.forward(&image));
    drop(out);
    assert_eq!(
        pools.stats().bytes_in_use(),
        0,
        "completed evaluation must return every pooled lease"
    );
}

#[test]
fn spectra_memoize_once_and_params_mut_invalidates() {
    let dense = DenseNet::new(filtering_net(), 21, dense_cfg(ConvPolicy::ForceFft)).unwrap();
    let shape = Vec3::flat(20, 20);
    assert_eq!(dense.memoized_spectra(), 0);
    dense.warmup(shape);
    let warm = dense.memoized_spectra();
    assert!(warm > 0, "warmup must populate the kernel-spectrum cache");
    assert!(dense.memoized_spectrum_bytes() > 0);

    let image = ops::random(shape, 2);
    let before = dense.forward(&image);
    assert_eq!(
        dense.memoized_spectra(),
        warm,
        "the cache is read-only after warmup"
    );

    // retuning parameters must drop the stale spectra
    let mut dense = dense;
    for k in dense.params_mut().kernels.iter_mut().flatten() {
        for v in k.as_mut_slice() {
            *v += 0.25;
        }
    }
    assert_eq!(dense.memoized_spectra(), 0);
    let after = dense.forward(&image);
    assert!(
        before.max_abs_diff(&after) > 1e-6,
        "new parameters must change the output"
    );
}

#[test]
fn multi_threaded_sharing_is_consistent() {
    let slider = ReferenceNet::new(pooling_net(), Vec3::flat(1, 1), 17).unwrap();
    let dense = Arc::new(dense_from_reference(&slider, ConvPolicy::ForceFft));
    let image = ops::random(Vec3::flat(20, 22), 33);
    dense.warmup(image.shape());
    let expect = dense.forward(&image);

    let mut handles = Vec::new();
    for _ in 0..4 {
        let dense = Arc::clone(&dense);
        let image = image.clone();
        handles.push(std::thread::spawn(move || dense.forward(&image)));
    }
    for h in handles {
        let got = h.join().unwrap();
        assert_eq!(
            expect.max_abs_diff(&got),
            0.0,
            "concurrent callers share one cache and agree bitwise"
        );
    }
}

#[test]
fn fft_in_edges_with_different_crops_sum_in_space() {
    // both sources pad to 24×24, but the crops differ at `out` (4 for
    // 5×5 from `in`, 2 for 3×3 from `a`): no shared frequency-domain
    // sum, each edge inverts on its own
    let g = skip_net(Vec3::flat(3, 3), Vec3::flat(5, 5), Vec3::flat(3, 3));
    let diff = max_diff_from_direct(g, ConvPolicy::ForceFft, Vec3::flat(24, 24));
    assert!(diff < 1e-4, "mixed-crop FFT node vs direct: max diff {diff:.2e}");
}

#[test]
fn autotuned_node_mixing_direct_and_fft_sums_in_space() {
    // the planner prices a 7³ kernel on 16³ as FFT and a 1³ kernel as
    // direct, so `out` gets one in-edge of each
    let n = Vec3::cube(16);
    let planner = Planner::new(PlanConfig::host());
    assert_eq!(planner.choose_forward(n, Vec3::cube(7), Vec3::one()).0, ConvMethod::Fft);
    assert_eq!(
        planner.choose_forward(n - Vec3::cube(6), Vec3::one(), Vec3::one()).0,
        ConvMethod::Direct
    );
    let g = skip_net(Vec3::cube(7), Vec3::cube(7), Vec3::one());
    let diff = max_diff_from_direct(g, ConvPolicy::Autotune, n);
    assert!(diff < 1e-4, "mixed-method node vs direct: max diff {diff:.2e}");
}
