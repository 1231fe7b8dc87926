//! Parity and robustness tests for the forward-only dense evaluator.
//!
//! The ground truth is the sequential [`ReferenceNet`] sliding a
//! max-pooling net over every output position (the Fig. 2 left-hand
//! side); [`DenseNet`] over the equivalent max-filtering graph must
//! compute the same dense output in one pass, whole or blocked, on
//! either convolution backend, and must return every pooled lease when
//! a blocked evaluation is cancelled.

use std::ops::ControlFlow;
use std::sync::Arc;
use znn_alloc::PoolSet;
use znn_baseline::ReferenceNet;
use znn_core::{ConvPolicy, DenseConfig, DenseNet};
use znn_graph::{EdgeOp, Graph, NetBuilder};
use znn_ops::{ConvMethod, Transfer};
use znn_plan::{PlanConfig, Planner};
use znn_tensor::{ops, pad, Tensor3, Vec3};

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
        assert_eq!(seen, {
            let o = whole.shape();
            o[0].div_ceil(block[0]) * o[1].div_ceil(block[1]) * o[2].div_ceil(block[2])
        });
        assert_eq!(whole.shape(), blocked.shape());
        assert_eq!(
            whole.max_abs_diff(&blocked),
            0.0,
            "direct blocked evaluation must be bitwise identical (block {block})"
        );
    }
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
