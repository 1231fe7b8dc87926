//! Table I — FLOPs of pooling, filtering and transfer layers.
//!
//! Prints the analytic per-layer costs (the table itself) next to
//! *measured* wall-clock for the same operations, so the claimed
//! complexity ratios can be checked empirically: filtering costs
//! ~`6·log₂k`× pooling; transfer ≈ pooling.

use znn_bench::{fmt, header, row, time_per_round};
use znn_ops::filter::{max_filter, FilterImpl};
use znn_ops::pool::max_pool;
use znn_ops::Transfer;
use znn_tensor::{ops, Vec3};
use znn_plan::flops::{ConvAlgorithm, LayerModel};

fn main() {
    println!("# Table I — nonlinear layer costs (f nodes, n^3 images)\n");
    let f = 4usize;
    let n = 48usize;
    let k = 2usize;
    let img = ops::random(Vec3::cube(n), 1);

    header(&[
        "layer", "analytic fwd FLOPs", "analytic bwd FLOPs", "analytic upd FLOPs",
        "measured fwd s/layer",
    ]);

    let pool_model = LayerModel::MaxPool { n: n as f64, f: f as f64 };
    let pc = pool_model.flops_default(ConvAlgorithm::Direct);
    let t_pool = time_per_round(2, 5, || {
        for _ in 0..f {
            std::hint::black_box(max_pool(&img, Vec3::cube(k)));
        }
    });
    row(&[
        "max-pooling p=2".into(),
        format!("f·n³ = {}", fmt(pc.forward)),
        fmt(pc.backward),
        fmt(pc.update),
        fmt(t_pool),
    ]);

    let filt_model = LayerModel::MaxFilter { n: n as f64, f: f as f64, k: k as f64 };
    let fc = filt_model.flops_default(ConvAlgorithm::Direct);
    let t_filt = time_per_round(2, 5, || {
        for _ in 0..f {
            std::hint::black_box(max_filter(&img, Vec3::cube(k), Vec3::one(), FilterImpl::Deque));
        }
    });
    row(&[
        "max-filtering k=2".into(),
        format!("f·6n³·log k = {}", fmt(fc.forward)),
        fmt(fc.backward),
        fmt(fc.update),
        fmt(t_filt),
    ]);

    let tr_model = LayerModel::Transfer { n: n as f64, f: f as f64 };
    let tc = tr_model.flops_default(ConvAlgorithm::Direct);
    let t_tr = time_per_round(2, 5, || {
        for _ in 0..f {
            std::hint::black_box(Transfer::Relu.forward(&img, 0.1));
        }
    });
    row(&[
        "transfer (ReLU)".into(),
        format!("f·n³ = {}", fmt(tc.forward)),
        fmt(tc.backward),
        fmt(tc.update),
        fmt(t_tr),
    ]);

    println!(
        "\nshape check: transfer/pool measured ratio {:.2} (analytic 1.00), \
         filter/pool measured ratio {:.2}",
        t_tr / t_pool,
        t_filt / t_pool,
    );
}
