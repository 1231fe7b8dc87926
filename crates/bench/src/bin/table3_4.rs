//! Tables III–IV — per-layer T∞ (latency with unbounded processors).

use znn_bench::{fmt, header, row};
use znn_plan::flops::{ConvAlgorithm, LayerModel};
use znn_plan::tinf::t_inf;
use znn_plan::DEFAULT_C;

fn main() {
    println!("# Table III — conv layer T∞ (n=24, k=5)\n");
    header(&["width f", "direct fwd", "direct bwd", "direct upd", "fft fwd", "fft upd", "memoized upd"]);
    for f in [1.0, 4.0, 16.0, 64.0] {
        let l = LayerModel::Conv {
            n: 24.0,
            k: 5.0,
            f_in: f,
            f_out: f,
        };
        let d = t_inf(&l, ConvAlgorithm::Direct, DEFAULT_C);
        let x = t_inf(&l, ConvAlgorithm::Fft, DEFAULT_C);
        let m = t_inf(&l, ConvAlgorithm::FftMemoized, DEFAULT_C);
        row(&[
            format!("{f}"),
            fmt(d.forward),
            fmt(d.backward),
            fmt(d.update),
            fmt(x.forward),
            fmt(x.update),
            fmt(m.update),
        ]);
    }

    println!("\n# Table IV — nonlinear layer T∞ (n=24)\n");
    header(&["layer", "fwd", "bwd", "upd"]);
    for (name, l) in [
        ("max-pooling", LayerModel::MaxPool { n: 24.0, f: 16.0 }),
        (
            "max-filtering k=2",
            LayerModel::MaxFilter {
                n: 24.0,
                f: 16.0,
                k: 2.0,
            },
        ),
        ("transfer", LayerModel::Transfer { n: 24.0, f: 16.0 }),
    ] {
        let t = t_inf(&l, ConvAlgorithm::Direct, DEFAULT_C);
        row(&[name.into(), fmt(t.forward), fmt(t.backward), fmt(t.update)]);
    }
    println!("\nshape check: T∞ grows only logarithmically with width f (the");
    println!("⌈log₂ f⌉ collapse term), while serial cost grows as f².");
}
