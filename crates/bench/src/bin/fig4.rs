//! Fig 4 — theoretically achievable speedup (Brent's theorem bound) vs
//! network width, for (a) direct and (b) memoized FFT convolution.
//!
//! Reproduces the paper's parameters: P ∈ {8, 18, 40, 60, 120}, depths
//! 4–40, kernels 5³. Each line of output is one curve.

use znn_plan::brent::{achievable_speedup, NetworkModel};
use znn_plan::flops::ConvAlgorithm;

fn main() {
    let widths: Vec<f64> = (1..=24).map(|i| (i * 5) as f64).collect();
    let processors = [8.0, 18.0, 40.0, 60.0, 120.0];
    let depths = [4usize, 12, 40];

    for (label, algo) in [
        ("(a) direct convolution", ConvAlgorithm::Direct),
        ("(b) FFT-based convolution with memoization", ConvAlgorithm::FftMemoized),
    ] {
        println!("# Fig 4{label}");
        println!("width: {widths:?}");
        for &p in &processors {
            for &d in &depths {
                let curve: Vec<String> = widths
                    .iter()
                    .map(|&w| {
                        let net = NetworkModel::fully_connected(d, w, 5.0, 12.0);
                        format!("{:.1}", achievable_speedup(&net, algo, p))
                    })
                    .collect();
                println!("P={p:>3} depth={d:>2}: [{}]", curve.join(", "));
            }
        }
        println!();
    }
    println!("shape check: every curve rises toward its P asymptote; the width");
    println!("needed to reach 75% of P grows with P; depth shifts curves only");
    println!("slightly (multiple same-colour lines in the paper's figure).");
}
