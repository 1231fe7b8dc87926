//! §IX-B — working-memory accounting: pooled-allocator footprint over
//! training rounds (flat after warm-up, per §VII-C) — both the bare
//! pool mechanics and the *integrated* engine, whose every hot-path
//! buffer now leases from a `PoolSet` — and the memory cost of FFT
//! memoization vs the speed it buys.

use znn_alloc::PoolSet;
use znn_bench::{fmt, header, row, time_per_round};
use znn_core::{ConvPolicy, TrainConfig, Znn};
use znn_graph::builder::comparison_net;
use znn_tensor::{ops, Vec3};

fn main() {
    println!("# §VII-C — pooled allocator footprint across training-like rounds\n");
    let pool = PoolSet::new();
    header(&["round", "bytes from system", "hits", "misses"]);
    for round in 0..6 {
        // a round's working set, recycled when the leases drop
        let imgs: Vec<_> = (1..8).map(|s| pool.image(Vec3::cube(4 * s))).collect();
        drop(imgs);
        row(&[
            round.to_string(),
            pool.stats().bytes_from_system().to_string(),
            pool.stats().hits().to_string(),
            pool.stats().misses().to_string(),
        ]);
    }
    println!("\nshape check: footprint peaks after round 0 and stays flat.\n");

    println!("# §VII-C — the same property on the real engine (every hot-path");
    println!("# buffer leased from a PoolSet through TrainConfig::pools)\n");
    {
        let pools = PoolSet::new();
        let (g, _) = comparison_net(2, Vec3::cube(3), Vec3::cube(2), true);
        let cfg = TrainConfig {
            workers: 2,
            conv: ConvPolicy::ForceFft,
            memoize_fft: true,
            pools: Some(std::sync::Arc::clone(&pools)),
            ..Default::default()
        };
        let out_shape = Vec3::cube(2);
        let znn = Znn::new(g, out_shape, cfg).unwrap();
        let x = ops::random(znn.input_shape(), 1);
        let t = ops::random(out_shape, 2).map(|v| 0.5 + 0.4 * v);
        header(&[
            "round",
            "resident bytes",
            "churn bytes (cum.)",
            "hits",
            "misses",
            "hit rate",
        ]);
        for round in 0..6 {
            znn.train_step(std::slice::from_ref(&x), std::slice::from_ref(&t));
            let s = znn.stats();
            row(&[
                round.to_string(),
                s.alloc_resident_bytes.to_string(),
                s.alloc_leased_bytes.to_string(),
                s.alloc_hits.to_string(),
                s.alloc_misses.to_string(),
                format!("{:.3}", s.alloc_hit_rate()),
            ]);
        }
        println!("\nshape check: resident bytes plateau after round ~3 while churn");
        println!("keeps growing — steady-state training never touches malloc.\n");
    }

    println!("# §IX-B — FFT memoization: memory vs speed\n");
    let out_shape = Vec3::cube(2);
    let kernel = Vec3::cube(5);
    header(&[
        "memoize",
        "s/update",
        "memoized spectra (count)",
        "half-spectrum bytes",
    ]);
    for memoize in [false, true] {
        let (g, _) = comparison_net(3, kernel, Vec3::cube(2), true);
        let cfg = TrainConfig {
            workers: 2,
            conv: ConvPolicy::ForceFft,
            memoize_fft: memoize,
            ..Default::default()
        };
        let znn = Znn::new(g, out_shape, cfg).unwrap();
        let x = ops::random(znn.input_shape(), 1);
        let t = ops::random(out_shape, 2).map(|v| 0.5 + 0.4 * v);
        let dt = time_per_round(1, 3, || {
            znn.train_step(std::slice::from_ref(&x), std::slice::from_ref(&t));
        });
        row(&[
            memoize.to_string(),
            fmt(dt),
            znn.memoized_spectra().to_string(),
            znn.memoized_spectrum_bytes().to_string(),
        ]);
    }
    println!("\nshape check: memoization trades retained spectra (memory");
    println!("proportional to network size) for fewer transforms per round.");
}
