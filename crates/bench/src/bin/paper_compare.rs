//! Paper comparison — §IX Figs 8–9 and the planner report under one
//! protocol: task-parallel ZNN against the layer-at-a-time direct
//! baseline (`znn-baseline`, the algorithmic content of the GPU
//! frameworks the paper ran), and the `znn-plan` cost model against
//! the fixed strategies it replaces.
//!
//! Cases: Fig 8's 2D grid (width 4, kernels 4²–12², outputs 1²–8²)
//! and Fig 9's 3D grid (width 3, kernels 3³–7³, outputs 1³–4³), both
//! on the max-pooling comparison net, plus the planner's five benchmark
//! nets. Every case builds five engines on the same graph: the
//! layerwise baseline; ZNN under three `NetPlan::force` plans (direct,
//! FFT, FFT with pow2 pads); and ZNN under the planner's `Autotune`
//! plan. When Auto's plan equals a fixed one in every edge's method and
//! pad, it is the same engine: it is built and timed once, and its time
//! is reported under both names (`"auto_same_as"`). All engines are
//! built and warmed first, then timed round-robin under
//! [`paired::judge`], the first engine rotating each pass, and each
//! reports its median round. A ZNN round is one `train_step` plus its
//! flushed updates, so no engine's pending work runs while another is
//! timed.
//!
//! Verdicts — **the bin exits non-zero through [`Verdicts`] if any
//! fails**; the record is written either way. Each timed verdict is a
//! [`paired`] verdict on one score per pass, whose bound is 1:
//! 1. on every case, ZNN's best forced strategy is no slower than
//!    layerwise ([`layerwise_score`]);
//! 2. on every case, Auto is within the gap bound of the best fixed
//!    strategy ([`gap_score`]);
//! 3. per dimensionality and output size of the grids, once FFT beats
//!    direct at some kernel it beats it at every larger one
//!    ([`crossover`]), each point's win a paired verdict on FFT's round
//!    over direct's. The crossover kernel is recorded, not asserted.
//!
//! `--smoke` runs the planner nets at smaller sizes and a fixed subset
//! of the grids, with fewer rounds, for CI.

use std::sync::Arc;
use znn_baseline::LayerwiseNet;
use znn_bench::{
    crossover, gap_score, header, layerwise_score, median, paired, row, write_record, Verdicts,
    GAP_BOUND,
};
use znn_core::{TrainConfig, Znn};
use znn_graph::builder::{comparison_net, scalability_net_2d, scalability_net_3d};
use znn_graph::{EdgeOp, Graph};
use znn_ops::ConvMethod;
use znn_plan::{NetPlan, PlanConfig, Planner};
use znn_tensor::{ops, Vec3};

/// The fixed strategies: direct once (pads are an FFT knob), FFT at
/// both pad shapes.
const FIXED: [(&str, ConvMethod, bool); 3] = [
    ("direct", ConvMethod::Direct, false),
    ("fft", ConvMethod::Fft, false),
    ("fft_pow2", ConvMethod::Fft, true),
];

/// The grid rows `--smoke` runs, as (dimensionality, output edge): one
/// whole kernel row per dimensionality, so each spans the crossover a
/// full run measures (12² in 2D, 7³ in 3D on a 2-core AVX-512 host).
/// In 3D it is the cheapest row: one pass of the five engines at 7³
/// takes ~1 s.
const SMOKE_ROWS: [(&str, usize); 2] = [("2d", 4), ("3d", 1)];

struct Case {
    name: String,
    graph: Graph,
    out: Vec3,
    /// (dimensionality, output edge, kernel edge) of a grid point
    grid: Option<(&'static str, usize, usize)>,
}

fn cases(smoke: bool) -> Vec<Case> {
    let mut cases = Vec::new();
    let grids: [(&str, usize, &[usize], &[usize]); 2] = [
        ("2d", 4, &[4, 6, 8, 12], &[1, 2, 4, 8]),
        ("3d", 3, &[3, 5, 7], &[1, 2, 4]),
    ];
    for (dim, width, kernels, outs) in grids {
        let shape = |n| {
            if dim == "2d" {
                Vec3::flat(n, n)
            } else {
                Vec3::cube(n)
            }
        };
        for &o in outs {
            if smoke && !SMOKE_ROWS.contains(&(dim, o)) {
                continue;
            }
            for &k in kernels {
                let (graph, _) = comparison_net(width, shape(k), shape(2), false);
                let name = format!("{dim}_k{k}_out{o}");
                cases.push(Case {
                    name,
                    graph,
                    out: shape(o),
                    grid: Some((dim, o, k)),
                });
            }
        }
    }
    let (fig8, _) = comparison_net(2, Vec3::flat(5, 5), Vec3::flat(2, 2), true);
    let (fig9, _) = comparison_net(2, Vec3::cube(5), Vec3::cube(2), true);
    // anisotropic EM-stack geometry: thin z, wide xy, mixed kernel
    let (aniso, _) = comparison_net(2, Vec3::new(2, 5, 5), Vec3::new(1, 2, 2), true);
    let (flat2d, _) = scalability_net_2d(2);
    let (vol3d, _) = scalability_net_3d(2);
    let nets = if smoke {
        vec![
            ("fig9_3d", fig9, Vec3::cube(2)),
            ("flat_2d", flat2d, Vec3::flat(4, 4)),
        ]
    } else {
        vec![
            ("fig8_2d", fig8, Vec3::flat(16, 16)),
            ("fig9_3d", fig9, Vec3::cube(4)),
            ("aniso", aniso, Vec3::new(2, 8, 8)),
            ("flat_2d", flat2d, Vec3::flat(8, 8)),
            ("vol_3d", vol3d, Vec3::cube(4)),
        ]
    };
    for (name, graph, out) in nets {
        cases.push(Case {
            name: name.into(),
            graph,
            out,
            grid: None,
        });
    }
    cases
}

/// Whether two plans run the same engine: equal in every edge's method
/// and pad.
fn same_engine(a: &NetPlan, b: &NetPlan) -> bool {
    let key = |p: &NetPlan| p.edges.iter().map(|e| e.as_ref().map(|e| (e.method, e.pad))).collect::<Vec<_>>();
    key(a) == key(b)
}

/// The per-pass scores of one case's samples `s[arm][pass]`: the fixed
/// strategies' arms first, Auto's at `auto` (its own arm, or the fixed
/// one whose engine it shares), layerwise's last. The rows are Auto
/// against the best fixed strategy ([`gap_score`]), that strategy
/// against layerwise ([`layerwise_score`]) and, on a grid point, FFT at
/// its better pad over direct, below 1 when FFT wins. "Best" and
/// "better" go by median.
fn scores(s: &[Vec<f64>], auto: usize, grid: bool) -> Vec<Vec<f64>> {
    let fastest = |arms: std::ops::Range<usize>| {
        arms.min_by(|&a, &b| median(&s[a]).total_cmp(&median(&s[b]))).expect("an arm")
    };
    let (best, fft, layerwise) = (fastest(0..FIXED.len()), fastest(1..FIXED.len()), s.len() - 1);
    let us = |a: usize, b: usize| s[a].iter().zip(&s[b]).map(|(x, y)| (x * 1e6, y * 1e6));
    let mut rows = vec![
        us(auto, best).map(|(a, b)| gap_score(a, b)).collect(),
        us(best, layerwise).map(|(b, l)| layerwise_score(b, l)).collect(),
    ];
    if grid {
        rows.push(us(fft, 0).map(|(f, d)| f / d).collect());
    }
    rows
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let workers = std::thread::available_parallelism()
        .map(|v| v.get())
        .unwrap_or(1);
    let timing = if smoke { (1, 9) } else { (2, 15) };
    // every ZNN engine enters through `with_plan`, so the config's conv
    // policy is never consulted; layerwise trains with its loss and rate
    let cfg = TrainConfig {
        workers,
        ..Default::default()
    };
    let machine = znn_plan::Machine::host();
    println!("# paper comparison — ZNN vs layerwise, Auto vs fixed ({workers} workers)\n");
    println!(
        "machine prior: {} ({} cores, {:.2} GFLOP/s, {:.2} GB/s)\n",
        machine.name, machine.cores, machine.gflops, machine.bandwidth_gbs
    );

    let planner = Planner::new(PlanConfig::for_machine(machine.clone()));
    let mut v = Verdicts::default();
    let mut records = Vec::new();
    // (dimensionality, output edge, kernel edge, FFT beat direct)
    let mut grid_wins = Vec::new();
    header(&[
        "case",
        "layerwise ms",
        "direct ms",
        "fft ms",
        "fft_pow2 ms",
        "auto ms",
        "gap score",
        "layerwise score",
    ]);
    for case in cases(smoke) {
        let auto = planner
            .plan(&case.graph, case.out, workers, workers)
            .expect("net sizes");
        let prior_us = auto.predicted_round_us;
        let mut plans = Vec::new();
        for (_, method, pow2) in FIXED {
            let forced = NetPlan::force(&case.graph, case.out, method, 1, pow2).expect("net sizes");
            let predicted_us = planner
                .price(&case.graph, case.out, workers, &forced)
                .expect("net sizes");
            plans.push((Arc::new(forced), predicted_us));
        }
        let same_as = plans.iter().position(|(p, _)| same_engine(p, &auto));
        let auto = Arc::new(auto);
        if same_as.is_none() {
            plans.push((Arc::clone(&auto), prior_us));
        }
        let engines: Vec<Znn> = plans
            .iter()
            .map(|(plan, _)| {
                Znn::with_plan(case.graph.clone(), case.out, cfg.clone(), Arc::clone(plan))
            })
            .collect::<Result<_, _>>()
            .expect("net sizes");
        let mut layerwise =
            LayerwiseNet::new(case.graph.clone(), case.out, 0x5EED).expect("net sizes");
        let x = ops::random(engines[0].input_shape(), 11);
        let t = ops::random(case.out, 12).map(|v| 0.3 * v);
        let (xs, ts) = (std::slice::from_ref(&x), std::slice::from_ref(&t));
        // the engines, then layerwise
        let auto_arm = same_as.unwrap_or(FIXED.len());
        let (verdicts, samples) = paired::judge(
            engines.len() + 1,
            timing,
            |i| match engines.get(i) {
                Some(znn) => {
                    znn.train_step(xs, ts);
                    znn.flush_updates();
                }
                None => {
                    layerwise.train_step(xs, ts, cfg.loss, cfg.learning_rate);
                }
            },
            |s| scores(s, auto_arm, case.grid.is_some()),
        );
        let us: Vec<f64> = samples.iter().map(|s| median(s) * 1e6).collect();
        let (gap, beats) = (verdicts[0], verdicts[1]);
        v.timed(&format!("{}: Auto within the gap bound of the best fixed strategy", case.name), &gap);
        v.timed(&format!("{}: best forced strategy no slower than layerwise", case.name), &beats);
        let fft_beats_direct = verdicts.get(2).copied();
        if let (Some((dim, o, k)), Some(win)) = (case.grid, fft_beats_direct) {
            grid_wins.push((dim, o, k, win));
        }
        let (auto_us, layerwise_us) = (us[auto_arm], us[engines.len()]);
        let best = us[..FIXED.len()].iter().copied().fold(f64::INFINITY, f64::min);
        let mut cells = vec![case.name.clone(), format!("{:.2}", layerwise_us / 1e3)];
        cells.extend(us[..FIXED.len()].iter().chain([&auto_us]).map(|v| format!("{:.2}", v / 1e3)));
        cells.extend([gap, beats].map(|v| format!("{:.3}", v.stat.median)));
        row(&cells);

        // the per-edge chosen plan, deduped by conv geometry
        let mut layers: Vec<String> = Vec::new();
        for (e, ep) in case.graph.edges().iter().zip(&auto.edges) {
            if let (EdgeOp::Conv { kernel, .. }, Some(ep)) = (&e.op, ep) {
                let layer = format!(
                    "       {{\"kernel\": \"{kernel}\", \"method\": \"{:?}\", \"pad\": \"{}\", \
                     \"predicted_us\": {:.1}}}",
                    ep.method, ep.pad, ep.predicted_us
                );
                if !layers.contains(&layer) {
                    layers.push(layer);
                }
            }
        }
        let fixed: Vec<String> = FIXED
            .iter()
            .zip(&plans)
            .zip(&us)
            .map(|(((label, method, pow2), (_, predicted_us)), measured_us)| {
                format!(
                    "       {{\"strategy\": \"{label}\", \"method\": \"{method:?}\", \"pow2\": {pow2}, \
                     \"predicted_us\": {predicted_us:.1}, \"measured_us\": {measured_us:.1}}}"
                )
            })
            .collect();
        let same_as = same_as.map_or("null".into(), |i| format!("\"{}\"", FIXED[i].0));
        let fft_beats_direct = fft_beats_direct.map_or(String::new(), |w| format!(",\n     \"fft_beats_direct\": {}", w.json()));
        records.push(format!(
            "    {{\"net\": \"{}\",\n     \"layers\": [\n{}\n     ],\n     \
             \"predicted_round_us_prior\": {prior_us:.1},\n     \"auto_measured_us\": {auto_us:.1},\n     \
             \"auto_same_as\": {same_as},\n     \
             \"fixed\": [\n{}\n     ],\n     \"best_fixed_us\": {best:.1},\n     \"gap\": {},\n     \
             \"layerwise_us\": {layerwise_us:.1},\n     \"beats_layerwise\": {}{fft_beats_direct}}}",
            case.name,
            layers.join(",\n"),
            fixed.join(",\n"),
            gap.json(),
            beats.json(),
        ));
    }

    // verdict 3 per grid row; `cases` lists each row's kernels growing
    println!("\nmeasured FFT-vs-direct crossover kernel per grid row (null: FFT never won):");
    let mut monotone = true;
    let mut rows = Vec::new();
    for points in grid_wins.chunk_by(|a, b| (a.0, a.1) == (b.0, b.1)) {
        let (dim, o) = (points[0].0, points[0].1);
        let (first, ok) = crossover(&points.iter().map(|w| w.3.pass).collect::<Vec<_>>());
        let kernel = first.map_or("null".into(), |i| points[i].2.to_string());
        println!("  {dim} out {o}: {kernel}");
        // the FFT-over-direct median score of each kernel, so a failure
        // names the points that decided it
        let wins: Vec<String> = points.iter().map(|w| format!("k{} {}", w.2, w.3)).collect();
        v.check(
            &format!("{dim} out {o}: once FFT beats direct, it beats it at every larger kernel [{}]", wins.join("; ")),
            ok,
        );
        monotone &= ok;
        rows.push(format!(
            "    {{\"dim\": \"{dim}\", \"out\": {o}, \"kernel\": {kernel}, \"monotone\": {ok}}}"
        ));
    }
    let members = [
        format!("\"workers\": {workers}"),
        format!("\"nets\": [\n{}\n  ]", records.join(",\n")),
        format!("\"crossover\": [\n{}\n  ]", rows.join(",\n")),
        format!("\"crossover_monotone\": {monotone}"),
        format!("\"gap_bound\": {GAP_BOUND}"),
    ];
    write_record("plan", smoke, &members);
    std::process::exit(v.exit_code());
}
