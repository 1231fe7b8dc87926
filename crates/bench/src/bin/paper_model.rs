//! The paper's model claims, one section per figure or table: Fig 4
//! (Brent's bound), Figs 5–7 (simulated speedup on the Table V
//! machines), Tables I–V (FLOP and T∞ closed forms), §VII-C/§IX-B
//! memory, the §VII-A/§VII-B data-structure ablations and the §X
//! scheduling ablation. Each claim is a verdict, a pure function in
//! `znn_bench` over closed forms, the simulator or exact counters,
//! never a wall time; **the bin exits non-zero if any fails**. Two
//! claims the model breaks are recorded instead: the §X policy ranking
//! and width monotonicity in Figs 6–7; the §VII ablations are timed and
//! recorded, not asserted. Timed columns run their engines interleaved
//! under [`median_s`]. The simulator schedules
//! `znn_plan::cost`'s task prices of a forced `NetPlan`, so a pricing
//! change moves Figs 5–7 and §X. Writes `BENCH_sched.json` (§VII, §X)
//! through [`write_record`]; `--smoke` shrinks grids and rounds.

use parking_lot::Mutex;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::hint::black_box;
use std::slice::from_ref;
use std::time::Instant;
use znn_alloc::PoolSet;
use znn_bench::*;
use znn_core::{ConvPolicy, TrainConfig, Znn};
use znn_graph::builder::{comparison_net, scalability_net_2d, scalability_net_3d, NetBuilder};
use znn_ops::{filter::max_filter, filter::FilterImpl, pool::max_pool, ConvMethod, Transfer};
use znn_plan::brent::{achievable_speedup, NetworkModel};
use znn_plan::flops::{ConvAlgorithm, LayerModel};
use znn_plan::{cost::task_costs, tinf::t_inf, DEFAULT_C};
use znn_plan::{simulate, Machine, NetPlan, SimConfig, SimResult};
use znn_sched::{queue::TaskQueue, Accumulate, ConcurrentSum, QueuePolicy, ThreadPool};
use znn_tensor::{ops, Image, Vec3};

const ALGOS: [ConvAlgorithm; 3] =
    [ConvAlgorithm::Direct, ConvAlgorithm::Fft, ConvAlgorithm::FftMemoized];

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    // (warm-up, measured) rounds of every timed section
    let timing = if smoke { (1, 3) } else { (2, 9) };
    let mut v = Verdicts::default();
    fig4(&mut v);
    figs5_7(smoke, &mut v);
    table1(timing, &mut v);
    table2(timing, &mut v);
    tables3_5(&mut v);
    memory(timing, &mut v);
    sched(smoke, timing);
    std::process::exit(v.exit_code());
}

/// Prices the `dim` ("2D": FFT, "3D": direct) scalability net of
/// `width` as the engine would run it, and returns its simulator over
/// (machine, workers, policy), two rounds each.
fn simulator(dim: &str, width: usize) -> impl Fn(&Machine, usize, QueuePolicy) -> SimResult {
    let ((g, _), out, method) = match dim {
        "2D" => (scalability_net_2d(width), Vec3::flat(48, 48), ConvMethod::Fft),
        _ => (scalability_net_3d(width), Vec3::cube(12), ConvMethod::Direct),
    };
    let plan = NetPlan::force(&g, out, method, 1, false).expect("net sizes");
    let (tg, costs) = task_costs(&g, out, &plan, true).expect("net sizes");
    move |m, workers, policy| {
        simulate(&tg, &costs, m, &SimConfig { workers, policy, rounds: 2, ..Default::default() })
    }
}

/// Median seconds per training round of each engine, interleaved; a
/// round is `train_step` plus its flushed updates.
fn round_s(engines: &[Znn], xs: &[Image], ts: &[Image], timing: (usize, usize)) -> Vec<f64> {
    median_s(engines.len(), timing, |i| {
        engines[i].train_step(xs, ts);
        engines[i].flush_updates();
    })
}

fn join<T>(xs: impl IntoIterator<Item = T>, f: impl Fn(T) -> String, sep: &str) -> String {
    xs.into_iter().map(f).collect::<Vec<_>>().join(sep)
}

fn fig4(v: &mut Verdicts) {
    let widths: Vec<f64> = (1..=24).map(|i| (i * 5) as f64).collect();
    let (ps, depths) = ([8.0, 18.0, 40.0, 60.0, 120.0], [4usize, 12, 40]);
    let mut holds = true;
    for (label, algo) in [
        ("(a) direct convolution", ConvAlgorithm::Direct),
        ("(b) FFT-based convolution with memoization", ConvAlgorithm::FftMemoized),
    ] {
        println!("# Fig 4{label}\nwidth: {widths:?}");
        let mut by_depth = vec![Vec::new(); depths.len()];
        for p in ps {
            for (&d, curves) in depths.iter().zip(&mut by_depth) {
                let nets = widths.iter().map(|&w| NetworkModel::fully_connected(d, w, 5.0, 12.0));
                let curve: Vec<f64> = nets.map(|net| achievable_speedup(&net, algo, p)).collect();
                println!("P={p:>3} depth={d:>2}: [{}]", join(&curve, |s| format!("{s:.1}"), ", "));
                curves.push(curve);
            }
        }
        holds &= by_depth.iter().all(|curves| brent_curves_hold(&ps, curves));
        println!();
    }
    v.check("Fig 4 curves rise with width within P, and the width reaching 0.75·P grows with P", holds);
}

fn figs5_7(smoke: bool, v: &mut Verdicts) {
    let widths: &[usize] = if smoke { &[5, 10] } else { &[5, 10, 20, 40, 80, 120] };
    let (mut within, mut rises) = (true, true);
    for (dim, method) in [("2D", "Fft"), ("3D", "Direct")] {
        println!("# Fig 5 — {dim} networks ({method} convolution)\n");
        let sims: Vec<_> = widths.iter().map(|&w| simulator(dim, w)).collect();
        for m in Machine::table_v() {
            println!("## {}", m.name);
            let mut workers = vec![1, 2, 4];
            workers.extend((8..m.hw_threads).step_by(m.hw_threads.div_ceil(16).max(4)));
            workers.push(m.hw_threads);
            for (&w, sim) in widths.iter().zip(&sims) {
                let points: Vec<_> =
                    workers.iter().map(|&n| (n, sim(&m, n, QueuePolicy::Priority).speedup)).collect();
                println!("width {w:>3}: {}", join(&points, |(n, s)| format!("{n}:{s:.1}"), "  "));
                within &= within_throughput(&points, &m);
                rises &= w < 10 || rises_to_cores(&points, m.cores);
            }
            println!();
        }
    }
    v.check("Fig 5 speedup within the machine's throughput at every point", within);
    v.check("Fig 5 speedup rises with workers up to the core count, widths >= 10", rises);

    let widths: &[usize] =
        if smoke { &[10, 120] } else { &[5, 10, 15, 20, 25, 30, 40, 50, 60, 80, 100, 120] };
    let (mut saturated, mut dips) = (true, Vec::new());
    for (fig, dim) in [("Fig 6", "2D"), ("Fig 7", "3D")] {
        println!("\n# {fig} — achieved speedup vs width ({dim})\n\nwidth: {widths:?}");
        let sims: Vec<_> = widths.iter().map(|&w| simulator(dim, w)).collect();
        for m in Machine::table_v() {
            let s: Vec<f64> =
                sims.iter().map(|sim| sim(&m, m.hw_threads, QueuePolicy::Priority).speedup).collect();
            println!("{:<28} [{}]", m.name, join(&s, |s| format!("{s:.1}"), ", "));
            saturated &= saturates(s[s.len() - 1], m.total_throughput(m.hw_threads));
            for (i, p) in s.windows(2).enumerate().filter(|(_, p)| p[1] < p[0]) {
                let at = format!("{dim} {}, {:.1} → {:.1} at width {}", m.name, p[0], p[1], widths[i + 1]);
                dips.push((p[0] - p[1], at));
            }
        }
    }
    println!();
    v.check("Figs 6–7 widest net reaches 0.95 of every machine's throughput", saturated);
    let worst = dips.iter().max_by(|a, b| a.0.total_cmp(&b.0)).map_or("", |d| &d.1);
    println!("recorded: speedup falls as width grows at {} steps, most on {worst}\n", dips.len());
}

/// Table I's nonlinear layers over `f` images of `n³`, with the forward
/// formula each label prints.
fn nonlinear(n: f64, f: f64) -> [(&'static str, &'static str, LayerModel, f64); 3] {
    [
        ("max-pooling", "f·n³", LayerModel::MaxPool { n, f }, f * n.powi(3)),
        (
            "max-filtering k=2",
            "f·6n³·log₂k",
            LayerModel::MaxFilter { n, f, k: 2.0 },
            f * 6.0 * n.powi(3) * 2f64.log2(),
        ),
        ("transfer", "f·n³", LayerModel::Transfer { n, f }, f * n.powi(3)),
    ]
}

fn table1(timing: (usize, usize), v: &mut Verdicts) {
    println!("# Table I — nonlinear layer costs (f nodes, n^3 images)\n");
    let (img, w, f) = (ops::random(Vec3::cube(48), 1), Vec3::cube(2), 4);
    let s = median_s(3, timing, |i| {
        (0..f).for_each(|_| match i {
            0 => drop(black_box(max_pool(&img, w))),
            1 => drop(black_box(max_filter(&img, w, Vec3::one(), FilterImpl::Deque))),
            _ => drop(black_box(Transfer::Relu.forward(&img, 0.1))),
        })
    });
    header(&[
        "layer", "analytic fwd FLOPs", "analytic bwd FLOPs", "analytic upd FLOPs", "measured fwd s/layer",
    ]);
    let mut exact = true;
    for ((name, label, model, formula), s) in nonlinear(48.0, f as f64).iter().zip(&s) {
        let c = model.flops_default(ConvAlgorithm::Direct);
        let fwd = format!("{label} = {}", fmt(c.forward));
        row(&[name.to_string(), fwd, fmt(c.backward), fmt(c.update), fmt(*s)]);
        exact &= matches_formula(c.forward, *formula);
    }
    let (tr, fi) = (s[2] / s[0], s[1] / s[0]);
    println!(
        "\nshape check: transfer/pool measured ratio {tr:.2} (analytic 1.00), \
         filter/pool measured ratio {fi:.2}"
    );
    v.check("Table I LayerModel forward FLOPs equal the printed formulas", exact);
}

fn table2(timing: (usize, usize), v: &mut Verdicts) {
    println!("\n# Table II — fully-connected conv layer (f -> f'), n input, k kernel\n");
    let (f, fp) = (4usize, 4usize);
    header(&[
        "n",
        "k",
        "direct 3f'f·n'³k³",
        "fft 3(3C·n³log₂n·(f'+f+f'f) + 4f'f·n³)",
        "memoized 6C·n³log₂n·(f'+f+f'f) + 12f'f·n³",
        "measured direct s",
        "measured fft s",
        "measured memoized s",
    ]);
    let (mut exact, mut fft_wins) = (true, Vec::new());
    for (n, k) in [(20usize, 3usize), (20, 5), (24, 7), (24, 9)] {
        let (nf, kf, ff, fpf) = (n as f64, k as f64, f as f64, fp as f64);
        let model = LayerModel::Conv { n: nf, k: kf, f_in: ff, f_out: fpf };
        let totals = ALGOS.map(|a| model.flops_default(a).total());
        // one image transform, the images transformed, one pass's pointwise products
        let t = 3.0 * DEFAULT_C * nf.powi(3) * nf.log2();
        let (images, pw) = (fpf + ff + fpf * ff, 4.0 * fpf * ff * nf.powi(3));
        let direct = 3.0 * fpf * ff * (nf - kf + 1.0).powi(3) * kf.powi(3);
        let formulas = [direct, 3.0 * (t * images + pw), 2.0 * t * images + 3.0 * pw];
        exact &= totals.iter().zip(formulas).all(|(&m, x)| matches_formula(m, x));
        fft_wins.push(totals[1].min(totals[2]) < totals[0]);

        let (graph, _) = NetBuilder::new("table2", f).conv(fp, Vec3::cube(k)).build().expect("valid net");
        let out = Vec3::cube(n - k + 1);
        let fft = ConvPolicy::ForceFft;
        let policies = [(ConvPolicy::ForceDirect, false), (fft, false), (fft, true)];
        let engines = policies.map(|(conv, memoize_fft)| {
            let cfg = TrainConfig { workers: 1, conv, memoize_fft, ..Default::default() };
            Znn::new(graph.clone(), out, cfg).expect("valid geometry")
        });
        let xs: Vec<_> = (0..f).map(|i| ops::random(engines[0].input_shape(), i as u64)).collect();
        let ts: Vec<_> = (0..fp).map(|i| ops::random(out, 100 + i as u64)).collect();
        let cells = [n.to_string(), k.to_string()].into_iter().chain(totals.map(fmt));
        row(&cells.chain(round_s(&engines, &xs, &ts, timing).into_iter().map(fmt)).collect::<Vec<_>>());
    }
    v.check("Table II LayerModel totals equal the printed formulas", exact);
    let crossover = direct_then_fft(&fft_wins);
    v.check("Table II closed forms: direct cheaper at k = 3, FFT at k = 9, one crossover", crossover);
}

fn tables3_5(v: &mut Verdicts) {
    println!("\n# Table III — conv layer T∞ (n=24, k=5), and the serial T1\n");
    header(&[
        "width f", "direct fwd", "direct bwd", "direct upd",
        "fft fwd", "fft upd", "memoized upd", "direct T1",
    ]);
    let fs = [1.0, 4.0, 16.0, 64.0];
    let mut cols = vec![Vec::new(); 7];
    for f in fs {
        let l = LayerModel::Conv { n: 24.0, k: 5.0, f_in: f, f_out: f };
        let [d, x, m] = ALGOS.map(|a| t_inf(&l, a, DEFAULT_C));
        let t1 = l.flops_default(ConvAlgorithm::Direct).total();
        let values = [d.forward, d.backward, d.update, x.forward, x.update, m.update, t1];
        cols.iter_mut().zip(values).for_each(|(col, t)| col.push(t));
        row(&[format!("{f}")].into_iter().chain(values.map(fmt)).collect::<Vec<_>>());
    }
    let holds = t_inf_log_t1_square(&fs, &cols[..6], &cols[6]);
    v.check("Table III T∞ grows only by the ⌈log₂ f⌉ collapse term, T1 as f²", holds);

    println!("\n# Table IV — nonlinear layer T∞ (n=24)\n");
    header(&["layer", "fwd", "bwd", "upd"]);
    for (name, _, l, _) in nonlinear(24.0, 16.0) {
        let t = t_inf(&l, ConvAlgorithm::Direct, DEFAULT_C);
        row(&[name.into(), fmt(t.forward), fmt(t.backward), fmt(t.update)]);
    }

    println!("\n# Table V — machines (simulated models of the paper's hardware)\n");
    header(&["CPU", "GHz", "cores/threads", "SMT throughput curve", "peak throughput (1-thread units)"]);
    for m in Machine::table_v() {
        let cores = format!("{} cores/{} threads", m.cores, m.hw_threads);
        let (smt, peak) = (format!("{:?}", m.smt_throughput), m.total_throughput(m.hw_threads));
        row(&[m.name.into(), m.ghz.to_string(), cores, smt, format!("{peak:.1}")]);
    }
    let host = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!("\nAlso: this host reports {host} hardware threads.");
}

fn memory(timing: (usize, usize), v: &mut Verdicts) {
    println!("\n# §VII-C — pooled allocator footprint across training-like rounds\n");
    header(&["round", "bytes from system", "hits", "misses"]);
    let (pool, mut bytes, mut misses) = (PoolSet::new(), Vec::new(), Vec::new());
    for round in 0..6 {
        // a round's working set, recycled when the leases drop
        drop((1..8).map(|s| pool.image(Vec3::cube(4 * s))).collect::<Vec<_>>());
        let s = pool.stats();
        bytes.push(s.bytes_from_system() as u64);
        misses.push(s.misses() as u64);
        let hits = s.hits().to_string();
        row(&[round.to_string(), bytes[round].to_string(), hits, misses[round].to_string()]);
    }
    let flat = flat_after_first_round(&bytes) && flat_after_first_round(&misses);
    v.check("§VII-C bare pool: bytes from system and misses flat after round 0", flat);

    println!("\n# §VII-C — the same property on the real engine (every hot-path");
    println!("# buffer leased from a PoolSet through TrainConfig::pools)\n");
    let out = Vec3::cube(2);
    let engine = |width, kernel, memoize_fft, pools| {
        let (g, _) = comparison_net(width, Vec3::cube(kernel), Vec3::cube(2), true);
        let conv = ConvPolicy::ForceFft;
        let cfg = TrainConfig { workers: 2, conv, memoize_fft, pools, ..Default::default() };
        Znn::new(g, out, cfg).expect("net sizes")
    };
    let znn = engine(2, 3, true, Some(PoolSet::new()));
    let (x, t) = (ops::random(znn.input_shape(), 1), ops::random(out, 2).map(|v| 0.5 + 0.4 * v));
    header(&["round", "resident bytes", "churn bytes (cum.)", "hits", "misses", "hit rate"]);
    for round in 0..6 {
        znn.train_step(from_ref(&x), from_ref(&t));
        let s = znn.stats();
        let counts = [s.alloc_resident_bytes, s.alloc_leased_bytes, s.alloc_hits, s.alloc_misses];
        let counts = counts.map(|c| c.to_string());
        let rate = format!("{:.3}", s.alloc_hit_rate());
        row(&[round.to_string()].into_iter().chain(counts).chain([rate]).collect::<Vec<_>>());
    }

    println!("\n# §IX-B — FFT memoization: memory vs speed\n");
    // `memoized_spectra` counts the per-round node image spectra, which
    // exist with memoization off too; the per-edge kernel spectra that
    // memoization keeps are read after one more forward pass, whose
    // forced updates leave every kept spectrum current
    header(&[
        "memoize",
        "s/update",
        "node image spectra (count)",
        "node image spectrum bytes",
        "kernel spectrum bytes",
    ]);
    let engines = [false, true].map(|memoize| engine(3, 5, memoize, None));
    let x = ops::random(engines[0].input_shape(), 1);
    let s = round_s(&engines, from_ref(&x), from_ref(&t), timing);
    for (memoize, (z, s)) in [false, true].iter().zip(engines.iter().zip(s)) {
        let spectra = [z.memoized_spectra(), z.memoized_spectrum_bytes()].map(|c| c.to_string());
        z.forward(from_ref(&x));
        let kernels = z.memoized_kernel_spectrum_bytes().to_string();
        let cells = [memoize.to_string(), fmt(s)].into_iter().chain(spectra).chain([kernels]);
        row(&cells.collect::<Vec<_>>());
    }
}

fn sched(smoke: bool, timing: (usize, usize)) {
    let mut members = vec![
        format!("\"queue_ablation\": [\n{}\n  ]", queue_ablation(timing)),
        format!("\"sum_ablation\": {}", sum_ablation(timing)),
    ];
    let width = if smoke { 4 } else { 20 };
    println!("\n# §X — scheduling ablation (simulated makespan, lower is better)\n");
    let machine = Machine::xeon_e5_18core();
    let policies = [QueuePolicy::Priority, QueuePolicy::Fifo, QueuePolicy::Lifo];
    members.push(format!("\"sim_machine\": \"{}\",\n  \"sim_workers\": 18", machine.name));
    header(&["network", "priority", "fifo", "lifo", "fastest"]);
    let mut recs = Vec::new();
    for (dim, key) in [("2D", "net2d"), ("3D", "net3d")] {
        let sim = simulator(dim, width);
        let [pri, fifo, lifo] = policies.map(|p| sim(&machine, 18, p).makespan);
        let by_time = policies.iter().zip([pri, fifo, lifo]);
        let fastest = by_time.min_by(|a, b| a.1.total_cmp(&b.1)).expect("three policies").0;
        row(&[format!("{dim} width {width}"), fmt(pri), fmt(fifo), fmt(lifo), format!("{fastest:?}")]);
        recs.push(format!(
            "    {{\"net\": \"{key}\", \"width\": {width}, \"priority_s\": {pri:.6e}, \
             \"fifo_s\": {fifo:.6e}, \"lifo_s\": {lifo:.6e}, \"fastest\": \"{fastest:?}\"}}"
        ));
    }
    members.push(format!("\"simulated\": [\n{}\n  ]", recs.join(",\n")));
    println!("\nrecorded, not asserted: which policy the simulator finds fastest.");

    println!("\n# host rows: real engine under each policy (s/update)\n");
    header(&["policy", "s/update"]);
    let ((g, _), out) = (scalability_net_3d(if smoke { 2 } else { 4 }), Vec3::cube(4));
    let engines = policies.map(|queue| {
        let cfg = TrainConfig { queue, conv: ConvPolicy::ForceDirect, ..Default::default() };
        Znn::new(g.clone(), out, cfg).expect("net sizes")
    });
    let (x, t) = (ops::random(engines[0].input_shape(), 1), ops::random(out, 2));
    let recs: Vec<String> = policies
        .iter()
        .zip(round_s(&engines, from_ref(&x), from_ref(&t), timing))
        .map(|(policy, s)| {
            row(&[format!("{policy:?}"), fmt(s)]);
            format!("    {{\"policy\": \"{policy:?}\", \"s_per_update\": {s:.6e}}}")
        })
        .collect();
    members.push(format!("\"host\": [\n{}\n  ]", recs.join(",\n")));
    write_record("sched", smoke, &members);
}

/// §VII-A: the heap of lists pops in O(log K) over K distinct
/// priorities, a binary heap keyed on every task in O(log N). Both pop
/// the same (priority, arrival) order of N tasks arriving in bursts of
/// one priority, as a wide layer's do. Returns the JSON rows.
fn queue_ablation(timing: (usize, usize)) -> String {
    println!("\n# §VII-A — heap of lists vs binary heap (push N, pop all; µs)\n");
    header(&["N tasks", "K priorities", "heap of lists", "binary heap"]);
    let rows = [(10_000u64, 8u64), (10_000, 1000)].map(|(n, k)| {
        let s = median_s(2, timing, |i| {
            if i == 0 {
                let mut q = TaskQueue::new(QueuePolicy::Priority);
                (0..n).for_each(|i| q.push(i % k, i));
                while black_box(q.pop()).is_some() {}
            } else {
                let mut q = BinaryHeap::new();
                (0..n).for_each(|i| q.push(Reverse((i % k, i))));
                while black_box(q.pop()).is_some() {}
            }
        });
        let (lists, heap) = (s[0] * 1e6, s[1] * 1e6);
        row(&[n.to_string(), k.to_string(), fmt(lists), fmt(heap)]);
        format!(
            "    {{\"tasks\": {n}, \"priorities\": {k}, \"heap_of_lists_us\": {lists:.1}, \
             \"binary_heap_us\": {heap:.1}}}"
        )
    });
    println!("\nrecorded, not asserted: the heap of lists' cost against a binary heap.");
    rows.join(",\n")
}

/// An image as a [`ConcurrentSum`] contribution.
struct Summand(Image);

impl Accumulate for Summand {
    fn accumulate(&mut self, other: Self) {
        ops::add_assign(&mut self.0, &other.0);
    }
}

/// §VII-B: Algorithm 4's wait-free sum, which holds its lock only for
/// pointer swaps, against adding each image under the lock, whose
/// critical section grows with the image: eight 64³ contributions,
/// one task each on a persistent pool of the host's width, so a
/// locked add outlasts a dispatch. Each contribution is a fresh copy,
/// as a task's output is, made off the clock. Returns the JSON object.
fn sum_ablation(timing: (usize, usize)) -> String {
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let (pool, n) = (ThreadPool::with_workers(threads), 64);
    let images: Vec<Image> = (0..8).map(|i| ops::random(Vec3::cube(n), i)).collect();
    println!("\n# §VII-B — wait-free vs locked sum, 8 × {n}³ on {threads} pool workers (µs)\n");
    header(&["wait-free", "locked"]);
    let s = median_s(2, timing, |i| {
        let fresh = images.clone();
        let t0 = Instant::now();
        if i == 0 {
            let sum = &ConcurrentSum::new(fresh.len());
            pool.scope(|s| fresh.into_iter().for_each(|x| s.spawn(move |_| _ = sum.add(Summand(x)))));
            black_box(sum.take());
        } else {
            let acc = &Mutex::new(Image::zeros(images[0].shape()));
            pool.scope(|s| fresh.into_iter().for_each(|x| s.spawn(move |_| ops::add_assign(&mut acc.lock(), &x))));
            black_box(acc.lock());
        }
        t0.elapsed()
    });
    let (wait_free, locked) = (s[0] * 1e6, s[1] * 1e6);
    row(&[fmt(wait_free), fmt(locked)]);
    println!("\nrecorded, not asserted: the wait-free sum's cost against the locked one.");
    format!(
        "{{\"images\": {}, \"n\": {n}, \"threads\": {threads}, \"wait_free_us\": {wait_free:.1}, \
         \"locked_us\": {locked:.1}}}",
        images.len()
    )
}
