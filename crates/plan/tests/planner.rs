//! Planner contract tests: determinism, cost-model sanity and the
//! per-edge argmin.

use znn_graph::builder::{comparison_net, scalability_net_2d, scalability_net_3d};
use znn_ops::ConvMethod;
use znn_plan::{Machine, NetPlan, PlanConfig, Planner};
use znn_tensor::Vec3;

fn planner(m: Machine) -> Planner {
    Planner::new(PlanConfig::for_machine(m))
}

#[test]
fn same_net_and_machine_give_identical_plans() {
    let (g, _) = scalability_net_3d(3);
    let out = Vec3::cube(8);
    let a = planner(Machine::xeon_e5_18core());
    let b = planner(Machine::xeon_e5_18core());
    let pa = a.plan(&g, out, 18, 18).unwrap();
    let pb = b.plan(&g, out, 18, 18).unwrap();
    assert_eq!(pa, pb, "planning must be a pure function of its inputs");
    // and re-planning on the same planner is stable too
    let pa2 = a.plan(&g, out, 18, 18).unwrap();
    assert_eq!(pa, pa2);
}

#[test]
fn plan_covers_exactly_the_conv_edges() {
    let (g, _) = scalability_net_2d(3);
    let p = planner(Machine::xeon_e5_8core());
    let plan = p.plan(&g, Vec3::flat(24, 24), 8, 8).unwrap();
    assert_eq!(plan.edges.len(), g.edge_count());
    for (i, e) in g.edges().iter().enumerate() {
        match e.op {
            znn_graph::EdgeOp::Conv { .. } => {
                let ep = plan.edges[i].expect("conv edge planned");
                assert!(ep.predicted_us > 0.0);
            }
            _ => assert!(plan.edges[i].is_none()),
        }
    }
    assert!(plan.predicted_round_us > 0.0);
}

#[test]
fn crossover_matches_the_paper() {
    // the paper's §IX (Figs 8–9): in 3D, FFT is competitive at 5³ and
    // wins at 7³; at 3³ (small images) direct wins. In 2D, 11² kernels
    // are FFT territory. `paper_compare` records the measured
    // crossover on the host; this pins the cost model's choice.
    let p = planner(Machine::xeon_e5_18core());
    let method_for = |kernel: usize, flat: bool| {
        let (g, _) = if flat {
            comparison_net(2, Vec3::flat(kernel, kernel), Vec3::flat(2, 2), true)
        } else {
            comparison_net(2, Vec3::cube(kernel), Vec3::cube(2), true)
        };
        let out = if flat { Vec3::flat(8, 8) } else { Vec3::cube(4) };
        let plan = p.plan(&g, out, 18, 18).unwrap();
        // first conv edge = the largest image in the net
        let first = g
            .edges()
            .iter()
            .position(|e| matches!(e.op, znn_graph::EdgeOp::Conv { .. }))
            .unwrap();
        plan.edges[first].unwrap().method
    };
    assert_eq!(method_for(3, false), ConvMethod::Direct, "3³ → direct");
    assert_eq!(method_for(7, false), ConvMethod::Fft, "7³ → FFT");
    assert_eq!(method_for(11, true), ConvMethod::Fft, "11² → FFT");
}

#[test]
fn pads_are_keyed_per_node() {
    // all out-edges of a node must share the pad, or the engine loses
    // frequency-domain accumulation
    let (g, _) = scalability_net_3d(4);
    let p = planner(Machine::xeon_e5_18core());
    let plan = p.plan(&g, Vec3::cube(8), 18, 18).unwrap();
    for i in 0..g.node_count() {
        let node = g.node(znn_graph::NodeId(i));
        let pads: Vec<_> = node
            .out_edges
            .iter()
            .filter_map(|e| plan.edges[e.0].map(|ep| ep.pad))
            .collect();
        assert!(
            pads.windows(2).all(|w| w[0] == w[1]),
            "node {i} out-edges disagree on pad: {pads:?}"
        );
    }
}

#[test]
fn auto_prediction_is_argmin_over_forced_strategies() {
    // the planner's own cost model must never prefer a forced strategy
    // to its chosen plan — Auto is the per-edge argmin by construction,
    // so its predicted time lower-bounds every single-method plan's
    // when both are priced through the same model
    let nets = [
        comparison_net(2, Vec3::cube(5), Vec3::cube(2), true).0,
        scalability_net_3d(3).0,
    ];
    let outs = [Vec3::cube(4), Vec3::cube(8)];
    for (g, out) in nets.iter().zip(outs) {
        let p = planner(Machine::xeon_e5_18core());
        let auto = p.plan(g, out, 18, 18).unwrap();
        let auto_us = p.price(g, out, 18, &auto).unwrap();
        assert!(
            (auto_us - auto.predicted_round_us).abs() <= auto_us * 1e-9,
            "price(auto) must agree with the plan's own prediction: \
             {auto_us} vs {}",
            auto.predicted_round_us
        );
        for method in [ConvMethod::Direct, ConvMethod::Fft] {
            for pow2 in [false, true] {
                let forced = NetPlan::force(g, out, method, 1, pow2).unwrap();
                let forced_us = p.price(g, out, 18, &forced).unwrap();
                assert!(
                    auto_us <= forced_us * (1.0 + 1e-9),
                    "auto {auto_us:.1}µs beaten by {method:?} pow2={pow2}: {forced_us:.1}µs"
                );
            }
        }
    }
}

#[test]
fn force_builds_single_method_plans() {
    let (g, _) = scalability_net_3d(2);
    let out = Vec3::cube(4);
    for (method, pow2) in [
        (ConvMethod::Direct, false),
        (ConvMethod::Fft, false),
        (ConvMethod::Fft, true),
    ] {
        let plan = NetPlan::force(&g, out, method, 1, pow2).unwrap();
        assert_eq!(plan.edges.len(), g.edge_count());
        for (i, e) in g.edges().iter().enumerate() {
            if matches!(e.op, znn_graph::EdgeOp::Conv { .. }) {
                let ep = plan.edges[i].unwrap();
                assert_eq!(ep.method, method);
                if pow2 {
                    assert!(ep.pad.0.iter().all(|l| l.is_power_of_two()));
                }
            }
        }
    }
}

#[test]
fn choose_forward_prices_serving_geometries() {
    let p = planner(Machine::xeon_e5_18core());
    // large kernel on a healthy image → FFT; tiny kernel → direct
    let (m_big, pad) = p.choose_forward(Vec3::cube(32), Vec3::cube(7), Vec3::one());
    assert_eq!(m_big, ConvMethod::Fft);
    assert!(Vec3::cube(32).le(pad));
    let (m_small, _) = p.choose_forward(Vec3::cube(12), Vec3::cube(2), Vec3::one());
    assert_eq!(m_small, ConvMethod::Direct);
}
