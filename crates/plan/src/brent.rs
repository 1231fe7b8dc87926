//! Network-level `T₁`, `T∞` and the Brent's-theorem speedup bound
//! (§V-A, Eq. 1–2, Fig 4).

use crate::flops::{ConvAlgorithm, LayerModel};
use crate::tinf::t_inf;
use crate::DEFAULT_C;

/// A layered network in the analytic model.
#[derive(Clone, Debug)]
pub struct NetworkModel {
    /// The layers, in forward order.
    pub layers: Vec<LayerModel>,
}

impl NetworkModel {
    /// A fully-connected ConvNet of `depth` convolutional layers of
    /// width `f`, each followed by a transfer layer, with isotropic
    /// kernels of size `k` and an output patch of size `out` — the
    /// family of architectures Fig 4 sweeps (kernels 5³, depths 4–40).
    ///
    /// Image sizes are derived backwards from the output patch: each
    /// convolution grows the image by `k − 1`.
    pub fn fully_connected(depth: usize, f: f64, k: f64, out: f64) -> Self {
        let mut layers = Vec::with_capacity(2 * depth);
        // walk backwards to find per-layer input sizes
        let mut sizes = vec![out];
        for _ in 0..depth {
            let n = sizes.last().unwrap() + (k - 1.0);
            sizes.push(n);
        }
        sizes.reverse(); // sizes[i] = input to conv layer i
        for (i, window) in sizes.windows(2).enumerate() {
            let f_in = if i == 0 { 1.0 } else { f };
            let f_out = if i == depth - 1 { 1.0 } else { f };
            layers.push(LayerModel::Conv {
                n: window[0],
                k,
                f_in,
                f_out,
            });
            layers.push(LayerModel::Transfer {
                n: window[1],
                f: f_out,
            });
        }
        NetworkModel { layers }
    }

    /// Serial time of one gradient-learning iteration (sum of Tables
    /// I–II over layers).
    pub fn t1(&self, algo: ConvAlgorithm, c: f64) -> f64 {
        self.layers
            .iter()
            .map(|l| l.flops(algo, c).total())
            .sum()
    }

    /// Infinite-processor time of one iteration: layers run
    /// sequentially within the forward and backward passes; all updates
    /// run in parallel so the update term is the *maximum* over layers
    /// (§V-A).
    pub fn t_inf(&self, algo: ConvAlgorithm, c: f64) -> f64 {
        let mut fwd = 0.0;
        let mut bwd = 0.0;
        let mut upd_max: f64 = 0.0;
        for l in &self.layers {
            let t = t_inf(l, algo, c);
            fwd += t.forward;
            bwd += t.backward;
            upd_max = upd_max.max(t.update);
        }
        fwd + bwd + upd_max
    }

    /// `S∞ = T₁ / T∞`.
    pub(crate) fn s_inf(&self, algo: ConvAlgorithm, c: f64) -> f64 {
        self.t1(algo, c) / self.t_inf(algo, c)
    }
}

/// The theoretically achievable speedup `S_P ≥ S∞ / (1 + (S∞ − 1)/P)`
/// (Eq. 2) for `p` processors.
pub fn achievable_speedup(net: &NetworkModel, algo: ConvAlgorithm, p: f64) -> f64 {
    let s_inf = net.s_inf(algo, DEFAULT_C);
    s_inf / (1.0 + (s_inf - 1.0) / p)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fig4_net(width: f64, depth: usize) -> NetworkModel {
        NetworkModel::fully_connected(depth, width, 5.0, 12.0)
    }

    #[test]
    fn speedup_is_bounded_by_p_and_by_s_inf() {
        for algo in [ConvAlgorithm::Direct, ConvAlgorithm::FftMemoized] {
            for &w in &[2.0, 10.0, 60.0, 120.0] {
                let net = fig4_net(w, 8);
                let s_inf = net.s_inf(algo, DEFAULT_C);
                for &p in &[8.0, 18.0, 40.0, 60.0, 120.0] {
                    let s = achievable_speedup(&net, algo, p);
                    assert!(s <= p + 1e-9, "S_P {s} exceeds P {p}");
                    assert!(s <= s_inf + 1e-9, "S_P {s} exceeds S∞ {s_inf}");
                    assert!(s >= 1.0);
                }
            }
        }
    }

    #[test]
    fn speedup_increases_with_width_and_saturates_at_p() {
        // Fig 4: S_P -> P as width grows
        let p = 60.0;
        let mut last = 0.0;
        for &w in &[2.0, 5.0, 10.0, 20.0, 40.0, 80.0, 120.0] {
            let s = achievable_speedup(&fig4_net(w, 8), ConvAlgorithm::Direct, p);
            assert!(s >= last - 1e-9, "not monotone at width {w}");
            last = s;
        }
        assert!(
            last > 0.9 * p,
            "wide network should approach P={p}, got {last}"
        );
    }

    #[test]
    fn modest_widths_reach_most_of_the_speedup() {
        // §V-A: "theoretically achievable speedup approaches its maximum
        // value even for networks with rather modest widths" (f² ≈ P)
        let p = 18.0;
        let s = achievable_speedup(&fig4_net(10.0, 8), ConvAlgorithm::Direct, p);
        assert!(s > 0.75 * p, "width 10 at P=18: {s}");
    }

    #[test]
    fn width_needed_grows_with_p() {
        // Fig 4: the width at which S_P reaches 75% of P grows with P
        let width_for = |p: f64| {
            (1..200)
                .map(|w| w as f64)
                .find(|&w| achievable_speedup(&fig4_net(w, 8), ConvAlgorithm::Direct, p) > 0.75 * p)
                .unwrap()
        };
        assert!(width_for(120.0) > width_for(8.0));
    }

    #[test]
    fn t1_scales_quadratically_in_width() {
        let t = |w: f64| fig4_net(w, 8).t1(ConvAlgorithm::Direct, DEFAULT_C);
        let ratio = t(80.0) / t(40.0);
        assert!((3.0..4.5).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn depth_grows_t_inf_superlinearly() {
        // deeper nets both add layers and enlarge the field of view, so
        // T∞ grows faster than linearly in depth
        let t = |d: usize| fig4_net(20.0, d).t_inf(ConvAlgorithm::Direct, DEFAULT_C);
        assert!(t(16) > 2.0 * t(8));
        assert!(t(32) > 2.0 * t(16));
    }
}
