//! Runtime state attached to nodes and edges of the computation graph.

use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::{Arc, OnceLock};
use znn_fft::FftEngine;
use znn_graph::{EdgeId, EdgeOp, Graph, NodeId};
use znn_ops::conv::DirectConv;
use znn_ops::{ConvMethod, Transfer};
use znn_sched::{Accumulate, ConcurrentSum, UpdateHandle};
use znn_tensor::{ops, Image, Spectrum, Tensor3, Vec3};

/// A contribution flowing into a node sum — spatial, or a product
/// half-spectrum when the whole fan-in shares one transform geometry
/// (§IV).
pub(crate) enum Contribution {
    /// Spatial-domain image.
    Spatial(Image),
    /// Frequency-domain half-spectrum (deferred inverse transform).
    Freq(Spectrum),
    /// Nothing to add: the backward image of a node without in-edges
    /// has no reader, so its out-edges only count toward completion.
    Unread,
}

impl Contribution {
    /// The summed image (`None` if unread); a frequency-domain sum pays
    /// its node's one inverse transform here, at the node `plan`'s crop.
    pub(crate) fn into_image(self, fft: &FftEngine, plan: Option<FreqPlan>) -> Option<Image> {
        match self {
            Contribution::Spatial(img) => Some(img),
            Contribution::Freq(spec) => {
                let p = plan.expect("freq sum implies a plan");
                Some(fft.inverse_real(spec, p.crop_at, p.out_shape))
            }
            Contribution::Unread => None,
        }
    }
}

impl Accumulate for Contribution {
    fn accumulate(&mut self, other: Self) {
        match (self, other) {
            (Contribution::Spatial(a), Contribution::Spatial(b)) => ops::add_assign(a, &b),
            (Contribution::Freq(a), Contribution::Freq(b)) => ops::add_assign_s(a, &b),
            (Contribution::Unread, Contribution::Unread) => {}
            _ => panic!("mixed spatial/frequency contributions at one node"),
        }
    }
}

/// How a node finalizes a frequency-domain sum: inverse-transform at
/// shape `m`, then crop `out_shape` at `crop_at`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct FreqPlan {
    pub m: Vec3,
    pub crop_at: Vec3,
    pub out_shape: Vec3,
}

impl FreqPlan {
    /// The one rule for summing a node in the frequency domain (§IV):
    /// the node pays one inverse transform per pass instead of one per
    /// contributing edge iff it has a contributing edge, every one is
    /// an FFT convolution, and all share one transform shape and crop.
    ///
    /// Each item is one contributing edge's `(method, pad, crop)`, or
    /// `None` for an edge that is not a convolution. Training and
    /// serving both decide through here.
    pub(crate) fn for_sum(
        edges: impl IntoIterator<Item = Option<(ConvMethod, Vec3, Vec3)>>,
        out_shape: Vec3,
    ) -> Option<FreqPlan> {
        let mut plan: Option<FreqPlan> = None;
        for edge in edges {
            let (ConvMethod::Fft, m, crop_at) = edge? else {
                return None;
            };
            match plan {
                None => {
                    plan = Some(FreqPlan {
                        m,
                        crop_at,
                        out_shape,
                    })
                }
                Some(p) if p.m == m && p.crop_at == crop_at => {}
                Some(_) => return None,
            }
        }
        plan
    }
}

/// One conv edge's geometry: method, FFT transform shape `m`, the
/// corner of the valid output in that transform (the dilated kernel's
/// far corner), and the direct passes' tables (`None` on an edge that
/// runs no direct pass).
pub(crate) struct ConvGeometry {
    pub method: ConvMethod,
    pub m: Vec3,
    pub crop_at: Vec3,
    pub direct: Option<Arc<DirectConv>>,
}

/// A net's conv geometry at one set of node shapes, indexed like the
/// graph: how training (once per engine) and serving (once per input
/// shape) fix every conv edge's work before any of it runs (§IV).
pub(crate) struct NetGeometry {
    pub node_shape: Vec<Vec3>,
    pub conv: Vec<Option<ConvGeometry>>,
    /// The forward sum's frequency-domain plan of each node.
    pub fwd_freq: Vec<Option<FreqPlan>>,
}

impl NetGeometry {
    /// `choose(i, source shape, kernel, sparsity)` gives conv edge `i`'s
    /// (method, pad). Direct edges, and with `fft_direct_gradient` FFT
    /// edges too, get tables, one per distinct geometry. Panics on a pad
    /// smaller than its image, or with an odd packed axis, which would
    /// double spectrum memory ([`Spectrum::packed_axis_is_even`]).
    pub(crate) fn derive(
        graph: &Graph,
        shape_of: &HashMap<NodeId, Vec3>,
        mut choose: impl FnMut(usize, Vec3, Vec3, Vec3) -> (ConvMethod, Vec3),
        fft_direct_gradient: bool,
    ) -> NetGeometry {
        let node_shape: Vec<Vec3> = (0..graph.node_count())
            .map(|i| shape_of[&NodeId(i)])
            .collect();
        let mut tables = HashMap::new();
        let conv: Vec<_> = graph
            .edges()
            .iter()
            .enumerate()
            .map(|(i, e)| {
                let EdgeOp::Conv { kernel, sparsity } = e.op else {
                    return None;
                };
                let n = node_shape[e.from.0];
                let (method, m) = choose(i, n, kernel, sparsity);
                assert!(
                    n.le(m),
                    "plan pad {m} for edge {i} is smaller than its image {n}"
                );
                let even = Spectrum::packed_axis_is_even(m);
                assert!(even, "plan pad {m} for edge {i} has an odd packed axis");
                let direct = (method == ConvMethod::Direct || fft_direct_gradient).then(|| {
                    let d = tables.entry((n, kernel, sparsity));
                    Arc::clone(d.or_insert_with(|| Arc::new(DirectConv::new(n, kernel, sparsity))))
                });
                let crop_at = kernel.dilated(sparsity) - Vec3::one();
                Some(ConvGeometry {
                    method,
                    m,
                    crop_at,
                    direct,
                })
            })
            .collect();
        let fwd_freq = graph
            .nodes()
            .iter()
            .zip(&node_shape)
            .map(|(node, &shape)| {
                let geom = |e: &EdgeId| conv[e.0].as_ref().map(|c| (c.method, c.m, c.crop_at));
                FreqPlan::for_sum(node.in_edges.iter().map(geom), shape)
            })
            .collect();
        NetGeometry {
            node_shape,
            conv,
            fwd_freq,
        }
    }
}

/// A per-(node, transform-shape) cache of image half-spectra, so an
/// image's r2c FFT is computed once and shared by every edge that needs
/// it — the `[f' + f + ...]` term structure of Table II (`DenseNet`
/// keeps one per edge for kernel spectra too). Keys are the
/// *logical* transform shapes; each entry stores `⌊m_z/2⌋+1` z-bins.
#[derive(Default)]
pub(crate) struct SpectrumCache {
    map: Mutex<HashMap<Vec3, Arc<OnceLock<Arc<Spectrum>>>>>,
}

impl SpectrumCache {
    /// Returns the cached spectrum at `m`, computing it with `f` if
    /// absent. Concurrent callers for the same shape block only on the
    /// single computation (the paper counts one FFT per image per pass).
    pub(crate) fn get_or_compute(&self, m: Vec3, f: impl FnOnce() -> Spectrum) -> Arc<Spectrum> {
        let cell = {
            let mut map = self.map.lock();
            Arc::clone(map.entry(m).or_default())
        };
        Arc::clone(cell.get_or_init(|| Arc::new(f())))
    }

    /// Drops every cached spectrum (called when the node's image is
    /// replaced by the next round's).
    pub(crate) fn clear(&self) {
        self.map.lock().clear();
    }

    /// Number of cached spectra (for memory accounting).
    pub(crate) fn len(&self) -> usize {
        self.map.lock().len()
    }

    /// Bytes held by materialized cached spectra (§IX-B accounting).
    pub(crate) fn bytes(&self) -> usize {
        self.map
            .lock()
            .values()
            .filter_map(|cell| cell.get().map(|s| s.stored_bytes()))
            .sum()
    }
}

/// Runtime state of one node.
pub(crate) struct NodeState {
    /// Wait-free accumulator for incoming forward contributions.
    pub fwd_sum: ConcurrentSum<Contribution>,
    /// Wait-free accumulator for incoming backward contributions.
    pub bwd_sum: ConcurrentSum<Contribution>,
    /// The node's forward image (output of the sum), refreshed each
    /// round.
    pub fwd_image: Mutex<Option<Arc<Image>>>,
    /// Shared spectra of the forward image, keyed by transform shape.
    pub fwd_spectra: SpectrumCache,
    /// Shared spectra of the backward image.
    pub bwd_spectra: SpectrumCache,
    /// Frequency-accumulation plan for the forward sum, if eligible.
    pub fwd_freq: Option<FreqPlan>,
    /// Frequency-accumulation plan for the backward sum, if eligible.
    pub bwd_freq: Option<FreqPlan>,
}

impl NodeState {
    pub(crate) fn new(in_degree: usize, out_degree: usize) -> Self {
        NodeState {
            fwd_sum: ConcurrentSum::new(in_degree.max(1)),
            bwd_sum: ConcurrentSum::new(out_degree.max(1)),
            fwd_image: Mutex::new(None),
            fwd_spectra: SpectrumCache::default(),
            bwd_spectra: SpectrumCache::default(),
            fwd_freq: None,
            bwd_freq: None,
        }
    }
}

/// Runtime state of a convolution edge.
pub(crate) struct ConvEdge {
    pub kernel: Mutex<Image>,
    /// Momentum buffer (allocated on first use).
    pub velocity: Mutex<Option<Image>>,
    /// Method, pad, crop and direct tables, fixed at construction.
    pub geom: ConvGeometry,
    /// Memoized half-spectrum of the padded kernel at `m` (current
    /// round).
    pub kernel_spectrum: Mutex<Option<Arc<Spectrum>>>,
    pub update: UpdateHandle,
    pub k: Vec3,
    pub sparsity: Vec3,
}

/// Runtime state of a transfer edge.
pub(crate) struct TransferEdge {
    pub bias: Mutex<f32>,
    pub function: Transfer,
    /// Forward output retained for the derivative (§III-A).
    pub saved_output: Mutex<Option<Arc<Image>>>,
    /// Scaled dropout mask for this round (`0` or `1/(1-p)` per voxel).
    pub dropout_mask: Mutex<Option<Arc<Image>>>,
    pub update: UpdateHandle,
}

/// Runtime state of a pooling or filtering edge.
pub(crate) struct MaxEdge {
    pub window: Vec3,
    /// Dilation (always 1 for pooling).
    pub sparsity: Vec3,
    /// True for pooling, false for filtering.
    pub is_pool: bool,
    /// Winner indices from this round's training forward, taken by its
    /// backward (inference forwards of filtering edges store none).
    pub argmax: Mutex<Option<Tensor3<u32>>>,
}

/// Per-edge runtime state.
pub(crate) enum EdgeState {
    Conv(ConvEdge),
    Transfer(TransferEdge),
    Max(MaxEdge),
}

impl EdgeState {
    /// The FORCE handle of a trainable edge.
    pub(crate) fn update_handle(&self) -> Option<&UpdateHandle> {
        match self {
            EdgeState::Conv(c) => Some(&c.update),
            EdgeState::Transfer(t) => Some(&t.update),
            EdgeState::Max(_) => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn contributions_accumulate_within_a_domain() {
        let mut a = Contribution::Spatial(Tensor3::filled(Vec3::one(), 1.0));
        a.accumulate(Contribution::Spatial(Tensor3::filled(Vec3::one(), 2.0)));
        match a {
            Contribution::Spatial(img) => assert_eq!(img.at((0, 0, 0)), 3.0),
            _ => unreachable!(),
        }
    }

    #[test]
    #[should_panic(expected = "mixed spatial/frequency")]
    fn mixed_contributions_panic() {
        let mut a = Contribution::Spatial(Tensor3::filled(Vec3::one(), 1.0));
        a.accumulate(Contribution::Freq(Spectrum::zeros(Vec3::one())));
    }

    #[test]
    fn freq_sum_needs_fft_edges_sharing_pad_and_crop() {
        let (m, crop, out) = (Vec3::cube(16), Vec3::cube(2), Vec3::cube(12));
        let fft = Some((ConvMethod::Fft, m, crop));
        assert_eq!(
            FreqPlan::for_sum([fft, fft, fft], out),
            Some(FreqPlan {
                m,
                crop_at: crop,
                out_shape: out
            })
        );
        // any direct in-edge, or any non-convolution edge, spoils it
        let direct = Some((ConvMethod::Direct, m, crop));
        assert_eq!(FreqPlan::for_sum([fft, direct], out), None);
        assert_eq!(FreqPlan::for_sum([fft, None], out), None);
        // differing pads or crops spoil it
        let other_pad = Some((ConvMethod::Fft, Vec3::cube(18), crop));
        let other_crop = Some((ConvMethod::Fft, m, Vec3::cube(4)));
        assert_eq!(FreqPlan::for_sum([fft, other_pad], out), None);
        assert_eq!(FreqPlan::for_sum([fft, other_crop], out), None);
        // a node without contributing edges has nothing to sum
        assert_eq!(FreqPlan::for_sum([], out), None);
    }

    #[test]
    fn spectrum_cache_computes_once() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let cache = SpectrumCache::default();
        let computes = AtomicUsize::new(0);
        for _ in 0..5 {
            let _ = cache.get_or_compute(Vec3::cube(4), || {
                computes.fetch_add(1, Ordering::SeqCst);
                Spectrum::zeros(Vec3::cube(4))
            });
        }
        assert_eq!(computes.load(Ordering::SeqCst), 1);
        assert_eq!(cache.len(), 1);
        cache.clear();
        let _ = cache.get_or_compute(Vec3::cube(4), || {
            computes.fetch_add(1, Ordering::SeqCst);
            Spectrum::zeros(Vec3::cube(4))
        });
        assert_eq!(computes.load(Ordering::SeqCst), 2);
    }

    #[test]
    fn spectrum_cache_keys_by_shape() {
        let cache = SpectrumCache::default();
        let a = cache.get_or_compute(Vec3::cube(4), || Spectrum::zeros(Vec3::cube(4)));
        let b = cache.get_or_compute(Vec3::cube(8), || Spectrum::zeros(Vec3::cube(8)));
        assert_ne!(a.full_shape(), b.full_shape());
        assert_eq!(cache.len(), 2);
    }
}
