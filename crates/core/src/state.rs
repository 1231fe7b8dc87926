//! Runtime state attached to nodes and edges of the computation graph.

use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::{Arc, OnceLock};
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
}

impl Accumulate for Contribution {
    fn accumulate(&mut self, other: Self) {
        match (self, other) {
            (Contribution::Spatial(a), Contribution::Spatial(b)) => ops::add_assign(a, &b),
            (Contribution::Freq(a), Contribution::Freq(b)) => ops::add_assign_s(a, &b),
            _ => panic!("mixed spatial/frequency contributions at one node"),
        }
    }
}

/// How a node finalizes a frequency-domain sum: inverse-transform at
/// shape `m`, then crop `out_shape` at `crop_at`.
#[derive(Clone, Copy, Debug)]
pub(crate) struct FreqPlan {
    pub m: Vec3,
    pub crop_at: Vec3,
    pub out_shape: Vec3,
}

/// A per-(node, transform-shape) cache of image half-spectra, so an
/// image's r2c FFT is computed once and shared by every edge that needs
/// it — the `[f' + f + ...]` term structure of Table II. Keys are the
/// *logical* transform shapes; each entry stores `⌊m_z/2⌋+1` z-bins.
#[derive(Default)]
pub(crate) struct SpectrumCache {
    map: Mutex<HashMap<Vec3, Arc<OnceLock<Arc<Spectrum>>>>>,
}

impl SpectrumCache {
    /// Returns the cached spectrum at `m`, computing it with `f` if
    /// absent. Concurrent callers for the same shape block only on the
    /// single computation (the paper counts one FFT per image per pass).
    pub fn get_or_compute(&self, m: Vec3, f: impl FnOnce() -> Spectrum) -> Arc<Spectrum> {
        let cell = {
            let mut map = self.map.lock();
            Arc::clone(map.entry(m).or_default())
        };
        Arc::clone(cell.get_or_init(|| Arc::new(f())))
    }

    /// Drops every cached spectrum (called when the node's image is
    /// replaced by the next round's).
    pub fn clear(&self) {
        self.map.lock().clear();
    }

    /// Number of cached spectra (for memory accounting).
    pub fn len(&self) -> usize {
        self.map.lock().len()
    }

    /// Bytes held by materialized cached spectra (§IX-B accounting —
    /// roughly half of what the full c2c representation would retain).
    pub fn bytes(&self) -> usize {
        self.map
            .lock()
            .values()
            .filter_map(|cell| cell.get().map(|s| s.stored_bytes()))
            .sum()
    }

    /// Bytes full c2c spectra of the same transform shapes would hold —
    /// the exact footprint the half-spectrum representation avoids.
    pub fn c2c_bytes(&self) -> usize {
        self.map
            .lock()
            .values()
            .filter_map(|cell| cell.get().map(|s| s.full_bytes()))
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
    /// The node's backward image.
    pub bwd_image: Mutex<Option<Arc<Image>>>,
    /// Shared spectra of the forward image, keyed by transform shape.
    pub fwd_spectra: SpectrumCache,
    /// Shared spectra of the backward image.
    pub bwd_spectra: SpectrumCache,
    /// Frequency-accumulation plan for the forward sum, if eligible.
    pub fwd_freq: Option<FreqPlan>,
    /// Frequency-accumulation plan for the backward sum, if eligible.
    pub bwd_freq: Option<FreqPlan>,
    /// Forward image shape.
    pub shape: Vec3,
}

impl NodeState {
    pub fn new(in_degree: usize, out_degree: usize, shape: Vec3) -> Self {
        NodeState {
            fwd_sum: ConcurrentSum::new(in_degree.max(1)),
            bwd_sum: ConcurrentSum::new(out_degree.max(1)),
            fwd_image: Mutex::new(None),
            bwd_image: Mutex::new(None),
            fwd_spectra: SpectrumCache::default(),
            bwd_spectra: SpectrumCache::default(),
            fwd_freq: None,
            bwd_freq: None,
            shape,
        }
    }
}

/// Runtime state of a convolution edge.
pub(crate) struct ConvEdge {
    pub kernel: Mutex<Image>,
    /// Momentum buffer (allocated on first use).
    pub velocity: Mutex<Option<Image>>,
    pub method: ConvMethod,
    /// Memoized half-spectrum of the padded kernel at `m` (current
    /// round).
    pub kernel_spectrum: Mutex<Option<Arc<Spectrum>>>,
    pub update: UpdateHandle,
    pub k: Vec3,
    pub sparsity: Vec3,
    /// Transform shape for this edge's FFT work: `good(source shape)`.
    pub m: Vec3,
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
    pub in_shape: Vec3,
}

/// Per-edge runtime state.
pub(crate) enum EdgeState {
    Conv(ConvEdge),
    Transfer(TransferEdge),
    Max(MaxEdge),
}

impl EdgeState {
    /// The FORCE handle of a trainable edge.
    pub fn update_handle(&self) -> Option<&UpdateHandle> {
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
