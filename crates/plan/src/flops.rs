//! Serial FLOP counts per layer (Tables I and II).

use crate::DEFAULT_C;

/// Which convolution algorithm a layer's cost is computed for.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ConvAlgorithm {
    /// Direct spatial convolution.
    Direct,
    /// FFT-based convolution without cross-pass reuse.
    Fft,
    /// FFT-based with memoized transforms (Table II, right column).
    FftMemoized,
}

/// FLOPs of one forward/backward/update pass of a layer.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct PassCost {
    /// Forward pass FLOPs.
    pub forward: f64,
    /// Backward pass FLOPs.
    pub backward: f64,
    /// Update pass FLOPs.
    pub update: f64,
}

impl PassCost {
    /// Total FLOPs across passes.
    pub fn total(&self) -> f64 {
        self.forward + self.backward + self.update
    }
}

/// Cost of transforming one `n×n×n` image: `C·n³·log₂(n³) = 3C·n³·log₂ n`.
pub(crate) fn fft_image_cost(n: f64, c: f64) -> f64 {
    if n <= 1.0 {
        return 0.0;
    }
    3.0 * c * n.powi(3) * n.log2()
}

/// A layer of the analytic model. All images in a layer share the
/// (isotropic) input size `n`; convolution layers map `f` inputs to
/// `f_out` outputs with `k³` kernels (output size `n' = n − k + 1`).
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum LayerModel {
    /// Fully connected convolutional layer.
    Conv {
        /// Input image size per axis.
        n: f64,
        /// Kernel size per axis.
        k: f64,
        /// Input width.
        f_in: f64,
        /// Output width.
        f_out: f64,
    },
    /// Transfer-function layer over `f` images of size `n³`.
    Transfer {
        /// Image size per axis.
        n: f64,
        /// Width.
        f: f64,
    },
    /// Max-pooling layer over `f` images of size `n³`.
    MaxPool {
        /// Image size per axis.
        n: f64,
        /// Width.
        f: f64,
    },
    /// Max-filtering layer over `f` images of size `n³`, window `k³`.
    MaxFilter {
        /// Image size per axis.
        n: f64,
        /// Width.
        f: f64,
        /// Window size per axis.
        k: f64,
    },
}

impl LayerModel {
    /// Serial FLOPs of the layer per pass (Table I for nonlinear
    /// layers, Table II for convolutional layers).
    pub fn flops(&self, algo: ConvAlgorithm, c: f64) -> PassCost {
        match *self {
            LayerModel::Conv { n, k, f_in, f_out } => {
                let np = n - k + 1.0;
                match algo {
                    ConvAlgorithm::Direct => {
                        let pass = f_out * f_in * np.powi(3) * k.powi(3);
                        PassCost {
                            forward: pass,
                            backward: pass,
                            update: pass,
                        }
                    }
                    ConvAlgorithm::Fft => {
                        let t = fft_image_cost(n, c);
                        let pw = 4.0 * f_out * f_in * n.powi(3);
                        let all = t * (f_out + f_in + f_out * f_in) + pw;
                        PassCost {
                            forward: all,
                            backward: all,
                            update: all,
                        }
                    }
                    ConvAlgorithm::FftMemoized => {
                        let t = fft_image_cost(n, c);
                        let pw = 4.0 * f_out * f_in * n.powi(3);
                        PassCost {
                            forward: t * (f_out + f_in + f_out * f_in) + pw,
                            backward: t * (f_out + f_in) + pw,
                            update: t * (f_out * f_in) + pw,
                        }
                    }
                }
            }
            LayerModel::Transfer { n, f } => PassCost {
                forward: f * n.powi(3),
                backward: f * n.powi(3),
                update: f * n.powi(3),
            },
            LayerModel::MaxPool { n, f } => PassCost {
                forward: f * n.powi(3),
                backward: f * n.powi(3),
                update: 0.0,
            },
            LayerModel::MaxFilter { n, f, k } => PassCost {
                forward: f * 6.0 * n.powi(3) * k.log2().max(1.0),
                backward: f * n.powi(3),
                update: 0.0,
            },
        }
    }

    /// Shorthand using [`DEFAULT_C`].
    pub fn flops_default(&self, algo: ConvAlgorithm) -> PassCost {
        self.flops(algo, DEFAULT_C)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn direct_conv_matches_table_ii() {
        // Table II total: 3·f'·f·n'³·k³
        let l = LayerModel::Conv {
            n: 20.0,
            k: 5.0,
            f_in: 8.0,
            f_out: 16.0,
        };
        let c = l.flops_default(ConvAlgorithm::Direct);
        let np = 16.0f64;
        let expect = 16.0 * 8.0 * np.powi(3) * 125.0;
        assert_eq!(c.forward, expect);
        assert_eq!(c.total(), 3.0 * expect);
    }

    #[test]
    fn fft_conv_matches_table_ii_totals() {
        let (n, k, f, fp) = (20.0f64, 5.0f64, 8.0f64, 16.0f64);
        let l = LayerModel::Conv {
            n,
            k,
            f_in: f,
            f_out: fp,
        };
        let t = fft_image_cost(n, DEFAULT_C);
        let full = l.flops_default(ConvAlgorithm::Fft);
        // 9C n³ log n [f'+f+f'f] + 12 f'f n³ — note our t = 3C n³ log n
        let expect_total = 3.0 * t * (fp + f + fp * f) + 12.0 * fp * f * n.powi(3);
        assert!((full.total() - expect_total).abs() < 1e-6);
        let memo = l.flops_default(ConvAlgorithm::FftMemoized);
        let expect_memo = 2.0 * t * (fp + f + fp * f) + 12.0 * fp * f * n.powi(3);
        assert!((memo.total() - expect_memo).abs() < 1e-6);
    }

    #[test]
    fn memoization_saves_about_a_third_of_transform_cost() {
        // §IV: "the reduction in complexity is approximately a third"
        // (of the transform terms, for wide layers)
        let l = LayerModel::Conv {
            n: 40.0,
            k: 5.0,
            f_in: 64.0,
            f_out: 64.0,
        };
        let fft = l.flops_default(ConvAlgorithm::Fft).total();
        let memo = l.flops_default(ConvAlgorithm::FftMemoized).total();
        let ratio = memo / fft;
        assert!(
            (0.63..0.75).contains(&ratio),
            "memoized/full ratio {ratio}"
        );
    }

    #[test]
    fn fft_beats_direct_for_large_kernels_only() {
        // the §IV crossover: small k -> direct wins, large k -> FFT wins
        let cost = |k: f64| {
            let l = LayerModel::Conv {
                n: 48.0,
                k,
                f_in: 10.0,
                f_out: 10.0,
            };
            (
                l.flops_default(ConvAlgorithm::Direct).total(),
                l.flops_default(ConvAlgorithm::FftMemoized).total(),
            )
        };
        let (d_small, f_small) = cost(2.0);
        assert!(d_small < f_small, "direct should win at k=2");
        let (d_big, f_big) = cost(11.0);
        assert!(f_big < d_big, "FFT should win at k=11");
    }

    #[test]
    fn crossover_comes_earlier_for_wider_layers() {
        // FFT sharing means wider layers cross over at smaller k (§IV)
        let crossover = |width: f64| {
            (2..40)
                .map(|k| k as f64)
                .find(|&k| {
                    let l = LayerModel::Conv {
                        n: 48.0,
                        k,
                        f_in: width,
                        f_out: width,
                    };
                    l.flops_default(ConvAlgorithm::FftMemoized).total()
                        < l.flops_default(ConvAlgorithm::Direct).total()
                })
                .unwrap_or(40.0)
        };
        assert!(
            crossover(64.0) <= crossover(1.0),
            "wide {} vs single {}",
            crossover(64.0),
            crossover(1.0)
        );
        assert!(crossover(64.0) < 40.0);
    }

    #[test]
    fn table_i_nonlinear_layers() {
        let n = 10.0f64;
        let f = 4.0f64;
        let p = LayerModel::MaxPool { n, f }.flops_default(ConvAlgorithm::Direct);
        assert_eq!(p.forward, f * 1000.0);
        assert_eq!(p.update, 0.0);
        let m = LayerModel::MaxFilter { n, f, k: 4.0 }.flops_default(ConvAlgorithm::Direct);
        assert_eq!(m.forward, f * 6.0 * 1000.0 * 2.0); // log2(4)=2
        let t = LayerModel::Transfer { n, f }.flops_default(ConvAlgorithm::Direct);
        assert_eq!(t.total(), 3.0 * f * 1000.0);
    }
}
