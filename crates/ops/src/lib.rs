//! The image filtering operations of the ZNN computation graph and
//! their Jacobians (paper §II–III).
//!
//! Each edge of a ZNN computation graph applies one of four operations
//! to a 3D image; this crate implements all four, their backward
//! (Jacobian-transpose) forms, and the parameter-gradient computations:
//!
//! | forward (§II) | backward (§III-A) | update (§III-B) |
//! |---|---|---|
//! | [`conv`] — valid, optionally sparse (skip-kernel) convolution | full convolution with the reflected kernel | [`conv::kernel_gradient`] |
//! | [`pool`] — max-pooling over `p³` blocks | scatter to block argmax | — |
//! | [`filter`] — sliding-window max-filtering | scatter-accumulate to window argmax | — |
//! | [`transfer`] — bias + pointwise nonlinearity | multiply by the derivative | bias gradient = sum of backward image |
//!
//! Convolution comes in two interchangeable implementations — direct
//! loops here and FFT-based in [`znn_fft`] — selected per layer by the
//! plan `znn-core` resolves at construction (§IV). Each direct pass is
//! one register-blocked `znn-simd` call: the forward and the input
//! gradient share the multi-tap row kernel (the input gradient in
//! gather form, touching only taps that land inside the gradient), and
//! the kernel gradient is an f64 dot over exact products. The forward
//! is bitwise the per-tap `fma` loop, the input gradient equals the
//! padded full convolution under `==`, and the kernel gradient is
//! within 1 f32 ulp of a sequential f64 sum (see [`conv`]). Max-filtering runs
//! one shifted-row kernel — `k − 1` strict-`>` maxima of contiguous
//! shifted slices per axis — with two entry points: values only
//! ([`filter::max_filter_output`], for inference and `DenseNet`) and
//! values plus the winner index the backward pass scatters to
//! ([`filter::max_filter`], for training). At the `k ≤ 4` windows ZNN
//! nets use this costs no more compares than the paper's heap-based
//! O(n log k) variant.
//!
//! Loss functions ([`loss`]) close the training loop (§III, step 3).

#![warn(missing_docs)]
#![forbid(unsafe_code)]
#![warn(unreachable_pub)]

pub mod conv;
pub mod filter;
pub mod loss;
pub mod pool;
pub mod transfer;

pub use conv::ConvMethod;
pub use loss::Loss;
pub use transfer::Transfer;

/// Direct and FFT convolution agree in all three passes of a conv
/// edge. The FFT side is the one-shot form: a valid convolution with
/// the dilated kernel (forward), a full convolution with the dilated
/// reflected kernel (backward), and (§III-B) a valid convolution of the
/// reflected image with the output gradient sampled on the kernel
/// lattice (update).
#[cfg(test)]
mod convolver {
    mod tests {
        use crate::conv;
        use znn_fft::{fft_conv_full, fft_conv_valid, FftEngine};
        use znn_tensor::ops::random;
        use znn_tensor::{pad, Image, Vec3};

        fn fft_forward(e: &FftEngine, img: &Image, ker: &Image, s: Vec3) -> Image {
            fft_conv_valid(e, img, &pad::dilate(ker, s))
        }

        fn fft_input_gradient(e: &FftEngine, g: &Image, ker: &Image, s: Vec3) -> Image {
            fft_conv_full(e, g, &pad::dilate(&pad::flip(ker), s))
        }

        fn fft_kernel_gradient(e: &FftEngine, x: &Image, g: &Image, k: Vec3, s: Vec3) -> Image {
            let dilated = fft_conv_valid(e, &pad::flip(x), g);
            assert_eq!(dilated.shape(), k.dilated(s));
            pad::gather_strided(&dilated, Vec3::zero(), s, k)
        }

        #[test]
        fn methods_agree_on_dense_forward() {
            let e = FftEngine::new();
            for (n, k) in [
                (Vec3::cube(8), Vec3::cube(3)),
                (Vec3::flat(12, 12), Vec3::flat(5, 5)),
                (Vec3::new(6, 7, 8), Vec3::new(2, 3, 4)),
            ] {
                let img = random(n, 71);
                let ker = random(k, 72);
                let a = conv::conv_valid(&img, &ker, Vec3::one());
                let b = fft_forward(&e, &img, &ker, Vec3::one());
                assert!(a.max_abs_diff(&b) < 1e-3, "n={n} k={k}: {}", a.max_abs_diff(&b));
            }
        }

        #[test]
        fn methods_agree_on_sparse_forward() {
            let e = FftEngine::new();
            let img = random(Vec3::cube(12), 73);
            let ker = random(Vec3::cube(3), 74);
            let s = Vec3::cube(2);
            let a = conv::conv_valid(&img, &ker, s);
            let b = fft_forward(&e, &img, &ker, s);
            assert!(a.max_abs_diff(&b) < 1e-3);
        }

        #[test]
        fn methods_agree_on_input_gradient() {
            let e = FftEngine::new();
            let n = Vec3::cube(8);
            let k = Vec3::cube(3);
            let g = random(conv::valid_shape(n, k, Vec3::one()).unwrap(), 75);
            let ker = random(k, 76);
            let a = conv::input_gradient(&g, &ker, Vec3::one());
            let b = fft_input_gradient(&e, &g, &ker, Vec3::one());
            assert_eq!(a.shape(), n);
            assert!(a.max_abs_diff(&b) < 1e-3);
        }

        #[test]
        fn methods_agree_on_kernel_gradient_dense_and_sparse() {
            let e = FftEngine::new();
            for s in [Vec3::one(), Vec3::cube(2)] {
                let n = Vec3::cube(9);
                let k = Vec3::cube(3);
                let img = random(n, 77);
                let g = random(conv::valid_shape(n, k, s).unwrap(), 78);
                let a = conv::kernel_gradient(&img, &g, k, s);
                let b = fft_kernel_gradient(&e, &img, &g, k, s);
                assert_eq!(a.shape(), k);
                assert!(a.max_abs_diff(&b) < 1e-3, "s={s}: {}", a.max_abs_diff(&b));
            }
        }
    }
}
