//! Max-pooling and its Jacobian (paper §II, §III-A).
//!
//! Max-pooling divides an `n³` image into `p³` blocks (each extent must
//! divide evenly) and keeps the maximum of each block. The backward pass
//! routes each output gradient voxel to the position that won the
//! forward max and zeroes everything else.

use znn_tensor::{Image, Tensor3, Vec3};

/// Result of a max-pooling forward pass: the pooled image plus, for each
/// output voxel, the linear index (into the *input*) of the winning
/// voxel — the state the Jacobian needs.
pub struct PoolResult {
    /// Pooled image of shape `n / p`.
    pub output: Image,
    /// For each output voxel, the linear input index of its maximum.
    pub argmax: Tensor3<u32>,
}

/// Max-pooling forward pass with block shape `p`.
///
/// Each output row along `z` keeps running maxima: for every `(dx, dy)`
/// of the block, the input row it reads is walked once, contiguously,
/// block by block. Every output therefore sees its block's voxels in
/// `(dx, dy, dz)` order and keeps the first strict maximum (a `NaN`
/// never wins; a block of only `NaN` and `-inf` yields `-inf` with its
/// argmax at the block's first voxel, so the backward pass routes that
/// output's gradient inside its own block).
///
/// Panics if any extent of the input is not divisible by `p` (the
/// paper's precondition).
pub fn max_pool(img: &Image, p: Vec3) -> PoolResult {
    let n = img.shape();
    let out_shape = n
        .pooled(p)
        .unwrap_or_else(|| panic!("pool {p} does not divide image {n}"));
    let mut output = Tensor3::filled(out_shape, f32::NEG_INFINITY);
    let mut argmax = Tensor3::<u32>::zeros(out_shape);
    let src = img.as_slice();
    let oz = out_shape[2];
    let run = if p[2] == 2 { pool_run::<2> } else { pool_run::<0> };
    let out_rows = output.as_mut_slice().chunks_exact_mut(oz);
    let arg_rows = argmax.as_mut_slice().chunks_exact_mut(oz);
    for (r, (best, best_at)) in out_rows.zip(arg_rows).enumerate() {
        let (ox, oy) = (r / out_shape[1], r % out_shape[1]);
        // each argmax starts at its block's first voxel
        let corner = Vec3::new(ox * p[0], oy * p[1], 0);
        for (oz, at) in best_at.iter_mut().enumerate() {
            *at = (n.offset(corner) + oz * p[2]) as u32;
        }
        for dx in 0..p[0] {
            for dy in 0..p[1] {
                let start = n.offset(Vec3::new(ox * p[0] + dx, oy * p[1] + dy, 0));
                run(&src[start..start + n[2]], start as u32, p[2], best, best_at);
            }
        }
    }
    PoolResult { output, argmax }
}

/// Folds one input row, which starts at input index `start`, into an
/// output row's running maxima: output `o` takes the row's `pz`
/// samples from `o·pz`, in order, keeping the first strict maximum and
/// its input index. A non-zero `PZ` fixes `pz` at compile time; the
/// common `pz = 2` block then unrolls, which measured ~3× faster than
/// the runtime-length loop on a 48³ image.
fn pool_run<const PZ: usize>(
    row: &[f32],
    start: u32,
    pz: usize,
    best: &mut [f32],
    best_at: &mut [u32],
) {
    let pz = if PZ > 0 { PZ } else { pz };
    let outputs = best.iter_mut().zip(best_at.iter_mut());
    for (o, ((b, at), block)) in outputs.zip(row.chunks_exact(pz)).enumerate() {
        // the running maximum stays in registers over the block
        let (mut bv, mut ba) = (*b, *at);
        for (dz, &v) in block.iter().enumerate() {
            if v > bv {
                bv = v;
                ba = start + (o * pz + dz) as u32;
            }
        }
        (*b, *at) = (bv, ba);
    }
}

/// Max-pooling Jacobian: expands an output gradient of shape `n/p` back
/// to shape `n`, placing each value at the voxel recorded in `argmax`
/// and zero elsewhere (§III-A).
pub fn max_pool_backward(grad: &Image, argmax: &Tensor3<u32>, input_shape: Vec3) -> Image {
    assert_eq!(grad.shape(), argmax.shape(), "gradient/argmax mismatch");
    let mut out = Tensor3::<f32>::zeros(input_shape);
    let out_data = out.as_mut_slice();
    for (&g, &ix) in grad.as_slice().iter().zip(argmax.as_slice()) {
        // Within a block the argmax is unique, and blocks are disjoint,
        // so plain assignment would do; accumulate anyway for safety
        // under ties in pathological inputs.
        out_data[ix as usize] += g;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use znn_tensor::ops::{dot, random};

    #[test]
    fn pools_blocks_to_their_maximum() {
        let img = Tensor3::from_vec(
            Vec3::new(1, 2, 4),
            vec![1.0, 5.0, 2.0, 0.0, -1.0, -2.0, 7.0, 3.0],
        );
        let r = max_pool(&img, Vec3::new(1, 2, 2));
        assert_eq!(r.output.shape(), Vec3::new(1, 1, 2));
        assert_eq!(r.output.as_slice(), &[5.0, 7.0]);
    }

    #[test]
    fn argmax_points_at_the_winner() {
        let img = random(Vec3::cube(4), 31);
        let r = max_pool(&img, Vec3::cube(2));
        for o in r.output.shape().iter() {
            let ix = r.argmax[o] as usize;
            assert_eq!(img.as_slice()[ix], r.output[o]);
        }
    }

    #[test]
    #[should_panic(expected = "does not divide")]
    fn rejects_indivisible_shapes() {
        let _ = max_pool(&random(Vec3::cube(5), 1), Vec3::cube(2));
    }

    #[test]
    fn backward_scatters_to_argmax_only() {
        let img = random(Vec3::cube(4), 32);
        let r = max_pool(&img, Vec3::cube(2));
        let g = random(r.output.shape(), 33);
        let back = max_pool_backward(&g, &r.argmax, img.shape());
        // nonzero count equals number of output voxels (all argmaxes
        // distinct since blocks are disjoint)
        let nonzero = back.as_slice().iter().filter(|&&v| v != 0.0).count();
        assert_eq!(nonzero, g.len());
        assert!((back.sum() - g.sum()).abs() < 1e-4);
    }

    #[test]
    fn backward_is_jacobian_transpose() {
        // <pool(x), g> must have gradient wrt x equal to backward(g);
        // verify by finite differences at non-tied points.
        let x = random(Vec3::new(2, 4, 4), 34);
        let r = max_pool(&x, Vec3::new(1, 2, 2));
        let g = random(r.output.shape(), 35);
        let grad = max_pool_backward(&g, &r.argmax, x.shape());
        let eps = 1e-3f32;
        for at in [Vec3::zero(), Vec3::new(1, 3, 2), Vec3::new(0, 2, 1)] {
            let mut xp = x.clone();
            xp[at] += eps;
            let mut xm = x.clone();
            xm[at] -= eps;
            let lp = dot(&max_pool(&xp, Vec3::new(1, 2, 2)).output, &g);
            let lm = dot(&max_pool(&xm, Vec3::new(1, 2, 2)).output, &g);
            let fd = ((lp - lm) / (2.0 * eps as f64)) as f32;
            assert!(
                (grad[at] - fd).abs() < 1e-3,
                "at {at}: analytic {} vs fd {fd}",
                grad[at]
            );
        }
    }

    /// The per-voxel loop `max_pool` replaced: every output walks its
    /// block in `(dx, dy, dz)` order through `Vec3` indexing.
    fn max_pool_reference(img: &Image, p: Vec3) -> PoolResult {
        let n = img.shape();
        let out_shape = n.pooled(p).unwrap();
        let mut output = Tensor3::<f32>::zeros(out_shape);
        let mut argmax = Tensor3::<u32>::zeros(out_shape);
        for o in out_shape.iter() {
            let base = o * p;
            let mut best = f32::NEG_INFINITY;
            let mut best_at = n.offset(base) as u32;
            for d in p.iter() {
                let at = base + d;
                let v = img.at(at);
                if v > best {
                    best = v;
                    best_at = n.offset(at) as u32;
                }
            }
            output[o] = best;
            argmax[o] = best_at;
        }
        PoolResult { output, argmax }
    }

    #[test]
    fn row_walk_matches_the_per_voxel_loop_bitwise() {
        // random values, then ties (values quantized to a few levels),
        // then ±0, ±inf and NaN: the first strict maximum must win in
        // both, with the same bits and the same argmax
        let special = [0.0, -0.0, f32::INFINITY, f32::NEG_INFINITY, f32::NAN, 1.0, -1.0];
        for (n, p) in [
            (Vec3::cube(8), Vec3::cube(2)),
            (Vec3::new(6, 9, 12), Vec3::new(3, 3, 4)),
            (Vec3::new(4, 6, 10), Vec3::new(1, 2, 5)),
            (Vec3::flat(12, 8), Vec3::flat(3, 2)),
            (Vec3::new(1, 1, 9), Vec3::new(1, 1, 3)),
            (Vec3::cube(5), Vec3::one()),
            (Vec3::cube(4), Vec3::cube(4)),
        ] {
            let img = random(n, 37);
            let mut ties = img.clone();
            ties.as_mut_slice().iter_mut().for_each(|v| *v = (*v * 2.0).round());
            let mut odd = img.clone();
            for (i, v) in odd.as_mut_slice().iter_mut().enumerate() {
                *v = special[(i * 5 + i / 7) % special.len()];
            }
            let mut nans = img.clone();
            nans.as_mut_slice().fill(f32::NAN);
            for x in [img, ties, odd, nans] {
                let (got, want) = (max_pool(&x, p), max_pool_reference(&x, p));
                let bits = |t: &Image| t.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&got.output), bits(&want.output), "output n={n} p={p}");
                assert_eq!(got.argmax, want.argmax, "argmax n={n} p={p}");
            }
        }
    }

    #[test]
    fn unwinnable_blocks_route_their_gradient_inside_the_block() {
        // blocks of only NaN or -inf have no strict maximum: their
        // argmax is the block's first voxel, so the backward pass sends
        // their gradient into their own block; the finite blocks keep
        // their winners and output bits
        let (n, p) = (Vec3::new(4, 6, 8), Vec3::new(2, 3, 2));
        let base = random(n, 38);
        let want = max_pool(&base, p);
        let mut x = base.clone();
        let blocks: Vec<Vec3> = n.pooled(p).unwrap().iter().collect();
        let dead = [
            (blocks[0], f32::NAN),
            (blocks[5], f32::NAN),
            (blocks[11], f32::NEG_INFINITY),
        ];
        for &(o, v) in &dead {
            for d in p.iter() {
                x[o * p + d] = v;
            }
        }
        let got = max_pool(&x, p);
        assert_eq!(got.output.shape(), want.output.shape());
        let grad = Tensor3::filled(got.output.shape(), 1.0);
        let back = max_pool_backward(&grad, &got.argmax, n);
        for o in blocks {
            let corner = o * p;
            let ix = got.argmax[o] as usize;
            let in_block = p.iter().any(|d| n.offset(corner + d) == ix);
            assert!(in_block, "argmax {ix} of block {o} lies outside it");
            assert_eq!(back.as_slice()[ix], 1.0, "gradient of block {o}");
            if dead.iter().any(|&(b, _)| b == o) {
                assert_eq!(ix, n.offset(corner), "block {o} starts at its first voxel");
                assert_eq!(got.output[o], f32::NEG_INFINITY);
            } else {
                assert_eq!(got.argmax[o], want.argmax[o], "argmax of finite block {o}");
                assert_eq!(got.output[o].to_bits(), want.output[o].to_bits());
            }
        }
        assert_eq!(max_pool_reference(&x, p).argmax, got.argmax);
    }

    #[test]
    fn unit_pool_is_identity() {
        let img = random(Vec3::cube(3), 36);
        let r = max_pool(&img, Vec3::one());
        assert_eq!(r.output, img);
    }
}
