//! Property suite for the blocked/threaded kernels' determinism contract:
//! `matmul*`/`conv2d*`/`Conv2d` layer results must be **bit-identical** to
//! the frozen naive oracles in `cscnn::tensor::reference` at every thread
//! count, over randomized shapes, strides, paddings, groups and sparsity.
//!
//! Seeded via `CSCNN_PROP_SEED` (default 1), like the other property
//! suites; `ci.sh` runs this file under several seeds *and* several
//! `CSCNN_NUM_THREADS` settings. [`set_num_threads`] is a process-wide
//! knob, so tests in this binary race on it — which is itself part of the
//! property: because every thread count computes identical bits, the races
//! cannot change any expected value.

use cscnn::nn::{Conv2d, Layer};
use cscnn::tensor::{
    conv2d, conv2d_backward, conv2d_grouped, conv2d_grouped_backward, matmul, matmul_at, matmul_bt,
    reference, reset_num_threads, set_num_threads, ConvSpec, Tensor,
};
use cscnn_rng::rngs::StdRng;
use cscnn_rng::{Rng, SeedableRng};

/// Thread counts every property is checked under: single-threaded, the
/// smallest parallel count, and a prime that never divides the row blocks
/// evenly (worst case for the partition arithmetic).
const THREAD_COUNTS: [usize; 3] = [1, 2, 7];

fn prop_seed() -> u64 {
    std::env::var("CSCNN_PROP_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(1)
}

/// Tensor with elements uniform in [-2, 2), a fraction forced to exactly
/// `0.0` so the kernels' sparsity short-circuit is exercised on every run.
fn random_tensor(rng: &mut StdRng, dims: &[usize], zero_fraction: f64) -> Tensor {
    let n: usize = dims.iter().product();
    let v: Vec<f32> = (0..n)
        .map(|_| {
            if rng.gen_bool(zero_fraction) {
                0.0
            } else {
                (rng.next_u64() >> 40) as f32 / (1u64 << 24) as f32 * 4.0 - 2.0
            }
        })
        .collect();
    Tensor::from_vec(v, dims)
}

fn bits(t: &Tensor) -> Vec<u32> {
    t.as_slice().iter().map(|v| v.to_bits()).collect()
}

#[test]
fn matmul_variants_bit_match_reference_at_every_thread_count() {
    let seed = prop_seed();
    for case in 0..8u64 {
        let mut rng = StdRng::seed_from_u64(seed ^ (0x5a10_0000 + case));
        // Mix of sizes so every dispatch tier is hit: the direct small
        // path, the inline blocked path, and (last case) a GEMM big enough
        // to cross the parallel floor and actually spawn threads.
        let (m, k, n) = if case == 7 {
            (130, 70, 65)
        } else {
            (
                rng.gen_range(1..24),
                rng.gen_range(1..24),
                rng.gen_range(1..24),
            )
        };
        let a = random_tensor(&mut rng, &[m, k], 0.3);
        let b = random_tensor(&mut rng, &[k, n], 0.3);
        let at = random_tensor(&mut rng, &[k, m], 0.3);
        let bt = random_tensor(&mut rng, &[n, k], 0.3);
        let want = bits(&reference::matmul(&a, &b));
        let want_at = bits(&reference::matmul_at(&at, &b));
        let want_bt = bits(&reference::matmul_bt(&a, &bt));
        for t in THREAD_COUNTS {
            set_num_threads(t);
            assert_eq!(
                bits(&matmul(&a, &b)),
                want,
                "matmul {m}x{k}x{n} diverged at {t} threads (seed {seed}, case {case})"
            );
            assert_eq!(
                bits(&matmul_at(&at, &b)),
                want_at,
                "matmul_at {m}x{k}x{n} diverged at {t} threads (seed {seed}, case {case})"
            );
            assert_eq!(
                bits(&matmul_bt(&a, &bt)),
                want_bt,
                "matmul_bt {m}x{k}x{n} diverged at {t} threads (seed {seed}, case {case})"
            );
        }
    }
    reset_num_threads();
}

/// Random conv geometry: kernel, stride, padding, spatial dims that are
/// always mutually consistent (`h >= r`, so output dims stay positive).
fn random_spec(rng: &mut StdRng) -> (ConvSpec, usize, usize) {
    let r = rng.gen_range(1..4);
    let s = rng.gen_range(1..4);
    let spec = ConvSpec::new(r, s)
        .with_stride(rng.gen_range(1..3))
        .with_padding(rng.gen_range(0..2));
    let h = rng.gen_range(r..r + 9);
    let w = rng.gen_range(s..s + 9);
    (spec, h, w)
}

#[test]
fn conv2d_forward_and_backward_bit_match_reference_at_every_thread_count() {
    let seed = prop_seed();
    for case in 0..6u64 {
        let mut rng = StdRng::seed_from_u64(seed ^ (0xc0f0_0000 + case));
        let (spec, h, w) = random_spec(&mut rng);
        let n = rng.gen_range(1..3);
        let c = rng.gen_range(1..5);
        let k = rng.gen_range(1..6);
        let input = random_tensor(&mut rng, &[n, c, h, w], 0.3);
        let weight = random_tensor(&mut rng, &[k, c, spec.kernel_h, spec.kernel_w], 0.3);
        let bias = random_tensor(&mut rng, &[k], 0.0);
        let (oh, ow) = spec.output_dim(h, w);
        let grad_out = random_tensor(&mut rng, &[n, k, oh, ow], 0.3);
        let want = bits(&reference::conv2d(&input, &weight, &bias, &spec));
        let want_grads = reference::conv2d_backward(&input, &weight, &grad_out, &spec);
        for t in THREAD_COUNTS {
            set_num_threads(t);
            assert_eq!(
                bits(&conv2d(&input, &weight, &bias, &spec)),
                want,
                "conv2d {spec:?} [{n},{c},{h},{w}] diverged at {t} threads (seed {seed}, case {case})"
            );
            let got = conv2d_backward(&input, &weight, &grad_out, &spec);
            assert_eq!(
                bits(&got.input),
                bits(&want_grads.input),
                "input grad, case {case}, {t} threads"
            );
            assert_eq!(
                bits(&got.weight),
                bits(&want_grads.weight),
                "weight grad, case {case}, {t} threads"
            );
            assert_eq!(
                bits(&got.bias),
                bits(&want_grads.bias),
                "bias grad, case {case}, {t} threads"
            );
        }
    }
    reset_num_threads();
}

#[test]
fn grouped_fused_path_bit_matches_per_group_reference() {
    let seed = prop_seed();
    for case in 0..6u64 {
        let mut rng = StdRng::seed_from_u64(seed ^ (0x9409_0000 + case));
        let (spec, h, w) = random_spec(&mut rng);
        let groups = [1usize, 2, 4][rng.gen_range(0..3usize)];
        let c = groups * rng.gen_range(1..4usize);
        let k = groups * rng.gen_range(1..4usize);
        // Enough (batch × group) tasks that the task-parallel scheduling
        // path runs at the higher thread counts.
        let n = rng.gen_range(1..4);
        let input = random_tensor(&mut rng, &[n, c, h, w], 0.3);
        let weight = random_tensor(
            &mut rng,
            &[k, c / groups, spec.kernel_h, spec.kernel_w],
            0.3,
        );
        let bias = random_tensor(&mut rng, &[k], 0.0);
        let (oh, ow) = spec.output_dim(h, w);
        let grad_out = random_tensor(&mut rng, &[n, k, oh, ow], 0.3);
        // The reference implementation *is* the per-group loop: it slices
        // each group's channels out and runs the naive dense kernel.
        let want = bits(&reference::conv2d_grouped(
            &input, &weight, &bias, &spec, groups,
        ));
        let want_grads =
            reference::conv2d_grouped_backward(&input, &weight, &grad_out, &spec, groups);
        for t in THREAD_COUNTS {
            set_num_threads(t);
            assert_eq!(
                bits(&conv2d_grouped(&input, &weight, &bias, &spec, groups)),
                want,
                "conv2d_grouped g={groups} diverged at {t} threads (seed {seed}, case {case})"
            );
            let got = conv2d_grouped_backward(&input, &weight, &grad_out, &spec, groups);
            assert_eq!(
                bits(&got.input),
                bits(&want_grads.input),
                "input grad, case {case}, {t} threads"
            );
            assert_eq!(
                bits(&got.weight),
                bits(&want_grads.weight),
                "weight grad, case {case}, {t} threads"
            );
            assert_eq!(
                bits(&got.bias),
                bits(&want_grads.bias),
                "bias grad, case {case}, {t} threads"
            );
        }
    }
    reset_num_threads();
}

#[test]
fn depthwise_conv_bit_matches_reference() {
    let seed = prop_seed();
    for case in 0..4u64 {
        let mut rng = StdRng::seed_from_u64(seed ^ (0xd3b7_0000 + case));
        let c = rng.gen_range(2..9);
        let spec = ConvSpec::new(3, 3).with_padding(1);
        let input = random_tensor(&mut rng, &[2, c, 8, 8], 0.3);
        let weight = random_tensor(&mut rng, &[c, 1, 3, 3], 0.3);
        let bias = random_tensor(&mut rng, &[c], 0.0);
        let want = bits(&reference::conv2d_grouped(&input, &weight, &bias, &spec, c));
        for t in THREAD_COUNTS {
            set_num_threads(t);
            assert_eq!(
                bits(&conv2d_grouped(&input, &weight, &bias, &spec, c)),
                want,
                "depthwise C={c} diverged at {t} threads (seed {seed}, case {case})"
            );
        }
    }
    reset_num_threads();
}

#[test]
fn conv_scratch_reuse_bit_matches_free_functions() {
    let seed = prop_seed();
    for case in 0..3u64 {
        let mut rng = StdRng::seed_from_u64(seed ^ (0x5c3a_0000 + case));
        let (spec, h, w) = random_spec(&mut rng);
        let groups = [1usize, 2][rng.gen_range(0..2usize)];
        let c = groups * rng.gen_range(1..4usize);
        let k = groups * rng.gen_range(1..4usize);
        let weight = random_tensor(
            &mut rng,
            &[k, c / groups, spec.kernel_h, spec.kernel_w],
            0.3,
        );
        let bias = random_tensor(&mut rng, &[k], 0.0);
        let mut layer = Conv2d::grouped(&mut rng, c, k, spec, groups);
        layer.weight_mut().value = weight.clone();
        layer.params_mut()[1].value = bias.clone();
        // Two training-style steps on different inputs: the layer's
        // backward runs on its forward's lowering; the second input must
        // replace the first's lowering, not reuse it.
        for step in 0..2u64 {
            let mut rng_step = StdRng::seed_from_u64(seed ^ (case << 8) ^ step);
            let input = random_tensor(&mut rng_step, &[2, c, h, w], 0.3);
            let (oh, ow) = spec.output_dim(h, w);
            let grad_out = random_tensor(&mut rng_step, &[2, k, oh, ow], 0.3);
            let want = bits(&conv2d_grouped(&input, &weight, &bias, &spec, groups));
            let want_grads = conv2d_grouped_backward(&input, &weight, &grad_out, &spec, groups);
            for t in THREAD_COUNTS {
                set_num_threads(t);
                let out = layer.forward(&input);
                assert_eq!(bits(&out), want, "layer forward, step {step}, {t} threads");
                let got_input = layer.backward(&grad_out);
                assert_eq!(bits(&got_input), bits(&want_grads.input), "step {step}");
                let params = layer.params();
                assert_eq!(
                    bits(&params[0].grad),
                    bits(&want_grads.weight),
                    "step {step}"
                );
                assert_eq!(bits(&params[1].grad), bits(&want_grads.bias), "step {step}");
            }
        }
    }
    reset_num_threads();
}
