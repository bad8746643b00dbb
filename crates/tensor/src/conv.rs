//! 2-D convolution, forward and backward, via im2col.
//!
//! Tensor layouts follow the paper's notation (§II-A): inputs are
//! `[N, C, H, W]`, filters are `[K, C, R, S]`, outputs are `[N, K, H', W']`.
//!
//! # Lowering architecture
//!
//! All convolution entry points run over a [`ConvLowering`]: the input is
//! lowered **once** into a block-contiguous im2col buffer holding one
//! `[C/g·R·S, H'·W']` column block per `(batch item, group)` task, and
//! both the forward GEMMs and all three backward GEMMs read from that
//! single buffer. Whoever owns the lowering decides how long it lives: the
//! free functions lower per call, while a `Conv2d` layer of `cscnn-nn`
//! keeps one, re-lowers each forward input into its buffer with
//! [`ConvLowering::lower_into`] and runs its backward on it, so a training
//! step lowers each input exactly once and never reallocates at a fixed
//! geometry. The GEMMs themselves are the cache-blocked multithreaded
//! kernels in [`crate::kernels`]; when a batch offers enough
//! `(item × group)` tasks the work is parallelized across tasks instead
//! (whole output chunks per thread), which keeps every output element
//! single-writer.
//!
//! Results are **bit-identical** to the naive per-item / per-group
//! reference implementations in [`crate::reference`] at every thread
//! count; see `docs/kernels.md` for why the accumulation orders match.

use crate::kernels::{self, Lhs, Rhs};
use crate::{threads, Tensor};

/// Static description of a convolution: filter geometry, stride and padding.
///
/// # Example
///
/// ```
/// use cscnn_tensor::ConvSpec;
///
/// let spec = ConvSpec::new(3, 3).with_stride(1).with_padding(1);
/// assert_eq!(spec.output_dim(32, 32), (32, 32)); // "same" convolution
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ConvSpec {
    /// Filter height (`R` in the paper).
    pub kernel_h: usize,
    /// Filter width (`S` in the paper).
    pub kernel_w: usize,
    /// Stride in both spatial dimensions.
    pub stride: usize,
    /// Zero padding on every spatial border.
    pub padding: usize,
}

impl ConvSpec {
    /// Creates a unit-stride, unpadded convolution spec.
    ///
    /// # Panics
    ///
    /// Panics if either kernel extent is zero.
    pub fn new(kernel_h: usize, kernel_w: usize) -> Self {
        assert!(
            kernel_h > 0 && kernel_w > 0,
            "kernel extents must be positive"
        );
        ConvSpec {
            kernel_h,
            kernel_w,
            stride: 1,
            padding: 0,
        }
    }

    /// Sets the stride.
    ///
    /// # Panics
    ///
    /// Panics if `stride == 0`.
    pub fn with_stride(mut self, stride: usize) -> Self {
        assert!(stride > 0, "stride must be positive");
        self.stride = stride;
        self
    }

    /// Sets the zero padding.
    pub fn with_padding(mut self, padding: usize) -> Self {
        self.padding = padding;
        self
    }

    /// Output spatial extent for an `(h, w)` input.
    ///
    /// # Panics
    ///
    /// Panics if the padded input is smaller than the kernel.
    pub fn output_dim(&self, h: usize, w: usize) -> (usize, usize) {
        let ph = h + 2 * self.padding;
        let pw = w + 2 * self.padding;
        assert!(
            ph >= self.kernel_h && pw >= self.kernel_w,
            "input {h}x{w} (+pad {}) smaller than kernel {}x{}",
            self.padding,
            self.kernel_h,
            self.kernel_w
        );
        (
            (ph - self.kernel_h) / self.stride + 1,
            (pw - self.kernel_w) / self.stride + 1,
        )
    }
}

/// Gradients produced by [`conv2d_backward`].
#[derive(Debug, Clone)]
pub struct Conv2dGrads {
    /// Gradient w.r.t. the layer input, `[N, C, H, W]`.
    pub input: Tensor,
    /// Gradient w.r.t. the filters, `[K, C, R, S]`.
    pub weight: Tensor,
    /// Gradient w.r.t. the bias, `[K]`.
    pub bias: Tensor,
}

/// Cap on the transient per-task partial-gradient buffer (in f32 slots,
/// 64 Mi ≈ 256 MB) that the task-parallel backward path may allocate;
/// above it the backward falls back to the sequential-tasks path whose
/// GEMMs are internally parallel instead.
const PART_BUDGET_FLOATS: usize = 1 << 26;

/// One input tensor lowered to im2col form, so that no input is lowered
/// twice.
///
/// The buffer holds `N·groups` contiguous blocks in `(item, group)`-major
/// order; block `(ni, g)` is the `[C/g·R·S, H'·W']` column matrix of batch
/// item `ni` restricted to input-channel group `g`. [`ConvLowering::forward`]
/// and [`ConvLowering::backward`] both consume it, so callers that keep the
/// lowering around pay the im2col cost once per input instead of once per
/// direction.
///
/// # Example
///
/// ```
/// use cscnn_tensor::{ConvLowering, ConvSpec, Tensor};
///
/// let spec = ConvSpec::new(3, 3).with_padding(1);
/// let input = Tensor::full(&[2, 4, 8, 8], 0.5);
/// let weight = Tensor::full(&[6, 4, 3, 3], 0.1);
/// let bias = Tensor::zeros(&[6]);
/// let lowering = ConvLowering::lower(&input, &spec, 1);
/// let out = lowering.forward(&weight, &bias);          // uses the lowering
/// let grad = Tensor::full(out.shape().dims(), 1.0);
/// let grads = lowering.backward(&weight, &grad);       // reuses it — no re-lower
/// assert_eq!(grads.input.shape().dims(), &[2, 4, 8, 8]);
/// ```
#[derive(Debug, Clone)]
pub struct ConvLowering {
    /// `n·groups` blocks of `rows_g·cols_len` each, `(item, group)`-major.
    cols: Vec<f32>,
    n: usize,
    c: usize,
    h: usize,
    w: usize,
    groups: usize,
    oh: usize,
    ow: usize,
    spec: ConvSpec,
}

impl ConvLowering {
    /// Lowers `input` (`[N, C, H, W]`) for a convolution with `spec` and
    /// `groups` input-channel groups.
    ///
    /// # Panics
    ///
    /// Panics if `input` is not rank 4, `groups` is zero or does not
    /// divide `C`, or the padded input is smaller than the kernel.
    pub fn lower(input: &Tensor, spec: &ConvSpec, groups: usize) -> Self {
        let mut lowering = ConvLowering {
            cols: Vec::new(),
            n: 0,
            c: 0,
            h: 0,
            w: 0,
            groups: 1,
            oh: 0,
            ow: 0,
            spec: *spec,
        };
        lowering.lower_into(input, spec, groups);
        lowering
    }

    /// Re-lowers into `self`, reusing the column buffer's allocation when
    /// the geometry still fits. Semantically identical to replacing `self`
    /// with [`ConvLowering::lower`]`(input, spec, groups)`.
    ///
    /// # Panics
    ///
    /// As [`ConvLowering::lower`].
    pub fn lower_into(&mut self, input: &Tensor, spec: &ConvSpec, groups: usize) {
        let (n, c, h, w) = dims4(input, "conv lowering input");
        assert!(groups > 0, "groups must be positive");
        assert!(c % groups == 0, "groups={groups} must divide C={c}");
        let (oh, ow) = spec.output_dim(h, w);
        let cg = c / groups;
        let rows_g = cg * spec.kernel_h * spec.kernel_w;
        let cols_len = oh * ow;
        let total = n * groups * rows_g * cols_len;
        self.cols.clear();
        self.cols.resize(total, 0.0);
        (self.n, self.c, self.h, self.w) = (n, c, h, w);
        self.groups = groups;
        (self.oh, self.ow) = (oh, ow);
        self.spec = *spec;
        let src = input.as_slice();
        let block_len = rows_g * cols_len;
        let t = threads::num_threads();
        let spec = *spec;
        kernels::parallel_chunks(&mut self.cols, block_len, t, |task, block| {
            let (ni, g) = (task / groups, task % groups);
            let base = (ni * c + g * cg) * h * w;
            im2col_block(block, src, base, cg, h, w, &spec, oh, ow);
        });
    }

    /// The `(ni, g)` column block, `[C/g·R·S, H'·W']` row-major.
    fn block(&self, ni: usize, g: usize) -> &[f32] {
        let cg = self.c / self.groups;
        let block_len = cg * self.spec.kernel_h * self.spec.kernel_w * self.oh * self.ow;
        let at = (ni * self.groups + g) * block_len;
        &self.cols[at..at + block_len]
    }

    /// Validates `weight` against the lowered geometry, returning
    /// `(k, kg, rows_g, cols_len)`.
    fn weight_geometry(&self, weight: &Tensor, what: &str) -> (usize, usize, usize, usize) {
        let (k, wc, wr, ws) = dims4(weight, what);
        let cg = self.c / self.groups;
        assert_eq!(
            wc, cg,
            "channel mismatch: weight C={wc} must be C/groups={cg}"
        );
        assert_eq!(
            (wr, ws),
            (self.spec.kernel_h, self.spec.kernel_w),
            "weight spatial dims disagree with spec"
        );
        assert!(
            k % self.groups == 0,
            "groups={} must divide K={k}",
            self.groups
        );
        (k, k / self.groups, cg * wr * ws, self.oh * self.ow)
    }

    /// Forward convolution over the lowered input: `[N, K, H', W']`.
    ///
    /// `weight` is `[K, C/groups, R, S]`, `bias` is `[K]`. Bit-identical
    /// to [`crate::reference::conv2d_grouped`] on the lowered input.
    ///
    /// # Panics
    ///
    /// Panics if `weight`/`bias` disagree with the lowered geometry.
    pub fn forward(&self, weight: &Tensor, bias: &Tensor) -> Tensor {
        let (k, kg, rows_g, cols_len) = self.weight_geometry(weight, "conv2d weight");
        assert_eq!(bias.len(), k, "bias length must equal K={k}");
        let (n, groups) = (self.n, self.groups);
        let mut out = Tensor::zeros(&[n, k, self.oh, self.ow]);
        let wv = weight.as_slice();
        let bias_v = bias.as_slice();
        let tasks = n * groups;
        let chunk = kg * cols_len;
        let t = threads::num_threads();
        // Each (item, group) task owns the contiguous output chunk
        // [ni, g·kg..(g+1)·kg, :, :]; with enough tasks, parallelize
        // across them (serial GEMM per task), otherwise run the tasks
        // sequentially with internally parallel GEMMs. Both schedules
        // compute every element with the same reduction order.
        let task_parallel = t > 1 && tasks >= t;
        let run = |task: usize, dst: &mut [f32], budget: usize| {
            let (ni, g) = (task / groups, task % groups);
            let wg = &wv[g * kg * rows_g..(g + 1) * kg * rows_g];
            let col = self.block(ni, g);
            kernels::gemm_with_threads(
                Lhs::RowMajor,
                Rhs::RowMajor,
                wg,
                col,
                kg,
                rows_g,
                cols_len,
                dst,
                budget,
            );
            for kl in 0..kg {
                let b = bias_v[g * kg + kl];
                for d in &mut dst[kl * cols_len..(kl + 1) * cols_len] {
                    *d += b;
                }
            }
        };
        if task_parallel {
            kernels::parallel_chunks(out.as_mut_slice(), chunk, t, |task, dst| {
                run(task, dst, 1);
            });
        } else {
            let dst = out.as_mut_slice();
            for task in 0..tasks {
                run(task, &mut dst[task * chunk..(task + 1) * chunk], t);
            }
        }
        out
    }

    /// Backward convolution over the lowered input (no re-lowering).
    ///
    /// `weight` is `[K, C/groups, R, S]`; `grad_out` is `[N, K, H', W']`.
    /// Bit-identical to [`crate::reference::conv2d_grouped_backward`] on
    /// the lowered input: per-task partial gradients are reduced in
    /// ascending batch order within each group.
    ///
    /// # Panics
    ///
    /// Panics if `weight`/`grad_out` disagree with the lowered geometry.
    pub fn backward(&self, weight: &Tensor, grad_out: &Tensor) -> Conv2dGrads {
        let (k, kg, rows_g, cols_len) = self.weight_geometry(weight, "conv2d_backward weight");
        let (n, c, h, w, groups) = (self.n, self.c, self.h, self.w, self.groups);
        let cg = c / groups;
        assert_eq!(
            grad_out.shape().dims(),
            &[n, k, self.oh, self.ow],
            "grad_out shape mismatch"
        );
        let mut d_input = Tensor::zeros(&[n, c, h, w]);
        let mut d_weight = vec![0.0f32; k * rows_g];
        let mut d_bias = vec![0.0f32; k];
        let gov = grad_out.as_slice();
        let wv = weight.as_slice();
        let tasks = n * groups;
        // Per-task partials: a [kg, rows_g] dW block followed by kg dBias
        // slots. Kept out of the shared gradients so the parallel path can
        // reduce them in the exact order the sequential path uses.
        let part_len = kg * rows_g + kg;
        let spec = self.spec;
        let t = threads::num_threads();
        let compute =
            |task: usize, din: &mut [f32], dw_part: &mut [f32], db_part: &mut [f32], budget| {
                let (ni, g) = (task / groups, task % groups);
                let goslab = &gov[(ni * k + g * kg) * cols_len..(ni * k + (g + 1) * kg) * cols_len];
                let wg = &wv[g * kg * rows_g..(g + 1) * kg * rows_g];
                let col = self.block(ni, g);
                // dW part = dOut · colᵀ (reference: matmul_bt(go, col)).
                kernels::gemm_with_threads(
                    Lhs::RowMajor,
                    Rhs::Transposed,
                    goslab,
                    col,
                    kg,
                    cols_len,
                    rows_g,
                    dw_part,
                    budget,
                );
                // dCol = Wᵀ · dOut (reference: matmul_at(w, go)), scattered
                // back into this task's disjoint d_input chunk.
                let mut d_col = vec![0.0f32; rows_g * cols_len];
                kernels::gemm_with_threads(
                    Lhs::Transposed,
                    Rhs::RowMajor,
                    wg,
                    goslab,
                    rows_g,
                    kg,
                    cols_len,
                    &mut d_col,
                    budget,
                );
                col2im_block(&d_col, din, cg, h, w, &spec, self.oh, self.ow);
                // dBias part = row sums of dOut, in the reference's order.
                for (kl, db) in db_part.iter_mut().enumerate() {
                    let s: f32 = goslab[kl * cols_len..(kl + 1) * cols_len].iter().sum();
                    *db = s;
                }
            };
        let din_chunk = cg * h * w;
        if t > 1 && tasks >= t && tasks * part_len <= PART_BUDGET_FLOATS {
            let mut parts = vec![0.0f32; tasks * part_len];
            kernels::parallel_chunk_pairs(
                d_input.as_mut_slice(),
                din_chunk,
                &mut parts,
                part_len,
                t,
                |task, din, part| {
                    let (dw_part, db_part) = part.split_at_mut(kg * rows_g);
                    compute(task, din, dw_part, db_part, 1);
                },
            );
            for (task, part) in parts.chunks(part_len).enumerate() {
                reduce_part(task, part, groups, kg, rows_g, &mut d_weight, &mut d_bias);
            }
        } else {
            let din = d_input.as_mut_slice();
            let mut part = vec![0.0f32; part_len];
            for task in 0..tasks {
                part.fill(0.0);
                let (dw_part, db_part) = part.split_at_mut(kg * rows_g);
                let chunk = &mut din[task * din_chunk..(task + 1) * din_chunk];
                compute(task, chunk, dw_part, db_part, t);
                reduce_part(task, &part, groups, kg, rows_g, &mut d_weight, &mut d_bias);
            }
        }
        Conv2dGrads {
            input: d_input,
            weight: Tensor::from_vec(d_weight, &[k, cg, self.spec.kernel_h, self.spec.kernel_w]),
            bias: Tensor::from_vec(d_bias, &[k]),
        }
    }
}

/// Folds one task's `(dW part, dBias part)` into the shared gradients.
/// Called in ascending task order, which is ascending batch order within
/// each group — the reference reduction order.
fn reduce_part(
    task: usize,
    part: &[f32],
    groups: usize,
    kg: usize,
    rows_g: usize,
    d_weight: &mut [f32],
    d_bias: &mut [f32],
) {
    let g = task % groups;
    let (dw_part, db_part) = part.split_at(kg * rows_g);
    let dw = &mut d_weight[g * kg * rows_g..(g + 1) * kg * rows_g];
    for (d, &p) in dw.iter_mut().zip(dw_part) {
        *d += p;
    }
    let db = &mut d_bias[g * kg..(g + 1) * kg];
    for (d, &p) in db.iter_mut().zip(db_part) {
        *d += p;
    }
}

/// Lowers channels `[0, cg)` at flat offset `base` of an image into a
/// (pre-zeroed) `[cg·R·S, H'·W']` column block.
#[allow(clippy::too_many_arguments)]
fn im2col_block(
    block: &mut [f32],
    src: &[f32],
    base: usize,
    cg: usize,
    h: usize,
    w: usize,
    spec: &ConvSpec,
    oh: usize,
    ow: usize,
) {
    let cols = oh * ow;
    let pad = spec.padding as isize;
    for ci in 0..cg {
        for r in 0..spec.kernel_h {
            for s in 0..spec.kernel_w {
                let row = (ci * spec.kernel_h + r) * spec.kernel_w + s;
                let out_row = &mut block[row * cols..(row + 1) * cols];
                for oy in 0..oh {
                    let iy = (oy * spec.stride) as isize + r as isize - pad;
                    if iy < 0 || iy >= h as isize {
                        continue;
                    }
                    let src_row = base + (ci * h + iy as usize) * w;
                    for ox in 0..ow {
                        let ix = (ox * spec.stride) as isize + s as isize - pad;
                        if ix < 0 || ix >= w as isize {
                            continue;
                        }
                        out_row[oy * ow + ox] = src[src_row + ix as usize];
                    }
                }
            }
        }
    }
}

/// Scatter-adds a `[cg·R·S, H'·W']` column-gradient block into a
/// `[cg, H, W]` image chunk.
#[allow(clippy::too_many_arguments)]
fn col2im_block(
    col: &[f32],
    dst: &mut [f32],
    cg: usize,
    h: usize,
    w: usize,
    spec: &ConvSpec,
    oh: usize,
    ow: usize,
) {
    let cols = oh * ow;
    let pad = spec.padding as isize;
    for ci in 0..cg {
        for r in 0..spec.kernel_h {
            for s in 0..spec.kernel_w {
                let row = (ci * spec.kernel_h + r) * spec.kernel_w + s;
                let src_row = &col[row * cols..(row + 1) * cols];
                for oy in 0..oh {
                    let iy = (oy * spec.stride) as isize + r as isize - pad;
                    if iy < 0 || iy >= h as isize {
                        continue;
                    }
                    let dst_row = (ci * h + iy as usize) * w;
                    for ox in 0..ow {
                        let ix = (ox * spec.stride) as isize + s as isize - pad;
                        if ix < 0 || ix >= w as isize {
                            continue;
                        }
                        dst[dst_row + ix as usize] += src_row[oy * ow + ox];
                    }
                }
            }
        }
    }
}

/// Forward 2-D convolution.
///
/// `input` is `[N, C, H, W]`, `weight` is `[K, C, R, S]`, `bias` is `[K]`;
/// returns `[N, K, H', W']`. Lowers the input for this one call; keep a
/// [`ConvLowering`] instead to share the lowering with the backward pass.
///
/// # Panics
///
/// Panics if any shape is inconsistent with `spec`.
///
/// # Example
///
/// ```
/// use cscnn_tensor::{conv2d, ConvSpec, Tensor};
///
/// let input = Tensor::full(&[1, 1, 3, 3], 1.0);
/// let weight = Tensor::full(&[1, 1, 3, 3], 1.0);
/// let bias = Tensor::zeros(&[1]);
/// let out = conv2d(&input, &weight, &bias, &ConvSpec::new(3, 3));
/// assert_eq!(out.as_slice(), &[9.0]);
/// ```
pub fn conv2d(input: &Tensor, weight: &Tensor, bias: &Tensor, spec: &ConvSpec) -> Tensor {
    ConvLowering::lower(input, spec, 1).forward(weight, bias)
}

/// Backward 2-D convolution: gradients w.r.t. input, weight and bias.
///
/// `grad_out` must be `[N, K, H', W']` for the same `input`/`weight`/`spec`
/// that produced the forward output. This free function lowers the input
/// itself; run [`ConvLowering::backward`] on the forward pass's lowering to
/// reuse it instead.
///
/// # Panics
///
/// Panics on shape mismatch.
pub fn conv2d_backward(
    input: &Tensor,
    weight: &Tensor,
    grad_out: &Tensor,
    spec: &ConvSpec,
) -> Conv2dGrads {
    ConvLowering::lower(input, spec, 1).backward(weight, grad_out)
}

/// Forward grouped 2-D convolution (`groups == C` is depthwise).
///
/// `input` is `[N, C, H, W]`, `weight` is `[K, C/groups, R, S]`, `bias` is
/// `[K]`; returns `[N, K, H', W']`. With `groups == 1` this is exactly
/// [`conv2d`]. Filters `K/groups·g .. K/groups·(g+1)` see only input
/// channels `C/groups·g .. C/groups·(g+1)`. All groups are lowered into
/// one fused buffer and the `(batch × group)` tasks run in parallel.
///
/// # Panics
///
/// Panics if any shape is inconsistent with `spec` or `groups` does not
/// divide the channel counts.
pub fn conv2d_grouped(
    input: &Tensor,
    weight: &Tensor,
    bias: &Tensor,
    spec: &ConvSpec,
    groups: usize,
) -> Tensor {
    ConvLowering::lower(input, spec, groups).forward(weight, bias)
}

/// Backward grouped 2-D convolution: gradients w.r.t. input, weight and
/// bias. With `groups == 1` this is exactly [`conv2d_backward`].
///
/// # Panics
///
/// Panics on shape mismatch.
pub fn conv2d_grouped_backward(
    input: &Tensor,
    weight: &Tensor,
    grad_out: &Tensor,
    spec: &ConvSpec,
    groups: usize,
) -> Conv2dGrads {
    ConvLowering::lower(input, spec, groups).backward(weight, grad_out)
}

fn dims4(t: &Tensor, what: &str) -> (usize, usize, usize, usize) {
    assert_eq!(
        t.shape().rank(),
        4,
        "{what} must be rank 4, got {}",
        t.shape()
    );
    let d = t.shape().dims();
    (d[0], d[1], d[2], d[3])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seq(dims: &[usize], scale: f32) -> Tensor {
        Tensor::from_fn(dims, |i| ((i as f32) * scale).sin())
    }

    fn bits(t: &Tensor) -> Vec<u32> {
        t.as_slice().iter().map(|v| v.to_bits()).collect()
    }

    /// Direct (loop-nest) convolution used as a reference.
    fn conv_ref(input: &Tensor, weight: &Tensor, bias: &Tensor, spec: &ConvSpec) -> Tensor {
        let d = input.shape().dims();
        let (n, c, h, w) = (d[0], d[1], d[2], d[3]);
        let wd = weight.shape().dims();
        let k = wd[0];
        let (oh, ow) = spec.output_dim(h, w);
        let mut out = Tensor::zeros(&[n, k, oh, ow]);
        for ni in 0..n {
            for ki in 0..k {
                for oy in 0..oh {
                    for ox in 0..ow {
                        let mut acc = bias.at(&[ki]);
                        for ci in 0..c {
                            for r in 0..spec.kernel_h {
                                for s in 0..spec.kernel_w {
                                    let iy =
                                        (oy * spec.stride + r) as isize - spec.padding as isize;
                                    let ix =
                                        (ox * spec.stride + s) as isize - spec.padding as isize;
                                    if iy < 0 || ix < 0 || iy >= h as isize || ix >= w as isize {
                                        continue;
                                    }
                                    acc += input.at(&[ni, ci, iy as usize, ix as usize])
                                        * weight.at(&[ki, ci, r, s]);
                                }
                            }
                        }
                        out.set(&[ni, ki, oy, ox], acc);
                    }
                }
            }
        }
        out
    }

    #[test]
    fn forward_matches_reference_padded_strided() {
        for &(stride, padding) in &[(1usize, 0usize), (1, 1), (2, 1), (2, 0)] {
            let spec = ConvSpec::new(3, 3)
                .with_stride(stride)
                .with_padding(padding);
            let input = seq(&[2, 3, 7, 8], 0.13);
            let weight = seq(&[4, 3, 3, 3], 0.29);
            let bias = seq(&[4], 0.7);
            let got = conv2d(&input, &weight, &bias, &spec);
            let want = conv_ref(&input, &weight, &bias, &spec);
            assert_eq!(got.shape(), want.shape());
            for (g, v) in got.as_slice().iter().zip(want.as_slice()) {
                assert!((g - v).abs() < 1e-4, "stride={stride} pad={padding}");
            }
        }
    }

    #[test]
    fn forward_and_backward_bit_match_naive_oracle() {
        let spec = ConvSpec::new(3, 3).with_stride(2).with_padding(1);
        let input = seq(&[3, 5, 9, 11], 0.13);
        let weight = seq(&[4, 5, 3, 3], 0.29);
        let bias = seq(&[4], 0.7);
        let fast = conv2d(&input, &weight, &bias, &spec);
        let slow = crate::reference::conv2d(&input, &weight, &bias, &spec);
        assert_eq!(bits(&fast), bits(&slow));

        let go = Tensor::from_fn(fast.shape().dims(), |i| ((i as f32) * 0.17).cos());
        let fast = conv2d_backward(&input, &weight, &go, &spec);
        let slow = crate::reference::conv2d_backward(&input, &weight, &go, &spec);
        assert_eq!(bits(&fast.input), bits(&slow.input));
        assert_eq!(bits(&fast.weight), bits(&slow.weight));
        assert_eq!(bits(&fast.bias), bits(&slow.bias));
    }

    #[test]
    fn grouped_bit_matches_naive_oracle() {
        for &(c, k, groups) in &[(6usize, 6usize, 3usize), (4, 4, 4), (8, 4, 2)] {
            let spec = ConvSpec::new(3, 3).with_padding(1);
            let input = seq(&[2, c, 6, 7], 0.19);
            let weight = seq(&[k, c / groups, 3, 3], 0.37);
            let bias = seq(&[k], 0.61);
            let fast = conv2d_grouped(&input, &weight, &bias, &spec, groups);
            let slow = crate::reference::conv2d_grouped(&input, &weight, &bias, &spec, groups);
            assert_eq!(bits(&fast), bits(&slow), "c={c} k={k} g={groups}");

            let go = Tensor::from_fn(fast.shape().dims(), |i| ((i as f32) * 0.11).cos());
            let fast = conv2d_grouped_backward(&input, &weight, &go, &spec, groups);
            let slow =
                crate::reference::conv2d_grouped_backward(&input, &weight, &go, &spec, groups);
            assert_eq!(bits(&fast.input), bits(&slow.input));
            assert_eq!(bits(&fast.weight), bits(&slow.weight));
            assert_eq!(bits(&fast.bias), bits(&slow.bias));
        }
    }

    #[test]
    fn shared_lowering_matches_free_functions() {
        let spec = ConvSpec::new(3, 3).with_stride(2).with_padding(1);
        let input = seq(&[2, 6, 8, 8], 0.19);
        let weight = seq(&[4, 3, 3, 3], 0.37);
        let bias = seq(&[4], 0.61);
        let lowering = ConvLowering::lower(&input, &spec, 2);
        let out = lowering.forward(&weight, &bias);
        assert_eq!(
            bits(&out),
            bits(&conv2d_grouped(&input, &weight, &bias, &spec, 2))
        );
        let go = Tensor::from_fn(out.shape().dims(), |i| ((i as f32) * 0.13).sin());
        let grads = lowering.backward(&weight, &go);
        let want = conv2d_grouped_backward(&input, &weight, &go, &spec, 2);
        assert_eq!(bits(&grads.input), bits(&want.input));
        assert_eq!(bits(&grads.weight), bits(&want.weight));
        assert_eq!(bits(&grads.bias), bits(&want.bias));
    }

    #[test]
    fn backward_matches_finite_differences() {
        let spec = ConvSpec::new(3, 3).with_padding(1);
        let input = seq(&[1, 2, 5, 5], 0.17);
        let weight = seq(&[3, 2, 3, 3], 0.31);
        let bias = seq(&[3], 0.5);
        // Loss = sum of outputs; dLoss/dOut = 1 everywhere.
        let out = conv2d(&input, &weight, &bias, &spec);
        let go = Tensor::full(out.shape().dims(), 1.0);
        let grads = conv2d_backward(&input, &weight, &go, &spec);

        let eps = 5e-3;
        // Spot-check weight gradient entries with central differences.
        for &idx in &[0usize, 7, 23, 53] {
            let mut wp = weight.clone();
            wp.as_mut_slice()[idx] += eps;
            let mut wm = weight.clone();
            wm.as_mut_slice()[idx] -= eps;
            let lp = conv2d(&input, &wp, &bias, &spec).sum();
            let lm = conv2d(&input, &wm, &bias, &spec).sum();
            let fd = (lp - lm) / (2.0 * eps);
            let an = grads.weight.as_slice()[idx];
            assert!((fd - an).abs() < 3e-2, "weight[{idx}]: fd={fd} an={an}");
        }
        // Spot-check input gradient entries.
        for &idx in &[0usize, 11, 31, 49] {
            let mut ip = input.clone();
            ip.as_mut_slice()[idx] += eps;
            let mut im = input.clone();
            im.as_mut_slice()[idx] -= eps;
            let lp = conv2d(&ip, &weight, &bias, &spec).sum();
            let lm = conv2d(&im, &weight, &bias, &spec).sum();
            let fd = (lp - lm) / (2.0 * eps);
            let an = grads.input.as_slice()[idx];
            assert!((fd - an).abs() < 3e-2, "input[{idx}]: fd={fd} an={an}");
        }
        // Bias gradient of a sum loss is the number of output pixels per k.
        let per_k = out.len() as f32 / 3.0;
        for &g in grads.bias.as_slice() {
            assert!((g - per_k).abs() < 1e-3);
        }
    }

    #[test]
    fn output_dim_math() {
        let spec = ConvSpec::new(11, 11).with_stride(4).with_padding(2);
        assert_eq!(spec.output_dim(224, 224), (55, 55));
    }

    /// Expands a grouped `[K, C/g, R, S]` weight to the block-diagonal
    /// dense `[K, C, R, S]` equivalent.
    fn expand_grouped_weight(weight: &Tensor, c: usize, groups: usize) -> Tensor {
        let wd = weight.shape().dims();
        let (k, cg, r, s) = (wd[0], wd[1], wd[2], wd[3]);
        assert_eq!(cg, c / groups);
        let kg = k / groups;
        let mut dense = Tensor::zeros(&[k, c, r, s]);
        for ki in 0..k {
            let g = ki / kg;
            for ci in 0..cg {
                for ri in 0..r {
                    for si in 0..s {
                        dense.set(&[ki, g * cg + ci, ri, si], weight.at(&[ki, ci, ri, si]));
                    }
                }
            }
        }
        dense
    }

    #[test]
    fn grouped_forward_matches_block_diagonal_dense() {
        for &(c, k, groups, stride, padding) in &[
            (4usize, 6usize, 2usize, 1usize, 1usize),
            (6, 6, 6, 1, 1),
            (4, 4, 4, 2, 1),
        ] {
            let spec = ConvSpec::new(3, 3)
                .with_stride(stride)
                .with_padding(padding);
            let input = seq(&[2, c, 6, 6], 0.19);
            let weight = seq(&[k, c / groups, 3, 3], 0.37);
            let bias = seq(&[k], 0.61);
            let got = conv2d_grouped(&input, &weight, &bias, &spec, groups);
            let dense = expand_grouped_weight(&weight, c, groups);
            let want = conv2d(&input, &dense, &bias, &spec);
            assert_eq!(got.shape(), want.shape());
            for (g, v) in got.as_slice().iter().zip(want.as_slice()) {
                assert!((g - v).abs() < 1e-4, "c={c} k={k} groups={groups}");
            }
        }
    }

    #[test]
    fn grouped_backward_matches_block_diagonal_dense() {
        let (c, k, groups) = (6usize, 6usize, 3usize);
        let spec = ConvSpec::new(3, 3).with_padding(1);
        let input = seq(&[2, c, 5, 5], 0.23);
        let weight = seq(&[k, c / groups, 3, 3], 0.41);
        let bias = seq(&[k], 0.3);
        let out = conv2d_grouped(&input, &weight, &bias, &spec, groups);
        let go = Tensor::from_fn(out.shape().dims(), |i| ((i as f32) * 0.11).cos());
        let grads = conv2d_grouped_backward(&input, &weight, &go, &spec, groups);

        let dense = expand_grouped_weight(&weight, c, groups);
        let dense_grads = conv2d_backward(&input, &dense, &go, &spec);
        for (g, v) in grads
            .input
            .as_slice()
            .iter()
            .zip(dense_grads.input.as_slice())
        {
            assert!((g - v).abs() < 1e-4);
        }
        for (g, v) in grads
            .bias
            .as_slice()
            .iter()
            .zip(dense_grads.bias.as_slice())
        {
            assert!((g - v).abs() < 1e-3);
        }
        // The grouped weight gradient equals the dense gradient at the
        // block-diagonal positions.
        let cg = c / groups;
        let kg = k / groups;
        for ki in 0..k {
            let g = ki / kg;
            for ci in 0..cg {
                for ri in 0..3 {
                    for si in 0..3 {
                        let a = grads.weight.at(&[ki, ci, ri, si]);
                        let b = dense_grads.weight.at(&[ki, g * cg + ci, ri, si]);
                        assert!((a - b).abs() < 1e-3, "weight[{ki},{ci},{ri},{si}]");
                    }
                }
            }
        }
    }

    #[test]
    fn grouped_with_one_group_is_dense_conv() {
        let spec = ConvSpec::new(3, 3).with_padding(1);
        let input = seq(&[1, 3, 5, 5], 0.17);
        let weight = seq(&[4, 3, 3, 3], 0.29);
        let bias = seq(&[4], 0.5);
        let a = conv2d_grouped(&input, &weight, &bias, &spec, 1);
        let b = conv2d(&input, &weight, &bias, &spec);
        assert_eq!(a.as_slice(), b.as_slice());
    }

    #[test]
    #[should_panic(expected = "must divide")]
    fn grouped_rejects_indivisible_channels() {
        let spec = ConvSpec::new(3, 3);
        let _ = conv2d_grouped(
            &Tensor::zeros(&[1, 5, 5, 5]),
            &Tensor::zeros(&[4, 2, 3, 3]),
            &Tensor::zeros(&[4]),
            &spec,
            2,
        );
    }

    #[test]
    #[should_panic(expected = "channel mismatch")]
    fn rejects_channel_mismatch() {
        let spec = ConvSpec::new(3, 3);
        let _ = conv2d(
            &Tensor::zeros(&[1, 2, 5, 5]),
            &Tensor::zeros(&[1, 3, 3, 3]),
            &Tensor::zeros(&[1]),
            &spec,
        );
    }
}
