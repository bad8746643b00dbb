//! Cache-blocked, register-tiled, multithreaded GEMM kernels.
//!
//! This is the workhorse under [`crate::matmul`]/[`crate::conv2d`]: a
//! classic three-level blocked GEMM (Goto-style `NC`/`KC`/`MC` panels with
//! packed operands and an `MR×NR` register microkernel), parallelized over
//! deterministic row-block partitions via [`std::thread::scope`].
//!
//! # Determinism contract
//!
//! Results are **bit-identical** to the naive kernels in
//! [`crate::reference`] at any thread count:
//!
//! * every output element is produced by exactly one thread;
//! * each element accumulates its `k` products in ascending-`p` order —
//!   the `KC` blocks are visited in ascending order and the microkernel
//!   loads the running value, appends the block's products in order, and
//!   stores it back (f32 store/load is lossless, so splitting the
//!   reduction across blocks does not change the rounding sequence);
//! * the same sparsity short-circuit is applied: products whose
//!   left-operand element is exactly `0.0` are skipped, in all three
//!   variants, exactly as the reference kernels skip them.
//!
//! The partition (how many rows each thread gets) therefore changes
//! scheduling only, never results. See `docs/kernels.md`.

use crate::threads;

/// Microkernel tile height (rows of `C` held in registers).
pub const MR: usize = 4;
/// Microkernel tile width (columns of `C` held in registers).
pub const NR: usize = 8;
/// Row-panel height packed per `A` block (L2-resident).
const MC: usize = 128;
/// Reduction-dimension block depth (shared by both packed panels).
const KC: usize = 256;
/// Column-panel width packed per `B` block (L2/L3-resident).
const NC: usize = 512;
/// Below this many multiply-accumulates a GEMM runs inline on the calling
/// thread: spawn overhead would dominate any parallel win.
const PARALLEL_MAC_FLOOR: usize = 1 << 18;
/// Below this many multiply-accumulates a GEMM skips packing entirely and
/// runs the direct loop nest ([`small_gemm`]): at this size the operands
/// fit in cache and pack-buffer allocation would dominate. Same
/// accumulation order, so bit-identical either way.
const SMALL_GEMM_MACS: usize = 1 << 15;

/// Storage layout of the left GEMM operand.
#[derive(Clone, Copy, Debug)]
pub(crate) enum Lhs {
    /// `A` is `[m, k]` row-major (`A·B`, `A·Bᵀ`).
    RowMajor,
    /// `A` is `[k, m]` row-major and used as `Aᵀ` (`Aᵀ·B`).
    Transposed,
}

/// Storage layout of the right GEMM operand.
#[derive(Clone, Copy, Debug)]
pub(crate) enum Rhs {
    /// `B` is `[k, n]` row-major (`A·B`, `Aᵀ·B`).
    RowMajor,
    /// `B` is `[n, k]` row-major and used as `Bᵀ` (`A·Bᵀ`).
    Transposed,
}

/// `C += op(A) · op(B)` with the configured thread count.
///
/// `c` must hold `m·n` elements; it is accumulated into (callers that want
/// plain `=` semantics pass a zeroed buffer, which reproduces the
/// reference kernels' from-zero accumulation exactly).
pub(crate) fn gemm(
    lhs: Lhs,
    rhs: Rhs,
    a: &[f32],
    b: &[f32],
    m: usize,
    k: usize,
    n: usize,
    c: &mut [f32],
) {
    gemm_with_threads(lhs, rhs, a, b, m, k, n, c, threads::num_threads());
}

/// [`gemm`] with an explicit thread budget (1 = run inline; used by the
/// conv task-parallel path, which parallelizes across `(batch × group)`
/// tasks instead of inside each small GEMM).
#[allow(clippy::too_many_arguments)]
pub(crate) fn gemm_with_threads(
    lhs: Lhs,
    rhs: Rhs,
    a: &[f32],
    b: &[f32],
    m: usize,
    k: usize,
    n: usize,
    c: &mut [f32],
    thread_budget: usize,
) {
    assert_eq!(a.len(), m * k, "lhs buffer disagrees with m×k");
    assert_eq!(b.len(), k * n, "rhs buffer disagrees with k×n");
    assert_eq!(c.len(), m * n, "dst buffer disagrees with m×n");
    if m == 0 || n == 0 || k == 0 {
        return;
    }
    let macs = m.saturating_mul(k).saturating_mul(n);
    if macs <= SMALL_GEMM_MACS {
        small_gemm(lhs, rhs, a, b, m, k, n, c);
        return;
    }
    let micro_rows = m.div_ceil(MR);
    let t = thread_budget.clamp(1, micro_rows);
    if t == 1 || macs < PARALLEL_MAC_FLOOR {
        gemm_range(lhs, rhs, a, b, 0, m, m, k, n, c);
        return;
    }
    // Deterministic partition of the MR-aligned row blocks: thread `w`
    // owns rows [blocks·w/t·MR, blocks·(w+1)/t·MR). Each element of `c`
    // is written by exactly one thread and computed by the identical
    // blocked loop nest, so the partition never affects results.
    std::thread::scope(|scope| {
        let mut rest = c;
        for w in 0..t {
            let begin = (micro_rows * w / t) * MR;
            let end = ((micro_rows * (w + 1) / t) * MR).min(m);
            if end <= begin {
                continue;
            }
            let (head, tail) = rest.split_at_mut((end - begin) * n);
            rest = tail;
            scope.spawn(move || gemm_range(lhs, rhs, a, b, begin, end, m, k, n, head));
        }
        debug_assert!(rest.is_empty(), "row partition must cover all of C");
    });
}

/// Direct (unpacked, unblocked) GEMM for problems too small to amortize
/// pack buffers. Accumulates each `C` element in ascending-`p` order with
/// the left-operand zero skip — the exact sequence the blocked path and
/// the naive reference produce, so all three are bit-identical.
fn small_gemm(
    lhs: Lhs,
    rhs: Rhs,
    a: &[f32],
    b: &[f32],
    m: usize,
    k: usize,
    n: usize,
    c: &mut [f32],
) {
    for i in 0..m {
        let row = &mut c[i * n..(i + 1) * n];
        match rhs {
            Rhs::RowMajor => {
                for p in 0..k {
                    let x = match lhs {
                        Lhs::RowMajor => a[i * k + p],
                        Lhs::Transposed => a[p * m + i],
                    };
                    if x == 0.0 {
                        continue;
                    }
                    let brow = &b[p * n..(p + 1) * n];
                    for (d, &y) in row.iter_mut().zip(brow) {
                        *d += x * y;
                    }
                }
            }
            Rhs::Transposed => {
                for (j, d) in row.iter_mut().enumerate() {
                    let mut acc = *d;
                    let bcol = &b[j * k..(j + 1) * k];
                    for (p, &y) in bcol.iter().enumerate() {
                        let x = match lhs {
                            Lhs::RowMajor => a[i * k + p],
                            Lhs::Transposed => a[p * m + i],
                        };
                        if x == 0.0 {
                            continue;
                        }
                        acc += x * y;
                    }
                    *d = acc;
                }
            }
        }
    }
}

/// Blocked GEMM over output rows `[r0, r1)`; `c` holds exactly those rows.
#[allow(clippy::too_many_arguments)]
fn gemm_range(
    lhs: Lhs,
    rhs: Rhs,
    a: &[f32],
    b: &[f32],
    r0: usize,
    r1: usize,
    m: usize,
    k: usize,
    n: usize,
    c: &mut [f32],
) {
    // Sized to the largest block this problem actually uses, not the
    // MC/KC/NC maxima — small problems must not pay for 640 KB of zeroed
    // scratch they never touch.
    let kc_max = KC.min(k);
    let mut apack = vec![0.0f32; MC.min(r1 - r0).div_ceil(MR) * MR * kc_max];
    let mut bpack = vec![0.0f32; NC.min(n).div_ceil(NR) * NR * kc_max];
    let mut jc = 0;
    while jc < n {
        let nc = NC.min(n - jc);
        let b_panels = nc.div_ceil(NR);
        let mut pc = 0;
        while pc < k {
            let kc = KC.min(k - pc);
            pack_b(rhs, b, k, n, pc, kc, jc, nc, &mut bpack);
            let mut ic = r0;
            while ic < r1 {
                let mc = MC.min(r1 - ic);
                pack_a(lhs, a, m, k, ic, mc, pc, kc, &mut apack);
                let a_panels = mc.div_ceil(MR);
                for pj in 0..b_panels {
                    let jr = pj * NR;
                    let nr = NR.min(nc - jr);
                    let bpanel = &bpack[pj * kc * NR..(pj + 1) * kc * NR];
                    for pi in 0..a_panels {
                        let ir = pi * MR;
                        let mr = MR.min(mc - ir);
                        let apanel = &apack[pi * kc * MR..(pi + 1) * kc * MR];
                        microkernel(apanel, bpanel, kc, mr, nr, c, ic - r0 + ir, n, jc + jr);
                    }
                }
                ic += MC;
            }
            pc += KC;
        }
        jc += NC;
    }
}

/// Packs the `[ic..ic+mc) × [pc..pc+kc)` block of `A` into `MR`-row
/// panels, `p`-major within each panel; fringe rows are zero-padded (the
/// microkernel's `a == 0.0` skip makes the padding free).
#[allow(clippy::too_many_arguments)]
fn pack_a(
    lhs: Lhs,
    a: &[f32],
    m: usize,
    k: usize,
    ic: usize,
    mc: usize,
    pc: usize,
    kc: usize,
    apack: &mut [f32],
) {
    for pi in 0..mc.div_ceil(MR) {
        let rows = MR.min(mc - pi * MR);
        let dst = &mut apack[pi * kc * MR..(pi + 1) * kc * MR];
        for p in 0..kc {
            let d = &mut dst[p * MR..p * MR + MR];
            for (r, slot) in d.iter_mut().enumerate() {
                *slot = if r < rows {
                    let row = ic + pi * MR + r;
                    let col = pc + p;
                    match lhs {
                        Lhs::RowMajor => a[row * k + col],
                        Lhs::Transposed => a[col * m + row],
                    }
                } else {
                    0.0
                };
            }
        }
    }
}

/// Packs the `[pc..pc+kc) × [jc..jc+nc)` block of `B` into `NR`-column
/// panels, `p`-major within each panel; fringe columns are zero-padded
/// (their accumulator lanes are computed but never stored).
#[allow(clippy::too_many_arguments)]
fn pack_b(
    rhs: Rhs,
    b: &[f32],
    k: usize,
    n: usize,
    pc: usize,
    kc: usize,
    jc: usize,
    nc: usize,
    bpack: &mut [f32],
) {
    for pj in 0..nc.div_ceil(NR) {
        let cols = NR.min(nc - pj * NR);
        let dst = &mut bpack[pj * kc * NR..(pj + 1) * kc * NR];
        for p in 0..kc {
            let d = &mut dst[p * NR..p * NR + NR];
            for (j, slot) in d.iter_mut().enumerate() {
                *slot = if j < cols {
                    let col = jc + pj * NR + j;
                    let row = pc + p;
                    match rhs {
                        Rhs::RowMajor => b[row * n + col],
                        Rhs::Transposed => b[col * k + row],
                    }
                } else {
                    0.0
                };
            }
        }
    }
}

/// The `MR×NR` register microkernel: loads the running `C` tile, appends
/// this `KC` block's products in ascending-`p` order (skipping `a == 0.0`
/// terms exactly like the reference kernels), stores the tile back.
/// `inline(never)` is deliberate and load-bearing: inlined into
/// `gemm_range`'s loop nest, LLVM spills the accumulator tile to the stack
/// (~7× slower); as a standalone function the tile stays in registers.
#[allow(clippy::too_many_arguments)]
#[inline(never)]
fn microkernel(
    apanel: &[f32],
    bpanel: &[f32],
    kc: usize,
    mr: usize,
    nr: usize,
    c: &mut [f32],
    row0: usize,
    ldc: usize,
    col0: usize,
) {
    let mut acc = [[0.0f32; NR]; MR];
    for (r, accr) in acc.iter_mut().enumerate().take(mr) {
        let base = (row0 + r) * ldc + col0;
        accr[..nr].copy_from_slice(&c[base..base + nr]);
    }
    let (arows, _) = apanel.as_chunks::<MR>();
    let (brows, _) = bpanel.as_chunks::<NR>();
    for (av, bv) in arows.iter().zip(brows).take(kc) {
        if av.iter().all(|&a| a != 0.0) {
            // Dense fast path: no `a` is zero, so the skip branch can never
            // fire — dropping it from the inner loops changes nothing but
            // lets the 4×8 block stay branch-free (and vectorized).
            for (&a, accr) in av.iter().zip(acc.iter_mut()) {
                for (slot, &bj) in accr.iter_mut().zip(bv) {
                    *slot += a * bj;
                }
            }
        } else {
            for (&a, accr) in av.iter().zip(acc.iter_mut()) {
                if a == 0.0 {
                    continue;
                }
                for (slot, &bj) in accr.iter_mut().zip(bv) {
                    *slot += a * bj;
                }
            }
        }
    }
    for (r, accr) in acc.iter().enumerate().take(mr) {
        let base = (row0 + r) * ldc + col0;
        c[base..base + nr].copy_from_slice(&accr[..nr]);
    }
}

/// Runs `f(i, chunk_i)` over `data.chunks_mut(chunk)` with chunks dealt
/// round-robin to at most `thread_budget` scoped threads. Each chunk is
/// visited exactly once by exactly one thread, so any `f` whose output for
/// chunk `i` depends only on `i` and shared read-only state is
/// deterministic at every thread count.
pub(crate) fn parallel_chunks<F>(data: &mut [f32], chunk: usize, thread_budget: usize, f: F)
where
    F: Fn(usize, &mut [f32]) + Sync,
{
    assert!(chunk > 0, "chunk size must be positive");
    let total = data.len() / chunk;
    let t = thread_budget.clamp(1, total.max(1));
    if t == 1 {
        for (i, ch) in data.chunks_mut(chunk).enumerate() {
            f(i, ch);
        }
        return;
    }
    let mut buckets: Vec<Vec<(usize, &mut [f32])>> = (0..t).map(|_| Vec::new()).collect();
    for (i, ch) in data.chunks_mut(chunk).enumerate() {
        buckets[i % t].push((i, ch));
    }
    std::thread::scope(|scope| {
        for bucket in buckets {
            let f = &f;
            scope.spawn(move || {
                for (i, ch) in bucket {
                    f(i, ch);
                }
            });
        }
    });
}

/// Like [`parallel_chunks`], but each task `i` receives the `i`-th chunk
/// of two independent buffers (e.g. its `d_input` region and its private
/// partial-gradient slot).
pub(crate) fn parallel_chunk_pairs<F>(
    a: &mut [f32],
    chunk_a: usize,
    b: &mut [f32],
    chunk_b: usize,
    thread_budget: usize,
    f: F,
) where
    F: Fn(usize, &mut [f32], &mut [f32]) + Sync,
{
    assert!(chunk_a > 0 && chunk_b > 0, "chunk sizes must be positive");
    let total = (a.len() / chunk_a).min(b.len() / chunk_b);
    let t = thread_budget.clamp(1, total.max(1));
    if t == 1 {
        for (i, (ca, cb)) in a.chunks_mut(chunk_a).zip(b.chunks_mut(chunk_b)).enumerate() {
            f(i, ca, cb);
        }
        return;
    }
    let mut buckets: Vec<Vec<(usize, &mut [f32], &mut [f32])>> =
        (0..t).map(|_| Vec::new()).collect();
    for (i, (ca, cb)) in a.chunks_mut(chunk_a).zip(b.chunks_mut(chunk_b)).enumerate() {
        buckets[i % t].push((i, ca, cb));
    }
    std::thread::scope(|scope| {
        for bucket in buckets {
            let f = &f;
            scope.spawn(move || {
                for (i, ca, cb) in bucket {
                    f(i, ca, cb);
                }
            });
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fill(len: usize, scale: f32, zero_every: usize) -> Vec<f32> {
        (0..len)
            .map(|i| {
                if zero_every != 0 && i % zero_every == 0 {
                    0.0
                } else {
                    ((i as f32) * scale).sin()
                }
            })
            .collect()
    }

    fn reference_nn(a: &[f32], b: &[f32], m: usize, k: usize, n: usize) -> Vec<f32> {
        let mut c = vec![0.0f32; m * n];
        for i in 0..m {
            for p in 0..k {
                let av = a[i * k + p];
                if av == 0.0 {
                    continue;
                }
                for j in 0..n {
                    c[i * n + j] += av * b[p * n + j];
                }
            }
        }
        c
    }

    #[test]
    fn blocked_gemm_bits_match_reference_across_fringe_shapes() {
        for &(m, k, n) in &[
            (1usize, 1usize, 1usize),
            (3, 5, 7),
            (MR, KC, NR),
            (MR + 1, KC + 3, NR + 5),
            (2 * MR + 3, 2 * KC + 1, 2 * NR + 7),
            (130, 70, 33),
        ] {
            let a = fill(m * k, 0.13, 7);
            let b = fill(k * n, 0.29, 5);
            let want = reference_nn(&a, &b, m, k, n);
            for t in [1usize, 2, 5] {
                let mut c = vec![0.0f32; m * n];
                gemm_with_threads(Lhs::RowMajor, Rhs::RowMajor, &a, &b, m, k, n, &mut c, t);
                assert!(
                    c.iter().zip(&want).all(|(x, y)| x.to_bits() == y.to_bits()),
                    "m={m} k={k} n={n} t={t}"
                );
            }
        }
    }

    #[test]
    fn transposed_layouts_match_row_major() {
        let (m, k, n) = (9usize, 11usize, 13usize);
        let a = fill(m * k, 0.17, 6);
        let b = fill(k * n, 0.23, 4);
        let want = reference_nn(&a, &b, m, k, n);
        // Aᵀ layout: store A as [k, m].
        let mut at = vec![0.0f32; m * k];
        for i in 0..m {
            for p in 0..k {
                at[p * m + i] = a[i * k + p];
            }
        }
        let mut c = vec![0.0f32; m * n];
        gemm(Lhs::Transposed, Rhs::RowMajor, &at, &b, m, k, n, &mut c);
        assert!(c.iter().zip(&want).all(|(x, y)| x.to_bits() == y.to_bits()));
        // Bᵀ layout: store B as [n, k].
        let mut bt = vec![0.0f32; k * n];
        for p in 0..k {
            for j in 0..n {
                bt[j * k + p] = b[p * n + j];
            }
        }
        let mut c = vec![0.0f32; m * n];
        gemm(Lhs::RowMajor, Rhs::Transposed, &a, &bt, m, k, n, &mut c);
        assert!(c.iter().zip(&want).all(|(x, y)| x.to_bits() == y.to_bits()));
    }

    #[test]
    fn parallel_chunks_visits_every_chunk_once() {
        let mut data = vec![0.0f32; 40];
        parallel_chunks(&mut data, 4, 3, |i, ch| {
            for v in ch.iter_mut() {
                *v += (i + 1) as f32;
            }
        });
        for (i, ch) in data.chunks(4).enumerate() {
            assert!(ch.iter().all(|&v| v == (i + 1) as f32));
        }
    }
}
