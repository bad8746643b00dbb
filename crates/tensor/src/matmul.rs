//! Dense matrix multiplication kernels.
//!
//! Three variants cover every use in the NN stack without materializing
//! transposes: `A·B`, `Aᵀ·B` (weight gradients), and `A·Bᵀ` (input
//! gradients). All three dispatch to the cache-blocked, multithreaded
//! GEMM in [`crate::kernels`]; results are **bit-identical** to the naive
//! [`crate::reference`] kernels at any thread count (see `docs/kernels.md`
//! for the determinism contract).
//!
//! All variants apply the same sparsity short-circuit: products whose
//! left-operand element is exactly `0.0` are skipped, so pruned CSCNN
//! weight matrices multiply faster at identical results (for finite
//! inputs; a `0·∞`/`0·NaN` term is skipped rather than propagated).

use crate::kernels::{self, Lhs, Rhs};
use crate::Tensor;

/// `C = A · B` for row-major matrices.
///
/// # Panics
///
/// Panics if either input is not rank 2 or the inner dimensions disagree.
///
/// # Example
///
/// ```
/// use cscnn_tensor::{matmul, Tensor};
///
/// let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]);
/// let b = Tensor::from_vec(vec![5.0, 6.0, 7.0, 8.0], &[2, 2]);
/// let c = matmul(&a, &b);
/// assert_eq!(c.as_slice(), &[19.0, 22.0, 43.0, 50.0]);
/// ```
pub fn matmul(a: &Tensor, b: &Tensor) -> Tensor {
    let (m, k) = dims2(a, "matmul lhs");
    let (k2, n) = dims2(b, "matmul rhs");
    assert_eq!(k, k2, "inner dimension mismatch: {k} vs {k2}");
    let mut out = vec![0.0f32; m * n];
    kernels::gemm(
        Lhs::RowMajor,
        Rhs::RowMajor,
        a.as_slice(),
        b.as_slice(),
        m,
        k,
        n,
        &mut out,
    );
    Tensor::from_vec(out, &[m, n])
}

/// `C = Aᵀ · B` without materializing `Aᵀ`.
///
/// `A` is `[k, m]`, `B` is `[k, n]`, result is `[m, n]`.
///
/// # Panics
///
/// Panics on rank or dimension mismatch.
pub fn matmul_at(a: &Tensor, b: &Tensor) -> Tensor {
    let (k, m) = dims2(a, "matmul_at lhs");
    let (k2, n) = dims2(b, "matmul_at rhs");
    assert_eq!(k, k2, "inner dimension mismatch: {k} vs {k2}");
    let mut out = vec![0.0f32; m * n];
    kernels::gemm(
        Lhs::Transposed,
        Rhs::RowMajor,
        a.as_slice(),
        b.as_slice(),
        m,
        k,
        n,
        &mut out,
    );
    Tensor::from_vec(out, &[m, n])
}

/// `C = A · Bᵀ` without materializing `Bᵀ`.
///
/// `A` is `[m, k]`, `B` is `[n, k]`, result is `[m, n]`.
///
/// # Panics
///
/// Panics on rank or dimension mismatch.
pub fn matmul_bt(a: &Tensor, b: &Tensor) -> Tensor {
    let (m, k) = dims2(a, "matmul_bt lhs");
    let (n, k2) = dims2(b, "matmul_bt rhs");
    assert_eq!(k, k2, "inner dimension mismatch: {k} vs {k2}");
    let mut out = vec![0.0f32; m * n];
    kernels::gemm(
        Lhs::RowMajor,
        Rhs::Transposed,
        a.as_slice(),
        b.as_slice(),
        m,
        k,
        n,
        &mut out,
    );
    Tensor::from_vec(out, &[m, n])
}

fn dims2(t: &Tensor, what: &str) -> (usize, usize) {
    assert_eq!(
        t.shape().rank(),
        2,
        "{what} must be rank 2, got {}",
        t.shape()
    );
    (t.shape().dim(0), t.shape().dim(1))
}

impl Tensor {
    /// Method form of [`matmul`].
    ///
    /// # Panics
    ///
    /// See [`matmul`].
    pub fn matmul(&self, rhs: &Tensor) -> Tensor {
        matmul(self, rhs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn naive(a: &Tensor, b: &Tensor) -> Tensor {
        let (m, k) = (a.shape().dim(0), a.shape().dim(1));
        let n = b.shape().dim(1);
        let mut out = Tensor::zeros(&[m, n]);
        for i in 0..m {
            for j in 0..n {
                let mut s = 0.0;
                for p in 0..k {
                    s += a.at(&[i, p]) * b.at(&[p, j]);
                }
                out.set(&[i, j], s);
            }
        }
        out
    }

    fn seq(dims: &[usize]) -> Tensor {
        Tensor::from_fn(dims, |i| (i as f32 * 0.37).sin())
    }

    #[test]
    fn matches_naive_reference() {
        let a = seq(&[5, 7]);
        let b = seq(&[7, 3]);
        let got = matmul(&a, &b);
        let want = naive(&a, &b);
        for (g, w) in got.as_slice().iter().zip(want.as_slice()) {
            assert!((g - w).abs() < 1e-5);
        }
    }

    #[test]
    fn transposed_variants_agree_with_plain() {
        let a = seq(&[6, 4]);
        let b = seq(&[6, 5]);
        let via_at = matmul_at(&a, &b);
        let plain = matmul(&a.transpose(), &b);
        assert_eq!(via_at.shape().dims(), &[4, 5]);
        for (x, y) in via_at.as_slice().iter().zip(plain.as_slice()) {
            assert!((x - y).abs() < 1e-5);
        }

        let c = seq(&[3, 4]);
        let d = seq(&[5, 4]);
        let via_bt = matmul_bt(&c, &d);
        let plain = matmul(&c, &d.transpose());
        for (x, y) in via_bt.as_slice().iter().zip(plain.as_slice()) {
            assert!((x - y).abs() < 1e-5);
        }
    }

    #[test]
    fn all_variants_bit_match_naive_reference_oracle() {
        let a = seq(&[37, 45]);
        let b = seq(&[45, 29]);
        let (fast, slow) = (matmul(&a, &b), crate::reference::matmul(&a, &b));
        assert_eq!(bits(&fast), bits(&slow));

        let at = seq(&[45, 37]);
        let (fast, slow) = (matmul_at(&at, &b), crate::reference::matmul_at(&at, &b));
        assert_eq!(bits(&fast), bits(&slow));

        let bt = seq(&[29, 45]);
        let (fast, slow) = (matmul_bt(&a, &bt), crate::reference::matmul_bt(&a, &bt));
        assert_eq!(bits(&fast), bits(&slow));
    }

    fn bits(t: &Tensor) -> Vec<u32> {
        t.as_slice().iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn zero_rows_are_skipped_identically_in_every_variant() {
        // A zero left-operand row must yield an exactly-zero output row in
        // all variants (the sparsity short-circuit contract).
        let mut a = seq(&[4, 6]);
        for v in &mut a.as_mut_slice()[6..12] {
            *v = 0.0;
        }
        let b = seq(&[6, 5]);
        let c = matmul(&a, &b);
        assert!(c.as_slice()[5..10].iter().all(|v| v.to_bits() == 0));
        let bt = seq(&[5, 6]);
        let c = matmul_bt(&a, &bt);
        assert!(c.as_slice()[5..10].iter().all(|v| v.to_bits() == 0));
    }

    #[test]
    #[should_panic(expected = "inner dimension mismatch")]
    fn rejects_mismatched_inner_dims() {
        let _ = matmul(&Tensor::zeros(&[2, 3]), &Tensor::zeros(&[4, 2]));
    }
}
