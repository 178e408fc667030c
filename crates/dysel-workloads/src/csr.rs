//! Compressed sparse row matrices and reference kernels.

use dysel_kernel::XorShiftRng;

/// A CSR-format sparse matrix with `f32` values.
#[derive(Debug, Clone, PartialEq)]
pub struct CsrMatrix {
    /// Number of rows.
    pub rows: usize,
    /// Number of columns.
    pub cols: usize,
    /// Row pointers, `rows + 1` entries.
    pub row_ptr: Vec<u32>,
    /// Column indices, one per non-zero.
    pub col_idx: Vec<u32>,
    /// Non-zero values.
    pub vals: Vec<f32>,
}

impl CsrMatrix {
    /// Number of non-zeros.
    pub fn nnz(&self) -> usize {
        self.vals.len()
    }

    /// Length of row `r`.
    pub fn row_len(&self, r: usize) -> usize {
        (self.row_ptr[r + 1] - self.row_ptr[r]) as usize
    }

    /// The longest row.
    pub fn max_row_len(&self) -> usize {
        (0..self.rows).map(|r| self.row_len(r)).max().unwrap_or(0)
    }

    /// A random sparse matrix where each row draws `Binomial(cols, density)`
    /// uniformly-placed non-zeros — the SHOC `spmv` default input shape
    /// ("16k-by-16k random sparse matrix with 1% probability of non-zeros").
    pub fn random(rows: usize, cols: usize, density: f64, seed: u64) -> Self {
        let mut rng = XorShiftRng::seed_from_u64(seed);
        let mut row_ptr = Vec::with_capacity(rows + 1);
        let mut col_idx = Vec::new();
        let mut vals = Vec::new();
        row_ptr.push(0u32);
        let expected = (cols as f64 * density).max(1.0);
        for _ in 0..rows {
            // Sample a per-row count around the expectation (Poisson-ish via
            // a clamped normal approximation, deterministic under the seed).
            let std = expected.sqrt();
            let z: f64 = (0..6).map(|_| rng.next_f64()).sum::<f64>() * 2.0 - 6.0;
            let len = (expected + z * std).round().clamp(1.0, cols as f64) as usize;
            let mut cols_in_row: Vec<u32> = (0..len)
                .map(|_| rng.gen_range_u32(0, cols as u32))
                .collect();
            cols_in_row.sort_unstable();
            cols_in_row.dedup();
            for c in cols_in_row {
                col_idx.push(c);
                vals.push(rng.gen_range_f32(-1.0, 1.0));
            }
            row_ptr.push(col_idx.len() as u32);
        }
        CsrMatrix {
            rows,
            cols,
            row_ptr,
            col_idx,
            vals,
        }
    }

    /// The `rows`-by-`rows` diagonal matrix of the paper's Case IV
    /// ("a 2M-by-2M diagonal matrix"): exactly one non-zero per row.
    pub fn diagonal(rows: usize) -> Self {
        CsrMatrix {
            rows,
            cols: rows,
            row_ptr: (0..=rows as u32).collect(),
            col_idx: (0..rows as u32).collect(),
            vals: (0..rows).map(|i| 1.0 + (i % 7) as f32 * 0.25).collect(),
        }
    }

    /// Reference `y = A * x` on the host.
    pub fn spmv_ref(&self, x: &[f32]) -> Vec<f32> {
        assert_eq!(x.len(), self.cols, "x length must match matrix columns");
        csr_spmv(&self.row_ptr, &self.col_idx, &self.vals, x)
    }
}

/// Reference `y = A * x` over the CSR arrays themselves (one row per
/// `row_ptr` window), as a verifier reads them from a launch's arguments.
pub(crate) fn csr_spmv(row_ptr: &[u32], col_idx: &[u32], vals: &[f32], x: &[f32]) -> Vec<f32> {
    row_ptr
        .windows(2)
        .map(|w| {
            (w[0] as usize..w[1] as usize)
                .map(|j| vals[j] * x[col_idx[j] as usize])
                .sum()
        })
        .collect()
}

/// Reference dense `C = A * B` on the host (`A` is `m x k`, `B` is `k x n`,
/// all row-major).
pub fn gemm_ref(m: usize, k: usize, n: usize, a: &[f32], b: &[f32]) -> Vec<f32> {
    assert_eq!(a.len(), m * k);
    assert_eq!(b.len(), k * n);
    let mut c = vec![0.0f32; m * n];
    for i in 0..m {
        for p in 0..k {
            let av = a[i * k + p];
            let brow = &b[p * n..(p + 1) * n];
            let crow = &mut c[i * n..(i + 1) * n];
            for j in 0..n {
                crow[j] += av * brow[j];
            }
        }
    }
    c
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn random_matrix_is_well_formed() {
        let m = CsrMatrix::random(128, 128, 0.05, 7);
        assert_eq!(m.row_ptr.len(), 129);
        assert_eq!(m.col_idx.len(), m.vals.len());
        assert!(m.nnz() > 0);
        for r in 0..m.rows {
            assert!(m.row_ptr[r] <= m.row_ptr[r + 1]);
            let cols: Vec<_> = (m.row_ptr[r]..m.row_ptr[r + 1])
                .map(|j| m.col_idx[j as usize])
                .collect();
            assert!(cols.windows(2).all(|w| w[0] < w[1]), "sorted, unique");
            assert!(cols.iter().all(|&c| (c as usize) < m.cols));
        }
    }

    #[test]
    fn random_matrix_is_deterministic() {
        let a = CsrMatrix::random(64, 64, 0.1, 42);
        let b = CsrMatrix::random(64, 64, 0.1, 42);
        assert_eq!(a, b);
        let c = CsrMatrix::random(64, 64, 0.1, 43);
        assert_ne!(a, c);
    }

    #[test]
    fn diagonal_matrix_spmv_scales_x() {
        let m = CsrMatrix::diagonal(16);
        assert_eq!(m.nnz(), 16);
        assert_eq!(m.max_row_len(), 1);
        let x: Vec<f32> = (0..16).map(|i| i as f32).collect();
        let y = m.spmv_ref(&x);
        for i in 0..16 {
            assert_eq!(y[i], m.vals[i] * x[i]);
        }
    }

    #[test]
    fn gemm_ref_identity() {
        let n = 8;
        let mut eye = vec![0.0f32; n * n];
        for i in 0..n {
            eye[i * n + i] = 1.0;
        }
        let b: Vec<f32> = (0..n * n).map(|i| i as f32).collect();
        assert_eq!(gemm_ref(n, n, n, &eye, &b), b);
    }
}
