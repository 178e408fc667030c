//! Jagged diagonal storage (JDS), the format of Parboil's `spmv-jds`.
//!
//! Rows are sorted by descending length and the k-th elements of all
//! (still-alive) rows are stored contiguously ("jagged diagonals"), which
//! makes one-thread-per-row GPU execution perfectly coalesced.

use crate::CsrMatrix;

/// A JDS-format sparse matrix derived from a [`CsrMatrix`].
#[derive(Debug, Clone, PartialEq)]
pub struct JdsMatrix {
    /// Number of rows.
    pub rows: usize,
    /// Number of columns.
    pub cols: usize,
    /// Permutation: `perm[i]` is the original row index of sorted row `i`.
    pub perm: Vec<u32>,
    /// Start offset of each jagged diagonal in `vals` / `col_idx`
    /// (`max_row_len + 1` entries).
    pub dia_ptr: Vec<u32>,
    /// Rows alive in each diagonal (length `max_row_len`): `dia_rows[d]`
    /// is the number of rows with length > `d`.
    pub dia_rows: Vec<u32>,
    /// Column indices, diagonal-major.
    pub col_idx: Vec<u32>,
    /// Values, diagonal-major.
    pub vals: Vec<f32>,
}

impl JdsMatrix {
    /// Converts a CSR matrix to JDS.
    pub fn from_csr(m: &CsrMatrix) -> Self {
        let mut order: Vec<usize> = (0..m.rows).collect();
        order.sort_by_key(|&r| std::cmp::Reverse(m.row_len(r)));
        let max_len = m.max_row_len();
        let mut dia_ptr = Vec::with_capacity(max_len + 1);
        let mut dia_rows = Vec::with_capacity(max_len);
        let mut col_idx = Vec::with_capacity(m.nnz());
        let mut vals = Vec::with_capacity(m.nnz());
        dia_ptr.push(0u32);
        for d in 0..max_len {
            let alive = order.iter().take_while(|&&r| m.row_len(r) > d).count();
            dia_rows.push(alive as u32);
            for &r in order.iter().take(alive) {
                let j = m.row_ptr[r] as usize + d;
                col_idx.push(m.col_idx[j]);
                vals.push(m.vals[j]);
            }
            dia_ptr.push(col_idx.len() as u32);
        }
        JdsMatrix {
            rows: m.rows,
            cols: m.cols,
            perm: order.iter().map(|&r| r as u32).collect(),
            dia_ptr,
            dia_rows,
            col_idx,
            vals,
        }
    }

    /// Number of non-zeros.
    pub fn nnz(&self) -> usize {
        self.vals.len()
    }

    /// Number of jagged diagonals (= the longest row's length).
    pub fn num_diagonals(&self) -> usize {
        self.dia_rows.len()
    }

    /// Length of *sorted* row `i`.
    pub fn sorted_row_len(&self, i: usize) -> usize {
        self.dia_rows
            .iter()
            .take_while(|&&a| a as usize > i)
            .count()
    }

    /// Reference `y = A * x`, producing `y` in *original* row order.
    pub fn spmv_ref(&self, x: &[f32]) -> Vec<f32> {
        assert_eq!(x.len(), self.cols);
        jds_spmv(
            &self.perm,
            &self.dia_ptr,
            &self.dia_rows,
            &self.col_idx,
            &self.vals,
            x,
        )
    }
}

/// Reference `y = A * x` over the JDS arrays themselves, as a verifier
/// reads them from a launch's arguments; `y` is in original row order,
/// one entry per `perm` entry.
pub(crate) fn jds_spmv(
    perm: &[u32],
    dia_ptr: &[u32],
    dia_rows: &[u32],
    col_idx: &[u32],
    vals: &[f32],
    x: &[f32],
) -> Vec<f32> {
    let mut y = vec![0.0f32; perm.len()];
    for (&start, &alive) in dia_ptr.iter().zip(dia_rows) {
        let start = start as usize;
        for (i, &row) in perm.iter().enumerate().take(alive as usize) {
            let j = start + i;
            y[row as usize] += vals[j] * x[col_idx[j] as usize];
        }
    }
    y
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn jds_matches_csr_spmv() {
        let m = CsrMatrix::random(100, 100, 0.08, 11);
        let j = JdsMatrix::from_csr(&m);
        assert_eq!(j.nnz(), m.nnz());
        let x: Vec<f32> = (0..100).map(|i| (i as f32 * 0.37).sin()).collect();
        let yc = m.spmv_ref(&x);
        let yj = j.spmv_ref(&x);
        for (a, b) in yc.iter().zip(&yj) {
            assert!((a - b).abs() < 1e-4, "{a} vs {b}");
        }
    }

    #[test]
    fn rows_are_sorted_descending() {
        let m = CsrMatrix::random(64, 64, 0.1, 3);
        let j = JdsMatrix::from_csr(&m);
        let lens: Vec<usize> = (0..j.rows).map(|i| j.sorted_row_len(i)).collect();
        assert!(lens.windows(2).all(|w| w[0] >= w[1]), "descending {lens:?}");
        assert_eq!(lens[0], m.max_row_len());
    }

    #[test]
    fn diagonal_matrix_has_one_diagonal() {
        let m = CsrMatrix::diagonal(32);
        let j = JdsMatrix::from_csr(&m);
        assert_eq!(j.num_diagonals(), 1);
        assert_eq!(j.dia_rows, vec![32]);
    }

    #[test]
    fn dia_ptr_is_consistent() {
        let m = CsrMatrix::random(50, 50, 0.1, 9);
        let j = JdsMatrix::from_csr(&m);
        assert_eq!(*j.dia_ptr.last().unwrap() as usize, j.nnz());
        for d in 0..j.num_diagonals() {
            assert_eq!(
                j.dia_ptr[d + 1] - j.dia_ptr[d],
                j.dia_rows[d],
                "diagonal {d} extent"
            );
        }
    }
}
