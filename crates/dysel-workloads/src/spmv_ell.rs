//! ELLPACK-format spmv — the "input format transformation" optimization
//! axis of §2.3 (Bell & Garland, ref. 4 in the paper).
//!
//! ELL pads every row to the maximum row length and stores column-major:
//! perfectly coalesced, divergence-free — and catastrophic when one long
//! row forces padding everywhere. Format selection is therefore as
//! input-dependent as kernel selection, and the paper notes such variants
//! "may require duplication of inputs": here the argument set carries
//! *both* the CSR arrays and the ELL arrays, and each variant reads its
//! own format.

use dysel_kernel::{
    AccessIr, Args, Buffer, KernelIr, LoopBound, LoopIr, LoopKind, Space, Variant, VariantMeta,
};

use crate::{spmv_csr, CsrMatrix, Workload};

/// Rows per workload unit (shared with the CSR kernels).
pub const ROW_BLOCK: usize = spmv_csr::ROW_BLOCK;

/// Argument indices of the format-selection signature: the CSR arguments
/// first (matching [`spmv_csr::arg`]), then the duplicated ELL arrays.
pub mod arg {
    /// Output vector `y`.
    pub const Y: usize = 0;
    /// CSR row pointers.
    pub const ROW_PTR: usize = 1;
    /// CSR column indices.
    pub const COL_IDX: usize = 2;
    /// CSR values.
    pub const VALS: usize = 3;
    /// Input vector `x`.
    pub const X: usize = 4;
    /// ELL column indices (column-major, `rows x max_len`, padded).
    pub const ELL_COL: usize = 5;
    /// ELL values (column-major, padded with zeros).
    pub const ELL_VAL: usize = 6;
}

/// An ELLPACK image of a CSR matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct EllMatrix {
    /// Number of rows.
    pub rows: usize,
    /// Padded row length (the longest CSR row).
    pub width: usize,
    /// Column indices, column-major (`width * rows` entries; padding
    /// repeats the row's own index so gathers stay in-bounds).
    pub col_idx: Vec<u32>,
    /// Values, column-major (padding is 0.0).
    pub vals: Vec<f32>,
}

impl EllMatrix {
    /// Converts a CSR matrix (pads to the maximum row length).
    pub fn from_csr(m: &CsrMatrix) -> Self {
        let width = m.max_row_len();
        let mut col_idx = vec![0u32; width * m.rows];
        let mut vals = vec![0.0f32; width * m.rows];
        for r in 0..m.rows {
            let (a, b) = (m.row_ptr[r] as usize, m.row_ptr[r + 1] as usize);
            for k in 0..width {
                let slot = k * m.rows + r; // column-major
                if a + k < b {
                    col_idx[slot] = m.col_idx[a + k];
                    vals[slot] = m.vals[a + k];
                } else {
                    col_idx[slot] = (r % m.cols) as u32; // benign padding target
                    vals[slot] = 0.0;
                }
            }
        }
        EllMatrix {
            rows: m.rows,
            width,
            col_idx,
            vals,
        }
    }

    /// Padding overhead: stored entries / non-zeros.
    pub fn padding_factor(&self, nnz: usize) -> f64 {
        if nnz == 0 {
            1.0
        } else {
            (self.width * self.rows) as f64 / nnz as f64
        }
    }
}

/// The ELL kernel: one thread per row, marching across padded columns —
/// fully coalesced and divergence-free, paying for every padded slot.
pub fn gpu_ell(rows: usize, width: usize) -> Variant {
    let ir = KernelIr::regular(vec![arg::Y])
        .with_loops(vec![
            LoopIr::new(LoopKind::WorkItem(0), LoopBound::UniformRuntime),
            // The padded loop bound is uniform: that is ELL's whole point.
            LoopIr::new(LoopKind::Kernel, LoopBound::UniformRuntime),
        ])
        .with_accesses(vec![
            AccessIr::affine_load(arg::ELL_VAL, vec![1, 0]),
            AccessIr::affine_load(arg::ELL_COL, vec![1, 0]),
            AccessIr::indirect_load(arg::X),
            AccessIr::affine_store(arg::Y, vec![1, 0]),
        ]);
    let meta = VariantMeta::new("ell", ir).with_group_size(ROW_BLOCK as u32);
    Variant::from_fn(meta, move |ctx, args| {
        for u in ctx.units().iter() {
            let lo = u as usize * ROW_BLOCK;
            let hi = (lo + ROW_BLOCK).min(rows);
            let n = (hi - lo) as u32;
            // Functional compute from the ELL arrays.
            let mut out = [0.0f32; 32];
            {
                let col = args.u32(arg::ELL_COL).expect("ell col");
                let val = args.f32(arg::ELL_VAL).expect("ell val");
                let x = args.f32(arg::X).expect("x");
                for (slot, r) in (lo..hi).enumerate() {
                    let mut acc = 0.0f32;
                    for k in 0..width {
                        let j = k * rows + r;
                        acc += val[j] * x[col[j] as usize];
                    }
                    out[slot] = acc;
                }
            }
            {
                let y = args.f32_mut(arg::Y).expect("y");
                y[lo..hi].copy_from_slice(&out[..hi - lo]);
            }
            // Trace: per padded column, coalesced val+col loads and an x
            // gather; the warp is always fully active (no divergence).
            let col = args.u32(arg::ELL_COL).expect("ell col");
            let mut xbuf = [0u64; 32];
            for k in 0..width {
                let base = (k * rows + lo) as u64;
                ctx.warp_load(arg::ELL_VAL, base, 1, n);
                ctx.warp_load(arg::ELL_COL, base, 1, n);
                for (slot, r) in (lo..hi).enumerate() {
                    xbuf[slot] = u64::from(col[k * rows + r]);
                }
                ctx.gather(arg::X, &xbuf[..n as usize]);
                ctx.vector_compute(1, 32, n, 2);
            }
            ctx.warp_store(arg::Y, lo as u64, 1, n);
        }
    })
}

/// Builds the duplicated-input argument set (CSR + ELL images).
///
/// Returns the arguments and the ELL image's padded row length.
pub fn build_args(m: &CsrMatrix, seed: u64) -> (Args, usize) {
    let ell = EllMatrix::from_csr(m);
    let mut args = spmv_csr::build_args(m, seed);
    args.push(Buffer::u32("ell_col", ell.col_idx, Space::Global));
    args.push(Buffer::f32("ell_val", ell.vals, Space::Global));
    (args, ell.width)
}

/// Assembles the format-selection workload: CSR-scalar, CSR-vector and
/// ELL candidates over the same (duplicated) inputs.
pub fn workload(name: &str, m: &CsrMatrix, seed: u64) -> Workload {
    let (args, width) = build_args(m, seed);
    let variants = vec![
        spmv_csr::gpu_scalar(m.rows, Vec::new(), "csr-scalar"),
        spmv_csr::gpu_vector(m.rows, Vec::new(), "csr-vector"),
        gpu_ell(m.rows, width),
    ];
    Workload::new(
        name,
        args,
        m.rows.div_ceil(ROW_BLOCK) as u64,
        variants.clone(),
        variants,
        spmv_csr::verify_fn(),
    )
    .iterative()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Target;
    use dysel_kernel::GroupCtx;

    #[test]
    fn ell_conversion_is_exact() {
        let m = CsrMatrix::random(100, 100, 0.08, 5);
        let ell = EllMatrix::from_csr(&m);
        assert_eq!(ell.width, m.max_row_len());
        assert!(ell.padding_factor(m.nnz()) >= 1.0);
        // Padded entries contribute zero: spmv through ELL matches CSR.
        let x: Vec<f32> = (0..100).map(|i| (i as f32 * 0.1).cos()).collect();
        let want = m.spmv_ref(&x);
        let mut got = vec![0.0f32; 100];
        for (r, g) in got.iter_mut().enumerate() {
            for k in 0..ell.width {
                let j = k * 100 + r;
                *g += ell.vals[j] * x[ell.col_idx[j] as usize];
            }
        }
        for (g, w) in got.iter().zip(&want) {
            assert!((g - w).abs() < 1e-4);
        }
    }

    #[test]
    fn all_format_variants_match_reference() {
        for m in [
            CsrMatrix::random(256, 256, 0.05, 9),
            CsrMatrix::diagonal(256),
        ] {
            let w = workload("spmv-fmt", &m, 3);
            for v in w.variants(Target::Gpu) {
                let mut args = w.fresh_args();
                let mut ctx = GroupCtx::for_test(0, 0, w.total_units, &args);
                v.kernel.run_group(&mut ctx, &mut args);
                w.verify(&args)
                    .unwrap_or_else(|e| panic!("{}: {e}", v.name()));
            }
        }
    }

    #[test]
    fn ell_ir_is_uniform_but_x_is_indirect() {
        let v = gpu_ell(128, 4);
        assert!(!v.meta.ir.has_nonuniform_loops(), "padding regularizes ELL");
        assert!(v
            .meta
            .ir
            .accesses
            .iter()
            .any(|a| matches!(a.pattern, dysel_kernel::AccessPattern::Indirect)));
    }
}
