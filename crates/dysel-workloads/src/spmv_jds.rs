//! Sparse matrix-vector multiply on JDS (Parboil's `spmv`).
//!
//! GPU candidate axes (Case III, four variants): loop unrolling + software
//! prefetching, and placing `x` in texture memory. CPU candidates (two):
//! diagonal-major vs row-major work-item serialization. Fig. 1 adds CPU
//! vectorization-width variants (scalar / 4-way / 8-way across rows of a
//! jagged diagonal).
//!
//! The workload unit is a block of 32 *sorted* rows.

use std::sync::Arc;

use dysel_kernel::{
    AccessIr, Args, Buffer, KernelIr, LoopBound, LoopIr, LoopKind, Space, Variant, VariantMeta,
};

use crate::jds::jds_spmv;
use crate::{check_close, JdsMatrix, RefMemo, Workload};

/// Sorted rows per workload unit.
pub const ROW_BLOCK: usize = 32;

/// Argument indices of the spmv-jds signature.
pub mod arg {
    /// Output vector `y` (original row order).
    pub const Y: usize = 0;
    /// Diagonal start offsets (`u32`).
    pub const DIA_PTR: usize = 1;
    /// Rows alive per diagonal (`u32`).
    pub const DIA_ROWS: usize = 2;
    /// Column indices (`u32`).
    pub const COL_IDX: usize = 3;
    /// Values (`f32`).
    pub const VALS: usize = 4;
    /// Input vector `x`.
    pub const X: usize = 5;
    /// Row permutation (`u32`).
    pub const PERM: usize = 6;
}

/// Units map to sorted-row blocks through a fixed odd-multiplier bijection
/// (when the block count is a power of two) so that a contiguous unit
/// range — in particular DySel's profiling slice — samples the whole
/// sorted-row-length spectrum instead of only the longest rows. Without
/// this, JDS's length sorting systematically biases micro-profiling.
fn block_of(jds_rows: usize, unit: u64) -> u64 {
    let blocks = jds_rows.div_ceil(ROW_BLOCK) as u64;
    if blocks.is_power_of_two() {
        (unit.wrapping_mul(2531) + 5) & (blocks - 1)
    } else {
        unit
    }
}

/// Functional computation of the unit's sorted-row block.
fn compute_block(args: &mut Args, jds_rows: usize, unit: u64) {
    let unit = block_of(jds_rows, unit);
    let lo = unit as usize * ROW_BLOCK;
    let hi = (lo + ROW_BLOCK).min(jds_rows);
    let mut out = [0.0f32; ROW_BLOCK];
    let mut targets = [0usize; ROW_BLOCK];
    {
        let dia_ptr = args.u32(arg::DIA_PTR).expect("dia_ptr");
        let dia_rows = args.u32(arg::DIA_ROWS).expect("dia_rows");
        let col = args.u32(arg::COL_IDX).expect("col_idx");
        let vals = args.f32(arg::VALS).expect("vals");
        let x = args.f32(arg::X).expect("x");
        let perm = args.u32(arg::PERM).expect("perm");
        for (slot, i) in (lo..hi).enumerate() {
            targets[slot] = perm[i] as usize;
            let mut acc = 0.0f32;
            for d in 0..dia_rows.len() {
                if (dia_rows[d] as usize) <= i {
                    break;
                }
                let j = dia_ptr[d] as usize + i;
                acc += vals[j] * x[col[j] as usize];
            }
            out[slot] = acc;
        }
    }
    let y = args.f32_mut(arg::Y).expect("y");
    for (slot, i) in (lo..hi).enumerate() {
        let _ = i;
        y[targets[slot]] = out[slot];
    }
}

fn gpu_ir() -> KernelIr {
    KernelIr::regular(vec![arg::Y])
        .with_loops(vec![
            LoopIr::new(LoopKind::WorkItem(0), LoopBound::UniformRuntime),
            LoopIr::new(LoopKind::Kernel, LoopBound::DataDependent),
        ])
        .with_accesses(vec![
            AccessIr::affine_load(arg::VALS, vec![1, 0]),
            AccessIr::indirect_load(arg::X),
            AccessIr::affine_store(arg::Y, vec![1, 0]),
        ])
}

/// One GPU variant. `unroll_prefetch` applies 2x unrolling plus software
/// prefetching of `x`; `texture` binds `x` to the texture path.
pub fn gpu_variant(jds_rows: usize, unroll_prefetch: bool, texture: bool) -> Variant {
    let name = match (unroll_prefetch, texture) {
        (false, false) => "base",
        (true, false) => "unroll-prefetch",
        (false, true) => "texture",
        (true, true) => "unroll-prefetch-texture",
    };
    let mut placements = vec![None; 7];
    if texture {
        placements[arg::X] = Some(Space::Texture);
    }
    let meta = VariantMeta::new(name, gpu_ir())
        .with_group_size(ROW_BLOCK as u32)
        .with_placements(placements);
    Variant::from_fn(meta, move |ctx, args| {
        for u in ctx.units().iter() {
            compute_block(args, jds_rows, u);
            let lo = block_of(jds_rows, u) as usize * ROW_BLOCK;
            let hi = (lo + ROW_BLOCK).min(jds_rows);
            let (dia_ptr, dia_rows): (Vec<u64>, Vec<usize>) = {
                let p = args.u32(arg::DIA_PTR).expect("dia_ptr");
                let r = args.u32(arg::DIA_ROWS).expect("dia_rows");
                (
                    p.iter().map(|&v| u64::from(v)).collect(),
                    r.iter().map(|&v| v as usize).collect(),
                )
            };
            let col = args.u32(arg::COL_IDX).expect("col_idx");
            let mut xbuf = [0u64; 64];
            let step = if unroll_prefetch { 2 } else { 1 };
            let mut d = 0;
            while d < dia_rows.len() && dia_rows[d] > lo {
                // Lanes = rows of this block alive at diagonal d (and d+1
                // for the unrolled variant).
                let mut n = 0;
                for dd in 0..step {
                    if d + dd >= dia_rows.len() {
                        break;
                    }
                    let alive_hi = dia_rows[d + dd].min(hi);
                    for i in lo..alive_hi {
                        let j = dia_ptr[d + dd] as usize + i;
                        xbuf[n] = u64::from(col[j]);
                        n += 1;
                    }
                    if alive_hi > lo {
                        // Values along a diagonal are contiguous: coalesced.
                        ctx.warp_load(
                            arg::VALS,
                            dia_ptr[d + dd] + lo as u64,
                            1,
                            (alive_hi - lo) as u32,
                        );
                    }
                }
                if n > 0 {
                    // The unrolled variant issues one combined (wider)
                    // gather, giving slightly better segment reuse.
                    ctx.gather(arg::X, &xbuf[..n]);
                    // Loop bound test + FMA per diagonal step; unrolling
                    // halves the per-iteration branch overhead.
                    let ops = if unroll_prefetch { 5 } else { 6 };
                    ctx.vector_compute(step as u64, 32, 32.min(n as u32), ops);
                }
                d += step;
            }
            if unroll_prefetch {
                // Prefetch prologue/epilogue and unroll remainder handling:
                // fixed per-group instruction overhead (the "redundant when
                // texture memory is applied" cost of §4.3).
                ctx.vector_compute(1, 32, 32, 18);
            }
            let nrows = (hi - lo) as u32;
            ctx.warp_load(arg::PERM, lo as u64, 1, nrows);
            // y[perm[i]] scatter.
            let perm = args.u32(arg::PERM).expect("perm");
            let addrs: Vec<u64> = (lo..hi).map(|i| u64::from(perm[i])).collect();
            ctx.scatter(arg::Y, &addrs);
        }
    })
}

/// The four GPU candidates of Case III.
pub fn gpu_variants(jds_rows: usize) -> Vec<Variant> {
    vec![
        gpu_variant(jds_rows, false, false),
        gpu_variant(jds_rows, true, false),
        gpu_variant(jds_rows, false, true),
        gpu_variant(jds_rows, true, true),
    ]
}

/// CPU serialization order for JDS.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CpuOrder {
    /// Walk each jagged diagonal contiguously (unit-stride values).
    DiagonalMajor,
    /// Walk each row across diagonals (strided by diagonal extents).
    RowMajor,
}

/// One CPU variant with a serialization order and SIMD width
/// (1 = scalar; vectorization is across rows of a diagonal).
pub fn cpu_variant(jds_rows: usize, order: CpuOrder, width: u32) -> Variant {
    let name = match (order, width) {
        (CpuOrder::DiagonalMajor, 1) => "dia-major".to_owned(),
        (CpuOrder::RowMajor, 1) => "row-major".to_owned(),
        (CpuOrder::DiagonalMajor, w) => format!("dia-major-{w}way"),
        (CpuOrder::RowMajor, w) => format!("row-major-{w}way"),
    };
    let ir = match order {
        CpuOrder::DiagonalMajor => KernelIr::regular(vec![arg::Y])
            .with_loops(vec![
                LoopIr::new(LoopKind::Kernel, LoopBound::DataDependent),
                LoopIr::new(LoopKind::WorkItem(0), LoopBound::UniformRuntime),
            ])
            .with_accesses(vec![
                AccessIr::affine_load(arg::VALS, vec![0, 1]),
                AccessIr::indirect_load(arg::X),
                AccessIr::affine_store(arg::Y, vec![0, 1]),
            ]),
        CpuOrder::RowMajor => KernelIr::regular(vec![arg::Y])
            .with_loops(vec![
                LoopIr::new(LoopKind::WorkItem(0), LoopBound::UniformRuntime),
                LoopIr::new(LoopKind::Kernel, LoopBound::DataDependent),
            ])
            .with_accesses(vec![
                // Walking one row across jagged diagonals strides by the
                // (data-dependent) diagonal extents: indirect to the
                // compiler, unlike the GPU kernel where the work-item
                // dimension is the contiguous one.
                AccessIr::indirect_load(arg::VALS),
                AccessIr::indirect_load(arg::X),
                AccessIr::affine_store(arg::Y, vec![1, 0]),
            ]),
    };
    let meta = VariantMeta::new(name, ir).with_group_size(ROW_BLOCK as u32);
    Variant::from_fn(meta, move |ctx, args| {
        let w = width.max(1) as usize;
        for u in ctx.units().iter() {
            compute_block(args, jds_rows, u);
            let lo = block_of(jds_rows, u) as usize * ROW_BLOCK;
            let hi = (lo + ROW_BLOCK).min(jds_rows);
            let (dia_ptr, dia_rows): (Vec<u64>, Vec<usize>) = {
                let p = args.u32(arg::DIA_PTR).expect("dia_ptr");
                let r = args.u32(arg::DIA_ROWS).expect("dia_rows");
                (
                    p.iter().map(|&v| u64::from(v)).collect(),
                    r.iter().map(|&v| v as usize).collect(),
                )
            };
            let col = args.u32(arg::COL_IDX).expect("col_idx");
            match order {
                CpuOrder::DiagonalMajor => {
                    for d in 0..dia_rows.len() {
                        let alive_hi = dia_rows[d].min(hi);
                        if alive_hi <= lo {
                            break;
                        }
                        let n = alive_hi - lo;
                        let base = dia_ptr[d] + lo as u64;
                        // Contiguous values; gathered x; vectorized in
                        // w-wide chunks across rows.
                        let mut i = 0;
                        let mut xbuf = [0u64; 32];
                        while i < n {
                            let c = w.min(n - i);
                            for s in 0..c {
                                xbuf[s] = u64::from(col[(base as usize) + i + s]);
                            }
                            if w == 1 {
                                ctx.stream_load(arg::VALS, base + i as u64, c as u64, 1);
                            } else {
                                ctx.warp_load(arg::VALS, base + i as u64, 1, c as u32);
                            }
                            ctx.gather(arg::X, &xbuf[..c]);
                            ctx.vector_compute(1, width.max(1), c as u32, 2);
                            i += c;
                        }
                        ctx.compute(6);
                    }
                    ctx.stream_store(arg::Y, lo as u64, (hi - lo) as u64, 1);
                }
                CpuOrder::RowMajor => {
                    for i in lo..hi {
                        let mut d = 0;
                        let mut xbuf = [0u64; 1];
                        while d < dia_rows.len() && dia_rows[d] > i {
                            let j = dia_ptr[d] as usize + i;
                            // Per-row walk strides by the diagonal extents:
                            // one isolated access per element.
                            ctx.stream_load(arg::VALS, j as u64, 1, 1);
                            xbuf[0] = u64::from(col[j]);
                            ctx.gather(arg::X, &xbuf);
                            ctx.compute(8);
                            d += 1;
                        }
                        ctx.stream_store(arg::Y, i as u64, 1, 1);
                    }
                }
            }
        }
    })
}

/// The two CPU candidates of Cases I and III.
pub fn cpu_variants(jds_rows: usize) -> Vec<Variant> {
    vec![
        cpu_variant(jds_rows, CpuOrder::DiagonalMajor, 1),
        cpu_variant(jds_rows, CpuOrder::RowMajor, 1),
    ]
}

/// Fig. 1 CPU vectorization-width candidates (scalar / 4-way / 8-way).
pub fn cpu_vector_variants(jds_rows: usize) -> Vec<Variant> {
    vec![
        cpu_variant(jds_rows, CpuOrder::DiagonalMajor, 1),
        cpu_variant(jds_rows, CpuOrder::DiagonalMajor, 4),
        cpu_variant(jds_rows, CpuOrder::DiagonalMajor, 8),
    ]
}

/// Builds the argument set for a JDS matrix.
pub fn build_args(m: &JdsMatrix, seed: u64) -> Args {
    use dysel_kernel::XorShiftRng;
    let mut rng = XorShiftRng::seed_from_u64(seed);
    let x: Vec<f32> = (0..m.cols).map(|_| rng.gen_range_f32(-1.0, 1.0)).collect();
    let mut args = Args::new();
    args.push(Buffer::f32("y", vec![0.0; m.rows], Space::Global));
    args.push(Buffer::u32("dia_ptr", m.dia_ptr.clone(), Space::Global));
    args.push(Buffer::u32("dia_rows", m.dia_rows.clone(), Space::Global));
    args.push(Buffer::u32("col_idx", m.col_idx.clone(), Space::Global));
    args.push(Buffer::f32("vals", m.vals.clone(), Space::Global));
    args.push(Buffer::f32("x", x, Space::Global));
    args.push(Buffer::u32("perm", m.perm.clone(), Space::Global));
    args
}

/// Assembles the spmv-jds workload with the Case I/III variant sets.
pub fn workload(m: &JdsMatrix, seed: u64) -> Workload {
    workload_with(m, seed, cpu_variants(m.rows), gpu_variants(m.rows))
}

/// Fig. 1 workload (CPU vector widths).
pub fn vector_workload(m: &JdsMatrix, seed: u64) -> Workload {
    workload_with(m, seed, cpu_vector_variants(m.rows), gpu_variants(m.rows))
}

fn workload_with(m: &JdsMatrix, seed: u64, cpu: Vec<Variant>, gpu: Vec<Variant>) -> Workload {
    let memo = RefMemo::new(&[
        arg::DIA_PTR,
        arg::DIA_ROWS,
        arg::COL_IDX,
        arg::VALS,
        arg::X,
        arg::PERM,
    ]);
    let verify: crate::VerifyFn = Arc::new(move |args: &Args| {
        let want = memo.get(args, || {
            let u32_arg = |i| args.u32(i).map_err(|e| e.to_string());
            let vals = args.f32(arg::VALS).map_err(|e| e.to_string())?;
            let x = args.f32(arg::X).map_err(|e| e.to_string())?;
            Ok(jds_spmv(
                u32_arg(arg::PERM)?,
                u32_arg(arg::DIA_PTR)?,
                u32_arg(arg::DIA_ROWS)?,
                u32_arg(arg::COL_IDX)?,
                vals,
                x,
            ))
        })?;
        check_close(
            "y",
            args.f32(arg::Y).map_err(|e| e.to_string())?,
            &want,
            1e-3,
        )
    });
    Workload::new(
        "spmv-jds",
        build_args(m, seed),
        m.rows.div_ceil(ROW_BLOCK) as u64,
        cpu,
        gpu,
        verify,
    )
    .iterative()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CsrMatrix, Target};
    use dysel_kernel::GroupCtx;

    fn jds(n: usize) -> JdsMatrix {
        JdsMatrix::from_csr(&CsrMatrix::random(n, n, 0.06, 21))
    }

    fn run_all(w: &Workload, target: Target) {
        for v in w.variants(target) {
            let mut args = w.fresh_args();
            let mut ctx = GroupCtx::for_test(0, 0, w.total_units, &args);
            v.kernel.run_group(&mut ctx, &mut args);
            w.verify(&args)
                .unwrap_or_else(|e| panic!("{} ({target}): {e}", v.name()));
        }
    }

    #[test]
    fn all_gpu_variants_match_reference() {
        let w = workload(&jds(200), 3);
        assert_eq!(w.variants(Target::Gpu).len(), 4);
        run_all(&w, Target::Gpu);
    }

    #[test]
    fn all_cpu_variants_match_reference() {
        let w = workload(&jds(200), 3);
        run_all(&w, Target::Cpu);
    }

    #[test]
    fn vector_widths_match_reference() {
        let w = vector_workload(&jds(150), 4);
        assert_eq!(w.variants(Target::Cpu).len(), 3);
        run_all(&w, Target::Cpu);
    }

    #[test]
    fn texture_variant_binds_x() {
        let vs = gpu_variants(128);
        assert_eq!(vs[2].meta.placements[arg::X], Some(Space::Texture));
        assert_eq!(vs[0].meta.placements[arg::X], None);
    }

    #[test]
    fn jds_workload_is_iterative_and_irregular() {
        let w = workload(&jds(100), 1);
        assert!(w.iterative);
        assert!(w.variants(Target::Gpu)[0].meta.ir.has_nonuniform_loops());
    }
}
