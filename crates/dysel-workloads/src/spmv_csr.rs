//! Sparse matrix-vector multiply on CSR (SHOC's `spmv`), the paper's
//! input-dependent workhorse.
//!
//! The optimal implementation depends on the matrix (§4.4): on a random 1%
//! matrix the vector kernel (one warp per row) wins on the GPU thanks to
//! coalescing, while on a diagonal matrix (one non-zero per row) it
//! underutilizes every warp and the scalar kernel (one thread per row) wins
//! by a wide margin. On the CPU the schedule (row-loop-first "DFO" vs
//! work-item-loop-first "BFO") interacts with the input the same way.
//!
//! The workload unit is a block of [`ROW_BLOCK`] rows.

use std::sync::Arc;

use dysel_kernel::{
    AccessIr, Args, Buffer, GroupCtx, KernelIr, LoopBound, LoopIr, LoopKind, Space, Variant,
    VariantMeta,
};

use crate::csr::csr_spmv;
use crate::{check_close, CsrMatrix, RefMemo, Workload};

/// Rows per workload unit.
pub const ROW_BLOCK: usize = 32;

/// Argument indices of the spmv-csr signature.
pub mod arg {
    /// Output vector `y`.
    pub const Y: usize = 0;
    /// CSR row pointers (`u32`).
    pub const ROW_PTR: usize = 1;
    /// CSR column indices (`u32`).
    pub const COL_IDX: usize = 2;
    /// CSR values (`f32`).
    pub const VALS: usize = 3;
    /// Input vector `x`.
    pub const X: usize = 4;
}

/// Schedules for CPU work-item serialization.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CpuSchedule {
    /// Depth-first order: finish each row's in-kernel loop before moving to
    /// the next work-item (row). LC's unconditional choice.
    Dfo,
    /// Breadth-first order: iterate the work-item loop innermost, walking
    /// all rows at in-kernel position `k` before `k+1`.
    Bfo,
}

impl CpuSchedule {
    /// Lowercase name.
    pub fn name(self) -> &'static str {
        match self {
            CpuSchedule::Dfo => "dfo",
            CpuSchedule::Bfo => "bfo",
        }
    }
}

/// Computes `y` for the unit's row block functionally.
fn compute_block(args: &mut Args, rows: usize, unit: u64) {
    let lo = unit as usize * ROW_BLOCK;
    let hi = (lo + ROW_BLOCK).min(rows);
    let mut out = [0.0f32; ROW_BLOCK];
    {
        let ptr = args.u32(arg::ROW_PTR).expect("row_ptr");
        let col = args.u32(arg::COL_IDX).expect("col_idx");
        let vals = args.f32(arg::VALS).expect("vals");
        let x = args.f32(arg::X).expect("x");
        for (o, r) in out.iter_mut().zip(lo..hi) {
            let (a, b) = (ptr[r] as usize, ptr[r + 1] as usize);
            *o = (a..b).map(|j| vals[j] * x[col[j] as usize]).sum();
        }
    }
    let y = args.f32_mut(arg::Y).expect("y");
    y[lo..hi].copy_from_slice(&out[..hi - lo]);
}

/// Emits chunked gathers of `x[col[j]]` for `j in a..b`.
fn gather_x(ctx: &mut GroupCtx<'_>, col: &[u32], a: usize, b: usize, width: usize) {
    let mut buf = [0u64; 32];
    let mut n = 0;
    for &c in &col[a..b] {
        buf[n] = u64::from(c);
        n += 1;
        if n == width {
            ctx.gather(arg::X, &buf[..n]);
            n = 0;
        }
    }
    if n > 0 {
        ctx.gather(arg::X, &buf[..n]);
    }
}

fn dfo_ir() -> KernelIr {
    KernelIr::regular(vec![arg::Y])
        .with_loops(vec![
            LoopIr::new(LoopKind::WorkItem(0), LoopBound::UniformRuntime),
            LoopIr::new(LoopKind::Kernel, LoopBound::DataDependent),
        ])
        .with_accesses(vec![
            AccessIr::affine_load(arg::VALS, vec![0, 1]),
            AccessIr::affine_load(arg::COL_IDX, vec![0, 1]),
            AccessIr::indirect_load(arg::X),
            AccessIr::affine_store(arg::Y, vec![1, 0]),
        ])
}

fn bfo_ir() -> KernelIr {
    KernelIr::regular(vec![arg::Y])
        .with_loops(vec![
            LoopIr::new(LoopKind::Kernel, LoopBound::DataDependent),
            LoopIr::new(LoopKind::WorkItem(0), LoopBound::UniformRuntime),
        ])
        .with_accesses(vec![
            // Stride across rows at fixed k is the (data-dependent) row
            // length: indirect as far as the compiler can tell.
            AccessIr::indirect_load(arg::VALS),
            AccessIr::indirect_load(arg::COL_IDX),
            AccessIr::indirect_load(arg::X),
            AccessIr::affine_store(arg::Y, vec![0, 1]),
        ])
}

/// One CPU variant: `scalar`/`vector` x `DFO`/`BFO`.
///
/// The vector flavour processes `width` lanes at a time and, like SHOC's
/// vector kernel, reduces partial sums through local memory — a pure copy
/// cost once lowered to the CPU (§4.4).
pub fn cpu_variant(rows: usize, schedule: CpuSchedule, vector_width: u32) -> Variant {
    let flavor = if vector_width <= 1 {
        "scalar"
    } else {
        "vector"
    };
    let name = format!("{flavor}-{}", schedule.name());
    let ir = match schedule {
        CpuSchedule::Dfo => dfo_ir(),
        CpuSchedule::Bfo => bfo_ir(),
    };
    let meta = VariantMeta::new(name, ir).with_group_size(ROW_BLOCK as u32);
    Variant::from_fn(meta, move |ctx, args| {
        let w = vector_width.max(1) as usize;
        // Run the functional phase for every unit first so the trace-emission
        // loop below can borrow row_ptr/col_idx for the whole span instead of
        // re-materialising them per unit. `compute_block` emits no trace
        // events, so the recorded event stream is unchanged.
        for u in ctx.units().iter() {
            compute_block(args, rows, u);
        }
        let p = args.u32(arg::ROW_PTR).expect("row_ptr");
        let col = args.u32(arg::COL_IDX).expect("col_idx");
        for u in ctx.units().iter() {
            let lo = u as usize * ROW_BLOCK;
            let hi = (lo + ROW_BLOCK).min(rows);
            let ptr: Vec<usize> = (lo..=hi).map(|r| p[r] as usize).collect();
            match schedule {
                CpuSchedule::Dfo => {
                    for r in 0..hi - lo {
                        let (a, b) = (ptr[r], ptr[r + 1]);
                        let len = (b - a) as u64;
                        if w == 1 {
                            ctx.stream_load(arg::VALS, a as u64, len, 1);
                            ctx.stream_load(arg::COL_IDX, a as u64, len, 1);
                            gather_x(ctx, col, a, b, 1);
                            // Per-work-item preamble (bounds, row-pointer
                            // loads, accumulator) + one FMA per non-zero.
                            ctx.compute(12 + 2 * len);
                        } else {
                            // Vector loads of vals and col_idx are
                            // contiguous; x is a true gather; partial sums
                            // round-trip through "local memory".
                            let chunks = (len as usize).div_ceil(w) as u64;
                            for c0 in (0..len as usize).step_by(w) {
                                let cl = w.min(len as usize - c0) as u32;
                                ctx.warp_load(arg::VALS, (a + c0) as u64, 1, cl);
                                ctx.warp_load(arg::COL_IDX, (a + c0) as u64, 1, cl);
                            }
                            gather_x(ctx, col, a, b, w);
                            ctx.vector_compute(chunks, vector_width, vector_width, 2);
                            // SHOC's vector kernel reduces partial sums
                            // through local memory: log2(w) rounds of
                            // store + barrier + load — pure copy cost on a
                            // CPU (§4.4: "it uses local memory which incurs
                            // the copy cost without any benefit").
                            let rounds = (vector_width.max(2) as f64).log2().ceil() as u32;
                            for _ in 0..rounds {
                                ctx.scratchpad(vector_width, 1, true);
                                ctx.barrier();
                                ctx.scratchpad(vector_width, 1, false);
                            }
                            ctx.compute(6);
                        }
                        ctx.stream_store(arg::Y, (lo + r) as u64, 1, 1);
                    }
                }
                CpuSchedule::Bfo => {
                    let max_len = (0..hi - lo).map(|r| ptr[r + 1] - ptr[r]).max().unwrap_or(0);
                    for k in 0..max_len {
                        // The breadth-first order keeps one running sum per
                        // row alive: too many for registers, so partials
                        // spill to (L1-hot) memory every step.
                        if k > 0 {
                            ctx.stream_load(arg::Y, lo as u64, (hi - lo) as u64, 1);
                        }
                        // Walk all rows still alive at position k.
                        let mut vbuf = [0u64; 32];
                        let mut xbuf = [0u64; 32];
                        let mut n = 0;
                        for r in 0..hi - lo {
                            let (a, b) = (ptr[r], ptr[r + 1]);
                            if a + k < b {
                                vbuf[n] = (a + k) as u64;
                                xbuf[n] = u64::from(col[a + k]);
                                n += 1;
                                if n == w {
                                    ctx.gather(arg::VALS, &vbuf[..n]);
                                    ctx.gather(arg::COL_IDX, &vbuf[..n]);
                                    ctx.gather(arg::X, &xbuf[..n]);
                                    n = 0;
                                }
                            }
                        }
                        if n > 0 {
                            ctx.gather(arg::VALS, &vbuf[..n]);
                            ctx.gather(arg::COL_IDX, &vbuf[..n]);
                            ctx.gather(arg::X, &xbuf[..n]);
                        }
                        // One setup per k-step, one FMA per alive row.
                        let alive = (0..hi - lo).filter(|&r| ptr[r] + k < ptr[r + 1]).count();
                        ctx.compute(6 + 2 * alive as u64);
                        if w > 1 {
                            ctx.scratchpad(vector_width, 1, true);
                            ctx.scratchpad(vector_width, 1, false);
                            ctx.barrier();
                        }
                        ctx.stream_store(arg::Y, lo as u64, (hi - lo) as u64, 1);
                    }
                }
            }
        }
    })
}

/// The four CPU variants of Case IV: scalar/vector x DFO/BFO.
pub fn cpu_case4_variants(rows: usize) -> Vec<Variant> {
    vec![
        cpu_variant(rows, CpuSchedule::Dfo, 1),
        cpu_variant(rows, CpuSchedule::Bfo, 1),
        cpu_variant(rows, CpuSchedule::Dfo, 8),
        cpu_variant(rows, CpuSchedule::Bfo, 8),
    ]
}

/// The two CPU schedule variants of Case I (scalar kernel, DFO vs BFO).
pub fn cpu_schedule_variants(rows: usize) -> Vec<Variant> {
    vec![
        cpu_variant(rows, CpuSchedule::Dfo, 1),
        cpu_variant(rows, CpuSchedule::Bfo, 1),
    ]
}

/// GPU scalar kernel: one thread per row, 32 rows per warp. Divergence
/// (`max` row length in the warp) and scattered per-lane accesses emerge
/// from the actual matrix.
pub fn gpu_scalar(rows: usize, placements: Vec<Option<Space>>, name: &str) -> Variant {
    let meta = VariantMeta::new(name, dfo_ir())
        .with_group_size(ROW_BLOCK as u32)
        .with_placements(placements);
    Variant::from_fn(meta, move |ctx, args| {
        for u in ctx.units().iter() {
            compute_block(args, rows, u);
            let lo = u as usize * ROW_BLOCK;
            let hi = (lo + ROW_BLOCK).min(rows);
            let ptr: Vec<usize> = {
                let p = args.u32(arg::ROW_PTR).expect("row_ptr");
                (lo..=hi).map(|r| p[r] as usize).collect()
            };
            let col = args.u32(arg::COL_IDX).expect("col_idx");
            let nrows = hi - lo;
            ctx.warp_load(arg::ROW_PTR, lo as u64, 1, nrows as u32);
            let max_len = (0..nrows).map(|r| ptr[r + 1] - ptr[r]).max().unwrap_or(0);
            let mut vbuf = [0u64; 32];
            let mut xbuf = [0u64; 32];
            for k in 0..max_len {
                let mut n = 0;
                for r in 0..nrows {
                    if ptr[r] + k < ptr[r + 1] {
                        vbuf[n] = (ptr[r] + k) as u64;
                        xbuf[n] = u64::from(col[ptr[r] + k]);
                        n += 1;
                    }
                }
                // The whole warp issues even when few lanes are alive;
                // vals and col_idx reads are per-lane scattered.
                ctx.gather(arg::VALS, &vbuf[..n]);
                ctx.gather(arg::COL_IDX, &vbuf[..n]);
                ctx.gather(arg::X, &xbuf[..n]);
                ctx.vector_compute(1, 32, n as u32, 3);
            }
            ctx.warp_store(arg::Y, lo as u64, 1, nrows as u32);
        }
    })
}

/// GPU vector kernel: one warp per row; lanes stride the row, then reduce.
/// Coalesced on long rows; on a diagonal matrix each warp does one useful
/// lane of work per row (the paper's 22.73x pathology).
pub fn gpu_vector(rows: usize, placements: Vec<Option<Space>>, name: &str) -> Variant {
    let ir = dfo_ir().with_scratchpad(32 * 4);
    let meta = VariantMeta::new(name, ir)
        .with_group_size(ROW_BLOCK as u32 * 32)
        .with_placements(placements);
    Variant::from_fn(meta, move |ctx, args| {
        for u in ctx.units().iter() {
            compute_block(args, rows, u);
            let lo = u as usize * ROW_BLOCK;
            let hi = (lo + ROW_BLOCK).min(rows);
            let ptr: Vec<usize> = {
                let p = args.u32(arg::ROW_PTR).expect("row_ptr");
                (lo..=hi).map(|r| p[r] as usize).collect()
            };
            let col = args.u32(arg::COL_IDX).expect("col_idx");
            let mut xbuf = [0u64; 32];
            for r in 0..hi - lo {
                let (a, b) = (ptr[r], ptr[r + 1]);
                ctx.warp_load(arg::ROW_PTR, (lo + r) as u64, 1, 2);
                for chunk in (a..b).step_by(32) {
                    let n = (b - chunk).min(32);
                    // Values and column indices are contiguous: coalesced.
                    ctx.warp_load(arg::VALS, chunk as u64, 1, n as u32);
                    ctx.warp_load(arg::COL_IDX, chunk as u64, 1, n as u32);
                    for (slot, j) in (chunk..chunk + n).enumerate() {
                        xbuf[slot] = u64::from(col[j]);
                    }
                    ctx.gather(arg::X, &xbuf[..n]);
                    ctx.vector_compute(1, 32, n as u32, 2);
                }
                // Warp-level log2(32) reduction through scratchpad.
                ctx.scratchpad(32, 1, true);
                ctx.vector_compute(5, 32, 32, 1);
                ctx.scratchpad(32, 1, false);
                ctx.warp_store(arg::Y, (lo + r) as u64, 0, 1);
            }
        }
    })
}

/// The two GPU variants of Case IV.
pub fn gpu_case4_variants(rows: usize) -> Vec<Variant> {
    vec![
        gpu_scalar(rows, Vec::new(), "scalar"),
        gpu_vector(rows, Vec::new(), "vector"),
    ]
}

/// The four GPU data-placement variants of Case II, applied to the scalar
/// kernel: where to place `x` and `col_idx` (global / texture / constant).
pub fn gpu_placement_variants(rows: usize) -> Vec<Variant> {
    let place = |x: Space, col: Space| -> Vec<Option<Space>> {
        let mut p = vec![None; 5];
        p[arg::X] = Some(x);
        p[arg::COL_IDX] = Some(col);
        p
    };
    vec![
        // PORPLE policy computed with Fermi parameters — the actual optimum
        // on Kepler (§4.2's irony).
        gpu_scalar(rows, place(Space::Texture, Space::Global), "porple-fermi"),
        // PORPLE policy computed with Kepler parameters: suboptimal.
        gpu_scalar(rows, place(Space::Global, Space::Texture), "porple-kepler"),
        // PORPLE policy computed with Maxwell parameters.
        gpu_scalar(
            rows,
            place(Space::Texture, Space::Texture),
            "porple-maxwell",
        ),
        // Rule-based heuristic: "read-only, reused => constant memory".
        gpu_scalar(rows, place(Space::Constant, Space::Global), "heuristic"),
    ]
}

/// Builds the argument set for a matrix.
pub fn build_args(m: &CsrMatrix, seed: u64) -> Args {
    use dysel_kernel::XorShiftRng;
    let mut rng = XorShiftRng::seed_from_u64(seed);
    let x: Vec<f32> = (0..m.cols).map(|_| rng.gen_range_f32(-1.0, 1.0)).collect();
    let mut args = Args::new();
    args.push(Buffer::f32("y", vec![0.0; m.rows], Space::Global));
    args.push(Buffer::u32("row_ptr", m.row_ptr.clone(), Space::Global));
    args.push(Buffer::u32("col_idx", m.col_idx.clone(), Space::Global));
    args.push(Buffer::f32("vals", m.vals.clone(), Space::Global));
    args.push(Buffer::f32("x", x, Space::Global));
    args
}

/// Verifies `y` against a reference computed from the argument set's own
/// CSR arrays and `x` (shared with the ELL workload, whose arguments start
/// with the same five).
pub(crate) fn verify_fn() -> crate::VerifyFn {
    let memo = RefMemo::new(&[arg::ROW_PTR, arg::COL_IDX, arg::VALS, arg::X]);
    Arc::new(move |args: &Args| {
        let want = memo.get(args, || {
            let row_ptr = args.u32(arg::ROW_PTR).map_err(|e| e.to_string())?;
            let col_idx = args.u32(arg::COL_IDX).map_err(|e| e.to_string())?;
            let vals = args.f32(arg::VALS).map_err(|e| e.to_string())?;
            let x = args.f32(arg::X).map_err(|e| e.to_string())?;
            Ok(csr_spmv(row_ptr, col_idx, vals, x))
        })?;
        check_close(
            "y",
            args.f32(arg::Y).map_err(|e| e.to_string())?,
            &want,
            1e-3,
        )
    })
}

/// Assembles a workload from a matrix with the given variant sets.
pub fn workload(
    name: &str,
    m: &CsrMatrix,
    seed: u64,
    cpu: Vec<Variant>,
    gpu: Vec<Variant>,
) -> Workload {
    let units = m.rows.div_ceil(ROW_BLOCK) as u64;
    Workload::new(name, build_args(m, seed), units, cpu, gpu, verify_fn()).iterative()
}

/// Case I / Case IV workload on a matrix (full CPU grid, scalar+vector GPU).
pub fn case4_workload(name: &str, m: &CsrMatrix, seed: u64) -> Workload {
    workload(
        name,
        m,
        seed,
        cpu_case4_variants(m.rows),
        gpu_case4_variants(m.rows),
    )
}

/// Case II workload: GPU data-placement candidates.
pub fn placement_workload(name: &str, m: &CsrMatrix, seed: u64) -> Workload {
    workload(
        name,
        m,
        seed,
        cpu_schedule_variants(m.rows),
        gpu_placement_variants(m.rows),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Target;

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
    fn all_variants_match_reference_random() {
        let m = CsrMatrix::random(256, 256, 0.05, 13);
        let w = case4_workload("spmv", &m, 1);
        run_all(&w, Target::Cpu);
        run_all(&w, Target::Gpu);
    }

    #[test]
    fn all_variants_match_reference_diagonal() {
        let m = CsrMatrix::diagonal(256);
        let w = case4_workload("spmv", &m, 1);
        run_all(&w, Target::Cpu);
        run_all(&w, Target::Gpu);
    }

    #[test]
    fn placement_variants_match_reference() {
        let m = CsrMatrix::random(256, 256, 0.05, 13);
        let w = placement_workload("spmv", &m, 1);
        run_all(&w, Target::Gpu);
    }

    #[test]
    fn rows_not_multiple_of_block_are_covered() {
        let m = CsrMatrix::random(250, 250, 0.05, 13);
        let w = case4_workload("spmv", &m, 1);
        assert_eq!(w.total_units, 8); // ceil(250/32)
        run_all(&w, Target::Cpu);
    }

    #[test]
    fn csr_variants_are_flagged_irregular() {
        let m = CsrMatrix::diagonal(64);
        let w = case4_workload("spmv", &m, 1);
        for v in w.variants(Target::Cpu) {
            assert!(
                v.meta.ir.has_nonuniform_loops(),
                "{} must be data-dependent",
                v.name()
            );
        }
    }
}
