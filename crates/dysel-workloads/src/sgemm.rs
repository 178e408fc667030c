//! Dense matrix multiply (`sgemm`), after Parboil's kernel.
//!
//! The workload unit is one 16x16 tile of `C`. Variant axes, mirroring the
//! paper's case studies:
//!
//! * **Case I (CPU)** — the six work-item/kernel-loop schedules (`ijk` ..
//!   `kji`) a locality-centric scheduler chooses among.
//! * **Case III (mixed)** — naive vs scratchpad-tiled implementations on
//!   both CPU and GPU (tiling helps the GPU, hurts the CPU).
//! * **Fig. 1 (CPU)** — scalar vs 4-way vs 8-way vectorized inner loops.

use std::sync::Arc;

use dysel_kernel::{
    AccessIr, AccessPattern, Args, Buffer, GroupCtx, KernelIr, LoopBound, LoopIr, LoopKind, Space,
    Variant, VariantMeta,
};

use crate::{check_close, gemm_ref, RefMemo, Workload};

/// Tile edge: a work-group computes one (or more) 16x16 output tiles.
pub const TILE: usize = 16;

/// Argument indices of the sgemm signature.
pub mod arg {
    /// Output matrix `C` (n x n, row-major).
    pub const C: usize = 0;
    /// Input matrix `A`.
    pub const A: usize = 1;
    /// Input matrix `B`.
    pub const B: usize = 2;
}

/// The six loop schedules of the work-item loops (i, j) and kernel loop (k).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Schedule {
    /// i outer, j middle, k inner.
    Ijk,
    /// i outer, k middle, j inner (the locality-friendly choice).
    Ikj,
    /// j outer, i middle, k inner.
    Jik,
    /// j outer, k middle, i inner.
    Jki,
    /// k outer, i middle, j inner.
    Kij,
    /// k outer, j middle, i inner.
    Kji,
}

impl Schedule {
    /// All six schedules.
    pub fn all() -> [Schedule; 6] {
        [
            Schedule::Ijk,
            Schedule::Ikj,
            Schedule::Jik,
            Schedule::Jki,
            Schedule::Kij,
            Schedule::Kji,
        ]
    }

    /// Lowercase name (`"ikj"`, ...).
    pub fn name(self) -> &'static str {
        match self {
            Schedule::Ijk => "ijk",
            Schedule::Ikj => "ikj",
            Schedule::Jik => "jik",
            Schedule::Jki => "jki",
            Schedule::Kij => "kij",
            Schedule::Kji => "kji",
        }
    }
}

fn tile_coords(n: usize, unit: u64) -> (usize, usize) {
    let tiles = n / TILE;
    (
        (unit as usize / tiles) * TILE,
        (unit as usize % tiles) * TILE,
    )
}

/// Rows of a tile accumulated together in one pass over `k`.
const ROW_BLOCK: usize = 4;

/// Computes one `C` tile functionally (schedule-independent result).
///
/// Each pass over `k` keeps a `ROW_BLOCK x TILE` block of accumulators in
/// registers, so the loads of a `B` row serve four rows of `C` and the
/// adds of different cells overlap. Every cell still sums `k` upwards from
/// zero, the order `gemm_ref` uses, so `C` is bit-identical to it.
fn compute_tile(args: &mut Args, n: usize, ti: usize, tj: usize) {
    // Accumulate into locals first to appease the borrow checker; the cost
    // model sees the variant-specific trace instead.
    let mut acc = [[0.0f32; TILE]; TILE];
    {
        let a = args.f32(arg::A).expect("A is f32");
        let b = args.f32(arg::B).expect("B is f32");
        for (r0, block) in acc.chunks_exact_mut(ROW_BLOCK).enumerate() {
            let rows: [&[f32]; ROW_BLOCK] =
                std::array::from_fn(|r| &a[(ti + r0 * ROW_BLOCK + r) * n..][..n]);
            let mut sums = [[0.0f32; TILE]; ROW_BLOCK];
            for (k, brow) in b.chunks_exact(n).enumerate() {
                let brow: &[f32; TILE] = brow[tj..tj + TILE].try_into().expect("TILE columns");
                for (sum, row) in sums.iter_mut().zip(&rows) {
                    let av = row[k];
                    for (cell, &bv) in sum.iter_mut().zip(brow) {
                        *cell += av * bv;
                    }
                }
            }
            block.copy_from_slice(&sums);
        }
    }
    let c = args.f32_mut(arg::C).expect("C is f32");
    for di in 0..TILE {
        c[(ti + di) * n + tj..(ti + di) * n + tj + TILE].copy_from_slice(&acc[di]);
    }
}

/// Emits the CPU memory trace of one tile under a schedule. The functional
/// result is identical for every schedule; only the access *order* (and
/// therefore cache behaviour) differs.
fn emit_cpu_schedule(ctx: &mut GroupCtx<'_>, n: usize, ti: usize, tj: usize, s: Schedule) {
    let n64 = n as u64;
    let (ti, tj) = (ti as u64, tj as u64);
    match s {
        Schedule::Ijk => {
            for di in 0..TILE as u64 {
                let i = ti + di;
                for dj in 0..TILE as u64 {
                    let j = tj + dj;
                    ctx.stream_load(arg::A, i * n64, n64, 1);
                    ctx.stream_load(arg::B, j, n64, n as i64);
                    ctx.stream_store(arg::C, i * n64 + j, 1, 1);
                    ctx.compute(2 * n64);
                }
            }
        }
        Schedule::Jik => {
            for dj in 0..TILE as u64 {
                let j = tj + dj;
                for di in 0..TILE as u64 {
                    let i = ti + di;
                    ctx.stream_load(arg::A, i * n64, n64, 1);
                    ctx.stream_load(arg::B, j, n64, n as i64);
                    ctx.stream_store(arg::C, i * n64 + j, 1, 1);
                    ctx.compute(2 * n64);
                }
            }
        }
        Schedule::Ikj => {
            for di in 0..TILE as u64 {
                let i = ti + di;
                for k in 0..n64 {
                    ctx.stream_load(arg::A, i * n64 + k, 1, 1);
                    // The contiguous 16-wide B row vectorizes.
                    ctx.warp_load(arg::B, k * n64 + tj, 1, TILE as u32);
                    ctx.vector_compute(TILE as u64 / 4, 4, 4, 2);
                }
                // The 16-wide C row lives in registers across k.
                ctx.warp_store(arg::C, i * n64 + tj, 1, TILE as u32);
            }
        }
        Schedule::Jki => {
            for dj in 0..TILE as u64 {
                let j = tj + dj;
                for k in 0..n64 {
                    ctx.stream_load(arg::B, k * n64 + j, 1, 1);
                    ctx.stream_load(arg::A, ti * n64 + k, TILE as u64, n as i64);
                    ctx.compute(2 * TILE as u64);
                }
                ctx.stream_store(arg::C, ti * n64 + j, TILE as u64, n as i64);
            }
        }
        Schedule::Kij => {
            for k in 0..n64 {
                for di in 0..TILE as u64 {
                    let i = ti + di;
                    ctx.stream_load(arg::A, i * n64 + k, 1, 1);
                    ctx.warp_load(arg::B, k * n64 + tj, 1, TILE as u32);
                    // C cannot stay in registers across the outer k loop:
                    // the whole tile is re-read and re-written.
                    ctx.warp_load(arg::C, i * n64 + tj, 1, TILE as u32);
                    ctx.warp_store(arg::C, i * n64 + tj, 1, TILE as u32);
                    ctx.vector_compute(TILE as u64 / 4, 4, 4, 2);
                }
            }
        }
        Schedule::Kji => {
            for k in 0..n64 {
                for dj in 0..TILE as u64 {
                    let j = tj + dj;
                    ctx.stream_load(arg::B, k * n64 + j, 1, 1);
                    ctx.stream_load(arg::A, ti * n64 + k, TILE as u64, n as i64);
                    ctx.stream_load(arg::C, ti * n64 + j, TILE as u64, n as i64);
                    ctx.stream_store(arg::C, ti * n64 + j, TILE as u64, n as i64);
                    ctx.compute(2 * TILE as u64);
                }
            }
        }
    }
}

/// IR for a CPU schedule variant, in the variant's loop order, with affine
/// coefficients (in elements) for each access — what the locality-centric
/// baseline analyses.
fn schedule_ir(n: usize, s: Schedule) -> KernelIr {
    let n = n as i64;
    // Loop kinds and per-loop address coefficients for A, B, C in (i, j, k)
    // space: A[i*n + k], B[k*n + j], C[i*n + j].
    let coeff = |v: char| -> (i64, i64, i64) {
        match v {
            'i' => (n, 0, n), // (A, B, C) coefficients of loop var i
            'j' => (0, 1, 1),
            'k' => (1, n, 0),
            _ => unreachable!(),
        }
    };
    let order: [char; 3] = match s {
        Schedule::Ijk => ['i', 'j', 'k'],
        Schedule::Ikj => ['i', 'k', 'j'],
        Schedule::Jik => ['j', 'i', 'k'],
        Schedule::Jki => ['j', 'k', 'i'],
        Schedule::Kij => ['k', 'i', 'j'],
        Schedule::Kji => ['k', 'j', 'i'],
    };
    let loops = order
        .iter()
        .map(|&v| {
            let kind = match v {
                'i' => LoopKind::WorkItem(1),
                'j' => LoopKind::WorkItem(0),
                _ => LoopKind::Kernel,
            };
            // All three loops trip n times; the constant bound is what lets
            // the verifier prove the C store disjoint (n > n-1 dominance).
            LoopIr::new(kind, LoopBound::Const(n as u64))
        })
        .collect();
    let (mut ca, mut cb, mut cc) = (vec![], vec![], vec![]);
    for &v in &order {
        let (a, b, c) = coeff(v);
        ca.push(a);
        cb.push(b);
        cc.push(c);
    }
    KernelIr::regular(vec![arg::C])
        .with_loops(loops)
        .with_accesses(vec![
            AccessIr::affine_load(arg::A, ca),
            AccessIr::affine_load(arg::B, cb),
            AccessIr {
                arg: arg::C,
                space: Space::Global,
                pattern: AccessPattern::Affine(cc),
                store: true,
                lane_uniform: false,
                reuse_window_bytes: None,
                index_range: None,
            },
        ])
}

/// The six CPU schedule variants (Case I).
pub fn cpu_schedule_variants(n: usize) -> Vec<Variant> {
    assert!(n.is_multiple_of(TILE), "n must be a multiple of {TILE}");
    Schedule::all()
        .into_iter()
        .map(|s| {
            let meta = VariantMeta::new(format!("lc-{}", s.name()), schedule_ir(n, s))
                .with_group_size(TILE as u32 * TILE as u32);
            Variant::from_fn(meta, move |ctx, args| {
                for u in ctx.units().iter() {
                    let (ti, tj) = tile_coords(n, u);
                    compute_tile(args, n, ti, tj);
                    emit_cpu_schedule(ctx, n, ti, tj, s);
                }
            })
        })
        .collect()
}

/// CPU vectorization variants for Fig. 1: scalar, 4-way and 8-way SIMD
/// over the `ikj` schedule. `sgemm` is regular and divergence-free, so
/// wider SIMD wins roughly linearly.
pub fn cpu_vector_variants(n: usize) -> Vec<Variant> {
    [1u32, 4, 8]
        .into_iter()
        .map(|w| {
            let name = if w == 1 {
                "scalar".to_owned()
            } else {
                format!("{w}-way")
            };
            let meta = VariantMeta::new(name, schedule_ir(n, Schedule::Ikj))
                .with_group_size(TILE as u32 * TILE as u32);
            Variant::from_fn(meta, move |ctx, args| {
                let n64 = n as u64;
                for u in ctx.units().iter() {
                    let (ti, tj) = tile_coords(n, u);
                    compute_tile(args, n, ti, tj);
                    for di in 0..TILE as u64 {
                        let i = ti as u64 + di;
                        for k in 0..n64 {
                            ctx.stream_load(arg::A, i * n64 + k, 1, 1);
                            // The 16-wide B row is loaded in w-wide pieces:
                            // scalar code issues 16 loads, 8-way code two.
                            if w == 1 {
                                ctx.stream_load(arg::B, k * n64 + tj as u64, TILE as u64, 1);
                            } else {
                                for c0 in (0..TILE as u64).step_by(w as usize) {
                                    ctx.warp_load(arg::B, k * n64 + tj as u64 + c0, 1, w);
                                }
                            }
                            // One FMA per w-wide chunk of the 16-wide row.
                            ctx.vector_compute(TILE as u64 / u64::from(w), w, w, 2);
                        }
                        ctx.warp_store(arg::C, i * n64 + tj as u64, 1, TILE as u32);
                    }
                }
            })
        })
        .collect()
}

/// Scratchpad bytes for the GPU tiled variant (two 16x16 f32 tiles).
const TILED_SMEM: u32 = 2 * (TILE * TILE * 4) as u32;

/// GPU variants (Case III): naive and scratchpad-tiled.
pub fn gpu_variants(n: usize) -> Vec<Variant> {
    // Access sites in (tile, k) space: each work-group owns one output
    // tile of C (unit stride in tile index, so stores are disjoint per
    // tile), while A and B are streamed along the k loop.
    let gpu_accesses = || {
        vec![
            AccessIr::affine_load(arg::A, vec![0, 1]),
            AccessIr::affine_load(arg::B, vec![0, n as i64]),
            AccessIr::affine_store(arg::C, vec![1, 0]),
        ]
    };
    let base = {
        let ir = KernelIr::regular(vec![arg::C])
            .with_loops(vec![
                LoopIr::new(LoopKind::WorkItem(0), LoopBound::UniformRuntime),
                LoopIr::new(LoopKind::Kernel, LoopBound::UniformRuntime),
            ])
            .with_accesses(gpu_accesses());
        let meta = VariantMeta::new("gpu-base", ir).with_group_size((TILE * TILE) as u32);
        Variant::from_fn(meta, move |ctx, args| {
            let n64 = n as u64;
            for u in ctx.units().iter() {
                let (ti, tj) = tile_coords(n, u);
                compute_tile(args, n, ti, tj);
                // 16 half-warp-rows of threads; each k: A broadcast + B row
                // (batched over the whole k loop).
                for di in 0..TILE as u64 {
                    let i = ti as u64 + di;
                    ctx.warp_load_seq(arg::A, i * n64, 0, TILE as u32, n as u32, 1);
                    ctx.warp_load_seq(arg::B, tj as u64, 1, TILE as u32, n as u32, n as i64);
                    ctx.vector_compute(n64, 32, TILE as u32, 2);
                    ctx.warp_store(arg::C, i * n64 + tj as u64, 1, TILE as u32);
                }
            }
        })
    };
    let tiled = {
        let ir = KernelIr::regular(vec![arg::C])
            .with_loops(vec![
                LoopIr::new(LoopKind::WorkItem(0), LoopBound::UniformRuntime),
                LoopIr::new(LoopKind::Kernel, LoopBound::UniformRuntime),
            ])
            .with_accesses(gpu_accesses())
            .with_scratchpad(TILED_SMEM);
        // Tiling packs 2 base tiles per work-group: work assignment 2x.
        let meta = VariantMeta::new("gpu-tiled-smem", ir)
            .with_group_size((TILE * TILE) as u32)
            .with_wa_factor(2);
        Variant::from_fn(meta, move |ctx, args| {
            let n64 = n as u64;
            for u in ctx.units().iter() {
                let (ti, tj) = tile_coords(n, u);
                compute_tile(args, n, ti, tj);
                for kt in 0..(n64 / TILE as u64) {
                    // Stage A and B tiles into scratchpad, coalesced.
                    for r in 0..TILE as u64 {
                        ctx.warp_load(
                            arg::A,
                            (ti as u64 + r) * n64 + kt * TILE as u64,
                            1,
                            TILE as u32,
                        );
                        ctx.warp_load(
                            arg::B,
                            (kt * TILE as u64 + r) * n64 + tj as u64,
                            1,
                            TILE as u32,
                        );
                        ctx.scratchpad(TILE as u32 * 2, 1, true);
                    }
                    ctx.barrier();
                    // 16 k-steps out of scratchpad.
                    for _k in 0..TILE as u64 {
                        ctx.scratchpad(32, 1, false);
                        ctx.vector_compute(8, 32, 32, 2);
                    }
                    ctx.barrier();
                }
                for r in 0..TILE as u64 {
                    ctx.warp_store(arg::C, (ti as u64 + r) * n64 + tj as u64, 1, TILE as u32);
                }
            }
        })
    };
    vec![base, tiled]
}

/// CPU variants for Case III: the naive base schedule vs a
/// scratchpad-tiled kernel whose staging copies and barriers are pure
/// overhead once lowered to the CPU's uniform memory (§4.3).
pub fn cpu_mixed_variants(n: usize) -> Vec<Variant> {
    let base = {
        let meta = VariantMeta::new("base", schedule_ir(n, Schedule::Ikj))
            .with_group_size((TILE * TILE) as u32);
        Variant::from_fn(meta, move |ctx, args| {
            for u in ctx.units().iter() {
                let (ti, tj) = tile_coords(n, u);
                compute_tile(args, n, ti, tj);
                emit_cpu_schedule(ctx, n, ti, tj, Schedule::Ikj);
            }
        })
    };
    let tiled = {
        let ir = schedule_ir(n, Schedule::Ikj).with_scratchpad(TILED_SMEM);
        let meta = VariantMeta::new("tiled-smem", ir)
            .with_group_size((TILE * TILE) as u32)
            .with_wa_factor(2);
        Variant::from_fn(meta, move |ctx, args| {
            let n64 = n as u64;
            for u in ctx.units().iter() {
                let (ti, tj) = tile_coords(n, u);
                compute_tile(args, n, ti, tj);
                for kt in 0..(n64 / TILE as u64) {
                    for r in 0..TILE as u64 {
                        // Stage tiles into "local" buffers: on a CPU these
                        // are just extra copies through the same caches.
                        ctx.warp_load(
                            arg::A,
                            (ti as u64 + r) * n64 + kt * TILE as u64,
                            1,
                            TILE as u32,
                        );
                        ctx.warp_load(
                            arg::B,
                            (kt * TILE as u64 + r) * n64 + tj as u64,
                            1,
                            TILE as u32,
                        );
                        ctx.scratchpad(TILE as u32 * 2, 1, true);
                    }
                    ctx.barrier();
                    // Two local-memory reads per FMA: the copy cost that
                    // gives tiling "no latency gain" on a CPU (§4.3).
                    for _r in 0..TILE as u64 {
                        for _k in 0..TILE as u64 {
                            ctx.scratchpad(TILE as u32 * 2, 1, false);
                            ctx.vector_compute(TILE as u64 / 4, 4, 4, 2);
                        }
                    }
                    ctx.barrier();
                }
                for r in 0..TILE as u64 {
                    ctx.warp_store(arg::C, (ti as u64 + r) * n64 + tj as u64, 1, TILE as u32);
                }
            }
        })
    };
    vec![base, tiled]
}

fn build_args(n: usize, seed: u64) -> Args {
    use dysel_kernel::XorShiftRng;
    let mut rng = XorShiftRng::seed_from_u64(seed);
    let mut args = Args::new();
    args.push(Buffer::f32("C", vec![0.0; n * n], Space::Global));
    let a: Vec<f32> = (0..n * n).map(|_| rng.gen_range_f32(-1.0, 1.0)).collect();
    let b: Vec<f32> = (0..n * n).map(|_| rng.gen_range_f32(-1.0, 1.0)).collect();
    args.push(Buffer::f32("A", a, Space::Global));
    args.push(Buffer::f32("B", b, Space::Global));
    args
}

fn verify_fn(n: usize) -> crate::VerifyFn {
    let memo = RefMemo::new(&[arg::A, arg::B]);
    Arc::new(move |args: &Args| {
        let want = memo.get(args, || {
            let a = args.f32(arg::A).map_err(|e| e.to_string())?;
            let b = args.f32(arg::B).map_err(|e| e.to_string())?;
            Ok(gemm_ref(n, n, n, a, b))
        })?;
        check_close(
            "C",
            args.f32(arg::C).map_err(|e| e.to_string())?,
            &want,
            2e-3,
        )
    })
}

/// Case I workload: six CPU schedules.
pub fn schedules_workload(n: usize, seed: u64) -> Workload {
    Workload::new(
        "sgemm",
        build_args(n, seed),
        ((n / TILE) * (n / TILE)) as u64,
        cpu_schedule_variants(n),
        gpu_variants(n),
        verify_fn(n),
    )
}

/// Case III workload: mixed optimizations on CPU and GPU.
pub fn mixed_workload(n: usize, seed: u64) -> Workload {
    Workload::new(
        "sgemm",
        build_args(n, seed),
        ((n / TILE) * (n / TILE)) as u64,
        cpu_mixed_variants(n),
        gpu_variants(n),
        verify_fn(n),
    )
}

/// Fig. 1 workload: CPU vectorization strategies.
pub fn vector_workload(n: usize, seed: u64) -> Workload {
    Workload::new(
        "sgemm",
        build_args(n, seed),
        ((n / TILE) * (n / TILE)) as u64,
        cpu_vector_variants(n),
        gpu_variants(n),
        verify_fn(n),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use dysel_kernel::UnitRange;

    #[test]
    fn every_schedule_computes_the_same_c() {
        let n = 64;
        let w = schedules_workload(n, 5);
        for v in w.variants(crate::Target::Cpu) {
            let mut args = w.fresh_args();
            let units = w.total_units;
            let mut ctx = GroupCtx::for_test(0, 0, units, &args);
            v.kernel.run_group(&mut ctx, &mut args);
            w.verify(&args)
                .unwrap_or_else(|e| panic!("{}: {e}", v.name()));
        }
    }

    #[test]
    fn gpu_variants_compute_the_same_c() {
        let n = 64;
        let w = mixed_workload(n, 6);
        for v in w.variants(crate::Target::Gpu) {
            let mut args = w.fresh_args();
            let mut ctx = GroupCtx::for_test(0, 0, w.total_units, &args);
            v.kernel.run_group(&mut ctx, &mut args);
            w.verify(&args)
                .unwrap_or_else(|e| panic!("{}: {e}", v.name()));
        }
    }

    /// Every variant sums each cell of `C` over `k` in `gemm_ref`'s order,
    /// so its output equals the host reference bit for bit, not only within
    /// the verifier's tolerance.
    #[test]
    fn every_variant_matches_gemm_ref_bit_for_bit() {
        for n in [48, 64] {
            let w = schedules_workload(n, 9);
            let want = {
                let args = w.fresh_args();
                gemm_ref(
                    n,
                    n,
                    n,
                    args.f32(arg::A).unwrap(),
                    args.f32(arg::B).unwrap(),
                )
            };
            let sets = [
                cpu_schedule_variants(n),
                cpu_vector_variants(n),
                cpu_mixed_variants(n),
                gpu_variants(n),
            ];
            for v in sets.iter().flatten() {
                let mut args = w.fresh_args();
                let mut ctx = GroupCtx::for_test(0, 0, w.total_units, &args);
                v.kernel.run_group(&mut ctx, &mut args);
                let got = args.f32(arg::C).unwrap();
                let diff = got
                    .iter()
                    .zip(&want)
                    .position(|(g, w)| g.to_bits() != w.to_bits());
                assert_eq!(diff, None, "n {n} variant {}", v.name());
            }
        }
    }

    #[test]
    fn partial_tail_groups_are_handled() {
        let n = 64;
        let w = schedules_workload(n, 5);
        let v = &w.variants(crate::Target::Cpu)[0];
        let mut args = w.fresh_args();
        // Run in two unequal chunks.
        let mid = 5;
        for r in [UnitRange::new(0, mid), UnitRange::new(mid, w.total_units)] {
            let mut ctx = GroupCtx::for_test(0, r.start, r.end, &args);
            v.kernel.run_group(&mut ctx, &mut args);
        }
        w.verify(&args).unwrap();
    }

    #[test]
    fn ir_strides_identify_the_friendly_schedule() {
        // ikj's innermost loop (j) has unit/zero strides everywhere;
        // ijk's innermost (k) strides B by n.
        let ir_ikj = schedule_ir(64, Schedule::Ikj);
        let ir_ijk = schedule_ir(64, Schedule::Ijk);
        let inner_stride_sum = |ir: &KernelIr| -> i64 {
            ir.accesses
                .iter()
                .map(|a| match &a.pattern {
                    AccessPattern::Affine(c) => c.last().copied().unwrap_or(0).abs(),
                    AccessPattern::Indirect => 8,
                })
                .sum()
        };
        assert!(inner_stride_sum(&ir_ikj) < inner_stride_sum(&ir_ijk));
    }

    #[test]
    fn vector_variants_have_expected_names() {
        let vs = cpu_vector_variants(64);
        let names: Vec<_> = vs.iter().map(|v| v.name().to_owned()).collect();
        assert_eq!(names, vec!["scalar", "4-way", "8-way"]);
    }
}
