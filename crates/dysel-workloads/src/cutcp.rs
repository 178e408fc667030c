//! Cutoff Coulombic potential (Parboil's `cutcp`).
//!
//! Atoms are binned into cells; every lattice point accumulates the
//! (smoothly truncated) potential of atoms in its 3x3x3 neighbourhood of
//! cells. The workload unit is one 4x4x4 lattice *brick* (one cell).
//!
//! Case I explores the full scheduling space: all interleavings of the
//! three work-item loops (x, y, z within the brick) and the two kernel
//! loops (neighbour bin `b`, atom-in-bin `a`), with `b` necessarily outside
//! `a` — 5!/2 = **60 schedules**, the number the paper reports for `cutcp`.

use std::sync::Arc;

use dysel_kernel::{
    AccessIr, Args, Buffer, GroupCtx, KernelIr, LoopBound, LoopIr, LoopKind, Space, Variant,
    VariantMeta,
};

use crate::{check_close, RefMemo, Workload};

/// Brick edge (= cell edge) in lattice points.
pub const BRICK: usize = 4;

/// Cutoff radius in lattice units.
pub const CUTOFF: f32 = 4.0;

/// Argument indices of the cutcp signature.
pub mod arg {
    /// Output lattice (n^3 potentials).
    pub const OUT: usize = 0;
    /// Atoms, interleaved `(x, y, z, q)` and sorted by cell.
    pub const ATOMS: usize = 1;
    /// Cell start offsets into the atom array (`u32`, cells + 1).
    pub const BIN_START: usize = 2;
}

/// Problem shape.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Shape {
    /// Lattice edge (multiple of [`BRICK`]).
    pub n: usize,
    /// Number of atoms.
    pub atoms: usize,
}

fn cells_per_dim(n: usize) -> usize {
    n / BRICK
}

fn cell_id(n: usize, cx: usize, cy: usize, cz: usize) -> usize {
    (cz * cells_per_dim(n) + cy) * cells_per_dim(n) + cx
}

/// Units are mapped to bricks through a fixed odd-multiplier bijection so
/// that any contiguous unit range (in particular DySel's profiling slice)
/// samples the whole volume instead of one boundary plane — keeping the
/// paper's §2.1 performance-similarity assumption valid for this workload.
fn brick_of(n: usize, unit: u64) -> usize {
    let cells = {
        let c = cells_per_dim(n);
        c * c * c
    };
    debug_assert!(cells.is_power_of_two(), "cells/dim must be a power of 2");
    ((unit as usize).wrapping_mul(2531) + 17) & (cells - 1)
}

fn brick_coords(n: usize, unit: u64) -> (usize, usize, usize) {
    let c = cells_per_dim(n);
    let u = brick_of(n, unit);
    (u % c, (u / c) % c, u / (c * c))
}

/// Neighbour cell ids of a brick that hold at least one atom (3^3
/// window, clipped at the boundary, in window order). An empty cell adds
/// nothing to the potential and emits no trace event, so no caller needs
/// to visit it.
fn neighbour_bins(n: usize, unit: u64, bin_start: &[u32]) -> Vec<usize> {
    let c = cells_per_dim(n) as i64;
    let (bx, by, bz) = brick_coords(n, unit);
    let mut out = Vec::with_capacity(27);
    for dz in -1i64..=1 {
        for dy in -1i64..=1 {
            for dx in -1i64..=1 {
                let (x, y, z) = (bx as i64 + dx, by as i64 + dy, bz as i64 + dz);
                if (0..c).contains(&x) && (0..c).contains(&y) && (0..c).contains(&z) {
                    let cell = cell_id(n, x as usize, y as usize, z as usize);
                    if bin_start[cell + 1] > bin_start[cell] {
                        out.push(cell);
                    }
                }
            }
        }
    }
    out
}

fn potential(px: f32, py: f32, pz: f32, ax: f32, ay: f32, az: f32, q: f32) -> f32 {
    let d2 = (px - ax).powi(2) + (py - ay).powi(2) + (pz - az).powi(2);
    let c2 = CUTOFF * CUTOFF;
    if d2 < c2 {
        q * (1.0 - d2 / c2)
    } else {
        0.0
    }
}

/// Functional computation of one brick over its [`neighbour_bins`].
fn compute_brick(args: &mut Args, shape: Shape, unit: u64, bins: &[usize]) {
    let n = shape.n;
    let (bx, by, bz) = brick_coords(n, unit);
    let mut acc = [0.0f32; BRICK * BRICK * BRICK];
    {
        let atoms = args.f32(arg::ATOMS).expect("atoms");
        let bin_start = args.u32(arg::BIN_START).expect("bin_start");
        for &b in bins {
            let (s, e) = (bin_start[b] as usize, bin_start[b + 1] as usize);
            for a in s..e {
                let (ax, ay, az, q) = (
                    atoms[4 * a],
                    atoms[4 * a + 1],
                    atoms[4 * a + 2],
                    atoms[4 * a + 3],
                );
                for dz in 0..BRICK {
                    for dy in 0..BRICK {
                        for dx in 0..BRICK {
                            let (px, py, pz) = (
                                (bx * BRICK + dx) as f32,
                                (by * BRICK + dy) as f32,
                                (bz * BRICK + dz) as f32,
                            );
                            acc[(dz * BRICK + dy) * BRICK + dx] +=
                                potential(px, py, pz, ax, ay, az, q);
                        }
                    }
                }
            }
        }
    }
    let out = args.f32_mut(arg::OUT).expect("out");
    for dz in 0..BRICK {
        for dy in 0..BRICK {
            for dx in 0..BRICK {
                let (x, y, z) = (bx * BRICK + dx, by * BRICK + dy, bz * BRICK + dz);
                out[(z * n + y) * n + x] = acc[(dz * BRICK + dy) * BRICK + dx];
            }
        }
    }
}

/// One of the five schedulable loops.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Lp {
    /// Work-item x within the brick.
    X,
    /// Work-item y.
    Y,
    /// Work-item z.
    Z,
    /// Neighbour-bin loop.
    B,
    /// Atom-in-bin loop (nested inside `B`).
    A,
}

impl Lp {
    fn letter(self) -> char {
        match self {
            Lp::X => 'x',
            Lp::Y => 'y',
            Lp::Z => 'z',
            Lp::B => 'b',
            Lp::A => 'a',
        }
    }
}

/// All 60 legal schedules: permutations of `[X, Y, Z, B, A]` with `B`
/// outside `A`.
pub fn all_schedules() -> Vec<[Lp; 5]> {
    let items = [Lp::X, Lp::Y, Lp::Z, Lp::B, Lp::A];
    let mut out = Vec::with_capacity(60);
    let mut perm = items;
    permute(&mut perm, 0, &mut out);
    out.retain(|p| {
        let bi = p.iter().position(|&l| l == Lp::B).expect("has B");
        let ai = p.iter().position(|&l| l == Lp::A).expect("has A");
        bi < ai
    });
    out
}

fn permute(arr: &mut [Lp; 5], k: usize, out: &mut Vec<[Lp; 5]>) {
    if k == 5 {
        out.push(*arr);
        return;
    }
    for i in k..5 {
        arr.swap(k, i);
        permute(arr, k + 1, out);
        arr.swap(k, i);
    }
}

/// Schedule name, outer to inner (e.g. `"xyzba"`).
pub fn schedule_name(s: &[Lp; 5]) -> String {
    s.iter().map(|l| l.letter()).collect()
}

/// Recursive trace emission for one brick under an arbitrary schedule.
/// The innermost loop is batched into one descriptor per visit. The bin
/// loop runs over the brick's non-empty bins only: under an empty bin the
/// atom loop is empty, so no leaf below it would emit anything.
struct Walker<'w, 'c> {
    ctx: &'w mut GroupCtx<'c>,
    n: u64,
    /// `OUT` index of the brick's first lattice point.
    origin: u64,
    /// The brick's [`neighbour_bins`]; the bin loop indexes into it.
    bins: &'w [usize],
    bin_start: &'w [u32],
    sched: [Lp; 5],
    /// Schedule position of each loop, indexed by `Lp as usize`.
    depth_of: [usize; 5],
}

impl<'w, 'c> Walker<'w, 'c> {
    fn new(
        ctx: &'w mut GroupCtx<'c>,
        n: usize,
        unit: u64,
        bins: &'w [usize],
        bin_start: &'w [u32],
        sched: [Lp; 5],
    ) -> Self {
        let mut depth_of = [0; 5];
        for (depth, &l) in sched.iter().enumerate() {
            depth_of[l as usize] = depth;
        }
        let (bx, by, bz) = brick_coords(n, unit);
        let (n, b) = (n as u64, BRICK as u64);
        Walker {
            ctx,
            n,
            origin: ((bz as u64 * b) * n + by as u64 * b) * n + bx as u64 * b,
            bins,
            bin_start,
            sched,
            depth_of,
        }
    }

    fn run(&mut self) {
        self.recurse(0, [0usize; 5]);
    }

    /// `vals` holds the current index of each loop by schedule position.
    fn recurse(&mut self, depth: usize, mut vals: [usize; 5]) {
        let var = self.sched[depth];
        if depth == 4 {
            self.emit_leaf(var, &vals);
            return;
        }
        for i in self.range_of(var, &vals) {
            vals[depth] = i;
            self.recurse(depth + 1, vals);
        }
    }

    /// Current index of loop `l`.
    fn at(&self, vals: &[usize; 5], l: Lp) -> usize {
        vals[self.depth_of[l as usize]]
    }

    /// Cell of the current bin.
    fn cell(&self, vals: &[usize; 5]) -> usize {
        self.bins[self.at(vals, Lp::B)]
    }

    fn bin_len(&self, cell: usize) -> usize {
        (self.bin_start[cell + 1] - self.bin_start[cell]) as usize
    }

    fn range_of(&self, var: Lp, vals: &[usize; 5]) -> std::ops::Range<usize> {
        match var {
            Lp::X | Lp::Y | Lp::Z => 0..BRICK,
            Lp::B => 0..self.bins.len(),
            Lp::A => 0..self.bin_len(self.cell(vals)),
        }
    }

    /// `OUT` index of the current lattice point.
    fn point_addr(&self, vals: &[usize; 5]) -> u64 {
        let d = |l| self.at(vals, l) as u64;
        self.origin + (d(Lp::Z) * self.n + d(Lp::Y)) * self.n + d(Lp::X)
    }

    fn emit_leaf(&mut self, var: Lp, vals: &[usize; 5]) {
        let cell = self.cell(vals);
        let first_atom = u64::from(self.bin_start[cell]);
        let addr = self.point_addr(vals);
        match var {
            Lp::A => {
                // Stream the whole bin's atoms for the fixed lattice point.
                let len = self.bin_len(cell) as u64;
                self.ctx.stream_load(arg::ATOMS, first_atom * 4, len * 4, 1);
                self.ctx.compute(12 * len);
                self.ctx.stream_load(arg::OUT, addr, 1, 1);
                self.ctx.stream_store(arg::OUT, addr, 1, 1);
            }
            Lp::X | Lp::Y | Lp::Z => {
                // One atom fixed; sweep 4 lattice points along the axis.
                let atom = first_atom + self.at(vals, Lp::A) as u64;
                self.ctx.stream_load(arg::ATOMS, atom * 4, 4, 1);
                let stride = match var {
                    Lp::X => 1,
                    Lp::Y => self.n,
                    _ => self.n * self.n,
                } as i64;
                self.ctx.stream_load(arg::OUT, addr, BRICK as u64, stride);
                self.ctx.stream_store(arg::OUT, addr, BRICK as u64, stride);
                self.ctx.compute(12 * BRICK as u64);
            }
            Lp::B => unreachable!("the atom loop always nests inside the bin loop"),
        }
    }
}

fn schedule_ir(shape: Shape, sched: &[Lp; 5]) -> KernelIr {
    let n = shape.n as i64;
    let loops = sched
        .iter()
        .map(|&l| match l {
            Lp::X => LoopIr::new(LoopKind::WorkItem(0), LoopBound::Const(BRICK as u64)),
            Lp::Y => LoopIr::new(LoopKind::WorkItem(1), LoopBound::Const(BRICK as u64)),
            Lp::Z => LoopIr::new(LoopKind::WorkItem(2), LoopBound::Const(BRICK as u64)),
            Lp::B => LoopIr::new(LoopKind::Kernel, LoopBound::Const(27)),
            Lp::A => LoopIr::new(LoopKind::Kernel, LoopBound::DataDependent),
        })
        .collect();
    let out_coeffs: Vec<i64> = sched
        .iter()
        .map(|&l| match l {
            Lp::X => 1,
            Lp::Y => n,
            Lp::Z => n * n,
            _ => 0,
        })
        .collect();
    let atom_coeffs: Vec<i64> = sched
        .iter()
        .map(|&l| if l == Lp::A { 4 } else { 0 })
        .collect();
    KernelIr::regular(vec![arg::OUT])
        .with_loops(loops)
        .with_accesses(vec![
            AccessIr::affine_load(arg::ATOMS, atom_coeffs),
            AccessIr {
                arg: arg::OUT,
                space: Space::Global,
                pattern: dysel_kernel::AccessPattern::Affine(out_coeffs),
                store: true,
                lane_uniform: false,
                reuse_window_bytes: None,
                index_range: None,
            },
        ])
}

/// One CPU schedule variant.
pub fn cpu_variant(shape: Shape, sched: [Lp; 5]) -> Variant {
    let meta = VariantMeta::new(
        format!("lc-{}", schedule_name(&sched)),
        schedule_ir(shape, &sched),
    )
    .with_group_size((BRICK * BRICK * BRICK) as u32);
    Variant::from_fn(meta, move |ctx, args| {
        for u in ctx.units().iter() {
            let bins = neighbour_bins(shape.n, u, args.u32(arg::BIN_START).expect("bin_start"));
            // `compute_brick` emits no trace events, so running it before
            // each brick's walk leaves the event stream as the walk emits it.
            compute_brick(args, shape, u, &bins);
            let bin_start = args.u32(arg::BIN_START).expect("bin_start");
            Walker::new(ctx, shape.n, u, &bins, bin_start, sched).run();
        }
    })
}

/// All 60 CPU schedule variants (Case I).
pub fn cpu_variants(shape: Shape) -> Vec<Variant> {
    all_schedules()
        .into_iter()
        .map(|s| cpu_variant(shape, s))
        .collect()
}

/// Two representative CPU variants for Case III (a good and a mediocre
/// schedule from the 60).
pub fn cpu_mixed_variants(shape: Shape) -> Vec<Variant> {
    let scheds = all_schedules();
    // An atom-innermost schedule vs a z-innermost one (strided lattice
    // accumulator walks).
    let a_inner = scheds
        .iter()
        .position(|s| s[4] == Lp::A && s[0] == Lp::X)
        .expect("xyzba-like schedule exists");
    let z_inner = scheds
        .iter()
        .position(|s| s[4] == Lp::Z && s[0] == Lp::B)
        .expect("b..z schedule exists");
    vec![
        cpu_variant(shape, scheds[a_inner]),
        cpu_variant(shape, scheds[z_inner]),
    ]
}

/// GPU variants (Case III): base, and a coarsened version staging bin
/// atoms through scratchpad across 4 bricks (work assignment 4x, matching
/// the paper's `cutcp` factor).
pub fn gpu_variants(shape: Shape) -> Vec<Variant> {
    let base = {
        let meta = VariantMeta::new("gpu-base", schedule_ir(shape, &all_schedules()[0]))
            .with_group_size(64);
        Variant::from_fn(meta, move |ctx, args| {
            for u in ctx.units().iter() {
                let bins = neighbour_bins(shape.n, u, args.u32(arg::BIN_START).expect("bin_start"));
                compute_brick(args, shape, u, &bins);
                let bin_start = args.u32(arg::BIN_START).expect("bin_start");
                for &cell in &bins {
                    let len = u64::from(bin_start[cell + 1] - bin_start[cell]);
                    // Both warps of the brick read each atom (broadcast)
                    // and evaluate 32 lattice points per instruction.
                    for a in 0..len {
                        let off = (u64::from(bin_start[cell]) + a) * 4;
                        ctx.warp_load(arg::ATOMS, off, 0, 32);
                        ctx.vector_compute(2, 32, 32, 12);
                    }
                }
                let n = shape.n as u64;
                let (bx, by, bz) = brick_coords(shape.n, u);
                let base_addr = ((bz as u64 * 4) * n + by as u64 * 4) * n + bx as u64 * 4;
                ctx.warp_store(arg::OUT, base_addr, 1, 32);
                ctx.warp_store(arg::OUT, base_addr + 2 * n * n, 1, 32);
            }
        })
    };
    let coarse = {
        let ir = schedule_ir(shape, &all_schedules()[0]).with_scratchpad(4096);
        let meta = VariantMeta::new("gpu-coarsened-smem", ir)
            .with_group_size(64)
            .with_wa_factor(4);
        Variant::from_fn(meta, move |ctx, args| {
            let units: Vec<u64> = ctx.units().iter().collect();
            for &u in &units {
                let bins = neighbour_bins(shape.n, u, args.u32(arg::BIN_START).expect("bin_start"));
                compute_brick(args, shape, u, &bins);
            }
            // Bin atoms are staged once into scratchpad and reused across
            // the group's bricks (approximately shared neighbourhoods).
            if let Some(&u0) = units.first() {
                let bin_start = args.u32(arg::BIN_START).expect("bin_start");
                for cell in neighbour_bins(shape.n, u0, bin_start) {
                    let len = u64::from(bin_start[cell + 1] - bin_start[cell]);
                    ctx.warp_load(
                        arg::ATOMS,
                        u64::from(bin_start[cell]) * 4,
                        1,
                        (len * 4).min(32) as u32,
                    );
                    ctx.scratchpad(32, 1, true);
                    ctx.barrier();
                    for _ in 0..len {
                        ctx.scratchpad(32, 1, false);
                        // 12 ops per point, 32 points per warp instruction,
                        // for every brick in the group.
                        ctx.vector_compute(2 * units.len() as u64, 32, 32, 12);
                    }
                }
                let n = shape.n as u64;
                for &u in &units {
                    let (bx, by, bz) = brick_coords(shape.n, u);
                    let base_addr = ((bz as u64 * 4) * n + by as u64 * 4) * n + bx as u64 * 4;
                    ctx.warp_store(arg::OUT, base_addr, 1, 32);
                    ctx.warp_store(arg::OUT, base_addr + 2 * n * n, 1, 32);
                }
            }
        })
    };
    vec![base, coarse]
}

/// Builds the argument set: atoms placed uniformly and sorted by cell.
pub fn build_args(shape: Shape, seed: u64) -> Args {
    use dysel_kernel::XorShiftRng;
    let mut rng = XorShiftRng::seed_from_u64(seed);
    let c = cells_per_dim(shape.n);
    let mut per_cell: Vec<Vec<[f32; 4]>> = vec![Vec::new(); c * c * c];
    for _ in 0..shape.atoms {
        let x = rng.gen_range_f32(0.0, shape.n as f32);
        let y = rng.gen_range_f32(0.0, shape.n as f32);
        let z = rng.gen_range_f32(0.0, shape.n as f32);
        let q = rng.gen_range_f32(0.1, 1.0);
        let cell = cell_id(
            shape.n,
            (x as usize / BRICK).min(c - 1),
            (y as usize / BRICK).min(c - 1),
            (z as usize / BRICK).min(c - 1),
        );
        per_cell[cell].push([x, y, z, q]);
    }
    let mut atoms = Vec::with_capacity(shape.atoms * 4);
    let mut bin_start = Vec::with_capacity(per_cell.len() + 1);
    bin_start.push(0u32);
    for cell in &per_cell {
        for a in cell {
            atoms.extend_from_slice(a);
        }
        bin_start.push((atoms.len() / 4) as u32);
    }
    let mut args = Args::new();
    args.push(Buffer::f32(
        "out",
        vec![0.0; shape.n * shape.n * shape.n],
        Space::Global,
    ));
    args.push(Buffer::f32("atoms", atoms, Space::Global));
    args.push(Buffer::u32("bin_start", bin_start, Space::Global));
    args
}

fn reference(shape: Shape, atoms: &[f32]) -> Vec<f32> {
    let n = shape.n;
    let mut out = vec![0.0f32; n * n * n];
    for a in 0..atoms.len() / 4 {
        let (ax, ay, az, q) = (
            atoms[4 * a],
            atoms[4 * a + 1],
            atoms[4 * a + 2],
            atoms[4 * a + 3],
        );
        let (x0, x1) = (
            ((ax - CUTOFF).floor().max(0.0)) as usize,
            ((ax + CUTOFF).ceil().min(n as f32 - 1.0)) as usize,
        );
        let (y0, y1) = (
            ((ay - CUTOFF).floor().max(0.0)) as usize,
            ((ay + CUTOFF).ceil().min(n as f32 - 1.0)) as usize,
        );
        let (z0, z1) = (
            ((az - CUTOFF).floor().max(0.0)) as usize,
            ((az + CUTOFF).ceil().min(n as f32 - 1.0)) as usize,
        );
        for z in z0..=z1 {
            for y in y0..=y1 {
                for x in x0..=x1 {
                    out[(z * n + y) * n + x] +=
                        potential(x as f32, y as f32, z as f32, ax, ay, az, q);
                }
            }
        }
    }
    out
}

/// Assembles the cutcp workload with the full 60-schedule CPU set.
pub fn workload(shape: Shape, seed: u64) -> Workload {
    workload_with(shape, seed, cpu_variants(shape))
}

/// Case III variant: two CPU candidates instead of sixty.
pub fn mixed_workload(shape: Shape, seed: u64) -> Workload {
    workload_with(shape, seed, cpu_mixed_variants(shape))
}

fn workload_with(shape: Shape, seed: u64, cpu: Vec<Variant>) -> Workload {
    assert!(
        shape.n.is_multiple_of(BRICK),
        "lattice edge must be a multiple of 4"
    );
    let memo = RefMemo::new(&[arg::ATOMS]);
    let verify: crate::VerifyFn = Arc::new(move |args: &Args| {
        let want = memo.get(args, || {
            let atoms = args.f32(arg::ATOMS).map_err(|e| e.to_string())?;
            Ok(reference(shape, atoms))
        })?;
        check_close(
            "out",
            args.f32(arg::OUT).map_err(|e| e.to_string())?,
            &want,
            2e-3,
        )
    });
    let c = cells_per_dim(shape.n);
    Workload::new(
        "cutcp",
        build_args(shape, seed),
        (c * c * c) as u64,
        cpu,
        gpu_variants(shape),
        verify,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Target;

    fn shape() -> Shape {
        Shape { n: 16, atoms: 200 }
    }

    #[test]
    fn there_are_sixty_schedules() {
        let s = all_schedules();
        assert_eq!(s.len(), 60);
        // B always precedes A.
        for p in &s {
            let bi = p.iter().position(|&l| l == Lp::B).unwrap();
            let ai = p.iter().position(|&l| l == Lp::A).unwrap();
            assert!(bi < ai, "{}", schedule_name(p));
        }
        // All names are distinct.
        let mut names: Vec<String> = s.iter().map(schedule_name).collect();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), 60);
    }

    #[test]
    fn sampled_schedules_match_reference() {
        let w = workload(shape(), 23);
        // Running all 60 functionally is redundant (same compute path);
        // sample a spread of schedules.
        for idx in [0, 7, 19, 31, 45, 59] {
            let v = &w.variants(Target::Cpu)[idx];
            let mut args = w.fresh_args();
            let mut ctx = GroupCtx::for_test(0, 0, w.total_units, &args);
            v.kernel.run_group(&mut ctx, &mut args);
            w.verify(&args)
                .unwrap_or_else(|e| panic!("{}: {e}", v.name()));
        }
    }

    #[test]
    fn gpu_variants_match_reference() {
        let w = workload(shape(), 23);
        for v in w.variants(Target::Gpu) {
            let mut args = w.fresh_args();
            let mut ctx = GroupCtx::for_test(0, 0, w.total_units, &args);
            v.kernel.run_group(&mut ctx, &mut args);
            w.verify(&args)
                .unwrap_or_else(|e| panic!("{}: {e}", v.name()));
        }
    }

    #[test]
    fn atoms_are_sorted_by_cell() {
        let args = build_args(shape(), 23);
        let bin_start = args.u32(arg::BIN_START).unwrap();
        assert_eq!(bin_start.len(), 4 * 4 * 4 + 1);
        assert!(bin_start.windows(2).all(|w| w[0] <= w[1]));
        assert_eq!(*bin_start.last().unwrap() as usize, 200);
    }
}
