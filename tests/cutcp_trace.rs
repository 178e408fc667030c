//! Golden trace digests for cutcp's CPU schedules.
//!
//! cutcp's trace walker (`dysel-workloads/src/cutcp.rs`) emits the event
//! stream that the CPU model prices for each of the 60 loop schedules and
//! the two Case III variants. Any rewrite of the walker must keep that
//! stream identical, event for event, or every priced cycle of the cutcp
//! case studies moves. This test folds every event of every variant, over
//! every brick, into one FNV-1a digest per input shape and pins it.
//!
//! Two shapes cover both sides of the walker's empty-bin handling: a
//! sparse lattice (most neighbour bins hold no atom) and a dense one
//! (most bins hold several).

use dysel::kernel::{
    fnv1a_step, AddrSpace, GroupCtx, MemOp, Space, TraceSink, UnitRange, Variant, FNV_OFFSET,
};
use dysel::workloads::cutcp::{self, Shape};

/// Folds every sink call, with a tag per kind and every field, into a
/// running FNV-1a hash.
struct HashSink {
    hash: u64,
    events: u64,
}

impl HashSink {
    fn fold(&mut self, words: &[u64]) {
        self.events += 1;
        for &w in words {
            self.hash = fnv1a_step(self.hash, w);
        }
    }
}

fn space_word(s: Space) -> u64 {
    s as u64
}

impl TraceSink for HashSink {
    fn mem(&mut self, op: &MemOp) {
        match *op {
            MemOp::Warp {
                space,
                base,
                stride,
                lanes,
                elem,
                store,
            } => self.fold(&[
                1,
                space_word(space),
                base,
                stride as u64,
                u64::from(lanes),
                u64::from(elem),
                u64::from(store),
            ]),
            MemOp::Gather {
                space,
                ref addrs,
                elem,
                store,
            } => self.gather(space, addrs, elem, store),
            MemOp::WarpSeq {
                space,
                base,
                stride,
                lanes,
                elem,
                store,
                repeat,
                step,
            } => self.fold(&[
                3,
                space_word(space),
                base,
                stride as u64,
                u64::from(lanes),
                u64::from(elem),
                u64::from(store),
                u64::from(repeat),
                step as u64,
            ]),
            MemOp::Stream {
                space,
                base,
                count,
                stride,
                elem,
                store,
            } => self.fold(&[
                4,
                space_word(space),
                base,
                count,
                stride as u64,
                u64::from(elem),
                u64::from(store),
            ]),
            MemOp::Atomic {
                space,
                base,
                lanes,
                distinct,
            } => self.fold(&[
                5,
                space_word(space),
                base,
                u64::from(lanes),
                u64::from(distinct),
            ]),
            MemOp::Scratchpad {
                lanes,
                conflict,
                store,
            } => self.fold(&[6, u64::from(lanes), u64::from(conflict), u64::from(store)]),
        }
    }

    fn gather(&mut self, space: Space, addrs: &[u64], elem: u32, store: bool) {
        self.fold(&[
            2,
            space_word(space),
            addrs.len() as u64,
            u64::from(elem),
            u64::from(store),
        ]);
        for &a in addrs {
            self.hash = fnv1a_step(self.hash, a);
        }
    }

    fn compute(&mut self, ops: u64) {
        self.fold(&[7, ops]);
    }

    fn vector_compute(&mut self, iters: u64, width: u32, active: u32, ops_per_iter: u64) {
        self.fold(&[8, iters, u64::from(width), u64::from(active), ops_per_iter]);
    }

    fn barrier(&mut self) {
        self.fold(&[9]);
    }
}

/// (digest, event count) of every CPU variant's trace over every brick
/// of `shape`, variants in their listed order.
fn trace_digest(shape: Shape, seed: u64) -> (u64, u64) {
    // A private address space pins the buffer addresses, so the digest
    // does not depend on what this thread allocated before.
    let mut pristine = cutcp::build_args(shape, seed);
    pristine.rebase_in(&mut AddrSpace::new());
    let bricks = (shape.n / cutcp::BRICK).pow(3) as u64;
    let variants: Vec<Variant> = cutcp::cpu_variants(shape)
        .into_iter()
        .chain(cutcp::cpu_mixed_variants(shape))
        .collect();
    assert_eq!(variants.len(), 62);
    let mut sink = HashSink {
        hash: FNV_OFFSET,
        events: 0,
    };
    for v in &variants {
        let mut args = pristine.clone();
        for unit in 0..bricks {
            let mut ctx = GroupCtx::new(
                unit,
                UnitRange::new(unit, unit + 1),
                v.meta.group_size,
                &args,
                &[],
                &mut sink,
            );
            v.kernel.run_group(&mut ctx, &mut args);
        }
    }
    (sink.hash, sink.events)
}

#[test]
fn cutcp_cpu_traces_match_the_golden_digests() {
    // Sparse: 512 bricks, 64 atoms, so most neighbour bins are empty.
    assert_eq!(
        trace_digest(Shape { n: 32, atoms: 64 }, 1),
        (0x3480_8816_03e7_bce5, 11_023_616),
        "sparse lattice"
    );
    // Dense: 64 bricks, ~8 atoms per bin.
    assert_eq!(
        trace_digest(Shape { n: 16, atoms: 500 }, 2),
        (0x6cf7_f159_070d_1965, 25_149_824),
        "dense lattice"
    );
}
