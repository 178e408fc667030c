//! Cost traces emitted by executing work-groups.
//!
//! Kernels compute real results through [`crate::Args`] and, in parallel,
//! describe *what the hardware would have done* through batched memory-op
//! descriptors. Device timing models implement [`TraceSink`] and price the
//! descriptors as they arrive, so no trace is ever materialized.
//!
//! Pricing a work-group's trace is the launch engine's hottest loop (a
//! gather-heavy workload emits one descriptor per non-zero), so
//! [`TraceSink::gather`] passes per-lane addresses as a borrowed slice:
//! sinks price it without ever building an owned [`MemOp`].

use crate::Space;

/// One batched memory operation, as seen by a device timing model.
///
/// Addresses are in *bytes* in the flat virtual address space managed by
/// [`crate::Buffer`]; `elem` is the element size in bytes. A "warp" op
/// describes what one SIMD/warp issue slot does across its lanes; a
/// "stream" op summarizes a sequential per-work-item loop.
#[derive(Debug, Clone, PartialEq)]
pub enum MemOp {
    /// `lanes` lanes access consecutive-strided elements:
    /// lane `l` touches byte address `base + l * stride`.
    /// `stride` and `base` are in bytes. The classic coalescing shape.
    Warp {
        /// Memory space being accessed.
        space: Space,
        /// Byte address touched by lane 0.
        base: u64,
        /// Byte distance between consecutive lanes.
        stride: i64,
        /// Number of active lanes.
        lanes: u32,
        /// Element size in bytes.
        elem: u32,
        /// Whether this is a store.
        store: bool,
    },
    /// Each active lane accesses its own arbitrary byte address
    /// (data-dependent gather/scatter).
    Gather {
        /// Memory space being accessed.
        space: Space,
        /// Byte addresses, one per active lane.
        addrs: Vec<u64>,
        /// Element size in bytes.
        elem: u32,
        /// Whether this is a store (scatter).
        store: bool,
    },
    /// `repeat` back-to-back warp accesses with identical lane shape: the
    /// k-th access has lane 0 at `base + k * step` (a batched inner loop,
    /// e.g. the k-loop of a dense kernel). Costing treats each step like a
    /// [`MemOp::Warp`] with the same stride and lane count.
    WarpSeq {
        /// Memory space being accessed.
        space: Space,
        /// Byte address touched by lane 0 of the first access.
        base: u64,
        /// Byte distance between consecutive lanes.
        stride: i64,
        /// Number of active lanes.
        lanes: u32,
        /// Element size in bytes.
        elem: u32,
        /// Whether this is a store.
        store: bool,
        /// Number of accesses in the sequence.
        repeat: u32,
        /// Byte advance of lane 0 between consecutive accesses.
        step: i64,
    },
    /// One work-item streams `count` elements starting at `base`, advancing
    /// `stride` bytes per element (sequential CPU-style loop).
    Stream {
        /// Memory space being accessed.
        space: Space,
        /// Starting byte address.
        base: u64,
        /// Number of elements accessed.
        count: u64,
        /// Byte distance between consecutive accesses.
        stride: i64,
        /// Element size in bytes.
        elem: u32,
        /// Whether this is a store.
        store: bool,
    },
    /// `lanes` lanes perform a read-modify-write on the same or nearby
    /// locations; the device serializes contended lanes.
    Atomic {
        /// Memory space being accessed.
        space: Space,
        /// Byte address of the contended word.
        base: u64,
        /// Number of participating lanes.
        lanes: u32,
        /// Number of *distinct* words touched (1 = full contention).
        distinct: u32,
    },
    /// Scratchpad access with an explicit bank-conflict degree
    /// (`conflict = 1` means conflict-free).
    Scratchpad {
        /// Number of active lanes.
        lanes: u32,
        /// Max number of lanes hitting the same bank.
        conflict: u32,
        /// Whether this is a store.
        store: bool,
    },
}

impl MemOp {
    /// Number of element accesses this descriptor represents.
    pub fn accesses(&self) -> u64 {
        match self {
            MemOp::Warp { lanes, .. } => u64::from(*lanes),
            MemOp::WarpSeq { lanes, repeat, .. } => u64::from(*lanes) * u64::from(*repeat),
            MemOp::Gather { addrs, .. } => addrs.len() as u64,
            MemOp::Stream { count, .. } => *count,
            MemOp::Atomic { lanes, .. } => u64::from(*lanes),
            MemOp::Scratchpad { lanes, .. } => u64::from(*lanes),
        }
    }

    /// Bytes moved by this descriptor (0 for pure atomics' payload is
    /// counted as one element per lane).
    pub fn bytes(&self) -> u64 {
        match self {
            MemOp::Warp { lanes, elem, .. } => u64::from(*lanes) * u64::from(*elem),
            MemOp::WarpSeq {
                lanes,
                elem,
                repeat,
                ..
            } => u64::from(*lanes) * u64::from(*elem) * u64::from(*repeat),
            MemOp::Gather { addrs, elem, .. } => addrs.len() as u64 * u64::from(*elem),
            MemOp::Stream { count, elem, .. } => count * u64::from(*elem),
            MemOp::Atomic { lanes, .. } => u64::from(*lanes) * 4,
            MemOp::Scratchpad { lanes, .. } => u64::from(*lanes) * 4,
        }
    }

    /// Whether this is a store-side operation.
    pub fn is_store(&self) -> bool {
        match self {
            MemOp::Warp { store, .. }
            | MemOp::WarpSeq { store, .. }
            | MemOp::Gather { store, .. }
            | MemOp::Stream { store, .. }
            | MemOp::Scratchpad { store, .. } => *store,
            MemOp::Atomic { .. } => true,
        }
    }
}

/// Consumer of a work-group's cost trace. Implemented by the device models.
pub trait TraceSink {
    /// A batched memory operation was issued.
    fn mem(&mut self, op: &MemOp);

    /// A data-dependent gather (`store == false`) or scatter
    /// (`store == true`): each active lane accesses its own byte address.
    ///
    /// This is the allocation-free twin of [`MemOp::Gather`]: the emitter
    /// keeps ownership of the address slice, so hot sinks (the cost
    /// models) can consume it without an owned `Vec` ever being built. The
    /// default forwards to [`TraceSink::mem`] for sinks that only pattern
    /// match on `MemOp`.
    fn gather(&mut self, space: Space, addrs: &[u64], elem: u32, store: bool) {
        self.mem(&MemOp::Gather {
            space,
            addrs: addrs.to_vec(),
            elem,
            store,
        });
    }

    /// `ops` scalar arithmetic operations were executed.
    fn compute(&mut self, ops: u64);

    /// `iters` iterations of a SIMD/vector loop executed with `active`
    /// useful lanes out of `width` (CPU vectorization model; divergence
    /// masking overhead grows with `width`, §1/Fig. 1 of the paper).
    fn vector_compute(&mut self, iters: u64, width: u32, active: u32, ops_per_iter: u64) {
        // Default: price as scalar work for sinks without a SIMD model.
        let _ = (width, active);
        self.compute(iters.saturating_mul(ops_per_iter));
    }

    /// Work-group barrier.
    fn barrier(&mut self) {}
}

/// A sink that ignores everything (functional-only execution).
#[derive(Debug, Default, Clone, Copy)]
pub struct NullSink;

impl TraceSink for NullSink {
    fn mem(&mut self, _op: &MemOp) {}
    fn gather(&mut self, _space: Space, _addrs: &[u64], _elem: u32, _store: bool) {}
    fn compute(&mut self, _ops: u64) {}
}

/// A sink that tallies raw event counts; used by tests and by the Fig. 2
/// launch-statistics harness.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct CountingSink {
    /// Total element accesses observed.
    pub accesses: u64,
    /// Total bytes moved.
    pub bytes: u64,
    /// Total scalar compute ops.
    pub compute_ops: u64,
    /// Number of memory descriptors.
    pub mem_ops: u64,
    /// Number of barriers.
    pub barriers: u64,
    /// Number of store-side descriptors.
    pub stores: u64,
}

impl TraceSink for CountingSink {
    fn mem(&mut self, op: &MemOp) {
        self.mem_ops += 1;
        self.accesses += op.accesses();
        self.bytes += op.bytes();
        if op.is_store() {
            self.stores += 1;
        }
    }

    fn gather(&mut self, _space: Space, addrs: &[u64], elem: u32, store: bool) {
        self.mem_ops += 1;
        self.accesses += addrs.len() as u64;
        self.bytes += addrs.len() as u64 * u64::from(elem);
        if store {
            self.stores += 1;
        }
    }

    fn compute(&mut self, ops: u64) {
        self.compute_ops += ops;
    }

    fn barrier(&mut self) {
        self.barriers += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn warp_op_accounting() {
        let op = MemOp::Warp {
            space: Space::Global,
            base: 0,
            stride: 4,
            lanes: 32,
            elem: 4,
            store: false,
        };
        assert_eq!(op.accesses(), 32);
        assert_eq!(op.bytes(), 128);
        assert!(!op.is_store());
    }

    #[test]
    fn counting_sink_tallies() {
        let mut s = CountingSink::default();
        s.mem(&MemOp::Stream {
            space: Space::Global,
            base: 0,
            count: 10,
            stride: 4,
            elem: 4,
            store: true,
        });
        s.compute(5);
        s.barrier();
        assert_eq!(s.accesses, 10);
        assert_eq!(s.bytes, 40);
        assert_eq!(s.compute_ops, 5);
        assert_eq!(s.stores, 1);
        assert_eq!(s.barriers, 1);
    }

    #[test]
    fn default_vector_compute_prices_as_scalar() {
        let mut s = CountingSink::default();
        s.vector_compute(4, 8, 8, 3);
        assert_eq!(s.compute_ops, 12);
    }

    #[test]
    fn gather_via_mem_and_via_slice_count_identically() {
        let mut a = CountingSink::default();
        a.mem(&MemOp::Gather {
            space: Space::Global,
            addrs: vec![8, 16, 1024],
            elem: 4,
            store: true,
        });
        let mut b = CountingSink::default();
        b.gather(Space::Global, &[8, 16, 1024], 4, true);
        assert_eq!(a, b);
        assert_eq!((a.accesses, a.bytes, a.stores), (3, 12, 1));
    }

    #[test]
    fn atomics_count_as_stores() {
        let op = MemOp::Atomic {
            space: Space::Global,
            base: 64,
            lanes: 8,
            distinct: 2,
        };
        assert!(op.is_store());
        assert_eq!(op.accesses(), 8);
    }
}
