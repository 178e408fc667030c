//! Cost traces emitted by executing work-groups.
//!
//! Kernels compute real results through [`crate::Args`] and, in parallel,
//! describe *what the hardware would have done* through batched memory-op
//! descriptors. Device timing models implement [`TraceSink`] and price the
//! descriptors as they arrive, so no trace is ever materialized — except
//! by [`RecordingSink`], which captures a replayable [`RecordedTrace`] for
//! the two-phase launch engine.
//!
//! ## Allocation discipline
//!
//! The recording path is the launch engine's hottest loop (a gather-heavy
//! workload emits one descriptor per non-zero), so the trace layer is
//! designed to stay off the allocator:
//!
//! * [`TraceSink::gather`] passes per-lane addresses as a borrowed slice;
//!   sinks price or copy it without ever building an owned [`MemOp`];
//! * [`TraceEvent`] is a compact `Copy` record — gathers store an
//!   `(offset, len)` window into the trace's shared address pool instead
//!   of a per-event `Vec`;
//! * [`RecordedTrace`] is reusable: [`RecordedTrace::clear`] keeps the
//!   event and address capacity, so the engine can recycle span traces
//!   across launches through an arena instead of reallocating them.

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
    /// keeps ownership of the address slice, so hot sinks (recorders, cost
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

/// One recorded trace event: a compact, `Copy` mirror of the sink calls.
///
/// Gather address lists live in the owning [`RecordedTrace`]'s shared
/// address pool; the event stores only an `(offset, len)` window into it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TraceEvent {
    /// A strided warp access; see [`MemOp::Warp`].
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
    /// A gather/scatter; addresses are `addrs[offset..offset + len]` of the
    /// owning trace's address pool.
    Gather {
        /// Memory space being accessed.
        space: Space,
        /// Start of the address window in the trace's pool.
        offset: u32,
        /// Number of active lanes.
        len: u32,
        /// Element size in bytes.
        elem: u32,
        /// Whether this is a store (scatter).
        store: bool,
    },
    /// A repeated warp access sequence; see [`MemOp::WarpSeq`].
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
    /// A sequential stream; see [`MemOp::Stream`].
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
    /// An atomic RMW; see [`MemOp::Atomic`].
    Atomic {
        /// Memory space being accessed.
        space: Space,
        /// Byte address of the contended word.
        base: u64,
        /// Number of participating lanes.
        lanes: u32,
        /// Number of *distinct* words touched.
        distinct: u32,
    },
    /// A scratchpad access; see [`MemOp::Scratchpad`].
    Scratchpad {
        /// Number of active lanes.
        lanes: u32,
        /// Max number of lanes hitting the same bank.
        conflict: u32,
        /// Whether this is a store.
        store: bool,
    },
    /// Scalar compute ops.
    Compute(u64),
    /// A SIMD/vector loop: `(iters, width, active, ops_per_iter)`.
    VectorCompute(u64, u32, u32, u64),
    /// A work-group barrier.
    Barrier,
}

/// A borrowed view of one work-group's slice of a [`RecordedTrace`]: the
/// group's events plus the trace-wide address pool its gathers index into.
#[derive(Debug, Clone, Copy)]
pub struct TraceView<'a> {
    events: &'a [TraceEvent],
    addrs: &'a [u64],
}

impl<'a> TraceView<'a> {
    /// Number of events in the view.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the view holds no events.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// The address window of a gather event.
    pub fn gather_addrs(&self, offset: u32, len: u32) -> &'a [u64] {
        &self.addrs[offset as usize..offset as usize + len as usize]
    }

    /// Feeds every event of the view into `sink`, in recording order.
    ///
    /// Gathers replay through [`TraceSink::gather`] with a pool slice, so a
    /// replay allocates nothing regardless of how the sink consumes it.
    pub fn replay<S: TraceSink + ?Sized>(&self, sink: &mut S) {
        for ev in self.events {
            match *ev {
                TraceEvent::Warp {
                    space,
                    base,
                    stride,
                    lanes,
                    elem,
                    store,
                } => sink.mem(&MemOp::Warp {
                    space,
                    base,
                    stride,
                    lanes,
                    elem,
                    store,
                }),
                TraceEvent::Gather {
                    space,
                    offset,
                    len,
                    elem,
                    store,
                } => sink.gather(space, self.gather_addrs(offset, len), elem, store),
                TraceEvent::WarpSeq {
                    space,
                    base,
                    stride,
                    lanes,
                    elem,
                    store,
                    repeat,
                    step,
                } => sink.mem(&MemOp::WarpSeq {
                    space,
                    base,
                    stride,
                    lanes,
                    elem,
                    store,
                    repeat,
                    step,
                }),
                TraceEvent::Stream {
                    space,
                    base,
                    count,
                    stride,
                    elem,
                    store,
                } => sink.mem(&MemOp::Stream {
                    space,
                    base,
                    count,
                    stride,
                    elem,
                    store,
                }),
                TraceEvent::Atomic {
                    space,
                    base,
                    lanes,
                    distinct,
                } => sink.mem(&MemOp::Atomic {
                    space,
                    base,
                    lanes,
                    distinct,
                }),
                TraceEvent::Scratchpad {
                    lanes,
                    conflict,
                    store,
                } => sink.mem(&MemOp::Scratchpad {
                    lanes,
                    conflict,
                    store,
                }),
                TraceEvent::Compute(ops) => sink.compute(ops),
                TraceEvent::VectorCompute(iters, width, active, ops) => {
                    sink.vector_compute(iters, width, active, ops)
                }
                TraceEvent::Barrier => sink.barrier(),
            }
        }
    }
}

/// The cost trace of one or more work-groups, captured by a
/// [`RecordingSink`].
///
/// Recorded traces are what lets the parallel executor split a launch into
/// two phases: worker threads run the kernels functionally and *record*
/// their traces, then a single serial pass replays every trace in canonical
/// work-group order against the stateful device cost models — so the priced
/// timeline is bit-identical no matter how many workers executed phase one.
///
/// A trace can hold several groups back to back (one span's worth): the
/// recorder marks group boundaries with [`RecordingSink::end_group`] and
/// the pricing pass walks them with [`RecordedTrace::groups`]. Events live
/// in one flat buffer and gather addresses in one shared pool, so a span's
/// recording costs two amortized allocations total — and zero once the
/// trace is recycled through [`RecordedTrace::clear`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RecordedTrace {
    events: Vec<TraceEvent>,
    addrs: Vec<u64>,
    /// End offset (exclusive) of each closed group in `events`.
    group_ends: Vec<u32>,
}

impl RecordedTrace {
    /// Number of recorded events (all groups).
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the trace is empty.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Number of closed groups ([`RecordingSink::end_group`] calls).
    pub fn group_count(&self) -> usize {
        self.group_ends.len()
    }

    /// Drops all recorded content but keeps the allocated capacity, so the
    /// trace can be reused for another span without touching the allocator.
    pub fn clear(&mut self) {
        self.events.clear();
        self.addrs.clear();
        self.group_ends.clear();
    }

    /// A view over the whole trace (all groups plus any open tail).
    pub fn view(&self) -> TraceView<'_> {
        TraceView {
            events: &self.events,
            addrs: &self.addrs,
        }
    }

    /// Views over the closed groups, in recording order.
    pub fn groups(&self) -> impl Iterator<Item = TraceView<'_>> + '_ {
        let mut start = 0usize;
        self.group_ends.iter().map(move |&end| {
            let v = TraceView {
                events: &self.events[start..end as usize],
                addrs: &self.addrs,
            };
            start = end as usize;
            v
        })
    }

    /// Feeds every recorded event into `sink`, in recording order.
    pub fn replay<S: TraceSink + ?Sized>(&self, sink: &mut S) {
        self.view().replay(sink);
    }
}

/// A sink that materializes the trace instead of pricing it.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RecordingSink {
    trace: RecordedTrace,
}

impl RecordingSink {
    /// Creates an empty recorder.
    pub fn new() -> Self {
        RecordingSink::default()
    }

    /// Creates a recorder that records into `trace`'s existing buffers
    /// (cleared first) — the arena path: a recycled trace records a fresh
    /// span without new allocations.
    pub fn reusing(mut trace: RecordedTrace) -> Self {
        trace.clear();
        RecordingSink { trace }
    }

    /// Closes the current group: events recorded since the last boundary
    /// form one work-group's trace in [`RecordedTrace::groups`] order.
    pub fn end_group(&mut self) {
        self.trace.group_ends.push(self.trace.events.len() as u32);
    }

    /// Consumes the recorder, yielding the captured trace.
    pub fn into_trace(self) -> RecordedTrace {
        self.trace
    }
}

impl TraceSink for RecordingSink {
    fn mem(&mut self, op: &MemOp) {
        let ev = match *op {
            MemOp::Warp {
                space,
                base,
                stride,
                lanes,
                elem,
                store,
            } => TraceEvent::Warp {
                space,
                base,
                stride,
                lanes,
                elem,
                store,
            },
            MemOp::Gather {
                space,
                ref addrs,
                elem,
                store,
            } => {
                self.gather(space, addrs, elem, store);
                return;
            }
            MemOp::WarpSeq {
                space,
                base,
                stride,
                lanes,
                elem,
                store,
                repeat,
                step,
            } => TraceEvent::WarpSeq {
                space,
                base,
                stride,
                lanes,
                elem,
                store,
                repeat,
                step,
            },
            MemOp::Stream {
                space,
                base,
                count,
                stride,
                elem,
                store,
            } => TraceEvent::Stream {
                space,
                base,
                count,
                stride,
                elem,
                store,
            },
            MemOp::Atomic {
                space,
                base,
                lanes,
                distinct,
            } => TraceEvent::Atomic {
                space,
                base,
                lanes,
                distinct,
            },
            MemOp::Scratchpad {
                lanes,
                conflict,
                store,
            } => TraceEvent::Scratchpad {
                lanes,
                conflict,
                store,
            },
        };
        self.trace.events.push(ev);
    }

    fn gather(&mut self, space: Space, addrs: &[u64], elem: u32, store: bool) {
        let offset = self.trace.addrs.len() as u32;
        self.trace.addrs.extend_from_slice(addrs);
        self.trace.events.push(TraceEvent::Gather {
            space,
            offset,
            len: addrs.len() as u32,
            elem,
            store,
        });
    }

    fn compute(&mut self, ops: u64) {
        self.trace.events.push(TraceEvent::Compute(ops));
    }

    fn vector_compute(&mut self, iters: u64, width: u32, active: u32, ops_per_iter: u64) {
        self.trace.events.push(TraceEvent::VectorCompute(
            iters,
            width,
            active,
            ops_per_iter,
        ));
    }

    fn barrier(&mut self) {
        self.trace.events.push(TraceEvent::Barrier);
    }
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
    fn recording_then_replaying_matches_direct_emission() {
        let emit = |sink: &mut dyn TraceSink| {
            sink.mem(&MemOp::Warp {
                space: Space::Global,
                base: 128,
                stride: 4,
                lanes: 32,
                elem: 4,
                store: false,
            });
            sink.gather(Space::Texture, &[0, 64, 4096], 4, false);
            sink.compute(17);
            sink.vector_compute(4, 8, 6, 3);
            sink.barrier();
        };
        let mut direct = CountingSink::default();
        emit(&mut direct);
        let mut rec = RecordingSink::new();
        emit(&mut rec);
        let trace = rec.into_trace();
        assert_eq!(trace.len(), 5);
        let mut replayed = CountingSink::default();
        trace.replay(&mut replayed);
        assert_eq!(direct, replayed);
    }

    #[test]
    fn gather_via_mem_and_via_slice_record_identically() {
        let mut a = RecordingSink::new();
        a.mem(&MemOp::Gather {
            space: Space::Global,
            addrs: vec![8, 16, 1024],
            elem: 4,
            store: true,
        });
        let mut b = RecordingSink::new();
        b.gather(Space::Global, &[8, 16, 1024], 4, true);
        assert_eq!(a.into_trace(), b.into_trace());
    }

    #[test]
    fn group_boundaries_partition_the_trace() {
        let mut rec = RecordingSink::new();
        rec.compute(1);
        rec.gather(Space::Global, &[0, 4], 4, false);
        rec.end_group();
        rec.compute(2);
        rec.end_group();
        let trace = rec.into_trace();
        assert_eq!(trace.group_count(), 2);
        let views: Vec<_> = trace.groups().collect();
        assert_eq!(views[0].len(), 2);
        assert_eq!(views[1].len(), 1);
        let mut g0 = CountingSink::default();
        views[0].replay(&mut g0);
        assert_eq!(g0.accesses, 2);
        assert_eq!(g0.compute_ops, 1);
        let mut g1 = CountingSink::default();
        views[1].replay(&mut g1);
        assert_eq!(g1.compute_ops, 2);
        assert_eq!(g1.mem_ops, 0);
    }

    #[test]
    fn cleared_trace_reuses_capacity() {
        let mut rec = RecordingSink::new();
        rec.gather(Space::Global, &[0; 64], 4, false);
        rec.end_group();
        let mut trace = rec.into_trace();
        let cap = (trace.events.capacity(), trace.addrs.capacity());
        trace.clear();
        assert!(trace.is_empty());
        assert_eq!(trace.group_count(), 0);
        assert_eq!((trace.events.capacity(), trace.addrs.capacity()), cap);
        let mut rec = RecordingSink::reusing(trace);
        rec.compute(3);
        rec.end_group();
        let trace = rec.into_trace();
        assert_eq!(trace.len(), 1);
        assert_eq!(trace.group_count(), 1);
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
