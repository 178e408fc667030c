//! Warp-level cost accounting for the GPU model.

use dysel_kernel::{MemOp, Space, TraceSink};

use crate::cpu::SetAssocCache;
use crate::cycles::{lanes, path::PricingPath};
use crate::Cycles;

use super::GpuConfig;

/// Number of `segment_bytes`-sized memory segments touched by a warp whose
/// lane `l` accesses `base + l * stride` (`elem` bytes each).
pub fn coalesced_segments(
    base: u64,
    stride: i64,
    lanes: u32,
    elem: u32,
    segment_bytes: u32,
) -> u32 {
    if lanes == 0 {
        return 0;
    }
    let seg = i64::from(segment_bytes);
    let mut segments: Vec<i64> = (0..lanes)
        .flat_map(|l| {
            let a = base as i64 + i64::from(l) * stride;
            let first = a / seg;
            let last = (a + i64::from(elem) - 1) / seg;
            [first, last]
        })
        .collect();
    segments.sort_unstable();
    segments.dedup();
    segments.len() as u32
}

/// Batched twin of [`coalesced_segments`]: the lane addresses are affine
/// in the lane index, so the distinct-segment count falls out of a
/// two-pointer merge with no sort and no allocation. Must return exactly
/// the scalar function's count (enforced by tests and the `pricing_diff`
/// differential suite).
pub fn coalesced_segments_batched(
    base: u64,
    stride: i64,
    lanes_n: u32,
    elem: u32,
    segment_bytes: u32,
) -> u32 {
    lanes::affine_distinct_i64(
        base as i64,
        stride,
        lanes_n,
        i64::from(elem) - 1,
        i64::from(segment_bytes),
    )
}

/// Number of segments touched by a gather over arbitrary addresses.
///
/// An access's last byte is `a + elem - 1` in wrapping arithmetic, so an
/// address in the last `elem - 1` bytes of the space (or a zero-width
/// access at 0) prices the same in every build profile.
pub fn gather_segments(addrs: &[u64], elem: u32, segment_bytes: u32) -> u32 {
    let seg = u64::from(segment_bytes);
    let mut segments: Vec<u64> = addrs
        .iter()
        .flat_map(|&a| {
            [
                a / seg,
                a.wrapping_add(u64::from(elem)).wrapping_sub(1) / seg,
            ]
        })
        .collect();
    segments.sort_unstable();
    segments.dedup();
    segments.len() as u32
}

/// Bank-conflict degree of a strided scratchpad access: the maximum number
/// of lanes that map to the same of 32 4-byte banks.
pub fn smem_conflict_degree(stride_words: i64, lanes: u32) -> u32 {
    if lanes == 0 {
        return 0;
    }
    if stride_words == 0 {
        return 1; // broadcast
    }
    let mut banks = [0u32; 32];
    for l in 0..lanes {
        let bank = ((i64::from(l) * stride_words).rem_euclid(32)) as usize;
        banks[bank] += 1;
    }
    banks.iter().copied().max().unwrap_or(1).max(1)
}

/// Prices a work-group's trace for one SM.
pub(super) struct GpuCostSink<'a> {
    cfg: &'a GpuConfig,
    tex: &'a mut SetAssocCache,
    /// Use the chunked fast path for integer-count trace reductions. Both
    /// paths must produce identical counts (DESIGN.md §4.15).
    batched: bool,
    /// Launch-lifetime buffer lent by the price model: the batched path's
    /// distinct-id set for unordered gathers, so it never allocates per
    /// gather.
    scratch: &'a mut Vec<u64>,
    mem_cycles: f64,
    compute_cycles: f64,
}

impl<'a> GpuCostSink<'a> {
    pub(super) fn new(
        cfg: &'a GpuConfig,
        tex: &'a mut SetAssocCache,
        path: PricingPath,
        scratch: &'a mut Vec<u64>,
    ) -> Self {
        GpuCostSink {
            cfg,
            tex,
            batched: path == PricingPath::Batched,
            scratch,
            mem_cycles: 0.0,
            compute_cycles: 0.0,
        }
    }

    /// Distinct-segment count for a warp access, via whichever path is
    /// active.
    fn warp_segments(&self, base: u64, stride: i64, lanes_n: u32, elem: u32) -> u32 {
        if self.batched {
            coalesced_segments_batched(base, stride, lanes_n, elem, self.cfg.segment_bytes)
        } else {
            coalesced_segments(base, stride, lanes_n, elem, self.cfg.segment_bytes)
        }
    }

    /// Total group cost: memory segments and warp instructions share the
    /// SM's issue bandwidth (serialized throughput model), scaled by the
    /// occupancy latency factor, plus fixed scheduling cost.
    pub(super) fn total(&self, latency_factor: f64) -> Cycles {
        let busy = self.mem_cycles + self.compute_cycles;
        Cycles::from_f64(busy * latency_factor + self.cfg.group_overhead_cycles)
    }

    fn price_global_segments(&mut self, segments: u32, cached: bool) {
        if cached || self.cfg.global_loads_cached {
            // Reads may hit the read-only path cache.
            // (Approximated at segment granularity.)
            self.mem_cycles += f64::from(segments) * self.cfg.gmem_segment_cycles * 0.6;
        } else {
            self.mem_cycles += f64::from(segments) * self.cfg.gmem_segment_cycles;
        }
    }

    fn price_texture(&mut self, addrs: impl IntoIterator<Item = u64>) {
        // Texture path: per 32-byte texture line, hit in the per-SM cache
        // or pay a global segment fetch.
        let mut hits = 0u32;
        let mut misses = 0u32;
        if self.batched {
            // Suppressing *consecutive* duplicate lines needs no buffer:
            // stream the addresses and track the previous line only. The
            // `access_line` call sequence — and thus the cache state and
            // hit/miss counts — is identical to the reference form.
            let mut prev = None;
            for a in addrs {
                let l = self.tex.line_of(a);
                if prev == Some(l) {
                    continue;
                }
                prev = Some(l);
                if self.tex.access_line(l) {
                    hits += 1;
                } else {
                    misses += 1;
                }
            }
        } else {
            // Reference form: materialize line ids, drop consecutive
            // duplicates, then probe the cache.
            let line = u64::from(self.tex.config().line);
            let mut lines: Vec<u64> = addrs.into_iter().map(|a| a / line).collect();
            lines.dedup();
            for l in lines {
                if self.tex.access_line(l) {
                    hits += 1;
                } else {
                    misses += 1;
                }
            }
        }
        // A texture miss fetches a 32-byte line: cheaper than a full
        // 128-byte global segment, plus the cache-pipeline latency.
        self.mem_cycles += f64::from(hits) * self.cfg.tex_hit_cycles
            + f64::from(misses) * (0.6 * self.cfg.gmem_segment_cycles + self.cfg.tex_hit_cycles);
    }

    fn price_constant(&mut self, distinct_words: u32) {
        self.mem_cycles += self.cfg.const_broadcast_cycles
            + f64::from(distinct_words.saturating_sub(1)) * self.cfg.const_serialize_cycles;
    }

    /// Shared pricing for gathers, whether they arrive as an owned
    /// [`MemOp::Gather`] or through the allocation-free slice entry point.
    fn price_gather(&mut self, space: Space, addrs: &[u64], elem: u32) {
        match space {
            Space::Global => {
                let segs = if self.batched {
                    lanes::gather_distinct_segments(
                        addrs,
                        elem,
                        self.cfg.segment_bytes.trailing_zeros(),
                        self.scratch,
                    )
                } else {
                    gather_segments(addrs, elem, self.cfg.segment_bytes)
                };
                self.price_global_segments(segs, false);
            }
            Space::Texture => {
                self.price_texture(addrs.iter().copied());
            }
            Space::Constant => {
                let distinct = if self.batched {
                    // One-byte segments of one-byte accesses: distinct words.
                    lanes::gather_distinct_segments(addrs, 1, 0, self.scratch)
                } else {
                    let mut d = addrs.to_vec();
                    d.sort_unstable();
                    d.dedup();
                    d.len() as u32
                };
                self.price_constant(distinct);
            }
            Space::Scratchpad => {
                // Banked: compute conflict degree from the word addresses.
                let mut banks = [0u32; 32];
                for &a in addrs {
                    banks[((a / 4) % 32) as usize] += 1;
                }
                let conflict = banks.iter().copied().max().unwrap_or(1).max(1);
                self.mem_cycles += self.cfg.smem_cycles * f64::from(conflict);
            }
        }
    }
}

impl TraceSink for GpuCostSink<'_> {
    fn mem(&mut self, op: &MemOp) {
        match op {
            MemOp::Warp {
                space,
                base,
                stride,
                lanes,
                elem,
                store,
            } => match space {
                Space::Global => {
                    let segs = self.warp_segments(*base, *stride, *lanes, *elem);
                    self.price_global_segments(segs, false);
                    let _ = store;
                }
                Space::Texture => {
                    let addrs = (0..*lanes).map(|l| (*base as i64 + i64::from(l) * stride) as u64);
                    self.price_texture(addrs);
                }
                Space::Constant => {
                    let distinct = if *stride == 0 { 1 } else { *lanes };
                    self.price_constant(distinct);
                }
                Space::Scratchpad => {
                    let words = stride / 4;
                    let conflict = smem_conflict_degree(words, *lanes);
                    self.mem_cycles += self.cfg.smem_cycles * f64::from(conflict);
                }
            },
            MemOp::WarpSeq {
                space,
                base,
                stride,
                lanes,
                elem,
                repeat,
                step,
                ..
            } => match space {
                Space::Global => {
                    // Lane shape is constant: sample the segment count at
                    // two alignments and scale by the repeat count.
                    let s0 = self.warp_segments(*base, *stride, *lanes, *elem);
                    let s1 = self.warp_segments(
                        (*base as i64 + step).max(0) as u64,
                        *stride,
                        *lanes,
                        *elem,
                    );
                    let per = f64::from(s0 + s1) / 2.0;
                    self.mem_cycles += per * f64::from(*repeat) * self.cfg.gmem_segment_cycles;
                }
                Space::Scratchpad => {
                    let conflict = smem_conflict_degree(stride / 4, *lanes);
                    self.mem_cycles +=
                        self.cfg.smem_cycles * f64::from(conflict) * f64::from(*repeat);
                }
                Space::Constant => {
                    let distinct = if *stride == 0 { 1 } else { *lanes };
                    for _ in 0..*repeat {
                        self.price_constant(distinct);
                    }
                }
                Space::Texture => {
                    for k in 0..i64::from(*repeat) {
                        let b = (*base as i64 + k * step) as u64;
                        let addrs = (0..*lanes).map(|l| (b as i64 + i64::from(l) * stride) as u64);
                        self.price_texture(addrs);
                    }
                }
            },
            MemOp::Gather {
                space, addrs, elem, ..
            } => self.price_gather(*space, addrs, *elem),
            MemOp::Stream {
                space,
                base,
                count,
                stride,
                elem: _,
                ..
            } => {
                // A single-thread sequential loop on a GPU: each access is a
                // (mostly) un-coalesced transaction unless consecutive
                // accesses share a segment.
                if *count == 0 {
                    return;
                }
                match space {
                    Space::Scratchpad => {
                        self.mem_cycles += *count as f64 * self.cfg.smem_cycles;
                    }
                    Space::Texture => {
                        let addrs = (0..*count).map(|i| (*base as i64 + i as i64 * stride) as u64);
                        self.price_texture(addrs);
                    }
                    _ => {
                        let seg = i64::from(self.cfg.segment_bytes);
                        let per_seg = if *stride == 0 {
                            *count
                        } else {
                            ((seg / stride.abs()).max(1)) as u64
                        };
                        let segs = count.div_ceil(per_seg) as u32;
                        self.price_global_segments(segs, false);
                    }
                }
            }
            MemOp::Atomic {
                lanes, distinct, ..
            } => {
                // Each distinct word pays one atomic transaction; contended
                // lanes serialize behind it.
                let contention = f64::from(*lanes) / f64::from((*distinct).max(1));
                self.mem_cycles +=
                    f64::from(*distinct) * self.cfg.atomic_cycles * contention.max(1.0);
            }
            MemOp::Scratchpad {
                lanes: _, conflict, ..
            } => {
                self.mem_cycles += self.cfg.smem_cycles * f64::from((*conflict).max(1));
            }
        }
    }

    fn gather(&mut self, space: Space, addrs: &[u64], elem: u32, _store: bool) {
        self.price_gather(space, addrs, elem);
    }

    fn compute(&mut self, ops: u64) {
        // Scalar ops aggregate into warp instructions.
        let warp_ops = ops.div_ceil(32);
        self.compute_cycles += warp_ops as f64 * self.cfg.issue_cycles;
    }

    fn vector_compute(&mut self, iters: u64, _width: u32, _active: u32, ops_per_iter: u64) {
        // One warp instruction per (iteration, op): issue-bound regardless
        // of how many lanes do useful work — warp underutilization shows up
        // as *more iterations per useful element*, not cheaper iterations.
        self.compute_cycles += (iters * ops_per_iter) as f64 * self.cfg.issue_cycles;
    }

    fn barrier(&mut self) {
        self.compute_cycles += 8.0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fully_coalesced_is_one_segment() {
        // 32 lanes x 4B consecutive = 128B aligned at 0.
        assert_eq!(coalesced_segments(0, 4, 32, 4, 128), 1);
        // Misaligned by one element straddles two segments.
        assert_eq!(coalesced_segments(4, 4, 32, 4, 128), 2);
    }

    #[test]
    fn strided_warp_touches_many_segments() {
        assert_eq!(coalesced_segments(0, 128, 32, 4, 128), 32);
        assert_eq!(coalesced_segments(0, 0, 32, 4, 128), 1); // broadcast
    }

    #[test]
    fn gather_segments_dedupes() {
        let addrs: Vec<u64> = (0..32).map(|l| l * 4).collect();
        assert_eq!(gather_segments(&addrs, 4, 128), 1);
        let scattered: Vec<u64> = (0..32).map(|l| l * 4096).collect();
        assert_eq!(gather_segments(&scattered, 4, 128), 32);
    }

    #[test]
    fn batched_coalesced_matches_scalar() {
        for &stride in &[-640i64, -128, -4, 0, 3, 4, 12, 127, 128, 640] {
            for &base in &[0u64, 4, 100, (1 << 30) + 36] {
                for &elem in &[4u32, 8] {
                    for &lanes_n in &[0u32, 1, 7, 32] {
                        assert_eq!(
                            coalesced_segments_batched(base, stride, lanes_n, elem, 128),
                            coalesced_segments(base, stride, lanes_n, elem, 128),
                            "base={base} stride={stride} lanes={lanes_n} elem={elem}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn smem_conflicts() {
        assert_eq!(smem_conflict_degree(1, 32), 1); // unit stride: none
        assert_eq!(smem_conflict_degree(2, 32), 2); // 2-way
        assert_eq!(smem_conflict_degree(32, 32), 32); // same bank: full
        assert_eq!(smem_conflict_degree(0, 32), 1); // broadcast
    }
}
