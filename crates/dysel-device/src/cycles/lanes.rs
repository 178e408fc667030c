//! Portable fixed-width integer-lane helpers for the batched pricing path.
//!
//! These are "u64x"-style chunked operations written as plain arrays of
//! [`LANES`] elements so the compiler can keep them in vector registers on
//! any target, with scalar tails for the remainder. Every helper is an
//! exact drop-in for a scalar reduction in the device cost models: it must
//! return the *same integer* the scalar code computes (the batched-pricing
//! determinism contract, DESIGN.md §4.15), it is just allowed to get there
//! without dividing, allocating or sorting when the structure of the
//! address set permits.

/// Fixed chunk width for lane-parallel loops (eight 64-bit lanes = one
/// 512-bit vector, two 256-bit ops, or four 128-bit ops — all common).
pub const LANES: usize = 8;

/// Width, in segment ids, of the stack bitmap [`gather_distinct_segments`]
/// counts an unordered gather in (128 bytes of bits).
const BITMAP_IDS: usize = 1024;

/// Number of distinct `1 << shift`-byte segments touched by `elem`-byte
/// accesses at `addrs`: exactly the scalar `gather_segments` count (with
/// its wrapping `a + elem - 1` in release builds), computed with shifts
/// instead of divisions and without sorting.
///
/// Each access contributes its `first` and `last` bound. While those
/// bounds arrive non-decreasing (lane by lane, `first` then `last`), one
/// pass counts the runs of equal ids and touches no memory. At the first
/// descent the count restarts over all lanes. If every bound lies within
/// 1,024 ids of the smallest, each sets its bit in a stack bitmap
/// and the count is the bitmap's popcount. Wider sets go through an
/// open-addressing set laid out in `scratch` (`u64::MAX` marks an empty
/// slot; a real `u64::MAX` id is tracked beside the table).
pub fn gather_distinct_segments(
    addrs: &[u64],
    elem: u32,
    shift: u32,
    scratch: &mut Vec<u64>,
) -> u32 {
    let span = u64::from(elem).wrapping_sub(1);
    let bounds = |a: u64| (a >> shift, a.wrapping_add(span) >> shift);
    let Some(&a0) = addrs.first() else {
        return 0;
    };
    let mut prev = a0 >> shift;
    let mut count = 1u32;
    let mut ordered = true;
    for &a in addrs {
        let (first, last) = bounds(a);
        if first < prev || last < first {
            ordered = false;
            break;
        }
        count += u32::from(first != prev) + u32::from(last != first);
        prev = last;
    }
    if ordered {
        return count;
    }
    let (mut lo, mut hi) = (u64::MAX, 0u64);
    for &a in addrs {
        let (first, last) = bounds(a);
        lo = lo.min(first).min(last);
        hi = hi.max(first).max(last);
    }
    if hi - lo < BITMAP_IDS as u64 {
        let mut bits = [0u64; BITMAP_IDS / 64];
        for &a in addrs {
            let (first, last) = bounds(a);
            for id in [first, last] {
                let bit = (id - lo) as usize;
                bits[bit / 64] |= 1 << (bit % 64);
            }
        }
        return bits.iter().map(|w| w.count_ones()).sum();
    }
    // Load factor at most 1/2: 2 bounds per lane into 4 slots per lane.
    let slots = (4 * addrs.len()).next_power_of_two();
    let hash_shift = 64 - slots.trailing_zeros();
    scratch.clear();
    scratch.resize(slots, u64::MAX);
    let mut count = 0u32;
    let mut saw_max = false;
    let mut insert = |id: u64| {
        if id == u64::MAX {
            saw_max = true;
            return;
        }
        // Fibonacci hashing: the high bits of the product index the table.
        let mut i = (id.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> hash_shift) as usize;
        loop {
            match scratch[i] {
                u64::MAX => {
                    scratch[i] = id;
                    count += 1;
                    return;
                }
                v if v == id => return,
                _ => i = (i + 1) & (slots - 1),
            }
        }
    };
    for &a in addrs {
        let (first, last) = bounds(a);
        insert(first);
        if last != first {
            insert(last);
        }
    }
    count + u32::from(saw_max)
}

/// Number of distinct values in the multiset
/// `{ (base + l*stride) / div, (base + l*stride + span) / div : 0 <= l < lanes }`
/// using Rust's truncating `i64` division, without materializing it.
///
/// This is the affine special case behind `coalesced_segments`: because
/// truncating division by a positive divisor is monotone non-decreasing in
/// the dividend, both the `first` and `last` bound sequences are monotone
/// in `l` (after flipping a negative stride), so a two-pointer merge counts
/// distinct values in O(lanes) with no sort and no allocation. Requires
/// `div > 0`; `span` may be any value (callers pass `elem - 1`).
///
/// Contiguous warps take an O(1) closed form instead: when
/// `0 <= span < div` and `stride <= span + 1`, the lanes' intervals
/// `[a, a + span]` overlap or abut, so together they cover one contiguous
/// range, and an interval no wider than a segment cannot contain a whole
/// segment strictly between its own bounds. Every segment the range spans
/// therefore holds a `first` or `last` bound, and the count is
/// `last(lanes - 1) - first(0) + 1`. Gapped strides still merge.
pub fn affine_distinct_i64(base: i64, stride: i64, lanes: u32, span: i64, div: i64) -> u32 {
    debug_assert!(div > 0);
    if lanes == 0 {
        return 0;
    }
    // Normalize to a non-negative stride: the multiset of lane addresses is
    // unchanged when walked from the other end.
    let (base, stride) = if stride < 0 {
        (base + i64::from(lanes - 1) * stride, -stride)
    } else {
        (base, stride)
    };
    let first = |l: i64| (base + l * stride) / div;
    let last = |l: i64| (base + l * stride + span) / div;
    let n = i64::from(lanes);
    if (0..div).contains(&span) && stride <= span + 1 {
        return (last(n - 1) - first(0) + 1) as u32;
    }
    let (mut i, mut j) = (0i64, 0i64);
    let mut count = 0u32;
    let mut prev = None;
    // Merge the two monotone sequences, counting distinct emitted values.
    while i < n || j < n {
        let v = if j >= n || (i < n && first(i) <= last(j)) {
            i += 1;
            first(i - 1)
        } else {
            j += 1;
            last(j - 1)
        };
        if prev != Some(v) {
            count += 1;
            prev = Some(v);
        }
    }
    count
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gpu::gather_segments;
    use dysel_kernel::XorShiftRng;

    /// Scalar reference: exactly what `coalesced_segments` does.
    fn affine_reference(base: i64, stride: i64, lanes: u32, span: i64, div: i64) -> u32 {
        let mut v: Vec<i64> = (0..lanes)
            .flat_map(|l| {
                let a = base + i64::from(l) * stride;
                [a / div, (a + span) / div]
            })
            .collect();
        v.sort_unstable();
        v.dedup();
        v.len() as u32
    }

    #[test]
    fn affine_matches_reference_across_shapes() {
        let divs = [32i64, 128];
        let strides = [-640i64, -128, -7, -1, 0, 1, 3, 4, 8, 127, 128, 129, 4096];
        let bases = [0i64, 1, 63, 64, 1 << 20, (1 << 40) + 13];
        let spans = [0i64, 3, 7, 127];
        for &div in &divs {
            for &stride in &strides {
                for &base in &bases {
                    for &span in &spans {
                        for lanes in [0u32, 1, 2, 7, 32, 33] {
                            assert_eq!(
                                affine_distinct_i64(base, stride, lanes, span, div),
                                affine_reference(base, stride, lanes, span, div),
                                "base={base} stride={stride} lanes={lanes} span={span} div={div}"
                            );
                        }
                    }
                }
            }
        }
        // Both sides of each closed-form condition: `stride <= span + 1`
        // (after sign normalisation) and `0 <= span < div`. `span` -1 is
        // a zero-width element.
        for div in [32i64, 128] {
            for span in [-1i64, 0, 3, div - 1, div, div + 1, 127] {
                let strides = [-(span + 2), -(span + 1), -1, 0, span, span + 1, span + 2];
                for stride in strides {
                    for base in [-(1i64 << 40) - 5, -1000, -129, -1, 0, 1, 1 << 40] {
                        for lanes in [1u32, 2, 7, 32, 33] {
                            assert_eq!(
                                affine_distinct_i64(base, stride, lanes, span, div),
                                affine_reference(base, stride, lanes, span, div),
                                "base={base} stride={stride} lanes={lanes} span={span} div={div}"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn affine_random_differential() {
        let mut rng = XorShiftRng::seed_from_u64(0x5eed_c0a1);
        for case in 0..4000 {
            let div = [32i64, 64, 128][rng.gen_range_usize(0, 3)];
            let span = rng.gen_range_u64(0, 2 * div as u64) as i64;
            let stride = rng.gen_range_u64(0, 6 * div as u64 + 1) as i64 - 3 * div;
            let base = rng.gen_range_u64(0, 1 << 41) as i64 - (1 << 40);
            let lanes = rng.gen_range_u32(1, 65);
            assert_eq!(
                affine_distinct_i64(base, stride, lanes, span, div),
                affine_reference(base, stride, lanes, span, div),
                "case={case} base={base} stride={stride} lanes={lanes} span={span} div={div}"
            );
        }
    }

    #[test]
    fn affine_handles_negative_addresses() {
        // Truncating division differs from floor for negatives; the merge
        // must still agree with the sort-based reference.
        for &base in &[-1000i64, -129, -1] {
            for &stride in &[-64i64, -3, 5, 96] {
                assert_eq!(
                    affine_distinct_i64(base, stride, 32, 3, 128),
                    affine_reference(base, stride, 32, 3, 128),
                    "base={base} stride={stride}"
                );
            }
        }
    }

    #[test]
    fn gather_helper_matches_reference() {
        let aligned: Vec<u64> = (0..32).map(|l| l * 4).collect();
        let unaligned: Vec<u64> = (0..32).map(|l| 126 + l * 12).collect();
        let mut sorted: Vec<u64> = (0..40)
            .map(|i| 1_000_003u64.wrapping_mul(i) % 65536)
            .collect();
        sorted.sort_unstable();
        let reversed: Vec<u64> = sorted.iter().rev().copied().collect();
        let duplicates = vec![508u64, 4, 508, 4, 124, 124, 130, 4096];
        // One-byte straddles: 125 for elem 4 and 4096 + 121 for elem 8.
        let edge = vec![125u64, 4096, 4096 + 121, 8192 + 93];
        let scattered: Vec<u64> = (0..37)
            .map(|i| 1_000_003u64.wrapping_mul(i) % 65536)
            .collect();
        let mut scratch = Vec::new();
        for addrs in [
            &aligned,
            &unaligned,
            &sorted,
            &reversed,
            &duplicates,
            &edge,
            &scattered,
        ] {
            for elem in [4u32, 8] {
                for seg in [32u32, 128] {
                    assert_eq!(
                        gather_distinct_segments(addrs, elem, seg.trailing_zeros(), &mut scratch),
                        gather_segments(addrs, elem, seg),
                        "addrs={addrs:?} elem={elem} seg={seg}"
                    );
                }
            }
        }
        assert_eq!(gather_distinct_segments(&[], 4, 7, &mut scratch), 0);
        // A zero-width access's `last` bound is the byte before it.
        assert_eq!(
            gather_distinct_segments(&edge, 0, 7, &mut scratch),
            gather_segments(&edge, 0, 128)
        );
        // One-byte segments count distinct addresses (constant-space words),
        // including an id equal to the table's empty marker.
        let words = [u64::MAX, 3, u64::MAX, 3, 0, 9];
        assert_eq!(gather_distinct_segments(&words, 1, 0, &mut scratch), 4);
        assert_eq!(gather_distinct_segments(&[u64::MAX], 1, 0, &mut scratch), 1);
    }

    #[test]
    fn gather_random_differential() {
        let mut rng = XorShiftRng::seed_from_u64(0x6a7e_5e95);
        let mut scratch = Vec::new();
        let mut addrs = Vec::new();
        for case in 0..3000 {
            let seg = [1u32, 32, 128][rng.gen_range_usize(0, 3)];
            let elem = [0u32, 4, 8][rng.gen_range_usize(0, 3)];
            let n = rng.gen_range_usize(0, 513);
            // Narrow ranges make duplicates and shared segments common;
            // wide ones scatter. Addresses start at 1 so the reference's
            // zero-width `a - 1` bound cannot underflow.
            let range = [64u64, 1 << 10, 1 << 16, 1 << 40][rng.gen_range_usize(0, 4)];
            // Element-aligned or byte-granular, so accesses may straddle.
            let align = [1u64, 4][rng.gen_range_usize(0, 2)];
            addrs.clear();
            addrs.extend((0..n).map(|_| 1 + rng.gen_range_u64(0, range) * align));
            match case % 4 {
                0 => addrs.sort_unstable(),
                1 => addrs.sort_unstable_by(|a, b| b.cmp(a)),
                2 => {
                    // Duplicate-heavy: every lane reuses an earlier address.
                    for i in 1..n {
                        addrs[i] = addrs[rng.gen_range_usize(0, i)];
                    }
                }
                _ => {} // shuffled
            }
            assert_eq!(
                gather_distinct_segments(&addrs, elem, seg.trailing_zeros(), &mut scratch),
                gather_segments(&addrs, elem, seg),
                "case={case} n={n} elem={elem} seg={seg} range={range} align={align}"
            );
        }
    }
}
