//! Dirty-range bookkeeping for partial buffer restores.
//!
//! The launch engine's repair/rollback paths historically treated every
//! buffer as all-or-nothing: a launch that wrote 32 rows of a megabyte
//! output still paid full-buffer scans (and copies) to merge, digest or
//! restore it. [`DirtyRanges`] is the explicit alternative: a sorted,
//! coalesced set of half-open element ranges that some writer touched,
//! which restore paths can replay to copy only those bytes.
//!
//! The ranges a consumer feeds in may overlap, abut or be empty in any
//! order — [`DirtyRanges::mark`] normalises them, so iteration always
//! yields disjoint, ascending, non-empty ranges.

/// A sorted, coalesced set of half-open element ranges `[start, end)`.
///
/// # Example
///
/// ```
/// use dysel_kernel::DirtyRanges;
/// let mut d = DirtyRanges::new();
/// d.mark(10, 20);
/// d.mark(30, 40);
/// d.mark(18, 30); // bridges the gap
/// assert_eq!(d.iter().collect::<Vec<_>>(), vec![(10, 40)]);
/// assert_eq!(d.covered(), 30);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DirtyRanges {
    ranges: Vec<(u64, u64)>,
}

impl DirtyRanges {
    /// Creates an empty set.
    pub fn new() -> Self {
        DirtyRanges::default()
    }

    /// Marks `[start, end)` dirty. Empty ranges are ignored; overlapping
    /// or adjacent ranges coalesce with what is already marked.
    pub fn mark(&mut self, start: u64, end: u64) {
        if start >= end {
            return;
        }
        // First range starting strictly after `start`.
        let i = self.ranges.partition_point(|&(s, _)| s <= start);
        let idx = if i > 0 && self.ranges[i - 1].1 >= start {
            // Overlaps or abuts the predecessor: grow it.
            self.ranges[i - 1].1 = self.ranges[i - 1].1.max(end);
            i - 1
        } else {
            self.ranges.insert(i, (start, end));
            i
        };
        // Swallow successors the grown range now overlaps or abuts.
        let mut j = idx + 1;
        while j < self.ranges.len() && self.ranges[j].0 <= self.ranges[idx].1 {
            self.ranges[idx].1 = self.ranges[idx].1.max(self.ranges[j].1);
            j += 1;
        }
        self.ranges.drain(idx + 1..j);
    }

    /// Whether nothing is marked.
    pub fn is_empty(&self) -> bool {
        self.ranges.is_empty()
    }

    /// Number of disjoint ranges after coalescing.
    pub fn range_count(&self) -> usize {
        self.ranges.len()
    }

    /// Total number of elements covered.
    pub fn covered(&self) -> u64 {
        self.ranges.iter().map(|&(s, e)| e - s).sum()
    }

    /// Iterates the disjoint ranges in ascending order.
    pub fn iter(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.ranges.iter().copied()
    }

    /// Forgets everything.
    pub fn clear(&mut self) {
        self.ranges.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_ranges_are_ignored() {
        let mut d = DirtyRanges::new();
        d.mark(5, 5);
        d.mark(9, 3);
        assert!(d.is_empty());
        assert_eq!(d.covered(), 0);
    }

    #[test]
    fn disjoint_ranges_stay_sorted() {
        let mut d = DirtyRanges::new();
        d.mark(30, 40);
        d.mark(0, 5);
        d.mark(10, 20);
        assert_eq!(
            d.iter().collect::<Vec<_>>(),
            vec![(0, 5), (10, 20), (30, 40)]
        );
        assert_eq!(d.range_count(), 3);
    }

    #[test]
    fn overlapping_and_adjacent_marks_coalesce() {
        let mut d = DirtyRanges::new();
        d.mark(10, 20);
        d.mark(20, 25); // adjacent
        d.mark(5, 12); // overlapping from the left
        d.mark(0, 100); // engulfs everything
        assert_eq!(d.iter().collect::<Vec<_>>(), vec![(0, 100)]);
    }

    #[test]
    fn bridge_swallows_multiple_successors() {
        let mut d = DirtyRanges::new();
        d.mark(0, 2);
        d.mark(4, 6);
        d.mark(8, 10);
        d.mark(1, 9);
        assert_eq!(d.iter().collect::<Vec<_>>(), vec![(0, 10)]);
    }

    /// Reference model: a boolean membership bitmap.
    #[cfg(feature = "proptest")]
    #[test]
    fn random_marks_match_bitmap_model() {
        use crate::XorShiftRng;
        let mut rng = XorShiftRng::seed_from_u64(0x00D1_57A0);
        for _ in 0..200 {
            let mut d = DirtyRanges::new();
            let mut model = [false; 256];
            for _ in 0..rng.gen_range_u32(0, 32) {
                let a = rng.gen_range_u32(0, 256) as u64;
                let b = rng.gen_range_u32(0, 257) as u64;
                d.mark(a, b);
                for x in a..b.min(256) {
                    model[x as usize] = true;
                }
            }
            // Same membership...
            for (x, &m) in model.iter().enumerate() {
                let x = x as u64;
                let held = d.iter().any(|(s, e)| s <= x && x < e);
                assert_eq!(held, m, "element {x}");
            }
            // ...and canonical form: ascending, disjoint, non-empty, with
            // gaps between consecutive ranges.
            let rs: Vec<_> = d.iter().collect();
            for w in rs.windows(2) {
                assert!(w[0].1 < w[1].0, "ranges {w:?} not disjoint-with-gap");
            }
            for &(s, e) in &rs {
                assert!(s < e);
            }
            assert_eq!(d.covered(), model.iter().filter(|&&m| m).count() as u64);
        }
    }
}
