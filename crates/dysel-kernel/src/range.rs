//! Ranges of workload units.

use std::fmt;

/// A half-open range `[start, end)` of *workload units*.
///
/// A workload unit is the finest-grained independent slice of the
/// computation (e.g. one output tile of `sgemm`, one row block of `spmv`).
/// A kernel variant with work-assignment factor `w` processes `w`
/// consecutive units per work-group; micro-profiling assigns distinct unit
/// ranges to distinct profiling launches (productive profiling, §2.2).
///
/// # Example
///
/// ```
/// use dysel_kernel::UnitRange;
/// let r = UnitRange::new(4, 10);
/// assert_eq!(r.len(), 6);
/// assert!(r.contains(9));
/// assert!(!r.contains(10));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, PartialOrd, Ord)]
pub struct UnitRange {
    /// First unit covered.
    pub start: u64,
    /// One past the last unit covered.
    pub end: u64,
}

impl UnitRange {
    /// Creates the range `[start, end)`.
    ///
    /// # Panics
    ///
    /// Panics if `start > end`.
    pub fn new(start: u64, end: u64) -> Self {
        assert!(start <= end, "invalid unit range {start}..{end}");
        UnitRange { start, end }
    }

    /// Number of units in the range.
    pub fn len(&self) -> u64 {
        self.end - self.start
    }

    /// Whether the range is empty.
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }

    /// Whether `unit` lies in the range.
    pub fn contains(&self, unit: u64) -> bool {
        unit >= self.start && unit < self.end
    }

    /// Intersection with another range (empty ranges collapse to `start`).
    pub fn intersect(&self, other: UnitRange) -> UnitRange {
        let start = self.start.max(other.start);
        let end = self.end.min(other.end).max(start);
        UnitRange { start, end }
    }

    /// Splits the range into per-group unit ranges, `per_group` units each;
    /// the final group may be short. Returns an iterator of `(group_index,
    /// UnitRange)` pairs.
    pub fn groups(&self, per_group: u64) -> impl Iterator<Item = (u64, UnitRange)> + '_ {
        assert!(per_group > 0, "per_group must be positive");
        let (start, end) = (self.start, self.end);
        (0..self.len().div_ceil(per_group)).map(move |g| {
            let s = start + g * per_group;
            let e = (s + per_group).min(end);
            (g, UnitRange { start: s, end: e })
        })
    }

    /// Iterate over the individual unit indices.
    pub fn iter(&self) -> std::ops::Range<u64> {
        self.start..self.end
    }
}

impl fmt::Display for UnitRange {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}, {})", self.start, self.end)
    }
}

impl From<std::ops::Range<u64>> for UnitRange {
    fn from(r: std::ops::Range<u64>) -> Self {
        UnitRange::new(r.start, r.end)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn groups_partition_exactly() {
        let r = UnitRange::new(10, 31);
        let parts: Vec<_> = r.groups(8).collect();
        assert_eq!(parts.len(), 3);
        assert_eq!(parts[0].1, UnitRange::new(10, 18));
        assert_eq!(parts[1].1, UnitRange::new(18, 26));
        assert_eq!(parts[2].1, UnitRange::new(26, 31)); // short tail
        let total: u64 = parts.iter().map(|(_, p)| p.len()).sum();
        assert_eq!(total, r.len());
    }

    #[test]
    fn intersect_disjoint_is_empty() {
        let a = UnitRange::new(0, 5);
        let b = UnitRange::new(7, 9);
        assert!(a.intersect(b).is_empty());
        assert_eq!(a.intersect(UnitRange::new(3, 8)), UnitRange::new(3, 5));
    }

    #[test]
    #[should_panic(expected = "invalid unit range")]
    fn reversed_range_panics() {
        let _ = UnitRange::new(5, 1);
    }

    #[test]
    fn from_std_range() {
        let r: UnitRange = (2..6u64).into();
        assert_eq!(r.len(), 4);
        assert_eq!(r.iter().collect::<Vec<_>>(), vec![2, 3, 4, 5]);
    }
}
