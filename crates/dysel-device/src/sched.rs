//! Execution-unit scheduling shared by the device models.

use crate::Cycles;

/// A pool of execution units (CPU cores or GPU SMs), each with a
/// next-free-time. Work is assigned greedily to the earliest-free unit —
/// the deterministic analogue of a work-stealing scheduler (CPU, TBB in the
/// paper) or the hardware group dispatcher (GPU).
#[derive(Debug, Clone)]
pub struct UnitPool {
    free_at: Vec<Cycles>,
}

/// Outcome of placing one task on the pool.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Placement {
    /// Unit the task ran on.
    pub unit: usize,
    /// Start time (>= requested earliest start).
    pub start: Cycles,
    /// Completion time.
    pub end: Cycles,
}

impl UnitPool {
    /// Creates a pool of `n` units, all free at time zero.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn new(n: usize) -> Self {
        assert!(n > 0, "a device needs at least one execution unit");
        UnitPool {
            free_at: vec![Cycles::ZERO; n],
        }
    }

    /// Number of units.
    pub fn len(&self) -> usize {
        self.free_at.len()
    }

    /// Whether the pool has no units (never true by construction).
    pub fn is_empty(&self) -> bool {
        self.free_at.is_empty()
    }

    /// Assigns a task of `cost` cycles, starting no earlier than
    /// `not_before`, to the earliest-free unit.
    pub fn assign(&mut self, cost: Cycles, not_before: Cycles) -> Placement {
        let unit = self.earliest_unit();
        let start = self.free_at[unit].max(not_before);
        let end = start + cost;
        self.free_at[unit] = end;
        Placement { unit, start, end }
    }

    /// Assigns a task to a *specific* unit (used when per-unit state, such
    /// as a core's cache, must be consulted before the task runs).
    ///
    /// # Panics
    ///
    /// Panics if `unit` is out of range.
    pub fn assign_to(&mut self, unit: usize, cost: Cycles, not_before: Cycles) -> Placement {
        let start = self.free_at[unit].max(not_before);
        let end = start + cost;
        self.free_at[unit] = end;
        Placement { unit, start, end }
    }

    /// Index of the unit that frees up first (ties: lowest index).
    pub fn earliest_unit(&self) -> usize {
        self.free_at
            .iter()
            .enumerate()
            .min_by_key(|&(_, &t)| t)
            .map(|(i, _)| i)
            .unwrap_or(0)
    }

    /// Earliest time any unit is free.
    pub fn earliest_free(&self) -> Cycles {
        self.free_at.iter().copied().min().unwrap_or(Cycles::ZERO)
    }

    /// Time at which every unit is idle.
    pub fn busy_until(&self) -> Cycles {
        self.free_at.iter().copied().max().unwrap_or(Cycles::ZERO)
    }

    /// Resets all units to free-at-zero.
    pub fn reset(&mut self) {
        self.free_at.fill(Cycles::ZERO);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn greedy_assignment_balances_load() {
        let mut p = UnitPool::new(2);
        let a = p.assign(Cycles(10), Cycles::ZERO);
        let b = p.assign(Cycles(10), Cycles::ZERO);
        let c = p.assign(Cycles(5), Cycles::ZERO);
        assert_ne!(a.unit, b.unit);
        assert_eq!(c.start, Cycles(10));
        assert_eq!(p.busy_until(), Cycles(15));
        assert_eq!(p.earliest_free(), Cycles(10));
    }

    #[test]
    fn not_before_delays_start() {
        let mut p = UnitPool::new(1);
        let a = p.assign(Cycles(3), Cycles(100));
        assert_eq!(a.start, Cycles(100));
        assert_eq!(a.end, Cycles(103));
    }

    #[test]
    fn reset_clears_time() {
        let mut p = UnitPool::new(3);
        p.assign(Cycles(50), Cycles::ZERO);
        p.reset();
        assert_eq!(p.busy_until(), Cycles::ZERO);
    }

    #[test]
    #[should_panic(expected = "at least one")]
    fn empty_pool_rejected() {
        let _ = UnitPool::new(0);
    }
}
