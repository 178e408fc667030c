//! Interval + congruence abstract interpretation over difference terms.
//!
//! The affine machinery of [`crate::disjoint`] abstains
//! ([`Verdict::Unknown`]) in three situations: an unbounded work-item
//! stride interacting with other terms, an unbounded kernel-loop stride
//! whose sum-set check is inconclusive, and a bounded system whose exact
//! sum-set enumeration exceeds the cap. This module is the precision tier
//! that sits between those fast paths and giving up: it re-examines the
//! *same* difference system `Σ coeff_d · δ_d = 0` with two classic abstract
//! domains —
//!
//! * an **interval** domain bounding how far each side of the equation can
//!   reach, and
//! * a **congruence** (stride/residue) domain tracking which residue class
//!   the bounded side must fall in,
//!
//! and decides feasibility of a nonzero work-item multiplier from the
//! abstraction. The tier is *refining only*: `refine` is invoked solely
//! on systems the affine tier left `Unknown`, so it can never flip a
//! previously proven `Disjoint`/`Overlap` — it only resolves abstentions.
//!
//! Soundness rules, stated once:
//!
//! * `Disjoint` requires infeasibility for **every** runtime extent — the
//!   abstraction over-approximates the reachable sums, so an empty
//!   intersection with the cancellation set is a proof.
//! * `Overlap` is only claimed from a **concrete** witness (an exact
//!   sum-set point), never from the abstraction alone, and any witness
//!   multiplier on an unbounded work-item dimension is restricted to `±1`
//!   (the runtime only guarantees extents ≥ 2).
//! * Anything else stays `Unknown`.

use crate::disjoint::{bounded_sumset, gcd, Term, Verdict};

/// Cap on the outward scan for a reachable nonzero multiple; systems whose
/// coefficients force a longer scan stay [`Verdict::Unknown`].
const MULTIPLE_SCAN_CAP: i64 = 1 << 16;

/// A (possibly half-)bounded integer interval; `None` means unbounded on
/// that side. The abstraction of "every value this expression can take".
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Interval {
    /// Inclusive lower bound, `None` for −∞.
    pub lo: Option<i64>,
    /// Inclusive upper bound, `None` for +∞.
    pub hi: Option<i64>,
}

impl Interval {
    /// The unbounded interval ⊤.
    pub const TOP: Interval = Interval { lo: None, hi: None };

    /// The singleton interval `[v, v]`.
    pub fn point(v: i64) -> Self {
        Interval {
            lo: Some(v),
            hi: Some(v),
        }
    }

    /// The interval `[lo, hi]` (callers keep `lo ≤ hi`).
    pub fn new(lo: i64, hi: i64) -> Self {
        Interval {
            lo: Some(lo),
            hi: Some(hi),
        }
    }

    /// Whether `v` lies in the interval.
    pub fn contains(self, v: i64) -> bool {
        self.lo.is_none_or(|lo| lo <= v) && self.hi.is_none_or(|hi| v <= hi)
    }
}

/// Interval sum; any overflow widens the affected side to unbounded.
impl std::ops::Add for Interval {
    type Output = Interval;

    fn add(self, other: Interval) -> Interval {
        let side =
            |a: Option<i64>, b: Option<i64>| a.and_then(|x| b.and_then(|y| x.checked_add(y)));
        Interval {
            lo: side(self.lo, other.lo),
            hi: side(self.hi, other.hi),
        }
    }
}

/// A residue class `{ x : x ≡ residue (mod modulus) }`; `modulus == 0`
/// denotes the exact constant `residue`, `modulus == 1` denotes all of ℤ.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Congruence {
    /// Non-negative modulus (`0` = exact constant).
    pub modulus: i64,
    /// Representative residue.
    pub residue: i64,
}

impl Congruence {
    /// The class of all integers ⊤.
    pub const TOP: Congruence = Congruence {
        modulus: 1,
        residue: 0,
    };

    /// The exact constant `v`.
    pub fn point(v: i64) -> Self {
        Congruence {
            modulus: 0,
            residue: v,
        }
    }

    /// All multiples of `m` (`m = 0` collapses to the constant 0).
    pub fn multiples_of(m: i64) -> Self {
        Congruence {
            modulus: m.abs(),
            residue: 0,
        }
    }

    /// Whether `v` lies in the class.
    pub fn contains(self, v: i64) -> bool {
        if self.modulus == 0 {
            return v == self.residue;
        }
        v.rem_euclid(self.modulus) == self.residue.rem_euclid(self.modulus)
    }
}

/// Congruence sum: moduli combine by gcd, residues add. Constant +
/// constant stays exact; overflow widens to ⊤.
impl std::ops::Add for Congruence {
    type Output = Congruence;

    fn add(self, other: Congruence) -> Congruence {
        let Some(sum) = self.residue.checked_add(other.residue) else {
            return Congruence::TOP;
        };
        let m = gcd(self.modulus, other.modulus);
        if m == 0 {
            return Congruence::point(sum);
        }
        Congruence {
            modulus: m,
            residue: sum.rem_euclid(m),
        }
    }
}

/// The product abstraction: an interval *and* a congruence class, both of
/// which every concrete value must satisfy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AbsVal {
    /// Range component.
    pub interval: Interval,
    /// Stride/residue component.
    pub congruence: Congruence,
}

impl AbsVal {
    /// The exact constant `v`.
    pub fn point(v: i64) -> Self {
        AbsVal {
            interval: Interval::point(v),
            congruence: Congruence::point(v),
        }
    }

    /// Whether `v` satisfies both components.
    pub fn contains(self, v: i64) -> bool {
        self.interval.contains(v) && self.congruence.contains(v)
    }

    /// Abstraction of one bounded term's value set
    /// `{ coeff · m : m ∈ [lo, hi] }`.
    pub(crate) fn of_term(t: &Term) -> AbsVal {
        debug_assert!(t.bounded);
        let interval = match (t.coeff.checked_mul(t.lo), t.coeff.checked_mul(t.hi)) {
            (Some(a), Some(b)) => Interval::new(a.min(b), a.max(b)),
            _ => Interval::TOP,
        };
        let congruence = if t.lo == t.hi {
            t.coeff
                .checked_mul(t.lo)
                .map(Congruence::point)
                .unwrap_or(Congruence::TOP)
        } else {
            Congruence::multiples_of(t.coeff)
        };
        AbsVal {
            interval,
            congruence,
        }
    }
}

/// Component-wise sum.
impl std::ops::Add for AbsVal {
    type Output = AbsVal;

    fn add(self, other: AbsVal) -> AbsVal {
        AbsVal {
            interval: self.interval + other.interval,
            congruence: self.congruence + other.congruence,
        }
    }
}

/// Folds the abstraction of a sum of bounded terms.
fn fold_terms<'a>(terms: impl Iterator<Item = &'a Term>) -> AbsVal {
    terms.fold(AbsVal::point(0), |acc, t| acc + AbsVal::of_term(t))
}

/// Can `av` contain a *nonzero* multiple of `c`? Scans multiples outward
/// from zero until both interval ends are passed. `Some(false)` is a proof
/// (no such multiple), `None` means the scan capped out (undecided).
fn contains_nonzero_multiple(av: AbsVal, c: i64) -> Option<bool> {
    debug_assert!(c != 0);
    let c = c.abs();
    for k in 1..=MULTIPLE_SCAN_CAP {
        let Some(x) = c.checked_mul(k) else {
            // Past i64 range on both sides: nothing further to reach.
            return Some(false);
        };
        if av.contains(x) || av.contains(-x) {
            return Some(true);
        }
        let past_hi = av.interval.hi.is_some_and(|hi| x > hi);
        let past_lo = av.interval.lo.is_some_and(|lo| -x < lo);
        if past_hi && past_lo {
            return Some(false);
        }
    }
    None
}

/// One unbounded work-item term `c · δ` against bounded terms: the bounded
/// side must produce a multiple of `c` to cancel it.
fn single_unbounded_wi(c: i64, bounded: &[Term]) -> Verdict {
    if let Some(set) = bounded_sumset(bounded) {
        // Exact witness check first. δ on the unbounded dimension may only
        // be ±1 (extents ≥ 2 is all the runtime guarantees), so a witness
        // is either a bounded sum of magnitude exactly |c|, or a zero sum
        // reached with a nonzero bounded work-item multiplier.
        if set
            .iter()
            .any(|&(v, w)| v.abs() == c.abs() || (v == 0 && w))
        {
            return Verdict::Overlap;
        }
        // Any larger multiple of c cancels at *some* extent (δ = −v/c with
        // |δ| ≥ 2 needs extent > |δ|): blocks a proof without being a
        // witness.
        if set.iter().any(|&(v, _)| v != 0 && v % c == 0) {
            return Verdict::Unknown;
        }
        return Verdict::Disjoint;
    }
    // Sum-set overflowed: fall back to the abstraction. A bounded work-item
    // term could cancel to zero with a nonzero multiplier — the abstraction
    // cannot exclude that, so only the kernel-only shape is decidable.
    if bounded.iter().any(|t| t.work_item) {
        return Verdict::Unknown;
    }
    match contains_nonzero_multiple(fold_terms(bounded.iter()), c) {
        Some(false) => Verdict::Disjoint,
        _ => Verdict::Unknown,
    }
}

/// Bounded-only system whose exact enumeration overflowed: with a single
/// bounded work-item term `c · m`, a race needs the remaining terms to
/// reach a nonzero multiple of `c`.
fn bounded_refine(bounded: &[Term]) -> Verdict {
    let wi: Vec<&Term> = bounded.iter().filter(|t| t.work_item).collect();
    let [t] = wi.as_slice() else {
        return Verdict::Unknown;
    };
    match contains_nonzero_multiple(fold_terms(bounded.iter().filter(|t| !t.work_item)), t.coeff) {
        Some(false) => Verdict::Disjoint,
        _ => Verdict::Unknown,
    }
}

/// Unbounded kernel strides of gcd `g` against one bounded work-item term
/// `c · w`: if every other bounded term is ≡ 0 (mod g), the equation forces
/// `c · w ≡ 0 (mod g)`, i.e. `w ≡ 0 (mod g / gcd(c, g))` — a step beyond
/// the work-item range pins `w = 0`.
fn kernel_residue_refine(kernel: &[i64], bounded: &[Term]) -> Verdict {
    let g = kernel.iter().fold(0i64, |acc, &c| gcd(acc, c));
    if g <= 1 {
        return Verdict::Unknown;
    }
    let wi: Vec<&Term> = bounded.iter().filter(|t| t.work_item).collect();
    let [t] = wi.as_slice() else {
        return Verdict::Unknown;
    };
    for other in bounded.iter().filter(|t| !t.work_item) {
        let cong = AbsVal::of_term(other).congruence;
        let all_zero_mod_g = if cong.modulus == 0 {
            cong.residue % g == 0
        } else {
            cong.modulus % g == 0 && cong.residue % g == 0
        };
        if !all_zero_mod_g {
            return Verdict::Unknown;
        }
    }
    let step = g / gcd(t.coeff, g);
    let reach = t.lo.abs().max(t.hi.abs());
    if step > reach {
        Verdict::Disjoint
    } else {
        Verdict::Unknown
    }
}

/// Refines a system the affine tier left [`Verdict::Unknown`]. Never
/// called on proven systems, so by construction it can only *resolve*
/// abstentions, not flip verdicts.
pub(crate) fn refine(terms: &[Term]) -> Verdict {
    if !terms.iter().any(|t| t.work_item) {
        // A race needs a nonzero work-item multiplier; no term has one.
        return Verdict::Disjoint;
    }
    let unbounded_wi: Vec<i64> = terms
        .iter()
        .filter(|t| !t.bounded && t.work_item)
        .map(|t| t.coeff)
        .collect();
    let unbounded_kernel: Vec<i64> = terms
        .iter()
        .filter(|t| !t.bounded && !t.work_item)
        .map(|t| t.coeff)
        .collect();
    let bounded: Vec<Term> = terms.iter().filter(|t| t.bounded).copied().collect();
    match (unbounded_wi.as_slice(), unbounded_kernel.is_empty()) {
        ([], true) => bounded_refine(&bounded),
        ([], false) => kernel_residue_refine(&unbounded_kernel, &bounded),
        ([c], true) => single_unbounded_wi(*c, &bounded),
        // Two unbounded work-item strides (they cancel each other for
        // large extents) or an unbounded work-item stride mixed with
        // unbounded kernel strides: beyond this abstraction.
        _ => Verdict::Unknown,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn term(coeff: i64, lo: i64, hi: i64, work_item: bool) -> Term {
        Term {
            coeff,
            lo,
            hi,
            bounded: true,
            work_item,
        }
    }

    fn unbounded(coeff: i64, work_item: bool) -> Term {
        Term {
            coeff,
            lo: 0,
            hi: 0,
            bounded: false,
            work_item,
        }
    }

    #[test]
    fn interval_add_and_contains() {
        let a = Interval::new(-3, 5) + Interval::point(2);
        assert_eq!(a, Interval::new(-1, 7));
        assert!(a.contains(-1) && a.contains(7) && !a.contains(8));
        assert!(Interval::TOP.contains(i64::MAX));
        let widened = Interval::point(i64::MAX) + Interval::point(1);
        assert_eq!(widened.hi, None);
    }

    #[test]
    fn congruence_add_and_contains() {
        let m = Congruence::multiples_of(6) + Congruence::multiples_of(8);
        assert_eq!(m.modulus, 2);
        assert!(m.contains(-4) && !m.contains(3));
        let shifted = Congruence::multiples_of(4) + Congruence::point(3);
        assert!(shifted.contains(7) && shifted.contains(-1) && !shifted.contains(8));
        let exact = Congruence::point(2) + Congruence::point(-5);
        assert_eq!(exact, Congruence::point(-3));
        assert!(Congruence::TOP.contains(42));
    }

    #[test]
    fn of_term_point_and_range() {
        let p = AbsVal::of_term(&term(3, 2, 2, false));
        assert_eq!(p.congruence, Congruence::point(6));
        assert_eq!(p.interval, Interval::point(6));
        let r = AbsVal::of_term(&term(-4, 0, 5, false));
        assert_eq!(r.interval, Interval::new(-20, 0));
        assert_eq!(r.congruence.modulus, 4);
    }

    #[test]
    fn nonzero_multiple_scan() {
        // Multiples of 32 against reach ±31: none.
        let av = fold_terms([term(1, -31, 31, false)].iter());
        assert_eq!(contains_nonzero_multiple(av, 32), Some(false));
        // Reach ±32: the first multiple lands.
        let av = fold_terms([term(1, -32, 32, false)].iter());
        assert_eq!(contains_nonzero_multiple(av, 32), Some(true));
        // Congruence rules the multiple out even when the interval allows
        // it: multiples of 4 inside ±10 that are also odd don't exist.
        let av = AbsVal {
            interval: Interval::new(-10, 10),
            congruence: Congruence {
                modulus: 2,
                residue: 1,
            },
        };
        assert_eq!(contains_nonzero_multiple(av, 4), Some(false));
    }

    #[test]
    fn single_unbounded_wi_exact_paths() {
        // 32·δ + o, o ∈ ±31: no multiple reachable → Disjoint.
        assert_eq!(
            refine(&[unbounded(32, true), term(1, -31, 31, false)]),
            Verdict::Disjoint
        );
        // o ∈ ±32 reaches |c| exactly → witness at δ = ∓1.
        assert_eq!(
            refine(&[unbounded(32, true), term(1, -32, 32, false)]),
            Verdict::Overlap
        );
        // o ∈ ±64 only at stride 64: δ = ∓2 needs extent > 2 → blocks the
        // proof without being a witness.
        assert_eq!(
            refine(&[unbounded(32, true), term(64, -1, 1, false)]),
            Verdict::Unknown
        );
        // Zero sum with a nonzero bounded work-item multiplier: witness.
        assert_eq!(
            refine(&[
                unbounded(32, true),
                term(5, -3, 3, true),
                term(-5, -3, 3, false)
            ]),
            Verdict::Overlap
        );
    }

    #[test]
    fn single_unbounded_wi_abstract_fallback() {
        // Enumeration of ±1 999 999 at stride 2 overflows the cap; the
        // interval ±3 999 998 never reaches 5 000 000.
        assert_eq!(
            refine(&[
                unbounded(5_000_000, true),
                term(2, -1_999_999, 1_999_999, false)
            ]),
            Verdict::Disjoint
        );
        // Same shape but the multiple is reachable: abstention.
        assert_eq!(
            refine(&[
                unbounded(1_000_000, true),
                term(2, -1_999_999, 1_999_999, false)
            ]),
            Verdict::Unknown
        );
    }

    #[test]
    fn bounded_overflow_refine() {
        // 7·m (work-item, m ∈ ±1 999 999) + 2·k (k ∈ ±1 999 999): the
        // enumeration overflows, but no multiple of 7 beyond ±3 999 998
        // is needed — multiples of 7 inside reach exist → Unknown.
        assert_eq!(
            refine(&[
                term(7, -1_999_999, 1_999_999, true),
                term(2, -1_999_999, 1_999_999, false)
            ]),
            Verdict::Unknown
        );
        // 5_000_000·m against reach ±3 999 998: no multiple → Disjoint.
        assert_eq!(
            refine(&[
                term(5_000_000, -1_999_999, 1_999_999, true),
                term(2, -1_999_999, 1_999_999, false)
            ]),
            Verdict::Disjoint
        );
    }

    #[test]
    fn kernel_residue_path() {
        // 3·w (w ∈ ±1 999 999) + 6 000 000·t (unbounded kernel):
        // w ≡ 0 (mod 2 000 000) forces w = 0 → Disjoint.
        assert_eq!(
            refine(&[
                term(3, -1_999_999, 1_999_999, true),
                unbounded(6_000_000, false)
            ]),
            Verdict::Disjoint
        );
        // Step 2 000 000 not beyond reach ±2 000 000: abstain.
        assert_eq!(
            refine(&[
                term(3, -2_000_000, 2_000_000, true),
                unbounded(6_000_000, false)
            ]),
            Verdict::Unknown
        );
        // A bounded kernel term with incompatible residue spoils the
        // congruence argument.
        assert_eq!(
            refine(&[
                term(3, -1_999_999, 1_999_999, true),
                term(1, 1, 1, false),
                unbounded(6_000_000, false)
            ]),
            Verdict::Unknown
        );
    }

    #[test]
    fn no_work_item_terms_is_disjoint() {
        assert_eq!(
            refine(&[term(2, -1_999_999, 1_999_999, false), unbounded(4, false)]),
            Verdict::Disjoint
        );
    }

    #[test]
    fn two_unbounded_wi_abstains() {
        assert_eq!(
            refine(&[unbounded(64, true), unbounded(65, true)]),
            Verdict::Unknown
        );
    }
}
