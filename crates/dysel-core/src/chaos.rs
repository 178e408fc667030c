//! Deterministic chaos injection for the launch service.
//!
//! A [`ChaosPlan`] is the service-layer sibling of the device-level
//! [`crate::FaultPlan`]: a seeded, serializable schedule of *process*
//! faults — kernel panics, worker-thread deaths and persistence
//! kill-points — that the shard workers consult once per submission,
//! keyed by `(tenant, signature, per-stream launch index)`. Decisions are
//! a pure function of `(plan seed, stream, index, rule position)`, so a
//! chaotic run is bit-identical at any client count: `tests/chaos.rs`
//! leans on that to assert the three containment invariants (every ticket
//! resolves typed, surviving streams replay bit-identically, recovery
//! matches the journaled prefix).
//!
//! Three actions cover the service's failure domains:
//!
//! * [`ChaosAction::Panic`] — the launch panics *inside* the lane's
//!   `catch_unwind`: contained, the lane is discarded and its breaker
//!   trips ([`crate::DyselError::LanePanicked`]);
//! * [`ChaosAction::Kill`] — the panic escapes containment and kills the
//!   shard worker: the in-flight ticket resolves
//!   [`crate::DyselError::WorkerDied`] and the supervisor restarts the
//!   worker with bounded backoff;
//! * a **journal kill-point** (`journal@N=kill`) — the write-ahead
//!   journal silently stops persisting after `N` appends, simulating a
//!   crash of the persistence layer mid-run.
//!
//! Plans have a compact text form for the `--chaos-plan` CLI flag,
//! mirroring the fault-plan grammar:
//!
//! ```text
//! seed=7;spmv@1+1=panic;sgemm=kill?0.25;journal@5=kill
//! ```
//!
//! i.e. `;`-separated rules `SIG[@FROM[+COUNT]]=ACTION[?PROB]` with an
//! optional leading `seed=N`. `FROM` is the first per-stream launch index
//! covered, `COUNT` the window length (unbounded if omitted) and `?PROB`
//! an independent firing probability. The reserved name `journal` sets
//! the persistence kill-point; its `FROM` is the append index.

use std::collections::HashMap;
use std::error::Error;
use std::fmt;
use std::str::FromStr;

use crate::persist::{fnv1a, fnv1a_step, FNV_OFFSET};

/// The process-level fault a chaos rule injects.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ChaosAction {
    /// The launch panics inside lane supervision (contained).
    Panic,
    /// The panic escapes containment and kills the shard worker.
    Kill,
}

impl fmt::Display for ChaosAction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            ChaosAction::Panic => "panic",
            ChaosAction::Kill => "kill",
        })
    }
}

/// One chaos rule: which signature, which per-stream launch-index window,
/// what action, with what probability.
#[derive(Debug, Clone, PartialEq)]
pub struct ChaosRule {
    /// Kernel signature the rule applies to (exact match, every tenant).
    pub signature: String,
    /// First per-stream launch index covered.
    pub from: u64,
    /// Number of launch indexes covered (`u64::MAX` = unbounded).
    pub count: u64,
    /// The action to inject.
    pub action: ChaosAction,
    /// Independent firing probability in `[0, 1]`; `1.0` fires always.
    pub probability: f64,
}

impl ChaosRule {
    /// A rule covering every launch of `signature`, firing always.
    pub fn new(signature: impl Into<String>, action: ChaosAction) -> ChaosRule {
        ChaosRule {
            signature: signature.into(),
            from: 0,
            count: u64::MAX,
            action,
            probability: 1.0,
        }
    }

    /// Restricts the rule to launch indexes `[from, from + count)`.
    #[must_use]
    pub fn window(mut self, from: u64, count: u64) -> ChaosRule {
        self.from = from;
        self.count = count;
        self
    }

    /// Makes the rule fire with probability `p` (clamped to `[0, 1]`).
    #[must_use]
    pub fn with_probability(mut self, p: f64) -> ChaosRule {
        self.probability = p.clamp(0.0, 1.0);
        self
    }

    fn covers(&self, index: u64) -> bool {
        index >= self.from && index.wrapping_sub(self.from) < self.count
    }
}

impl fmt::Display for ChaosRule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.signature)?;
        if self.count != u64::MAX {
            write!(f, "@{}+{}", self.from, self.count)?;
        } else if self.from != 0 {
            write!(f, "@{}", self.from)?;
        }
        write!(f, "={}", self.action)?;
        if self.probability < 1.0 {
            write!(f, "?{}", self.probability)?;
        }
        Ok(())
    }
}

/// A seeded, deterministic chaos schedule for a launch service.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ChaosPlan {
    seed: u64,
    rules: Vec<ChaosRule>,
    /// Journal appends allowed before the persistence kill-point fires;
    /// `None` never kills the journal.
    journal_kill_after: Option<u64>,
    /// Per-`(tenant, signature)` launch counters — the per-stream index
    /// decisions key on, deterministic because every stream's submission
    /// order is serialized.
    counters: HashMap<(u32, String), u64>,
}

impl ChaosPlan {
    /// An empty plan with the given probability seed.
    pub fn new(seed: u64) -> ChaosPlan {
        ChaosPlan {
            seed,
            ..ChaosPlan::default()
        }
    }

    /// Adds a rule (builder form).
    #[must_use]
    pub fn with(mut self, rule: ChaosRule) -> ChaosPlan {
        self.rules.push(rule);
        self
    }

    /// Sets the journal kill-point: appends after the first `after` are
    /// silently dropped (builder form).
    #[must_use]
    pub fn with_journal_kill(mut self, after: u64) -> ChaosPlan {
        self.journal_kill_after = Some(after);
        self
    }

    /// The plan's probability seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The rules, in evaluation order.
    pub fn rules(&self) -> &[ChaosRule] {
        &self.rules
    }

    /// The journal kill-point, if any.
    pub fn journal_kill_after(&self) -> Option<u64> {
        self.journal_kill_after
    }

    /// True when the plan injects nothing at all.
    pub fn is_empty(&self) -> bool {
        self.rules.is_empty() && self.journal_kill_after.is_none()
    }

    /// Every signature named by a rule — the streams a chaotic run may
    /// have perturbed (the complement is the "surviving" set the chaos
    /// harness compares bit-for-bit against serial replay).
    pub fn touched_signatures(&self) -> Vec<&str> {
        let mut sigs: Vec<&str> = self.rules.iter().map(|r| r.signature.as_str()).collect();
        sigs.sort_unstable();
        sigs.dedup();
        sigs
    }

    /// Decides the action (if any) for the next launch of the stream,
    /// advancing its per-stream counter. The first covering rule whose
    /// probability draw fires wins; a covering rule that draws "no" falls
    /// through.
    pub fn decide(&mut self, tenant: u32, signature: &str) -> Option<ChaosAction> {
        let counter = self
            .counters
            .entry((tenant, signature.to_owned()))
            .or_insert(0);
        let index = *counter;
        *counter += 1;
        for (r, rule) in self.rules.iter().enumerate() {
            if rule.signature != signature || !rule.covers(index) {
                continue;
            }
            if rule.probability < 1.0
                && draw(self.seed, tenant, signature, index, r) >= rule.probability
            {
                continue;
            }
            return Some(rule.action);
        }
        None
    }

    /// Rewinds the per-stream counters, keeping the rules — a reset plan
    /// replays the same decisions.
    pub fn reset(&mut self) {
        self.counters.clear();
    }
}

/// A stateless probability draw: pure in its inputs, so decisions are
/// independent of client count and submission interleaving.
fn draw(seed: u64, tenant: u32, signature: &str, index: u64, rule: usize) -> f64 {
    let mut h = fnv1a(
        fnv1a_step(FNV_OFFSET ^ seed, u64::from(tenant)),
        signature.as_bytes(),
    );
    h ^= index.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    h ^= (rule as u64).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    h ^= h >> 33;
    h = h.wrapping_mul(0xFF51_AFD7_ED55_8CCD);
    h ^= h >> 33;
    (h >> 11) as f64 / (1u64 << 53) as f64
}

impl fmt::Display for ChaosPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "seed={}", self.seed)?;
        for rule in &self.rules {
            write!(f, ";{rule}")?;
        }
        if let Some(after) = self.journal_kill_after {
            write!(f, ";journal@{after}=kill")?;
        }
        Ok(())
    }
}

/// Error from parsing a chaos-plan string.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChaosPlanParseError(String);

impl fmt::Display for ChaosPlanParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "bad chaos plan: {}", self.0)
    }
}

impl Error for ChaosPlanParseError {}

impl FromStr for ChaosPlan {
    type Err = ChaosPlanParseError;

    fn from_str(s: &str) -> Result<ChaosPlan, ChaosPlanParseError> {
        let mut plan = ChaosPlan::new(0);
        for (i, part) in s.split(';').enumerate() {
            let part = part.trim();
            if part.is_empty() {
                continue;
            }
            if i == 0 {
                if let Some(seed) = part.strip_prefix("seed=") {
                    plan.seed = seed
                        .parse()
                        .map_err(|_| ChaosPlanParseError(format!("seed {seed:?}")))?;
                    continue;
                }
            }
            parse_rule(part, &mut plan)?;
        }
        Ok(plan)
    }
}

fn parse_rule(s: &str, plan: &mut ChaosPlan) -> Result<(), ChaosPlanParseError> {
    let err = || ChaosPlanParseError(format!("rule {s:?}"));
    let (lhs, rhs) = s.split_once('=').ok_or_else(err)?;
    // Left side: SIG[@FROM[+COUNT]].
    let (name, from, count) = match lhs.split_once('@') {
        None => (lhs, 0, u64::MAX),
        Some((name, window)) => {
            let (from, count) = match window.split_once('+') {
                None => (window.parse().map_err(|_| err())?, u64::MAX),
                Some((f, c)) => (f.parse().map_err(|_| err())?, c.parse().map_err(|_| err())?),
            };
            (name, from, count)
        }
    };
    if name.is_empty() {
        return Err(err());
    }
    // Right side: ACTION[?PROB].
    let (action_str, probability) = match rhs.split_once('?') {
        None => (rhs, 1.0),
        Some((a, p)) => (a, p.parse::<f64>().map_err(|_| err())?),
    };
    if !(0.0..=1.0).contains(&probability) {
        return Err(err());
    }
    // The reserved name `journal` sets the persistence kill-point.
    if name == "journal" {
        if action_str != "kill" || count != u64::MAX || probability != 1.0 {
            return Err(err());
        }
        plan.journal_kill_after = Some(from);
        return Ok(());
    }
    let action = match action_str {
        "panic" => ChaosAction::Panic,
        "kill" => ChaosAction::Kill,
        _ => return Err(err()),
    };
    plan.rules.push(
        ChaosRule::new(name, action)
            .window(from, count)
            .with_probability(probability),
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_round_trips_through_display() {
        let text = "seed=7;spmv@1+1=panic;sgemm=kill?0.25;journal@5=kill";
        let plan: ChaosPlan = text.parse().unwrap();
        assert_eq!(plan.seed(), 7);
        assert_eq!(plan.rules().len(), 2);
        assert_eq!(plan.journal_kill_after(), Some(5));
        assert_eq!(plan.to_string(), text);
        let again: ChaosPlan = plan.to_string().parse().unwrap();
        assert_eq!(again.rules(), plan.rules());
        assert_eq!(again.journal_kill_after(), plan.journal_kill_after());
    }

    #[test]
    fn parse_rejects_garbage() {
        for bad in [
            "v",
            "=panic",
            "v=explode",
            "v@x=panic",
            "v=panic?2",
            "journal=panic",
            "journal@2+3=kill",
            "journal@1=kill?0.5",
        ] {
            assert!(bad.parse::<ChaosPlan>().is_err(), "{bad:?} parsed");
        }
    }

    #[test]
    fn windows_select_per_stream_indexes() {
        let mut plan = ChaosPlan::new(0).with(ChaosRule::new("v", ChaosAction::Panic).window(1, 2));
        let hits: Vec<bool> = (0..5).map(|_| plan.decide(3, "v").is_some()).collect();
        assert_eq!(hits, [false, true, true, false, false]);
        // A different tenant's stream has its own counter.
        assert_eq!(plan.decide(4, "v"), None);
        assert_eq!(plan.decide(4, "v"), Some(ChaosAction::Panic));
        // Other signatures are untouched.
        assert_eq!(plan.decide(3, "w"), None);
    }

    #[test]
    fn draws_are_deterministic_and_reset_replays() {
        let mut plan: ChaosPlan = "seed=3;v=kill?0.5".parse().unwrap();
        let first: Vec<_> = (0..20).map(|_| plan.decide(1, "v")).collect();
        plan.reset();
        let second: Vec<_> = (0..20).map(|_| plan.decide(1, "v")).collect();
        assert_eq!(first, second);
        assert!(first.iter().any(Option::is_some));
        assert!(first.iter().any(Option::is_none));
    }

    #[test]
    fn touched_signatures_names_perturbed_streams() {
        let plan: ChaosPlan = "seed=1;b=panic;a=kill;b@2=panic;journal@0=kill"
            .parse()
            .unwrap();
        assert_eq!(plan.touched_signatures(), vec!["a", "b"]);
        assert!(!plan.is_empty());
        assert!(ChaosPlan::new(9).is_empty());
    }
}
