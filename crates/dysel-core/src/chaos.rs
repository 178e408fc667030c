//! Deterministic chaos injection for the launch service.
//!
//! A [`ChaosPlan`] is the service-layer sibling of the device-level
//! [`crate::FaultPlan`]: a seeded, serializable schedule of *process*
//! faults — kernel panics, worker-thread deaths and persistence
//! kill-points — that the shard workers consult once per submission,
//! keyed by `(tenant, signature, per-stream launch index)`. Both plans run
//! on the same seeded [`RuleSet`] engine (rules, grammar, probability
//! draw); this module adds the chaos actions, the per-stream counters and
//! the journal kill-point. Decisions are a pure function of `(plan seed,
//! stream, index, rule position)`, so a chaotic run is bit-identical at
//! any client count: `tests/chaos.rs` leans on that to assert the three
//! containment invariants (every ticket resolves typed, surviving streams
//! replay bit-identically, recovery matches the journaled prefix).
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
//! Plans have a compact text form for the `--chaos-plan` CLI flag, the
//! fault-plan grammar with `panic|kill` actions:
//!
//! ```text
//! seed=7;spmv@1+1=panic;sgemm=kill?0.25;journal@5=kill
//! ```
//!
//! i.e. `;`-separated rules `SIG[@FROM[+COUNT]]=ACTION[?PROB]` with an
//! optional leading `seed=N`. `FROM` is the first per-stream launch index
//! covered, `COUNT` the window length (unbounded if omitted) and `?PROB`
//! an independent firing probability. The reserved name `journal` sets
//! the persistence kill-point; its `FROM` is the append index, and it
//! takes no `+COUNT` and no `?PROB`.

use std::collections::HashMap;
use std::fmt;
use std::str::FromStr;

use dysel_device::{PlanParseError, Rule, RuleSet};

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

impl FromStr for ChaosAction {
    type Err = ();

    fn from_str(s: &str) -> Result<ChaosAction, ()> {
        match s {
            "panic" => Ok(ChaosAction::Panic),
            "kill" => Ok(ChaosAction::Kill),
            _ => Err(()),
        }
    }
}

/// One chaos rule: which signature (every tenant), which per-stream
/// launch-index window, what action, with what probability.
pub type ChaosRule = Rule<ChaosAction>;

/// A seeded, deterministic chaos schedule for a launch service.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ChaosPlan {
    rules: RuleSet<ChaosAction>,
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
        let mut plan = ChaosPlan::default();
        plan.rules.seed = seed;
        plan
    }

    /// Adds a rule (builder form).
    #[must_use]
    pub fn with(mut self, rule: ChaosRule) -> ChaosPlan {
        self.rules.rules.push(rule);
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
        self.rules.seed
    }

    /// The rules, in evaluation order.
    pub fn rules(&self) -> &[ChaosRule] {
        &self.rules.rules
    }

    /// The journal kill-point, if any.
    pub fn journal_kill_after(&self) -> Option<u64> {
        self.journal_kill_after
    }

    /// True when the plan injects nothing at all.
    pub fn is_empty(&self) -> bool {
        self.rules.rules.is_empty() && self.journal_kill_after.is_none()
    }

    /// Every signature named by a rule — the streams a chaotic run may
    /// have perturbed (the complement is the "surviving" set the chaos
    /// harness compares bit-for-bit against serial replay).
    pub fn touched_signatures(&self) -> Vec<&str> {
        let mut sigs: Vec<&str> = self.rules().iter().map(|r| r.name.as_str()).collect();
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
        self.rules.decide(&[u64::from(tenant)], signature, index)
    }

    /// Rewinds the per-stream counters, keeping the rules — a reset plan
    /// replays the same decisions.
    pub fn reset(&mut self) {
        self.counters.clear();
    }
}

impl fmt::Display for ChaosPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.rules)?;
        if let Some(after) = self.journal_kill_after {
            write!(f, ";journal@{after}=kill")?;
        }
        Ok(())
    }
}

impl FromStr for ChaosPlan {
    type Err = PlanParseError;

    fn from_str(s: &str) -> Result<ChaosPlan, PlanParseError> {
        let parsed: RuleSet<ChaosAction> = s.parse()?;
        let mut plan = ChaosPlan::new(parsed.seed);
        for rule in parsed.rules {
            if rule.name != "journal" {
                plan.rules.rules.push(rule);
                continue;
            }
            // The reserved name sets the persistence kill-point: a `kill`
            // at one append index that always fires.
            if rule.action != ChaosAction::Kill || rule.count != u64::MAX || rule.probability != 1.0
            {
                return Err(PlanParseError(format!("rule {:?}", rule.to_string())));
            }
            plan.journal_kill_after = Some(rule.from);
        }
        Ok(plan)
    }
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

    /// Pins the probability draws bit for bit: a change to the stream
    /// hash or to the index/rule mixing flips some of these decisions.
    #[test]
    fn probability_draws_are_pinned() {
        let mut plan: ChaosPlan = "seed=7;s=panic?0.3;t@1=kill?0.5".parse().unwrap();
        let got: String = (0..16)
            .flat_map(|_| [(0, "s"), (0, "t"), (1, "s"), (1, "t")])
            .map(|(tenant, sig)| match plan.decide(tenant, sig) {
                None => '.',
                Some(ChaosAction::Panic) => 'P',
                Some(ChaosAction::Kill) => 'K',
            })
            .collect();
        assert_eq!(
            got,
            ".......KPK.K.KPK..P..K.K......P.P.PK.K.KP.PK.K.K..PKP..K..P.PK.K"
        );
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
