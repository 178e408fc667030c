//! Deterministic fault injection for the device models.
//!
//! A [`FaultPlan`] is a seeded, serializable list of [`FaultRule`]s the
//! two-phase launch engine consults once per launch, keyed by
//! `(variant name, per-variant launch index)`. Four fault classes cover
//! the failure modes a production selector must survive:
//!
//! * [`FaultKind::LaunchError`] — the launch fails before any work-group
//!   runs (transient: a retry may succeed);
//! * [`FaultKind::WrongOutput`] — the launch completes but every element
//!   it wrote is silently tampered;
//! * [`FaultKind::Poison`] — like `WrongOutput`, but the written elements
//!   become NaN / sentinel values;
//! * [`FaultKind::Hang`] — the launch completes functionally but each
//!   work-group is priced at ×N cycles, blowing any profiling deadline.
//!
//! Rules, parsing and the probability draw are the shared seeded
//! [`RuleSet`] engine; this module adds the fault kinds, the
//! per-variant launch counters and the injection log. Decisions are a pure
//! function of `(plan seed, variant name, launch index, rule position)` —
//! independent of worker-thread count and host scheduling — so faulted
//! runs replay bit-identically, preserving the determinism contract.
//! [`FaultPlan::reset`] rewinds the launch counters (keeping the rules),
//! which is what `Device::reset` calls so a reset device replays the same
//! faults.
//!
//! Plans have a compact text form for the `--fault-plan` CLI flag:
//!
//! ```text
//! seed=7;scalar=error;vector@2+1=wrong;texture=hang*64;padded@0+4=poison?0.5
//! ```
//!
//! i.e. the engine's `seed=N;NAME[@FROM[+COUNT]]=KIND[?PROB]` grammar, with
//! `KIND` one of `error`, `wrong`, `poison` or `hang[*FACTOR]` and `NAME`
//! a variant name.

use std::collections::HashMap;
use std::fmt;
use std::str::FromStr;

use crate::rules::{PlanParseError, Rule, RuleSet};

/// Hang multiplier used when a `hang` rule does not name one.
pub const DEFAULT_HANG_FACTOR: u64 = 32;

/// The class of fault a rule injects.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultKind {
    /// The launch fails outright before executing; retryable.
    LaunchError,
    /// Silent corruption: every element the launch wrote is bit-tampered.
    WrongOutput,
    /// NaN / sentinel values written over every element the launch wrote.
    Poison,
    /// Every work-group's priced cost is multiplied by the factor.
    Hang(u64),
}

impl fmt::Display for FaultKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaultKind::LaunchError => f.write_str("error"),
            FaultKind::WrongOutput => f.write_str("wrong"),
            FaultKind::Poison => f.write_str("poison"),
            FaultKind::Hang(n) => write!(f, "hang*{n}"),
        }
    }
}

impl FromStr for FaultKind {
    type Err = ();

    fn from_str(s: &str) -> Result<FaultKind, ()> {
        match s.split_once('*') {
            None => match s {
                "error" => Ok(FaultKind::LaunchError),
                "wrong" => Ok(FaultKind::WrongOutput),
                "poison" => Ok(FaultKind::Poison),
                "hang" => Ok(FaultKind::Hang(DEFAULT_HANG_FACTOR)),
                _ => Err(()),
            },
            Some(("hang", n)) => n.parse().map(FaultKind::Hang).map_err(drop),
            Some(_) => Err(()),
        }
    }
}

/// One injection rule: which variant, which launch-index window, what
/// fault, and with what probability.
pub type FaultRule = Rule<FaultKind>;

/// One fault the plan actually injected, for post-run accounting.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InjectedFault {
    /// Variant the fault hit.
    pub variant: String,
    /// Per-variant launch index of the hit.
    pub launch_index: u64,
    /// What was injected.
    pub kind: FaultKind,
}

/// A seeded, deterministic fault-injection plan.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultPlan {
    rules: RuleSet<FaultKind>,
    counters: HashMap<String, u64>,
    injected: Vec<InjectedFault>,
}

impl FaultPlan {
    /// An empty plan with the given probability seed.
    pub fn new(seed: u64) -> FaultPlan {
        let mut plan = FaultPlan::default();
        plan.rules.seed = seed;
        plan
    }

    /// Adds a rule (builder form).
    #[must_use]
    pub fn with(mut self, rule: FaultRule) -> FaultPlan {
        self.push(rule);
        self
    }

    /// Adds a rule.
    pub fn push(&mut self, rule: FaultRule) {
        self.rules.rules.push(rule);
    }

    /// The plan's probability seed.
    pub fn seed(&self) -> u64 {
        self.rules.seed
    }

    /// The rules, in evaluation order.
    pub fn rules(&self) -> &[FaultRule] {
        &self.rules.rules
    }

    /// True when the plan holds no rules (it then never injects).
    pub fn is_empty(&self) -> bool {
        self.rules.rules.is_empty()
    }

    /// Decides the fault (if any) for the next launch of `variant`,
    /// advancing its per-variant launch counter. The first covering rule
    /// whose probability draw fires wins; a rule that covers the index but
    /// draws "no" falls through to the next rule.
    pub fn decide(&mut self, variant: &str) -> Option<FaultKind> {
        let counter = self.counters.entry(variant.to_owned()).or_insert(0);
        let index = *counter;
        *counter += 1;
        let kind = self.rules.decide(&[], variant, index)?;
        self.injected.push(InjectedFault {
            variant: variant.to_owned(),
            launch_index: index,
            kind,
        });
        Some(kind)
    }

    /// Number of launches of `variant` the plan has seen so far.
    pub fn launches_of(&self, variant: &str) -> u64 {
        self.counters.get(variant).copied().unwrap_or(0)
    }

    /// Every fault injected so far, in injection order.
    pub fn injected(&self) -> &[InjectedFault] {
        &self.injected
    }

    /// How many faults of exactly `kind` were injected so far.
    pub fn injected_count(&self, kind: FaultKind) -> u64 {
        self.injected.iter().filter(|i| i.kind == kind).count() as u64
    }

    /// Total faults injected so far.
    pub fn total_injected(&self) -> u64 {
        self.injected.len() as u64
    }

    /// Rewinds the launch counters and the injection log, keeping the
    /// rules — a reset device replays the exact same fault sequence.
    pub fn reset(&mut self) {
        self.counters.clear();
        self.injected.clear();
    }
}

impl fmt::Display for FaultPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.rules)
    }
}

impl FromStr for FaultPlan {
    type Err = PlanParseError;

    fn from_str(s: &str) -> Result<FaultPlan, PlanParseError> {
        Ok(FaultPlan {
            rules: s.parse()?,
            ..FaultPlan::default()
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_round_trips_through_display() {
        let text = "seed=7;scalar=error;vector@2+1=wrong;texture=hang*64;padded@0+4=poison?0.5";
        let plan: FaultPlan = text.parse().unwrap();
        assert_eq!(plan.seed(), 7);
        assert_eq!(plan.rules().len(), 4);
        assert_eq!(plan.to_string(), text);
        let again: FaultPlan = plan.to_string().parse().unwrap();
        assert_eq!(again, plan);
    }

    #[test]
    fn parse_defaults_and_shorthands() {
        let plan: FaultPlan = "v=hang;w@3=error".parse().unwrap();
        assert_eq!(plan.seed(), 0);
        assert_eq!(plan.rules()[0].action, FaultKind::Hang(DEFAULT_HANG_FACTOR));
        assert_eq!(plan.rules()[1].from, 3);
        assert_eq!(plan.rules()[1].count, u64::MAX);
    }

    #[test]
    fn parse_rejects_garbage() {
        for bad in [
            "v",
            "=error",
            "v=explode",
            "v@x=error",
            "v=hang*x",
            "v=wrong?2",
        ] {
            assert!(bad.parse::<FaultPlan>().is_err(), "{bad:?} parsed");
        }
    }

    #[test]
    fn windows_select_launch_indexes() {
        let mut plan =
            FaultPlan::new(0).with(FaultRule::new("v", FaultKind::LaunchError).window(1, 2));
        let hits: Vec<bool> = (0..5).map(|_| plan.decide("v").is_some()).collect();
        assert_eq!(hits, [false, true, true, false, false]);
        assert_eq!(plan.launches_of("v"), 5);
        assert_eq!(plan.total_injected(), 2);
        // Other variants are untouched.
        assert_eq!(plan.decide("w"), None);
    }

    #[test]
    fn first_covering_rule_wins_and_failed_draws_fall_through() {
        let mut plan = FaultPlan::new(1)
            .with(FaultRule::new("v", FaultKind::WrongOutput).with_probability(0.0))
            .with(FaultRule::new("v", FaultKind::Poison));
        // The first rule never fires; the second always does.
        assert_eq!(plan.decide("v"), Some(FaultKind::Poison));
    }

    #[test]
    fn probability_draws_are_deterministic_and_roughly_calibrated() {
        let run = |seed| {
            let mut plan = FaultPlan::new(seed)
                .with(FaultRule::new("v", FaultKind::LaunchError).with_probability(0.3));
            (0..1000).filter(|_| plan.decide("v").is_some()).count()
        };
        assert_eq!(run(9), run(9));
        let hits = run(9);
        assert!((200..400).contains(&hits), "0.3 prob fired {hits}/1000");
        assert_ne!(run(9), run(10));
    }

    /// Pins the probability draws bit for bit: a change to the stream
    /// hash or to the index/rule mixing flips some of these decisions.
    #[test]
    fn probability_draws_are_pinned() {
        let mut plan: FaultPlan = "seed=7;v=wrong?0.3;w@2=hang*8?0.5".parse().unwrap();
        let got: String = (0..32)
            .flat_map(|_| [plan.decide("v"), plan.decide("w")])
            .map(|d| match d {
                None => '.',
                Some(FaultKind::WrongOutput) => 'W',
                Some(FaultKind::Hang(8)) => 'H',
                Some(other) => panic!("unexpected {other:?}"),
            })
            .collect();
        assert_eq!(
            got,
            "......WH...........H..WH......WH.H.......H...H.HW..........H.H.."
        );
    }

    #[test]
    fn reset_replays_the_same_decisions() {
        let mut plan: FaultPlan = "seed=3;v=wrong?0.5".parse().unwrap();
        let first: Vec<_> = (0..20).map(|_| plan.decide("v")).collect();
        let log = plan.injected().to_vec();
        plan.reset();
        assert!(plan.injected().is_empty());
        assert_eq!(plan.launches_of("v"), 0);
        let second: Vec<_> = (0..20).map(|_| plan.decide("v")).collect();
        assert_eq!(first, second);
        assert_eq!(plan.injected(), log);
    }
}
