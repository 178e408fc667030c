//! The seeded rule engine behind [`crate::FaultPlan`] and the launch
//! service's chaos plan.
//!
//! A [`RuleSet`] is a probability seed plus an ordered list of [`Rule`]s,
//! generic over the action a rule injects. Each rule names a stream (a
//! variant or a kernel signature), a window of per-stream launch indexes,
//! an action and an independent firing probability. The text form is
//!
//! ```text
//! seed=N;NAME[@FROM[+COUNT]]=ACTION[?PROB];...
//! ```
//!
//! with the action spelled through its `FromStr`/`Display`. `FROM` is the
//! first launch index the rule covers, `COUNT` the window length
//! (unbounded if omitted) and `?PROB` the firing probability.
//!
//! [`RuleSet::decide`] is stateless: the caller counts launches per stream
//! and passes the index, plus the words that key its stream beyond the
//! name. A decision is then a pure function of `(seed, stream, index,
//! rule position)`, independent of thread count and scheduling.

use std::error::Error;
use std::fmt;
use std::str::FromStr;

use dysel_kernel::{fnv1a, fnv1a_step, FNV_OFFSET};

/// One rule: which stream, which launch-index window, what action, and
/// with what probability.
#[derive(Debug, Clone, PartialEq)]
pub struct Rule<A> {
    /// Stream name the rule applies to (exact match).
    pub name: String,
    /// First per-stream launch index the rule covers.
    pub from: u64,
    /// Number of launch indexes covered (`u64::MAX` = unbounded).
    pub count: u64,
    /// The action to inject.
    pub action: A,
    /// Independent firing probability in `[0, 1]`; `1.0` fires always.
    pub probability: f64,
}

impl<A> Rule<A> {
    /// A rule covering every launch of `name`, firing always.
    pub fn new(name: impl Into<String>, action: A) -> Rule<A> {
        Rule {
            name: name.into(),
            from: 0,
            count: u64::MAX,
            action,
            probability: 1.0,
        }
    }

    /// Restricts the rule to launch indexes `[from, from + count)`.
    #[must_use]
    pub fn window(mut self, from: u64, count: u64) -> Rule<A> {
        self.from = from;
        self.count = count;
        self
    }

    /// Makes the rule fire with probability `p`, clamped to `[0, 1]`; a
    /// NaN or infinite `p` never fires.
    #[must_use]
    pub fn with_probability(mut self, p: f64) -> Rule<A> {
        self.probability = if p.is_finite() {
            p.clamp(0.0, 1.0)
        } else {
            0.0
        };
        self
    }

    fn covers(&self, index: u64) -> bool {
        index >= self.from && index.wrapping_sub(self.from) < self.count
    }
}

impl<A: fmt::Display> fmt::Display for Rule<A> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.name)?;
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

/// A probability seed plus rules in evaluation order.
#[derive(Debug, Clone, PartialEq)]
pub struct RuleSet<A> {
    /// The probability seed.
    pub seed: u64,
    /// The rules, in evaluation order.
    pub rules: Vec<Rule<A>>,
}

impl<A> Default for RuleSet<A> {
    fn default() -> Self {
        RuleSet {
            seed: 0,
            rules: Vec::new(),
        }
    }
}

impl<A: Copy> RuleSet<A> {
    /// The action for launch `index` of the stream `name`, keyed further
    /// by `key` (e.g. a tenant). The first covering rule whose probability
    /// draw fires wins; a covering rule that draws "no" falls through to
    /// the next rule.
    pub fn decide(&self, key: &[u64], name: &str, index: u64) -> Option<A> {
        self.rules
            .iter()
            .enumerate()
            .find(|(r, rule)| {
                rule.name == name
                    && rule.covers(index)
                    && (rule.probability >= 1.0
                        || self.draw(key, name, index, *r) < rule.probability)
            })
            .map(|(_, rule)| rule.action)
    }

    /// A stateless draw in `[0, 1)`: pure in `(seed, key, name, index,
    /// rule)`, so it is independent of thread count and evaluation order.
    fn draw(&self, key: &[u64], name: &str, index: u64, rule: usize) -> f64 {
        let stream = key
            .iter()
            .fold(FNV_OFFSET ^ self.seed, |h, &k| fnv1a_step(h, k));
        let mut h = fnv1a(stream, name.as_bytes());
        h ^= index.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        h ^= (rule as u64).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        h ^= h >> 33;
        h = h.wrapping_mul(0xFF51_AFD7_ED55_8CCD);
        h ^= h >> 33;
        (h >> 11) as f64 / (1u64 << 53) as f64
    }
}

impl<A: fmt::Display> fmt::Display for RuleSet<A> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "seed={}", self.seed)?;
        for rule in &self.rules {
            write!(f, ";{rule}")?;
        }
        Ok(())
    }
}

/// Error from parsing a fault or chaos plan string.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlanParseError(pub String);

impl fmt::Display for PlanParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "bad plan: {}", self.0)
    }
}

impl Error for PlanParseError {}

impl<A: FromStr> FromStr for RuleSet<A> {
    type Err = PlanParseError;

    fn from_str(s: &str) -> Result<RuleSet<A>, PlanParseError> {
        let mut set = RuleSet::default();
        for (i, part) in s.split(';').enumerate() {
            let part = part.trim();
            if part.is_empty() {
                continue;
            }
            if i == 0 {
                if let Some(seed) = part.strip_prefix("seed=") {
                    set.seed = seed
                        .parse()
                        .map_err(|_| PlanParseError(format!("seed {seed:?}")))?;
                    continue;
                }
            }
            set.rules.push(parse_rule(part)?);
        }
        Ok(set)
    }
}

fn parse_rule<A: FromStr>(s: &str) -> Result<Rule<A>, PlanParseError> {
    let err = || PlanParseError(format!("rule {s:?}"));
    let (lhs, rhs) = s.split_once('=').ok_or_else(err)?;
    // Left side: NAME[@FROM[+COUNT]].
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
    let (action, probability) = match rhs.split_once('?') {
        None => (rhs, 1.0),
        Some((a, p)) => (a, p.parse::<f64>().map_err(|_| err())?),
    };
    if !(0.0..=1.0).contains(&probability) {
        return Err(err());
    }
    let action = action.parse().map_err(|_| err())?;
    Ok(Rule::new(name, action)
        .window(from, count)
        .with_probability(probability))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn non_finite_probabilities_never_fire() {
        let set = |p: f64| RuleSet {
            seed: 1,
            rules: vec![Rule::new("v", 7u8).with_probability(p)],
        };
        let fired = |p| {
            (0..64)
                .filter(|&i| set(p).decide(&[], "v", i).is_some())
                .count()
        };
        for p in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            assert_eq!(set(p).rules[0].probability, 0.0);
            assert_eq!(fired(p), 0, "p = {p}");
        }
        assert_eq!(fired(2.0), 64);
        assert_eq!(fired(-1.0), 0);
    }
}
