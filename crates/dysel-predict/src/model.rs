//! The trained model and its integer-only prediction logic.

use std::collections::BTreeMap;

use dysel_analysis::VariantFeatures;

/// Dimensions of [`feature_vector`].
pub const FEATURE_DIM: usize = 14;

/// Fixed-point scale of the stored centroids (×256).
pub(crate) const CENTROID_SCALE: i64 = 256;

/// Maps a variant's static features to the fixed integer vector the
/// centroid fallback measures distances over. Unbounded magnitudes
/// (footprints, byte counts) enter as their bit length — log₂ bucketing —
/// so one huge field cannot drown every other axis, and the saturated
/// `u64::MAX` sentinel stays finite.
pub fn feature_vector(f: &VariantFeatures) -> [i64; FEATURE_DIM] {
    fn log2_1p(v: u64) -> i64 {
        i64::from(64 - v.leading_zeros())
    }
    [
        i64::from(f.sites),
        i64::from(f.stores),
        i64::from(f.wi_loops),
        i64::from(f.kernel_loops),
        log2_1p(f.footprint_lo),
        log2_1p(f.footprint_hi),
        i64::from(f.coalesced_sites),
        i64::from(f.strided_sites),
        i64::from(f.indirect_sites),
        i64::from(f.reuse_class),
        i64::from(f.intensity_x16),
        log2_1p(u64::from(f.scratchpad_bytes)),
        log2_1p(u64::from(f.group_size)),
        log2_1p(u64::from(f.wa_factor)),
    ]
}

/// Observed profiling cost of one variant under one signature.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VariantStats {
    /// Mean observed profiling cycles (integer division of sum by count).
    pub mean_cycles: u64,
    /// Number of histogram observations behind the mean.
    pub observations: u64,
}

/// A trained predictor: exact per-signature cost table plus a
/// nearest-centroid generalization fallback.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Model {
    /// Per-signature observed costs: signature → variant name → stats.
    pub table: BTreeMap<String, BTreeMap<String, VariantStats>>,
    /// Centroid of winning variants' feature vectors, in fixed point ×256.
    pub winner_centroid: [i64; FEATURE_DIM],
    /// Centroid of losing variants' feature vectors, in fixed point ×256.
    pub loser_centroid: [i64; FEATURE_DIM],
    /// Training examples behind the winner centroid.
    pub winner_examples: u64,
    /// Training examples behind the loser centroid.
    pub loser_examples: u64,
}

/// One candidate variant at prediction time, in registration order.
#[derive(Debug, Clone, Copy)]
pub struct Candidate<'a> {
    /// Registered variant name.
    pub name: &'a str,
    /// Its static features.
    pub features: &'a VariantFeatures,
}

/// Which tier of the model produced a prediction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PredictionSource {
    /// The signature was in the training table; the prediction is the
    /// cheapest observed candidate and carries a real margin.
    Exact,
    /// Nearest-centroid fallback over static features. Margin is always
    /// zero: the fallback may rank, never skip profiling.
    Centroid,
}

impl PredictionSource {
    /// Stable lowercase identifier for event details.
    pub fn as_str(self) -> &'static str {
        match self {
            PredictionSource::Exact => "exact",
            PredictionSource::Centroid => "centroid",
        }
    }
}

/// A model's answer for one launch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Prediction {
    /// Predicted winning variant (always one of the candidates).
    pub variant: String,
    /// Confidence margin in per-mille: how much cheaper the predicted
    /// winner's observed mean is than the runner-up's
    /// (`(second − best) × 1000 / second`). Zero when the model cannot
    /// rank every candidate — and always zero for centroid predictions.
    pub margin_pm: u32,
    /// The winner's observed mean profiling cycles, when known.
    pub predicted_cycles: Option<u64>,
    /// Which tier answered.
    pub source: PredictionSource,
}

impl Model {
    /// Whether the model carries any trained state at all.
    pub fn is_empty(&self) -> bool {
        self.table.is_empty() && self.winner_examples == 0 && self.loser_examples == 0
    }

    /// Predicts the winner among `candidates` for `signature`.
    ///
    /// Exact tier: if the signature was observed in training, the
    /// candidate with the smallest observed mean cycles wins (ties break
    /// to the earliest candidate — registration order, so reruns agree).
    /// The margin is non-zero only when **every** candidate was observed:
    /// an unobserved candidate might be the true winner, so the model
    /// must not be confident enough to skip profiling it.
    ///
    /// Centroid tier: otherwise, each candidate is scored by how much
    /// closer (L1) its feature vector sits to the winner centroid than to
    /// the loser centroid; the highest score wins with margin zero.
    ///
    /// Returns `None` when neither tier can rank (unknown signature and
    /// an untrained centroid, or no candidates).
    pub fn predict(&self, signature: &str, candidates: &[Candidate<'_>]) -> Option<Prediction> {
        if candidates.is_empty() {
            return None;
        }
        if let Some(entry) = self.table.get(signature) {
            let mut best: Option<(usize, u64)> = None;
            let mut known = 0usize;
            for (i, c) in candidates.iter().enumerate() {
                let Some(stats) = entry.get(c.name) else {
                    continue;
                };
                known += 1;
                if best.is_none_or(|(_, m)| stats.mean_cycles < m) {
                    best = Some((i, stats.mean_cycles));
                }
            }
            if let Some((bi, best_mean)) = best {
                let second = candidates
                    .iter()
                    .enumerate()
                    .filter(|&(i, _)| i != bi)
                    .filter_map(|(_, c)| entry.get(c.name))
                    .map(|s| s.mean_cycles)
                    .min();
                let margin_pm = match second {
                    // Confidence requires a fully observed candidate set.
                    Some(second) if known == candidates.len() && second > 0 => {
                        ((second - best_mean).saturating_mul(1000) / second) as u32
                    }
                    _ => 0,
                };
                return Some(Prediction {
                    variant: candidates[bi].name.to_owned(),
                    margin_pm,
                    predicted_cycles: Some(best_mean),
                    source: PredictionSource::Exact,
                });
            }
        }
        if self.winner_examples == 0 || self.loser_examples == 0 {
            return None;
        }
        let score = |c: &Candidate<'_>| {
            let fv = feature_vector(c.features);
            let mut d_winner = 0i64;
            let mut d_loser = 0i64;
            for (d, &f) in fv.iter().enumerate() {
                let x = f * CENTROID_SCALE;
                d_winner += (x - self.winner_centroid[d]).abs();
                d_loser += (x - self.loser_centroid[d]).abs();
            }
            // Positive: closer to the winner centroid than the loser one.
            d_loser - d_winner
        };
        let (bi, _) = candidates
            .iter()
            .map(score)
            .enumerate()
            // max_by_key returns the *last* maximum; registration order
            // must win ties, so compare (score, reverse index).
            .max_by_key(|&(i, s)| (s, std::cmp::Reverse(i)))?;
        Some(Prediction {
            variant: candidates[bi].name.to_owned(),
            margin_pm: 0,
            predicted_cycles: None,
            source: PredictionSource::Centroid,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn features(coalesced: u32, strided: u32) -> VariantFeatures {
        VariantFeatures {
            sites: coalesced + strided,
            stores: 1,
            wi_loops: 1,
            kernel_loops: 1,
            footprint_lo: 8,
            footprint_hi: 8,
            coalesced_sites: coalesced,
            strided_sites: strided,
            indirect_sites: 0,
            reuse_class: 0,
            intensity_x16: 8,
            divergent: false,
            irregular: false,
            saturated: false,
            scratchpad_bytes: 0,
            group_size: 64,
            wa_factor: 1,
        }
    }

    fn stats(mean: u64) -> VariantStats {
        VariantStats {
            mean_cycles: mean,
            observations: 3,
        }
    }

    #[test]
    fn exact_tier_picks_cheapest_with_margin() {
        let mut model = Model::default();
        model.table.insert(
            "k".into(),
            BTreeMap::from([("a".into(), stats(800)), ("b".into(), stats(1000))]),
        );
        let (fa, fb) = (features(2, 0), features(0, 2));
        let cands = [
            Candidate {
                name: "a",
                features: &fa,
            },
            Candidate {
                name: "b",
                features: &fb,
            },
        ];
        let p = model.predict("k", &cands).unwrap();
        assert_eq!(p.variant, "a");
        assert_eq!(p.source, PredictionSource::Exact);
        assert_eq!(p.margin_pm, 200); // (1000 - 800) * 1000 / 1000
        assert_eq!(p.predicted_cycles, Some(800));
    }

    #[test]
    fn exact_tier_margin_is_zero_with_unobserved_candidates() {
        let mut model = Model::default();
        model
            .table
            .insert("k".into(), BTreeMap::from([("a".into(), stats(800))]));
        let (fa, fb) = (features(2, 0), features(0, 2));
        let cands = [
            Candidate {
                name: "a",
                features: &fa,
            },
            Candidate {
                name: "b",
                features: &fb,
            },
        ];
        let p = model.predict("k", &cands).unwrap();
        assert_eq!(p.variant, "a");
        // Candidate "b" was never observed; the model may rank but must
        // not be confident enough to skip profiling it.
        assert_eq!(p.margin_pm, 0);
    }

    #[test]
    fn exact_tier_ties_break_to_registration_order() {
        let mut model = Model::default();
        model.table.insert(
            "k".into(),
            BTreeMap::from([("z".into(), stats(500)), ("a".into(), stats(500))]),
        );
        let f = features(1, 1);
        let cands = [
            Candidate {
                name: "z",
                features: &f,
            },
            Candidate {
                name: "a",
                features: &f,
            },
        ];
        // "z" is registered first; equal means must not re-order by name.
        assert_eq!(model.predict("k", &cands).unwrap().variant, "z");
    }

    #[test]
    fn centroid_tier_ranks_unknown_signatures_with_zero_margin() {
        // Winners look coalesced, losers look strided.
        let model = Model {
            winner_centroid: feature_vector(&features(3, 0)).map(|v| v * CENTROID_SCALE),
            loser_centroid: feature_vector(&features(0, 3)).map(|v| v * CENTROID_SCALE),
            winner_examples: 4,
            loser_examples: 4,
            ..Model::default()
        };
        let (fa, fb) = (features(0, 3), features(3, 0));
        let cands = [
            Candidate {
                name: "strided",
                features: &fa,
            },
            Candidate {
                name: "coalesced",
                features: &fb,
            },
        ];
        let p = model.predict("never-seen", &cands).unwrap();
        assert_eq!(p.variant, "coalesced");
        assert_eq!(p.source, PredictionSource::Centroid);
        assert_eq!(p.margin_pm, 0);
        assert_eq!(p.predicted_cycles, None);
    }

    #[test]
    fn untrained_model_predicts_nothing() {
        let model = Model::default();
        let f = features(1, 0);
        let cands = [Candidate {
            name: "a",
            features: &f,
        }];
        assert!(model.is_empty());
        assert!(model.predict("k", &cands).is_none());
        assert!(model.predict("k", &[]).is_none());
    }
}
