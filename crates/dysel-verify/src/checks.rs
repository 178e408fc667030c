//! The soundness checks: every `KernelIr`/`VariantMeta` claim is verified
//! against what the IR (and the disjointness solver) actually supports.

use dysel_analysis::{side_effect, uniform_workload};
use dysel_kernel::{AccessPattern, ProfilingMode, VariantMeta};

use crate::disjoint::{write_verdict, Verdict};
use crate::lint::{Diagnostic, LintCode};

/// Runs every per-variant check and returns the raw findings (default
/// severities; pass through [`crate::lint::LintConfig::apply`] to configure).
pub fn verify_variant(meta: &VariantMeta) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    let ir = &meta.ir;

    // DV1xx — declared disjointness vs. the solver's verdict. Atomic
    // kernels are excluded: atomics serialize conflicting updates, so an
    // address-level overlap is not a write-write race there, and the mode
    // inference already forces swap profiling for them.
    let verdict = write_verdict(ir);
    if !ir.has_global_atomics {
        match (ir.output_disjoint, verdict) {
            (true, Some(Verdict::Overlap)) => diags.push(Diagnostic::new(
                LintCode::DisjointViolated,
                &meta.name,
                "declares output_disjoint but the affine store sites provably \
                 overlap across work-items",
            )),
            (false, Some(Verdict::Disjoint)) => diags.push(Diagnostic::new(
                LintCode::DisjointUnderclaimed,
                &meta.name,
                "declares overlapping outputs but every store site is provably \
                 disjoint; fully-productive profiling is being left unused",
            )),
            _ => {}
        }
    }
    if ir.output_disjoint && verdict == Some(Verdict::Unknown) {
        diags.push(Diagnostic::new(
            LintCode::DisjointUnproven,
            &meta.name,
            "declares output_disjoint but the solver cannot prove it from the \
             declared access sites; the claim is trusted, not verified",
        ));
    }

    // DV2xx — output_args vs. actual store sites.
    for a in &ir.accesses {
        if a.store && !ir.output_args.contains(&a.arg) {
            diags.push(Diagnostic::new(
                LintCode::UndeclaredStore,
                &meta.name,
                format!(
                    "store site targets arg {} which is not in output_args",
                    a.arg
                ),
            ));
        }
    }
    if !ir.accesses.is_empty() {
        for out in &ir.output_args {
            if !ir.accesses.iter().any(|a| a.store && a.arg == *out) {
                diags.push(Diagnostic::new(
                    LintCode::OutputNeverStored,
                    &meta.name,
                    format!("output arg {out} is never stored by any declared access site"),
                ));
            }
        }
    }

    // DV300 — sandbox coverage: hybrid/swap profiling clones exactly the
    // sandbox args, so every output must be among them.
    for out in &ir.output_args {
        if !meta.sandbox_args.contains(out) {
            diags.push(Diagnostic::new(
                LintCode::SandboxMissingOutput,
                &meta.name,
                format!(
                    "output arg {out} is missing from sandbox_args; hybrid \
                     profiling would write through to the user buffer"
                ),
            ));
        }
    }

    // DV5xx — annotation hygiene for the static feature vector that
    // drives dominance pruning (see `dysel_analysis::extract_features`).
    for a in &ir.accesses {
        if let Some((lo, hi)) = a.index_range {
            if lo > hi {
                diags.push(Diagnostic::new(
                    LintCode::InvalidIndexRange,
                    &meta.name,
                    format!(
                        "access site on arg {} declares index_range ({lo}, {hi}) \
                         with lo > hi; the window is meaningless and the solver \
                         ignores it",
                        a.arg
                    ),
                ));
            }
        }
    }
    if uniform_workload(ir).is_uniform {
        for a in &ir.accesses {
            if a.store && a.pattern == AccessPattern::Indirect && a.index_range.is_none() {
                diags.push(Diagnostic::new(
                    LintCode::FeatureDivergence,
                    &meta.name,
                    format!(
                        "regular variant stores indirectly through arg {} without \
                         an index_range annotation; the feature extractor flags it \
                         irregular and dominance pruning abstains for want of a \
                         cheap bound",
                        a.arg
                    ),
                ));
            }
        }
    }

    // DV301/DV302 — internal index consistency against the arity the
    // placement list declares (when one is declared at all). The true
    // argument count is only known at launch; see [`verify_arity`].
    if !meta.placements.is_empty() {
        let arity = meta.placements.len();
        for (what, idx) in meta
            .sandbox_args
            .iter()
            .map(|i| ("sandbox_args", *i))
            .chain(ir.output_args.iter().map(|i| ("output_args", *i)))
        {
            if idx >= arity {
                diags.push(Diagnostic::new(
                    LintCode::SandboxOutOfRange,
                    &meta.name,
                    format!(
                        "{what} index {idx} is outside the {arity}-argument \
                         arity declared by placements"
                    ),
                ));
            }
        }
        for a in &ir.accesses {
            if a.arg >= arity {
                diags.push(Diagnostic::new(
                    LintCode::PlacementsTooShort,
                    &meta.name,
                    format!(
                        "access site references arg {} but placements only \
                         covers {arity} arguments",
                        a.arg
                    ),
                ));
            }
        }
    }

    diags
}

/// Runs [`verify_variant`] over a whole variant set.
pub fn verify_set(variants: &[VariantMeta]) -> Vec<Diagnostic> {
    variants.iter().flat_map(verify_variant).collect()
}

/// Checks the legality of an explicit profiling-mode override for a set.
pub fn verify_mode_override(variants: &[VariantMeta], requested: ProfilingMode) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    if requested != ProfilingMode::SwapPartial {
        if let Some(v) = variants.iter().find(|v| side_effect(&v.ir).forces_swap()) {
            diags.push(Diagnostic::new(
                LintCode::IllegalModeOverride,
                "",
                format!(
                    "override {requested:?} is unsound: variant '{}' has side \
                     effects (atomics or overlapping outputs) that require \
                     swap-based profiling",
                    v.name
                ),
            ));
        }
    }
    if requested == ProfilingMode::FullyProductive && diags.is_empty() {
        if let Some(v) = variants
            .iter()
            .find(|v| !uniform_workload(&v.ir).is_uniform)
        {
            diags.push(Diagnostic::new(
                LintCode::RiskyModeOverride,
                "",
                format!(
                    "FullyProductive override on irregular variant '{}': slices \
                     are not comparable, selection quality will suffer",
                    v.name
                ),
            ));
        }
    }
    diags
}

/// Launch-time arity validation against the *real* argument count.
pub fn verify_arity(meta: &VariantMeta, arg_count: usize) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    for (what, idx) in meta
        .sandbox_args
        .iter()
        .map(|i| ("sandbox_args", *i))
        .chain(meta.ir.output_args.iter().map(|i| ("output_args", *i)))
        .chain(meta.ir.accesses.iter().map(|a| ("access site", a.arg)))
    {
        if idx >= arg_count {
            diags.push(Diagnostic::new(
                LintCode::SandboxOutOfRange,
                &meta.name,
                format!("{what} index {idx} is out of range for a {arg_count}-argument launch"),
            ));
        }
    }
    if meta.placements.len() > arg_count {
        diags.push(Diagnostic::new(
            LintCode::PlacementsTooShort,
            &meta.name,
            format!(
                "placements declares {} arguments but the launch passes {arg_count}",
                meta.placements.len()
            ),
        ));
    }
    diags
}

/// Whether any finding is at `Deny` severity.
pub fn has_deny(diags: &[Diagnostic]) -> bool {
    diags
        .iter()
        .any(|d| d.severity == crate::lint::Severity::Deny)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dysel_kernel::{AccessIr, KernelIr, LoopBound, LoopIr, LoopKind, Space, VariantMeta};

    fn wi(extent: u64) -> LoopIr {
        LoopIr::new(LoopKind::WorkItem(0), LoopBound::Const(extent))
    }

    fn meta(ir: KernelIr) -> VariantMeta {
        VariantMeta::new("test-variant", ir)
    }

    #[test]
    fn clean_unit_stride_variant_has_no_findings() {
        let ir = KernelIr::regular(vec![0])
            .with_loops(vec![wi(64)])
            .with_accesses(vec![AccessIr::affine_store(0, vec![1])]);
        assert!(verify_variant(&meta(ir)).is_empty());
    }

    #[test]
    fn overlapping_store_with_disjoint_claim_is_dv100() {
        let ir = KernelIr::regular(vec![0])
            .with_loops(vec![wi(64)])
            .with_accesses(vec![AccessIr::affine_store(0, vec![0])]);
        let diags = verify_variant(&meta(ir));
        assert!(diags.iter().any(|d| d.code == LintCode::DisjointViolated));
        assert!(has_deny(&diags));
    }

    #[test]
    fn atomics_suppress_disjointness_lints() {
        let ir = KernelIr::regular(vec![0])
            .with_loops(vec![wi(64)])
            .with_accesses(vec![AccessIr::affine_store(0, vec![0])])
            .with_atomics();
        let diags = verify_variant(&meta(ir));
        assert!(!diags.iter().any(|d| d.code == LintCode::DisjointViolated));
    }

    #[test]
    fn proven_disjoint_with_overlap_claim_is_dv101() {
        let ir = KernelIr::regular(vec![0])
            .with_loops(vec![wi(64)])
            .with_accesses(vec![AccessIr::affine_store(0, vec![1])])
            .with_overlapping_outputs();
        let diags = verify_variant(&meta(ir));
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].code, LintCode::DisjointUnderclaimed);
    }

    #[test]
    fn indirect_store_with_disjoint_claim_is_dv102() {
        let ir = KernelIr::regular(vec![0])
            .with_loops(vec![wi(64)])
            .with_accesses(vec![AccessIr::indirect_store(0)]);
        let diags = verify_variant(&meta(ir));
        assert!(diags.iter().any(|d| d.code == LintCode::DisjointUnproven));
        assert!(!has_deny(&diags));
    }

    #[test]
    fn undeclared_store_is_dv200() {
        let ir = KernelIr::regular(vec![0])
            .with_loops(vec![wi(64)])
            .with_accesses(vec![
                AccessIr::affine_store(0, vec![1]),
                AccessIr::affine_store(2, vec![1]),
            ]);
        let diags = verify_variant(&meta(ir));
        assert!(diags.iter().any(|d| d.code == LintCode::UndeclaredStore));
    }

    #[test]
    fn unstored_output_is_dv201_only_with_accesses() {
        let never_stored = KernelIr::regular(vec![0])
            .with_loops(vec![wi(64)])
            .with_accesses(vec![AccessIr::affine_load(0, vec![1])]);
        let diags = verify_variant(&meta(never_stored));
        assert!(diags.iter().any(|d| d.code == LintCode::OutputNeverStored));

        // No declared accesses at all = no basis for the lint.
        let bare = KernelIr::regular(vec![0]).with_loops(vec![wi(64)]);
        assert!(verify_variant(&meta(bare)).is_empty());
    }

    #[test]
    fn sandbox_missing_output_is_dv300() {
        let ir = KernelIr::regular(vec![1])
            .with_loops(vec![wi(64)])
            .with_accesses(vec![AccessIr::affine_store(1, vec![1])]);
        let m = meta(ir).with_sandbox_args(vec![0]);
        let diags = verify_variant(&m);
        assert!(diags
            .iter()
            .any(|d| d.code == LintCode::SandboxMissingOutput));
    }

    #[test]
    fn placement_arity_violations_are_dv301_dv302() {
        let ir = KernelIr::regular(vec![3])
            .with_loops(vec![wi(64)])
            .with_accesses(vec![
                AccessIr::affine_store(3, vec![1]),
                AccessIr::affine_load(4, vec![1]),
            ]);
        let m = meta(ir).with_placements(vec![None, Some(Space::Constant)]);
        let diags = verify_variant(&m);
        assert!(diags.iter().any(|d| d.code == LintCode::SandboxOutOfRange));
        assert!(diags.iter().any(|d| d.code == LintCode::PlacementsTooShort));
    }

    #[test]
    fn mode_override_on_atomic_set_is_dv400() {
        let ir = KernelIr::regular(vec![0])
            .with_loops(vec![wi(64)])
            .with_atomics();
        let set = vec![meta(ir)];
        let diags = verify_mode_override(&set, ProfilingMode::FullyProductive);
        assert!(diags
            .iter()
            .any(|d| d.code == LintCode::IllegalModeOverride));
        // Swap is always legal.
        assert!(verify_mode_override(&set, ProfilingMode::SwapPartial).is_empty());
    }

    #[test]
    fn fully_productive_on_irregular_set_is_dv401() {
        let ir = KernelIr::regular(vec![0])
            .with_loops(vec![LoopIr::new(
                LoopKind::WorkItem(0),
                LoopBound::DataDependent,
            )])
            .with_accesses(vec![AccessIr::affine_store(0, vec![1])]);
        let set = vec![meta(ir)];
        let diags = verify_mode_override(&set, ProfilingMode::FullyProductive);
        assert!(diags.iter().any(|d| d.code == LintCode::RiskyModeOverride));
        assert!(!has_deny(&diags));
    }

    #[test]
    fn unannotated_indirect_store_on_regular_variant_is_dv500() {
        let ir = KernelIr::regular(vec![0])
            .with_loops(vec![wi(64)])
            .with_accesses(vec![AccessIr::indirect_store(0)]);
        let diags = verify_variant(&meta(ir.clone()));
        assert!(diags.iter().any(|d| d.code == LintCode::FeatureDivergence));
        // The annotation silences it.
        let annotated = KernelIr::regular(vec![0])
            .with_loops(vec![wi(64)])
            .with_accesses(vec![AccessIr::indirect_store(0).with_index_range(0, 255)]);
        assert!(!verify_variant(&meta(annotated))
            .iter()
            .any(|d| d.code == LintCode::FeatureDivergence));
        // An irregular variant is exempt: pruning abstains anyway.
        let irregular = ir.with_loops(vec![LoopIr::new(
            LoopKind::WorkItem(0),
            LoopBound::DataDependent,
        )]);
        assert!(!verify_variant(&meta(irregular))
            .iter()
            .any(|d| d.code == LintCode::FeatureDivergence));
    }

    #[test]
    fn inverted_index_range_is_dv501() {
        let ir = KernelIr::regular(vec![0])
            .with_loops(vec![wi(64)])
            .with_accesses(vec![
                AccessIr::affine_store(0, vec![1]).with_index_range(5, -5)
            ]);
        let diags = verify_variant(&meta(ir));
        assert!(diags.iter().any(|d| d.code == LintCode::InvalidIndexRange));
        assert!(has_deny(&diags));
    }

    #[test]
    fn arity_validation_catches_real_launch_mismatch() {
        let ir = KernelIr::regular(vec![0])
            .with_loops(vec![wi(64)])
            .with_accesses(vec![AccessIr::affine_store(0, vec![1])]);
        let m = meta(ir).with_sandbox_args(vec![0, 5]);
        let diags = verify_arity(&m, 3);
        assert!(diags.iter().any(|d| d.code == LintCode::SandboxOutOfRange));
        assert!(verify_arity(&meta(KernelIr::regular(vec![0])), 1).is_empty());
    }
}
