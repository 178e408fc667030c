//! One function per paper table/figure. See `EXPERIMENTS.md` for the
//! recorded outputs next to the paper's values.

mod ablations;
mod case_studies;
mod extensions;
mod fig5;
mod motivation;
mod overhead;

pub use ablations::{abl_chunk, abl_noise, abl_query};
pub use case_studies::{fig10a, fig10b, fig11a, fig11b, fig8, fig9};
pub use extensions::{ext_formats, ext_mixed, ext_portability, ext_swap};
pub use fig5::fig5;
pub use motivation::{fig1, fig2, table1};
pub use overhead::{sec51, sec52};

use crate::harness::{CaseError, Harness};
use crate::Figure;

/// An experiment entry point: the figure it regenerates under the
/// harness's settings.
pub type ExperimentFn = fn(&Harness) -> Result<Figure, CaseError>;

/// All experiments in presentation order, with their ids.
pub fn all() -> Vec<(&'static str, ExperimentFn)> {
    vec![
        ("fig1", fig1 as ExperimentFn),
        ("fig2", fig2),
        ("table1", table1),
        ("fig5", fig5),
        ("fig8", fig8),
        ("fig9", fig9),
        ("fig10a", fig10a),
        ("fig10b", fig10b),
        ("fig11a", fig11a),
        ("fig11b", fig11b),
        ("sec51", sec51),
        ("sec52", sec52),
        ("abl_chunk", abl_chunk),
        ("abl_query", abl_query),
        ("abl_noise", abl_noise),
        ("ext_mixed", ext_mixed),
        ("ext_swap", ext_swap),
        ("ext_formats", ext_formats),
        ("ext_portability", ext_portability),
    ]
}

/// Looks up an experiment by id.
pub fn by_id(id: &str) -> Option<ExperimentFn> {
    all().into_iter().find(|(n, _)| *n == id).map(|(_, f)| f)
}
