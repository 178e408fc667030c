//! Benchmark workloads for the DySel reproduction.
//!
//! Rust reimplementations of the Parboil / Rodinia / SHOC kernels the paper
//! evaluates, each exposing the *variant axes* of the corresponding case
//! study:
//!
//! | module | paper benchmark | variant axes |
//! |---|---|---|
//! | [`sgemm`] | Parboil `sgemm` | 6 CPU schedules; tiling; SIMD widths |
//! | [`spmv_csr`] | SHOC `spmv` | scalar/vector x DFO/BFO; GPU placements |
//! | [`spmv_jds`] | Parboil `spmv` | unroll/prefetch/texture; CPU orders |
//! | [`stencil`] | Parboil `stencil` | 6 CPU schedules; z-coarsen; smem |
//! | [`cutcp`] | Parboil `cutcp` | 60 CPU schedules; GPU coarsening |
//! | [`kmeans`] | Rodinia `kmeans` | 3 CPU schedules |
//! | [`particlefilter`] | Rodinia `particlefilter` | 4 data placements |
//! | [`histogram`] | output binning (§2.3) | atomics vs privatization |
//! | [`spmv_ell`] | input format transformation (§2.3) | CSR vs ELL with duplicated inputs |
//!
//! Every kernel computes real output; [`Workload::verify`] checks it
//! against a host reference, which is what makes *productive* profiling
//! correctness machine-checkable.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod csr;
mod jds;
mod suite;

pub mod cutcp;
pub mod histogram;
pub mod kmeans;
pub mod particlefilter;
pub mod sgemm;
pub mod spmv_csr;
pub mod spmv_ell;
pub mod spmv_jds;
pub mod stencil;

pub use csr::{gemm_ref, CsrMatrix};
pub use jds::JdsMatrix;
use suite::RefMemo;
pub use suite::{check_close, Target, VerifyFn, Workload};
