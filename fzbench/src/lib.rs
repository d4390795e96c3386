//! The fuzzy-knn benchmark: three workloads that each load a different
//! layer, end-to-end metrics from untraced runs and per-layer metrics
//! from traced runs whose spans are recorded around the layer traits.
//! See `README.md` beside this package for the workloads and metrics.

pub mod common;
pub mod dense_churn;
pub mod gate;
pub mod paper_served;
pub mod report;
pub mod sparse_batch;
pub mod stats;
pub mod trace;

use common::Ctx;
use report::Outcome;

/// Workload names, as `--workload` takes them.
pub const WORKLOADS: [&str; 3] = ["paper-served", "sparse-batch", "dense-churn"];

/// Which sizes to run at.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Size {
    /// The benchmark's sizes.
    Full,
    /// Seconds-long sizes for the benchmark's own tests.
    Tiny,
}

/// Run workload `name` (one of [`WORKLOADS`]).
pub fn run(name: &str, ctx: &Ctx, size: Size) -> Result<Outcome, String> {
    let full = size == Size::Full;
    match name {
        "paper-served" => paper_served::run(
            ctx,
            &if full { paper_served::Spec::full() } else { paper_served::Spec::tiny() },
        ),
        "sparse-batch" => sparse_batch::run(
            ctx,
            &if full { sparse_batch::Spec::full() } else { sparse_batch::Spec::tiny() },
        ),
        "dense-churn" => dense_churn::run(
            ctx,
            &if full { dense_churn::Spec::full() } else { dense_churn::Spec::tiny() },
        ),
        _ => Err(format!("unknown workload {name:?}; known: {}", WORKLOADS.join(", "))),
    }
}
