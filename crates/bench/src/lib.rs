#![warn(missing_docs)]

//! Shared support for the table/figure harness binaries.
//!
//! Each binary under `src/bin/` regenerates one table or figure of the
//! paper (see DESIGN.md §4 for the index); this library holds the plumbing
//! they share: paper-reported reference numbers, table formatting, the
//! standard evaluation run, and the wall-clock timing helpers of the
//! benches.
//!
//! The harnesses sit at the *top* of the workspace's lowering chain,
//! driving it end to end: catalog `ModelDesc` → `ModelIr` →
//! `LayerWorkload` → simulation → formatted table, all from the single
//! [`SEED`].

pub mod paper;
pub mod table;
pub mod timing;

use cscnn::models::{catalog, ModelDesc};
use cscnn::sim::{baselines, Accelerator, RunStats, Runner, SimError};

/// The workload seed used by every harness binary, so all tables/figures
/// come from the same synthesized workloads.
pub const SEED: u64 = 42;

/// The networks of the accelerator evaluation (Figs. 7–10), in plotting
/// order.
pub fn evaluation_models() -> Vec<ModelDesc> {
    catalog::evaluation_suite()
}

/// The accelerators of the evaluation and their `[model][accelerator]`
/// results, in the paper's plotting order.
pub type Evaluation = (Vec<Box<dyn Accelerator>>, Vec<Vec<RunStats>>);

/// Runs the full 9-accelerator × N-model evaluation once.
///
/// # Errors
///
/// [`SimError::WorkerPanicked`] naming the lowest-index model whose
/// simulation panicked.
pub fn run_evaluation(models: &[ModelDesc]) -> Result<Evaluation, SimError> {
    let runner = Runner::new(SEED);
    let accs = baselines::evaluation_accelerators();
    let results = runner.run_suite(&accs, models)?;
    Ok((accs, results))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn evaluation_models_match_paper_suite() {
        let names: Vec<String> = evaluation_models().into_iter().map(|m| m.name).collect();
        assert!(names.contains(&"AlexNet".to_string()));
        assert!(names.contains(&"EfficientNet-B7".to_string()));
        assert_eq!(names.len(), 9);
    }
}
