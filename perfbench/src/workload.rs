//! The workload interface shared by the simulator and training workloads.

use crate::spans::Recorder;

/// Names of the workloads, in the order `--workload all` runs them.
pub const NAMES: [&str; 4] = ["eval_suite", "batch_ir", "train_pipeline", "train_mobile"];

/// Input size: the full workloads, or tiny ones for the smoke mode.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    Full,
    Tiny,
}

/// The outcome of one pass.
pub struct Pass {
    /// Items completed (the unit of `items_per_s`).
    pub items: u64,
    /// One digest line per operation; a failed operation has an `ERR` line.
    pub lines: Vec<String>,
}

impl Pass {
    pub fn errors(&self) -> usize {
        self.lines.iter().filter(|l| l.starts_with("ERR")).count()
    }
}

/// One benchmark workload, set up for a seed.
pub trait Workload {
    /// One pass as a user runs it, untraced.
    fn pass(&mut self) -> Pass;
    /// The same pass driven through public calls with spans recorded in
    /// `rec`; its outputs must equal the untraced pass's bit for bit.
    fn traced_pass(&mut self, rec: &Recorder) -> Pass;
    /// Checks a pass's lines against an independent computation; returns
    /// one message per operation that disagrees.
    fn cross_check(&self, lines: &[String]) -> Vec<String>;
    /// Run settings to record with the result (threads started, input
    /// sizes).
    fn settings(&self) -> Vec<(&'static str, String)>;
}

/// Sets up workload `name` for `seed`.
pub fn setup(name: &str, seed: u64, scale: Scale) -> Result<Box<dyn Workload>, String> {
    Ok(match name {
        "eval_suite" => Box::new(crate::sim::EvalSuite::new(seed, scale)),
        "batch_ir" => Box::new(crate::sim::BatchIr::new(seed, scale)?),
        "train_pipeline" => Box::new(crate::train::TrainWorkload::pipeline(seed, scale)?),
        "train_mobile" => Box::new(crate::train::TrainWorkload::mobile(seed, scale)?),
        other => return Err(format!("unknown workload `{other}`")),
    })
}
