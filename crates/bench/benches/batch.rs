//! Batch-intake throughput: `BatchRunner::run_batch` over a request stream
//! versus the same requests simulated sequentially with `Runner::run_ir`.
//! Measures the workload-cache and worker-pool payoff (docs/batching.md).
//!
//! Plain `main()` harness (`harness = false`): each benchmark warms up,
//! then runs batches until ~0.2 s elapses and reports the mean ns/iter.
//! Run with `cargo bench -p cscnn-bench --bench batch`.

use std::hint::black_box;

use cscnn::ir::{ModelIr, SparsityAnnotation};
use cscnn::models::{catalog, lower, ModelCompression, ModelDesc};
use cscnn::sim::{Accelerator, BatchRunner, CartesianAccelerator, Runner};
use cscnn_bench::timing::bench;

fn calibrated_ir(model: &ModelDesc, acc: &dyn Accelerator) -> ModelIr {
    let mc = ModelCompression::new(model.clone(), acc.scheme());
    let mut ir = lower::to_ir(model);
    for (i, node) in ir.weight_nodes_mut().enumerate() {
        node.set_sparsity(SparsityAnnotation {
            weight_density: mc.profile.weight_density[i],
            activation_density: mc.profile.activation_density[i],
        });
    }
    ir
}

fn main() {
    let acc = CartesianAccelerator::cscnn();
    let irs: Vec<ModelIr> = [catalog::lenet5(), catalog::convnet(), catalog::alexnet()]
        .iter()
        .map(|m| calibrated_ir(m, &acc))
        .collect();

    const REQUESTS: usize = 12;
    let requests: Vec<ModelIr> = (0..REQUESTS).map(|i| irs[i % irs.len()].clone()).collect();
    let runner = Runner::new(1);

    bench("batch_12req_sequential_run_ir", || {
        for ir in &requests {
            black_box(runner.run_ir(&acc, black_box(ir)).expect("annotated"));
        }
    });

    for workers in [1usize, 4] {
        let batch = BatchRunner::new(Runner::new(1)).with_workers(workers);
        bench(&format!("batch_12req_pool_{workers}w"), || {
            black_box(
                batch
                    .run_batch(&acc, black_box(&requests))
                    .expect("annotated"),
            );
        });
    }

    // Cache-only effect: one worker, so any win over sequential run_ir is
    // pure workload-cache dedup (3 syntheses instead of 12).
    let batch = BatchRunner::new(Runner::new(1)).with_workers(1);
    let unique: Vec<ModelIr> = irs.to_vec();
    bench("batch_3req_unique_structures", || {
        black_box(
            batch
                .run_batch(&acc, black_box(&unique))
                .expect("annotated"),
        );
    });
}
