//! Benchmarks of the training-side hot paths: a full SGD step on a small
//! CNN with and without the centrosymmetric constraint, and the pruning
//! pass.
//!
//! Plain `main()` harness (`harness = false`): each benchmark warms up,
//! then runs batches until ~0.2 s elapses and reports the mean ns/iter.
//! Run with `cargo bench -p cscnn-bench --bench training`.

use std::hint::black_box;

use cscnn::nn::centrosymmetric;
use cscnn::nn::datasets::SyntheticImages;
use cscnn::nn::metrics::softmax_cross_entropy;
use cscnn::nn::models;
use cscnn::nn::optimizer::Sgd;
use cscnn::nn::pruning;
use cscnn_bench::timing::{bench, bench_with_setup};

fn main() {
    let data = SyntheticImages::generate(1, 16, 16, 4, 20, 0.1, 3);
    let (x, labels) = data.batch(&(0..16).collect::<Vec<_>>());
    for (label, centro) in [("dense", false), ("centrosymmetric", true)] {
        let mut net = models::tiny_cnn(1, 16, 16, 4, 3);
        if centro {
            centrosymmetric::centrosymmetrize(&mut net).expect("finite weights");
        }
        let mut opt = Sgd::new(0.9, 1e-4);
        bench(&format!("sgd_step_tiny_cnn_{label}"), || {
            let logits = net.forward(black_box(&x));
            let (_, grad) = softmax_cross_entropy(&logits, &labels);
            net.backward(&grad);
            let mut params = net.params_mut();
            opt.step(&mut params, 0.01);
        });
    }

    bench_with_setup(
        "prune_network_vgg_s",
        || models::vgg_s(10, 4),
        |mut net| {
            pruning::prune_network(
                &mut net,
                &pruning::PruneConfig {
                    conv_keep: 0.4,
                    fc_keep: 0.1,
                },
            )
            .expect("finite weights");
        },
    );

    bench_with_setup(
        "centrosymmetrize_vgg_s",
        || models::vgg_s(10, 5),
        |mut net| {
            centrosymmetric::centrosymmetrize(&mut net).expect("finite weights");
        },
    );
}
