//! Golden training trajectory: the per-step loss of a short `mobile_cnn`
//! run through the compression pipeline's three phases, pinned as `f32`
//! bits.
//!
//! The run covers every conv flavour the training stack has (dense 3×3,
//! depthwise 3×3 and 1×1 pointwise) and every phase of the paper's
//! algorithm half: plain SGD, Eq. 5 projection followed by Eq. 7 tied
//! retraining, then magnitude pruning with masked updates. A kernel or
//! layer change that alters a single rounding anywhere in forward or
//! backward shows up as a different loss within a step or two, even when
//! the network would still train to full accuracy.
//!
//! The trajectory is checked at 1 and 4 threads: the kernels are
//! bit-identical at every thread count, so both must match the same
//! constants. On a mismatch the observed bits are printed in source form.

use cscnn::nn::centrosymmetric;
use cscnn::nn::datasets::SyntheticImages;
use cscnn::nn::metrics::softmax_cross_entropy;
use cscnn::nn::models;
use cscnn::nn::optimizer::Sgd;
use cscnn::nn::pruning::{self, PruneConfig};
use cscnn::tensor::{reset_num_threads, set_num_threads};

const SEED: u64 = 42;
const BATCH: usize = 4;
/// Plain SGD steps, then tied steps after `centrosymmetrize`, then masked
/// steps after `prune_network`.
const PLAIN_STEPS: usize = 3;
const TIED_STEPS: usize = 3;
const PRUNED_STEPS: usize = 3;

/// Loss bits before each of the nine updates, then the loss after the last
/// one (so the final update is pinned too).
const GOLDEN_LOSS_BITS: [u32; 10] = [
    0x3fc2cf4d, 0x4004eb91, 0x402247ec, 0x3f7b5f60, 0x3f9a5135, 0x3f86c49c, 0x3f95098a, 0x3f7a04cc,
    0x3f4a5663, 0x3ee3d9ea,
];

/// Runs the trajectory and returns the loss bits it observed.
fn trajectory() -> Vec<u32> {
    let (channels, h, w, classes) = (3, 16, 16, 4);
    let data = SyntheticImages::generate(channels, h, w, classes, 6, 0.2, SEED);
    let mut net = models::mobile_cnn(channels, h, w, classes, SEED);
    let mut opt = Sgd::new(0.9, 1e-4);
    let steps = PLAIN_STEPS + TIED_STEPS + PRUNED_STEPS;
    let mut losses = Vec::with_capacity(steps + 1);
    for step in 0..=steps {
        if step == PLAIN_STEPS {
            let converted = centrosymmetric::centrosymmetrize(&mut net).expect("finite weights");
            assert_eq!(converted, 2, "the dense and depthwise 3x3 convs");
        }
        if step == PLAIN_STEPS + TIED_STEPS {
            pruning::prune_network(
                &mut net,
                &PruneConfig {
                    conv_keep: 0.5,
                    fc_keep: 0.25,
                },
            )
            .expect("finite weights");
        }
        // A different batch every step, so a layer that reused a stale
        // lowering of an earlier input would diverge at once.
        let indices: Vec<usize> = (0..BATCH)
            .map(|i| (step * BATCH + i) % data.len())
            .collect();
        let (x, labels) = data.batch(&indices);
        let logits = net.forward(&x);
        let (loss, grad) = softmax_cross_entropy(&logits, &labels);
        losses.push(loss.to_bits());
        if step == steps {
            break;
        }
        net.backward(&grad);
        let mut params = net.params_mut();
        opt.step(&mut params, 0.05);
    }
    losses
}

#[test]
fn mobile_cnn_loss_trajectory_is_bit_identical_at_1_and_4_threads() {
    for threads in [1usize, 4] {
        set_num_threads(threads);
        let got = trajectory();
        let listed: Vec<String> = got.iter().map(|b| format!("0x{b:08x}")).collect();
        assert_eq!(
            got,
            GOLDEN_LOSS_BITS,
            "loss trajectory diverged at {threads} thread(s); observed:\n\
             const GOLDEN_LOSS_BITS: [u32; {}] = [{}];",
            got.len(),
            listed.join(", ")
        );
    }
    reset_num_threads();
}
