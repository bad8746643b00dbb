//! The training workloads: `CompressionPipeline::run` (train, Eq. 5
//! projection, Eq. 7 retrain, prune, retrain) on small proxy networks.

use cscnn::ir::LayerNode;
use cscnn::models::lower;
use cscnn::nn::centrosymmetric;
use cscnn::nn::datasets::SyntheticImages;
use cscnn::nn::metrics::softmax_cross_entropy;
use cscnn::nn::models;
use cscnn::nn::optimizer::{LrSchedule, Sgd};
use cscnn::nn::pruning::{self, PruneConfig};
use cscnn::nn::trainer::{evaluate, TrainConfig};
use cscnn::nn::{IrError, Network};
use cscnn::{CompressionPipeline, PipelineReport};
use cscnn_rng::rngs::StdRng;
use cscnn_rng::SeedableRng;

use crate::digest::report_line;
use crate::spans::Recorder;
use crate::workload::{Pass, Scale, Workload};

/// Share of each class held out as the test set, as the pipeline splits.
const TEST_FRACTION: f64 = 0.2;

/// One network put through the pipeline.
struct Case {
    name: &'static str,
    build: Box<dyn Fn() -> Network>,
    conv_inputs: Vec<(usize, usize)>,
    config: TrainConfig,
    prune: Option<PruneConfig>,
    /// Span names of each layer's forward and backward.
    spans: Vec<(&'static str, &'static str)>,
    /// Forward MACs per image of each layer (zero for all but convs).
    conv_macs: Vec<u64>,
}

impl Case {
    fn new(
        name: &'static str,
        build: Box<dyn Fn() -> Network>,
        input_chw: (usize, usize, usize),
        conv_inputs: Vec<(usize, usize)>,
        config: TrainConfig,
        prune: Option<PruneConfig>,
    ) -> Result<Self, String> {
        let mut probe = build();
        let spans = (0..probe.len())
            .map(|i| layer_spans(&mut probe, i))
            .collect();
        let ir = probe.to_ir(name, input_chw).map_err(|e| e.to_string())?;
        let conv_macs = ir
            .nodes
            .iter()
            .map(|node| match node {
                LayerNode::Conv { .. } | LayerNode::Depthwise { .. } => {
                    lower::layer_desc(node).map_or(0, |l| l.dense_mults())
                }
                _ => 0,
            })
            .collect();
        Ok(Case {
            name,
            build,
            conv_inputs,
            config,
            prune,
            spans,
            conv_macs,
        })
    }

    fn pipeline(&self) -> CompressionPipeline {
        let pipeline = CompressionPipeline::new(self.config);
        match self.prune {
            Some(prune) => pipeline.with_pruning(prune),
            None => pipeline,
        }
    }

    /// Training phases one pipeline run makes.
    fn phases(&self) -> usize {
        2 + usize::from(self.prune.is_some())
    }
}

/// The span names of layer `i`'s forward and backward, by layer kind.
fn layer_spans(net: &mut Network, i: usize) -> (&'static str, &'static str) {
    let layer = net.layer_mut(i);
    if let Some(conv) = layer.as_conv_mut() {
        return if conv.groups() > 1 {
            ("nn.conv2d_grouped.fwd", "nn.conv2d_grouped.bwd")
        } else {
            ("nn.conv2d.fwd", "nn.conv2d.bwd")
        };
    }
    match layer.name() {
        "linear" => ("nn.linear.fwd", "nn.linear.bwd"),
        "relu" => ("nn.relu.fwd", "nn.relu.bwd"),
        "maxpool" => ("nn.maxpool.fwd", "nn.maxpool.bwd"),
        "flatten" => ("nn.flatten.fwd", "nn.flatten.bwd"),
        _ => ("nn.other.fwd", "nn.other.bwd"),
    }
}

/// `CompressionPipeline::run` over a set of networks sharing one dataset.
pub struct TrainWorkload {
    cases: Vec<Case>,
    data: SyntheticImages,
    /// Images in the training split.
    train_len: usize,
}

impl TrainWorkload {
    /// ConvNet-S and VGG-S with the `table2 --train` configuration.
    pub fn pipeline(seed: u64, scale: Scale) -> Result<Self, String> {
        let (per_class, epochs) = match scale {
            Scale::Full => (80, 8),
            Scale::Tiny => (10, 1),
        };
        let config = |lr| TrainConfig {
            epochs,
            batch_size: 32,
            lr,
            seed,
            ..Default::default()
        };
        let prune = Some(PruneConfig {
            conv_keep: 0.5,
            fc_keep: 0.25,
        });
        let net_seed = seed.wrapping_add(1);
        let cases = vec![
            Case::new(
                "ConvNet-S",
                Box::new(move || models::convnet_s(4, net_seed)),
                (3, 16, 16),
                models::convnet_s_conv_inputs(),
                config(0.05),
                prune,
            )?,
            // The deeper VGG-S needs a gentler learning rate to converge.
            Case::new(
                "VGG-S",
                Box::new(move || models::vgg_s(4, net_seed.wrapping_add(1))),
                (3, 16, 16),
                models::vgg_s_conv_inputs(),
                config(0.01),
                prune,
            )?,
        ];
        let data = SyntheticImages::generate(3, 16, 16, 4, per_class, 0.12, seed);
        Ok(Self::new(cases, data))
    }

    /// `mobile_cnn` at 3×32×32 with batch 8: standard, depthwise and
    /// pointwise convs.
    pub fn mobile(seed: u64, scale: Scale) -> Result<Self, String> {
        let (per_class, epochs) = match scale {
            Scale::Full => (100, 3),
            Scale::Tiny => (5, 1),
        };
        let config = TrainConfig {
            epochs,
            batch_size: 8,
            lr: 0.01,
            seed,
            ..Default::default()
        };
        let net_seed = seed.wrapping_add(1);
        let cases = vec![Case::new(
            "MobileCNN",
            Box::new(move || models::mobile_cnn(3, 32, 32, 4, net_seed)),
            (3, 32, 32),
            models::mobile_cnn_conv_inputs(32, 32),
            config,
            Some(PruneConfig {
                conv_keep: 0.5,
                fc_keep: 0.25,
            }),
        )?];
        let data = SyntheticImages::generate(3, 32, 32, 4, per_class, 0.12, seed);
        Ok(Self::new(cases, data))
    }

    fn new(cases: Vec<Case>, data: SyntheticImages) -> Self {
        let train_len = data.split(TEST_FRACTION).0.len();
        let workload = TrainWorkload {
            cases,
            data,
            train_len,
        };
        workload.warm_up();
        workload
    }

    /// One training step per network on a throwaway copy.
    fn warm_up(&self) {
        let indices: Vec<usize> = (0..self.data.len()).collect();
        for case in &self.cases {
            let mut net = (case.build)();
            let chunk = &indices[..case.config.batch_size.min(indices.len())];
            let (x, labels) = self.data.batch(chunk);
            let logits = net.forward(&x);
            let (_, grad) = softmax_cross_entropy(&logits, &labels);
            std::hint::black_box(net.backward(&grad));
        }
    }

    fn items(&self) -> u64 {
        self.cases
            .iter()
            .map(|c| (c.phases() * c.config.epochs * self.train_len) as u64)
            .sum()
    }

    /// `Trainer::fit`, one public call at a time: per-layer forward and
    /// backward, loss, SGD step and the per-epoch evaluation. Returns the
    /// final test accuracy.
    fn fit(
        rec: &Recorder,
        case: &Case,
        net: &mut Network,
        config: &TrainConfig,
        train: &SyntheticImages,
        test: &SyntheticImages,
    ) -> f64 {
        let schedule = LrSchedule::step(config.lr, config.lr_decay_factor, config.lr_decay_every);
        let mut opt = Sgd::new(config.momentum, config.weight_decay);
        let mut rng = StdRng::seed_from_u64(config.seed);
        let mut test_accuracy = 0.0;
        for epoch in 0..config.epochs {
            let lr = schedule.lr_at(epoch);
            let indices = {
                let _span = rec.span("nn.data");
                train.shuffled_indices(&mut rng)
            };
            for chunk in indices.chunks(config.batch_size) {
                let (x, labels) = {
                    let _span = rec.span("nn.data");
                    train.batch(chunk)
                };
                let _step = rec.span("nn.step");
                let mut act = x;
                for (i, (fwd, _)) in case.spans.iter().enumerate() {
                    let _span = rec.span(fwd);
                    act = net.layer_mut(i).forward(&act);
                }
                let (_, mut grad) = {
                    let _span = rec.span("nn.loss");
                    softmax_cross_entropy(&act, &labels)
                };
                for (i, (_, bwd)) in case.spans.iter().enumerate().rev() {
                    let _span = rec.span(bwd);
                    grad = net.layer_mut(i).backward(&grad);
                }
                {
                    let _span = rec.span("nn.sgd_step");
                    let mut params = net.params_mut();
                    opt.step(&mut params, lr);
                }
                let macs: u64 = case.conv_macs.iter().sum();
                rec.count("tensor.conv_macs", (macs * chunk.len() as u64) as f64);
            }
            let _span = rec.span("nn.evaluate");
            test_accuracy = evaluate(net, test, config.batch_size);
        }
        test_accuracy
    }

    /// `CompressionPipeline::run`, phase by phase, through public calls.
    fn replay(&self, rec: &Recorder, case: &Case) -> Result<PipelineReport, IrError> {
        let mut net = (case.build)();
        let (train, test) = {
            let _span = rec.span("nn.data");
            self.data.split(TEST_FRACTION)
        };
        let config = &case.config;
        let baseline_accuracy = Self::fit(rec, case, &mut net, config, &train, &test);
        {
            let _span = rec.span("nn.centrosymmetrize");
            centrosymmetric::centrosymmetrize(&mut net)?;
        }
        let post_projection_accuracy = {
            let _span = rec.span("nn.evaluate");
            evaluate(&mut net, &test, config.batch_size)
        };
        let retrained_accuracy = Self::fit(rec, case, &mut net, config, &train, &test);
        let (pruned_accuracy, kept_fraction) = match &case.prune {
            Some(prune) => {
                let kept = {
                    let _span = rec.span("nn.prune");
                    pruning::prune_network(&mut net, prune)?
                };
                let accuracy = Self::fit(rec, case, &mut net, config, &train, &test);
                (Some(accuracy), kept)
            }
            None => (None, 1.0),
        };
        let mults = {
            let _span = rec.span("nn.count_multiplications");
            centrosymmetric::count_multiplications(&mut net, &case.conv_inputs)?
        };
        Ok(PipelineReport {
            baseline_accuracy,
            post_projection_accuracy,
            retrained_accuracy,
            pruned_accuracy,
            kept_fraction,
            mults,
        })
    }
}

fn line(name: &str, report: Result<PipelineReport, IrError>) -> String {
    match report {
        Ok(report) => report_line(name, &report),
        Err(err) => format!("ERR {name}: {err}"),
    }
}

impl Workload for TrainWorkload {
    fn pass(&mut self) -> Pass {
        let lines = self
            .cases
            .iter()
            .map(|case| {
                let report = case
                    .pipeline()
                    .run((case.build)(), &self.data, &case.conv_inputs);
                line(case.name, report)
            })
            .collect();
        Pass {
            items: self.items(),
            lines,
        }
    }

    fn traced_pass(&mut self, rec: &Recorder) -> Pass {
        let lines = self
            .cases
            .iter()
            .map(|case| line(case.name, self.replay(rec, case)))
            .collect();
        Pass {
            items: self.items(),
            lines,
        }
    }

    /// Training has no cheaper independent computation; its outputs are
    /// checked against the committed digests, across passes, and against
    /// the traced replay.
    fn cross_check(&self, _lines: &[String]) -> Vec<String> {
        Vec::new()
    }

    fn settings(&self) -> Vec<(&'static str, String)> {
        let mut out = vec![
            ("train_images", self.train_len.to_string()),
            ("images_per_pass", self.items().to_string()),
            ("threads_started", cscnn::tensor::num_threads().to_string()),
        ];
        for case in &self.cases {
            let c = &case.config;
            out.push((
                case.name,
                format!(
                    "epochs={} batch={} lr={} prune={:?}",
                    c.epochs, c.batch_size, c.lr, case.prune
                ),
            ));
        }
        out
    }
}
