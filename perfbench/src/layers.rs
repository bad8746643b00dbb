//! Per-layer metrics, reduced from the spans and counters of the traced
//! passes. Every metric is emitted for every workload; a layer a workload
//! does not exercise reads zero.
//!
//! Busy and self times of the simulator's runner and accelerators use the
//! thread CPU clock (the evaluation suite runs 9 threads on fewer cores);
//! everything else uses wall time. A layer's self time is its span minus
//! the part of it that its child spans cover.

use std::collections::{BTreeMap, HashMap};

use crate::spans::{covered_ns, Span};

/// The evaluation networks, as `RunStats::model` names them.
const EVAL_MODELS: [&str; 9] = [
    "LeNet-5",
    "ConvNet",
    "AlexNet",
    "VGG16",
    "ResNet-18",
    "ResNet-50",
    "ResNet-152",
    "ShuffleNet-V2",
    "EfficientNet-B7",
];

/// The evaluation accelerators, in the paper's plotting order.
const ACCELERATORS: [&str; 9] = [
    "DCNN",
    "Cnvlutin",
    "Cambricon-X",
    "SCNN",
    "SparTen",
    "Cambricon-S",
    "SIGMA",
    "SpArch",
    "CSCNN",
];

/// Training layer kinds with forward/backward spans.
const NN_KINDS: [&str; 6] = [
    "conv2d",
    "conv2d_grouped",
    "linear",
    "relu",
    "maxpool",
    "flatten",
];

/// A named measurement with its unit.
#[derive(Clone, Debug)]
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub value: f64,
}

impl Metric {
    pub fn new(name: impl Into<String>, unit: &'static str, value: f64) -> Self {
        Metric {
            name: name.into(),
            unit,
            value,
        }
    }
}

/// Nearest-rank percentile of `sorted` (`p` in `(0, 1]`); zero when empty.
fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Reduces the spans and counters of `passes` traced passes to per-pass
/// per-layer metrics. `overhead` and `coverage` describe the trace itself.
pub fn per_layer(
    spans: &[Span],
    counters: &BTreeMap<&'static str, f64>,
    passes: usize,
    overhead: f64,
    coverage: f64,
) -> Vec<Metric> {
    let per_pass = 1.0 / passes.max(1) as f64;
    let counter = |name: &str| counters.get(name).copied().unwrap_or(0.0) * per_pass;
    let mut children: HashMap<usize, Vec<&Span>> = HashMap::new();
    for s in spans {
        if let Some(parent) = s.parent {
            children.entry(parent).or_default().push(s);
        }
    }
    let kids = |s: &Span| children.get(&s.id).map_or(&[][..], Vec::as_slice);
    let wall = |name: &str| -> f64 {
        spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::dur_s)
            .fold(0.0, |a, b| a + b)
            * per_pass
    };
    let cpu = |pred: &dyn Fn(&Span) -> bool| -> f64 {
        spans
            .iter()
            .filter(|s| pred(s))
            .map(Span::cpu_s)
            .fold(0.0, |a, b| a + b)
            * per_pass
    };
    let mut out = Vec::new();

    // sim.runner: busy time excludes the benchmark's own tiling replays.
    let mut model_busy: BTreeMap<&str, f64> = BTreeMap::new();
    let (mut busy, mut self_cpu) = (0.0, 0.0);
    for s in spans.iter().filter(|s| s.name == "sim.runner.run_model") {
        let replay: f64 = kids(s)
            .iter()
            .filter(|c| c.name == "sim.tiling.plan")
            .map(|c| c.cpu_s())
            .sum();
        let nested: f64 = kids(s).iter().map(|c| c.cpu_s()).sum();
        busy += s.cpu_s() - replay;
        self_cpu += s.cpu_s() - nested;
        *model_busy
            .entry(s.label("model").unwrap_or("?"))
            .or_default() += s.cpu_s() - replay;
    }
    let runner_self = self_cpu * per_pass;
    out.push(Metric::new("sim.runner.busy_s", "s", busy * per_pass));
    out.push(Metric::new("sim.runner.self_s", "s", runner_self));
    let critical = model_busy.values().copied().fold(0.0, f64::max);
    out.push(Metric::new(
        "sim.runner.critical_s",
        "s",
        critical * per_pass,
    ));
    for model in EVAL_MODELS {
        let value = model_busy.get(model).copied().unwrap_or(0.0) * per_pass;
        out.push(Metric::new(
            format!("sim.runner.model.{model}.busy_s"),
            "s",
            value,
        ));
    }

    // sim.accel
    for acc in ACCELERATORS {
        let value =
            cpu(&|s| s.name == "sim.accel.simulate_layer" && s.label("accelerator") == Some(acc));
        out.push(Metric::new(
            format!("sim.accel.{acc}.simulate_s"),
            "s",
            value,
        ));
    }
    let calls = spans
        .iter()
        .filter(|s| s.name == "sim.accel.simulate_layer")
        .count();
    out.push(Metric::new(
        "sim.accel.simulate_calls",
        "count",
        calls as f64 * per_pass,
    ));

    // sim.tiling
    out.push(Metric::new(
        "sim.tiling.plan_s",
        "s",
        cpu(&|s| s.name == "sim.tiling.plan"),
    ));
    out.push(Metric::new(
        "sim.tiling.plans",
        "count",
        counter("sim.tiling.plans"),
    ));

    // sim.batch: the workers run on the program's own threads, so the
    // batch's self time subtracts the union of their simulate spans.
    let mut batch_self_ns = 0u64;
    for s in spans.iter().filter(|s| s.name == "sim.batch.run_batch") {
        let mut iv: Vec<(u64, u64)> = kids(s).iter().map(|c| (c.start_ns, c.end_ns)).collect();
        batch_self_ns += (s.end_ns - s.start_ns) - covered_ns(&mut iv, s.start_ns, s.end_ns);
    }
    let batch_self = batch_self_ns as f64 * 1e-9 * per_pass;

    // sim.workload: draws per second of the runner's self time, which is
    // almost all workload synthesis. The batch synthesizes while the other
    // worker simulates, so its self time is no synthesis measure and the
    // rate reads zero there.
    let draws = counter("sim.workload.weight_draws");
    out.push(Metric::new("sim.workload.weight_draws", "count", draws));
    out.push(Metric::new(
        "sim.workload.draws_per_s",
        "1/s",
        if runner_self > 0.0 {
            draws / runner_self
        } else {
            0.0
        },
    ));

    out.push(Metric::new(
        "sim.batch.run_s",
        "s",
        wall("sim.batch.run_batch"),
    ));
    out.push(Metric::new("sim.batch.self_s", "s", batch_self));
    let requests = counter("sim.batch.requests");
    out.push(Metric::new(
        "sim.batch.cache_hit_ratio",
        "ratio",
        if requests > 0.0 {
            counter("sim.batch.cache_hits") / requests
        } else {
            0.0
        },
    ));
    out.push(Metric::new(
        "sim.batch.workers",
        "count",
        counter("sim.batch.workers"),
    ));

    // ir.artifact
    out.push(Metric::new(
        "ir.artifact.parse_s",
        "s",
        wall("ir.artifact.parse"),
    ));
    out.push(Metric::new(
        "ir.artifact.bytes",
        "count",
        counter("ir.artifact.bytes"),
    ));

    // nn: per-kind forward/backward, then the pipeline's other calls.
    let mut conv_s = 0.0;
    for kind in NN_KINDS {
        for dir in ["fwd", "bwd"] {
            let value = wall(&format!("nn.{kind}.{dir}"));
            if kind.starts_with("conv2d") {
                conv_s += value;
            }
            out.push(Metric::new(format!("nn.{kind}.{dir}_s"), "s", value));
        }
    }
    for call in ["loss", "sgd_step", "evaluate", "centrosymmetrize", "prune"] {
        out.push(Metric::new(
            format!("nn.{call}_s"),
            "s",
            wall(&format!("nn.{call}")),
        ));
    }
    let mut steps: Vec<f64> = spans
        .iter()
        .filter(|s| s.name == "nn.step")
        .map(|s| s.dur_s() * 1e3)
        .collect();
    steps.sort_by(f64::total_cmp);
    out.push(Metric::new(
        "nn.steps",
        "count",
        steps.len() as f64 * per_pass,
    ));
    out.push(Metric::new("nn.step_p50_ms", "ms", percentile(&steps, 0.5)));
    out.push(Metric::new("nn.step_p90_ms", "ms", percentile(&steps, 0.9)));

    // tensor: forward MACs; fwd+bwd is about 3x the forward MACs.
    let macs = counter("tensor.conv_macs");
    out.push(Metric::new("tensor.conv_macs", "count", macs));
    out.push(Metric::new(
        "tensor.conv_gmacs_per_s",
        "GMAC/s",
        if conv_s > 0.0 {
            3.0 * macs / conv_s * 1e-9
        } else {
            0.0
        },
    ));

    out.push(Metric::new("trace.overhead", "ratio", overhead));
    out.push(Metric::new("trace.coverage", "ratio", coverage));
    out
}

/// Share of `[lo, hi]` covered by the top-level spans (those without a
/// parent) — how much of a traced pass the spans account for.
pub fn coverage(spans: &[Span], lo: u64, hi: u64) -> f64 {
    let mut iv: Vec<(u64, u64)> = spans
        .iter()
        .filter(|s| s.parent.is_none())
        .map(|s| (s.start_ns, s.end_ns))
        .collect();
    if hi <= lo {
        return 0.0;
    }
    covered_ns(&mut iv, lo, hi) as f64 / (hi - lo) as f64
}
