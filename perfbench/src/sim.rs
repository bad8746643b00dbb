//! The simulator workloads: the Fig. 7 evaluation suite and a batch of IR
//! artifacts through `BatchRunner`.

use std::borrow::Cow;
use std::collections::HashMap;

use cscnn::ir::{ModelIr, SparsityAnnotation};
use cscnn::models::ModelDesc;
use cscnn::models::{catalog, lower, CompressionScheme, LayerDesc, LayerKind, ModelCompression};
use cscnn::sim::interface::{Characteristics, LayerContext};
use cscnn::sim::tiling::{self, TilingStrategy};
use cscnn::sim::{
    baselines, geomean, Accelerator, ArchConfig, BatchRunner, BatchStats, CartesianAccelerator,
    LayerStats, RunStats, Runner,
};
use cscnn_rng::rngs::StdRng;
use cscnn_rng::{Rng, SeedableRng};

use crate::digest::run_line;
use crate::spans::Recorder;
use crate::workload::{Pass, Scale, Workload};

/// Binomial draws workload synthesis makes for one layer: one per
/// `(k, c/groups)` slice of a conv, one per output neuron of an FC layer.
fn weight_draws(layer: &LayerDesc) -> u64 {
    let draws = if layer.kind == LayerKind::FullyConnected {
        layer.k
    } else {
        layer.k * (layer.c / layer.groups)
    };
    draws as u64
}

/// An accelerator that delegates every method to `inner` and records a
/// span around `simulate_layer`. For the Cartesian accelerators it also
/// replays `tiling::plan` on the workload the layer saw, in a span of its
/// own, because the plan is computed inside `simulate_layer` where the
/// benchmark cannot reach.
struct TracedAccelerator<'a> {
    inner: &'a dyn Accelerator,
    rec: &'a Recorder,
    /// Parent for spans opened on threads the program started itself.
    fallback_parent: Option<usize>,
    /// The tiling strategy to replay (Cartesian accelerators only).
    tiling: Option<TilingStrategy>,
    /// Whether each simulated layer was synthesized just before (true for
    /// `Runner::run_model`; the batch cache synthesizes only on a miss).
    count_draws: bool,
}

impl Accelerator for TracedAccelerator<'_> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn scheme(&self) -> CompressionScheme {
        self.inner.scheme()
    }

    fn config(&self) -> ArchConfig {
        self.inner.config()
    }

    fn characteristics(&self) -> Characteristics {
        self.inner.characteristics()
    }

    fn simulate_layer(&self, ctx: &LayerContext<'_>) -> LayerStats {
        let labels = vec![("accelerator", Cow::Borrowed(self.inner.name()))];
        let stats = {
            let _span = self
                .rec
                .span_in("sim.accel.simulate_layer", self.fallback_parent, labels);
            self.inner.simulate_layer(ctx)
        };
        let layer = &ctx.workload.layer;
        if self.count_draws {
            self.rec
                .count("sim.workload.weight_draws", weight_draws(layer) as f64);
        }
        if let Some(strategy) = self.tiling {
            if layer.kind != LayerKind::FullyConnected {
                let _span = self
                    .rec
                    .span_in("sim.tiling.plan", self.fallback_parent, Vec::new());
                // Both Cartesian accelerators plan with density-sorted
                // filter balancing.
                std::hint::black_box(tiling::plan(ctx.cfg, ctx.workload, strategy, true));
                self.rec.count("sim.tiling.plans", 1.0);
            }
        }
        stats
    }
}

/// `Runner::run_suite` over the 9 evaluation accelerators and the 9
/// evaluation networks (Figs. 7–10).
pub struct EvalSuite {
    runner: Runner,
    accelerators: Vec<Box<dyn Accelerator>>,
    models: Vec<ModelDesc>,
    /// Whether the paper's headline factors apply (the full suite only).
    headline: bool,
}

impl EvalSuite {
    pub fn new(seed: u64, scale: Scale) -> Self {
        let models = match scale {
            Scale::Full => catalog::evaluation_suite(),
            Scale::Tiny => vec![catalog::lenet5(), catalog::convnet()],
        };
        let suite = EvalSuite {
            runner: Runner::new(seed),
            accelerators: baselines::evaluation_accelerators(),
            models,
            headline: scale == Scale::Full,
        };
        // Warm-up: every accelerator on the three smallest networks.
        let warm = [catalog::lenet5(), catalog::convnet(), catalog::alexnet()];
        std::hint::black_box(suite.runner.run_suite(&suite.accelerators, &warm)).ok();
        suite
    }

    fn lines(&self, rows: &[Vec<RunStats>]) -> Vec<String> {
        let mut lines: Vec<String> = rows
            .iter()
            .flatten()
            .map(|run| run_line(&format!("{} {}", run.model, run.accelerator), run))
            .collect();
        if self.headline {
            lines.push(match paper_err(rows) {
                Ok(err) => format!("paper_err={:016x} value={err}", err.to_bits()),
                Err(why) => format!("ERR paper_err: {why}"),
            });
        }
        lines
    }

    fn operations(&self) -> usize {
        self.models.len() * self.accelerators.len() + usize::from(self.headline)
    }

    fn items(&self) -> u64 {
        let layers: usize = self.models.iter().map(|m| m.layers.len()).sum();
        (layers * self.accelerators.len()) as u64
    }

    fn failed(&self, why: &str) -> Pass {
        Pass {
            items: 0,
            lines: vec![format!("ERR {why}"); self.operations()],
        }
    }
}

/// Mean relative error of CSCNN's 16 headline factors (geomean speedup and
/// on-chip energy gain over each of the 8 baselines) against the paper.
fn paper_err(rows: &[Vec<RunStats>]) -> Result<f64, String> {
    let headline = cscnn_bench::paper::headline_factors();
    let mut errors = Vec::with_capacity(2 * headline.len());
    for (bi, (name, speedup_ref, energy_ref, _)) in headline.into_iter().enumerate() {
        let mut speedups = Vec::with_capacity(rows.len());
        let mut gains = Vec::with_capacity(rows.len());
        for row in rows {
            let cscnn = row.last().ok_or("empty row")?;
            let base = row.get(bi).ok_or("missing baseline")?;
            if base.accelerator != name || cscnn.accelerator != "CSCNN" {
                return Err(format!("accelerator order: {} vs {name}", base.accelerator));
            }
            speedups.push(base.total_time_s() / cscnn.total_time_s());
            gains.push(base.total_on_chip_pj() / cscnn.total_on_chip_pj());
        }
        errors.push((geomean(&speedups) - speedup_ref).abs() / speedup_ref);
        errors.push((geomean(&gains) - energy_ref).abs() / energy_ref);
    }
    Ok(errors.iter().sum::<f64>() / errors.len() as f64)
}

impl Workload for EvalSuite {
    fn pass(&mut self) -> Pass {
        match self.runner.run_suite(&self.accelerators, &self.models) {
            Ok(rows) => Pass {
                items: self.items(),
                lines: self.lines(&rows),
            },
            Err(err) => self.failed(&err.to_string()),
        }
    }

    /// Drives `Runner::run_model` per (model, accelerator) on one thread
    /// per model, which is what `run_suite` runs on each of its workers.
    fn traced_pass(&mut self, rec: &Recorder) -> Pass {
        let runner = &self.runner;
        let accelerators = &self.accelerators;
        let joined: Vec<std::thread::Result<Vec<RunStats>>> = std::thread::scope(|scope| {
            let handles: Vec<_> = self
                .models
                .iter()
                .map(|model| {
                    scope.spawn(move || {
                        accelerators
                            .iter()
                            .map(|acc| {
                                let tiling = match acc.name() {
                                    "SCNN" => Some(CartesianAccelerator::scnn().tiling()),
                                    "CSCNN" => Some(CartesianAccelerator::cscnn().tiling()),
                                    _ => None,
                                };
                                let traced = TracedAccelerator {
                                    inner: acc.as_ref(),
                                    rec,
                                    fallback_parent: None,
                                    tiling,
                                    count_draws: true,
                                };
                                let labels = vec![
                                    ("model", Cow::Owned(model.name.clone())),
                                    ("accelerator", Cow::Borrowed(acc.name())),
                                ];
                                let _span = rec.span_in("sim.runner.run_model", None, labels);
                                runner.run_model(&traced, model)
                            })
                            .collect()
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join()).collect()
        });
        let mut rows = Vec::with_capacity(joined.len());
        for row in joined {
            match row {
                Ok(row) => rows.push(row),
                Err(_) => return self.failed("traced worker panicked"),
            }
        }
        Pass {
            items: self.items(),
            lines: self.lines(&rows),
        }
    }

    /// Re-simulates the three smallest networks sequentially with
    /// `Runner::run_model` and compares their lines.
    fn cross_check(&self, lines: &[String]) -> Vec<String> {
        let mut models: Vec<&ModelDesc> = self.models.iter().collect();
        models.sort_by_key(|m| m.layers.len());
        let mut problems = Vec::new();
        for model in models.into_iter().take(3) {
            for acc in &self.accelerators {
                let run = self.runner.run_model(acc.as_ref(), model);
                let expected = run_line(&format!("{} {}", model.name, acc.name()), &run);
                if !lines.contains(&expected) {
                    problems.push(format!("sequential run differs: {expected}"));
                }
            }
        }
        problems
    }

    fn settings(&self) -> Vec<(&'static str, String)> {
        vec![
            ("models", self.models.len().to_string()),
            ("accelerators", self.accelerators.len().to_string()),
            ("layer_simulations_per_pass", self.items().to_string()),
            // `run_suite` starts one thread per model and does not read
            // CSCNN_NUM_THREADS.
            ("threads_started", self.models.len().to_string()),
        ]
    }
}

/// Sub-arrays the batch schedules independent branches over.
const SUB_ARRAYS: usize = 4;
/// Appearances of each distinct request in the stream.
const COPIES: usize = 3;

/// A seeded stream of annotated DAG IR artifacts, parsed from JSON and run
/// through `BatchRunner::run_batch` on CSCNN.
pub struct BatchIr {
    seed: u64,
    acc: CartesianAccelerator,
    batch: BatchRunner,
    /// The request stream as serialized artifacts.
    stream: Vec<String>,
    /// Distinct requests in the stream (the cache misses).
    unique: usize,
    /// Weight draws the distinct requests' synthesis makes.
    unique_draws: u64,
}

impl BatchIr {
    /// Builds the request mix: a third of the requests carry their own
    /// densities (perturbed from the calibrated CSCNN+Pruning profile, as
    /// a measured network would); the rest repeat an earlier request
    /// exactly. Every artifact is serialized here, in set-up.
    pub fn new(seed: u64, scale: Scale) -> Result<Self, String> {
        let acc = CartesianAccelerator::cscnn();
        let (bases, distinct_per_base) = match scale {
            Scale::Full => (
                vec![
                    catalog::resnet18_ir(),
                    catalog::resnet50_ir(),
                    catalog::googlenet_ir(),
                    catalog::mobilenet_v1_ir(),
                    catalog::squeezenet_ir(),
                    catalog::alexnet_ir(),
                ],
                2,
            ),
            Scale::Tiny => (vec![catalog::squeezenet_ir(), catalog::alexnet_ir()], 1),
        };
        let mut profiles = Vec::with_capacity(bases.len());
        for ir in &bases {
            let desc = lower::to_model_desc(ir).map_err(|e| e.to_string())?;
            profiles.push(ModelCompression::new(desc, acc.scheme()).profile);
        }
        let mut rng = StdRng::seed_from_u64(seed ^ 0xba7c_41e5);
        let mut distinct: Vec<String> = Vec::with_capacity(distinct_per_base * bases.len());
        let mut unique_draws = 0u64;
        for (ir, profile) in bases.iter().zip(&profiles) {
            for _ in 0..distinct_per_base {
                let mut ir = ir.clone();
                for (i, node) in ir.weight_nodes_mut().enumerate() {
                    let w: f64 = rng.gen_range(0.85..1.15);
                    let a: f64 = rng.gen_range(0.85..1.15);
                    node.set_sparsity(SparsityAnnotation {
                        weight_density: (profile.weight_density[i] * w).clamp(0.05, 1.0),
                        activation_density: (profile.activation_density[i] * a).clamp(0.05, 1.0),
                    });
                }
                unique_draws += ir
                    .nodes
                    .iter()
                    .filter_map(lower::layer_desc)
                    .map(|l| weight_draws(&l))
                    .sum::<u64>();
                distinct.push(ir.to_json_string());
            }
        }
        // The stream is `COPIES` rounds; each round holds every distinct
        // request once, bases in a seeded order and the variants of a base
        // side by side, so the first round is all cache misses and the
        // later ones repeat earlier requests exactly. `BatchRunner` deals
        // requests to workers by stride, so with an even worker count each
        // worker gets the same networks whatever the seed.
        let mut stream: Vec<String> = Vec::with_capacity(COPIES * distinct.len());
        let mut order: Vec<usize> = (0..bases.len()).collect();
        for _ in 0..COPIES {
            for i in (1..order.len()).rev() {
                order.swap(i, rng.gen_range(0..=i));
            }
            for &b in &order {
                let variants = &distinct[b * distinct_per_base..(b + 1) * distinct_per_base];
                stream.extend(variants.iter().cloned());
            }
        }
        let batch = BatchRunner::new(Runner::new(seed)).with_sub_arrays(SUB_ARRAYS);
        let workload = BatchIr {
            seed,
            acc,
            batch,
            unique: distinct.len(),
            stream,
            unique_draws,
        };
        // Warm-up: parse every artifact, and run the smallest network (the
        // last base) alone.
        let irs: Vec<ModelIr> = workload
            .stream
            .iter()
            .filter_map(|text| ModelIr::from_json_str(text).ok())
            .collect();
        let smallest =
            ModelIr::from_json_str(&distinct[distinct.len() - 1]).map_err(|e| e.to_string())?;
        std::hint::black_box(irs);
        std::hint::black_box(workload.batch.run_batch(&workload.acc, &[smallest])).ok();
        Ok(workload)
    }

    /// Runs the parsed requests as one batch; `rejected[i]` holds the
    /// parse error of request `i`, if any.
    fn run(&self, parsed: Vec<Result<ModelIr, String>>, acc: &dyn Accelerator) -> Pass {
        let mut rejected = Vec::with_capacity(parsed.len());
        let mut irs = Vec::with_capacity(parsed.len());
        for ir in parsed {
            match ir {
                Ok(ir) => {
                    irs.push(ir);
                    rejected.push(None);
                }
                Err(why) => rejected.push(Some(why)),
            }
        }
        let lines = match self.batch.run_batch(acc, &irs) {
            Ok(stats) => Self::lines(&rejected, &stats),
            Err(err) => vec![format!("ERR {err}"); self.stream.len() + 1],
        };
        Pass {
            items: self.stream.len() as u64,
            lines,
        }
    }

    fn lines(rejected: &[Option<String>], stats: &BatchStats) -> Vec<String> {
        let mut runs = stats.runs.iter().zip(&stats.overlapped_latency_s);
        let mut lines = Vec::with_capacity(rejected.len() + 1);
        for (i, why) in rejected.iter().enumerate() {
            lines.push(match (why, runs.next()) {
                (Some(why), _) => format!("ERR req{i:02} artifact rejected: {why}"),
                (None, Some((run, makespan))) => format!(
                    "req{i:02} {} makespan={:016x}",
                    run_line(&run.model, run),
                    makespan.to_bits()
                ),
                (None, None) => format!("ERR req{i:02} missing from the batch result"),
            });
        }
        lines.push(format!(
            "cache hits={} misses={}",
            stats.cache_hits, stats.cache_misses
        ));
        lines
    }
}

impl Workload for BatchIr {
    fn pass(&mut self) -> Pass {
        let parsed: Vec<Result<ModelIr, String>> = self
            .stream
            .iter()
            .map(|text| ModelIr::from_json_str(text).map_err(|e| e.to_string()))
            .collect();
        self.run(parsed, &self.acc)
    }

    fn traced_pass(&mut self, rec: &Recorder) -> Pass {
        let parsed: Vec<Result<ModelIr, String>> = self
            .stream
            .iter()
            .map(|text| {
                let _span = rec.span("ir.artifact.parse");
                rec.count("ir.artifact.bytes", text.len() as f64);
                ModelIr::from_json_str(text).map_err(|e| e.to_string())
            })
            .collect();
        let span = rec.span("sim.batch.run_batch");
        let traced = TracedAccelerator {
            inner: &self.acc,
            rec,
            fallback_parent: Some(span.id()),
            tiling: None,
            count_draws: false,
        };
        let pass = self.run(parsed, &traced);
        drop(span);
        let requests = self.stream.len();
        let hits = requests - self.unique;
        rec.count("sim.batch.cache_hits", hits as f64);
        rec.count("sim.batch.requests", requests as f64);
        rec.count(
            "sim.batch.workers",
            self.batch.planned_workers(requests) as f64,
        );
        rec.count("sim.workload.weight_draws", self.unique_draws as f64);
        pass
    }

    /// Recomputes every request with `Runner::run_ir_overlapped`, and the
    /// cache counts from the number of distinct requests.
    fn cross_check(&self, lines: &[String]) -> Vec<String> {
        let runner = Runner::new(self.seed);
        let mut memo: HashMap<&str, String> = HashMap::new();
        let mut problems = Vec::new();
        for (i, text) in self.stream.iter().enumerate() {
            let expected =
                memo.entry(text.as_str()).or_insert_with(|| {
                    match ModelIr::from_json_str(text)
                        .map_err(|e| e.to_string())
                        .and_then(|ir| {
                            runner
                                .run_ir_overlapped(&self.acc, &ir, SUB_ARRAYS)
                                .map_err(|e| e.to_string())
                        }) {
                        Ok(sched) => format!(
                            "{} makespan={:016x}",
                            run_line(&sched.run.model, &sched.run),
                            sched.makespan_s.to_bits()
                        ),
                        Err(why) => format!("sequential run failed: {why}"),
                    }
                });
            let expected = format!("req{i:02} {expected}");
            if lines.get(i) != Some(&expected) {
                problems.push(format!("sequential run differs: {expected}"));
            }
        }
        let cache = format!(
            "cache hits={} misses={}",
            self.stream.len() - self.unique,
            self.unique
        );
        if lines.last() != Some(&cache) {
            problems.push(format!("expected `{cache}`"));
        }
        problems
    }

    fn settings(&self) -> Vec<(&'static str, String)> {
        let requests = self.stream.len();
        let bytes: usize = self.stream.iter().map(String::len).sum();
        vec![
            ("requests", requests.to_string()),
            ("distinct_requests", self.unique.to_string()),
            ("artifact_bytes", bytes.to_string()),
            ("sub_arrays", SUB_ARRAYS.to_string()),
            (
                "threads_started",
                self.batch.planned_workers(requests).to_string(),
            ),
        ]
    }
}
