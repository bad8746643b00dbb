//! Batched simulation intake: many annotated IR requests, one workload
//! cache, a bounded worker pool (see `docs/batching.md`).
//!
//! Serving-style traffic sends thousands of requests that share a handful
//! of network structures; re-synthesizing `LayerWorkload`s per request
//! would dominate the run. [`BatchRunner`] deduplicates requests behind a
//! workload cache: workloads are synthesized **exactly once** per unique
//! annotated IR (identical structure *and* identical annotations — the
//! synthesized sparse structure depends on both) and shared by reference
//! across the pool. Per-request results are bit-identical to sequential
//! [`Runner::run_ir`] calls, independent of worker count and scheduling
//! order, because the cache key is exact (hash probe + full `==`
//! confirmation) and each request is simulated from the same shared
//! workloads in isolation.

use std::convert::Infallible;
use std::sync::{Arc, Mutex, PoisonError};

use cscnn_ir::{ModelIr, SparsityAnnotation};

use crate::error::SimError;
use crate::interface::Accelerator;
use crate::report::RunStats;
use crate::runner::{run_pool, validate_ir, Runner};
use crate::util::{count_from_f64, det_sum, to_count, to_index};
use crate::workload::LayerWorkload;

/// Per-batch workload cache: annotated IR → synthesized workloads.
///
/// Keys are probed by [`ModelIr::annotated_hash`] and confirmed with full
/// `ModelIr` equality, so a hash collision can never alias two requests.
/// Synthesis happens under the cache lock, which is what makes the
/// exactly-once guarantee hold even when every worker requests the same
/// structure simultaneously; the (much heavier) per-layer simulation runs
/// outside the lock.
#[derive(Default)]
struct WorkloadCache {
    entries: Mutex<CacheState>,
}

#[derive(Default)]
struct CacheState {
    entries: Vec<CacheEntry>,
    hits: usize,
    misses: usize,
}

struct CacheEntry {
    hash: u64,
    ir: ModelIr,
    workloads: Arc<Vec<Option<LayerWorkload>>>,
}

impl WorkloadCache {
    /// Returns the shared workloads for `ir`, synthesizing on first sight.
    fn get_or_synthesize(
        &self,
        runner: &Runner,
        ir: &ModelIr,
        centro: bool,
    ) -> Result<Arc<Vec<Option<LayerWorkload>>>, SimError> {
        let hash = ir.annotated_hash();
        // A worker that panicked inside an accelerator model may have
        // poisoned the lock; the critical section only ever pushes fully
        // constructed entries, so the state is safe to adopt.
        let mut state = self.entries.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some(pos) = state
            .entries
            .iter()
            .position(|e| e.hash == hash && e.ir == *ir)
        {
            state.hits += 1;
            return Ok(state.entries[pos].workloads.clone());
        }
        let workloads: Arc<Vec<_>> = Arc::new(
            ir.nodes
                .iter()
                .map(|node| runner.node_workload(ir, node, centro))
                .collect::<Result<_, _>>()?,
        );
        state.misses += 1;
        state.entries.push(CacheEntry {
            hash,
            ir: ir.clone(),
            workloads: workloads.clone(),
        });
        Ok(workloads)
    }
}

/// Results of one batch: per-request stats in request order, plus the
/// cache counters and aggregate throughput/latency views.
#[derive(Clone, Debug, Default)]
pub struct BatchStats {
    /// Per-request results, in request order (request `i` of the input
    /// slice is `runs[i]`, exactly as [`Runner::run_ir`] would produce it).
    pub runs: Vec<RunStats>,
    /// Requests served from the workload cache.
    pub cache_hits: usize,
    /// Requests that synthesized a new cache entry — equivalently, the
    /// number of unique annotated IRs in the batch.
    pub cache_misses: usize,
    /// Per-request branch-overlapped makespans in request order, populated
    /// when the batch ran with [`BatchRunner::with_sub_arrays`] > 1 (empty
    /// otherwise). Each entry is [`crate::ScheduleStats::makespan_s`] for
    /// that request; per-node numbers in [`BatchStats::runs`] are
    /// unaffected by overlap.
    pub overlapped_latency_s: Vec<f64>,
}

impl BatchStats {
    /// Number of requests in the batch.
    pub fn requests(&self) -> usize {
        self.runs.len()
    }

    /// Unique annotated IRs the batch contained (= cache misses).
    pub fn unique_structures(&self) -> usize {
        self.cache_misses
    }

    /// Total compute cycles across all requests.
    pub fn total_cycles(&self) -> u64 {
        self.runs.iter().map(RunStats::total_cycles).sum()
    }

    /// Total on-chip energy across all requests, in pJ. Summed in request
    /// order with compensation so the total is bit-identical run to run.
    pub fn total_on_chip_pj(&self) -> f64 {
        det_sum(self.runs.iter().map(RunStats::total_on_chip_pj))
    }

    /// Simulated makespan in seconds: the batch processed back to back on
    /// one accelerator (sum of per-request latencies, in request order).
    pub fn makespan_s(&self) -> f64 {
        det_sum(self.runs.iter().map(RunStats::total_time_s))
    }

    /// Simulated makespan with branch overlap: the sum of per-request
    /// overlapped makespans. `None` when the batch ran sequentially
    /// (`sub_arrays == 1`), where [`BatchStats::makespan_s`] is the answer.
    pub fn overlapped_makespan_s(&self) -> Option<f64> {
        if self.overlapped_latency_s.is_empty() {
            return None;
        }
        Some(det_sum(self.overlapped_latency_s.iter().copied()))
    }

    /// Aggregate throughput in requests per simulated second
    /// (`requests / makespan`), or 0 for an empty batch.
    pub fn throughput_rps(&self) -> f64 {
        let makespan = self.makespan_s();
        if makespan <= 0.0 {
            return 0.0;
        }
        self.requests() as f64 / makespan
    }

    /// Nearest-rank percentile of per-request simulated latency.
    /// `p` is in `[0, 100]`; returns 0 for an empty batch.
    pub fn latency_percentile_s(&self, p: f64) -> f64 {
        if self.runs.is_empty() {
            return 0.0;
        }
        let mut latencies: Vec<f64> = self.runs.iter().map(RunStats::total_time_s).collect();
        latencies.sort_by(f64::total_cmp);
        let rank = to_index(count_from_f64(
            ((p / 100.0) * latencies.len() as f64).ceil(),
        ));
        latencies[rank.clamp(1, latencies.len()) - 1]
    }

    /// Median simulated request latency in seconds.
    pub fn p50_latency_s(&self) -> f64 {
        self.latency_percentile_s(50.0)
    }

    /// 95th-percentile simulated request latency in seconds.
    pub fn p95_latency_s(&self) -> f64 {
        self.latency_percentile_s(95.0)
    }

    /// The aggregate report as a JSON object (requests, unique structures,
    /// cache counters, cycles, energy, makespan, throughput, p50/p95
    /// latency) — what `sim_batch` prints.
    pub fn summary(&self) -> cscnn_json::Value {
        use cscnn_json::Value;
        let mut doc = Value::Obj(vec![
            ("requests".into(), Value::U64(to_count(self.requests()))),
            (
                "unique_structures".into(),
                Value::U64(to_count(self.unique_structures())),
            ),
            ("cache_hits".into(), Value::U64(to_count(self.cache_hits))),
            (
                "cache_misses".into(),
                Value::U64(to_count(self.cache_misses)),
            ),
            ("total_cycles".into(), Value::U64(self.total_cycles())),
            (
                "total_on_chip_pj".into(),
                Value::F64(self.total_on_chip_pj()),
            ),
            ("makespan_s".into(), Value::F64(self.makespan_s())),
            ("throughput_rps".into(), Value::F64(self.throughput_rps())),
            ("p50_latency_s".into(), Value::F64(self.p50_latency_s())),
            ("p95_latency_s".into(), Value::F64(self.p95_latency_s())),
        ]);
        if let (Value::Obj(pairs), Some(overlapped)) = (&mut doc, self.overlapped_makespan_s()) {
            pairs.push(("overlapped_makespan_s".into(), Value::F64(overlapped)));
        }
        doc
    }
}

/// Batched, multi-threaded intake over a [`Runner`].
///
/// # Example
///
/// ```
/// use cscnn_sim::{Accelerator, BatchRunner, CartesianAccelerator, Runner};
/// use cscnn_models::{catalog, lower, ModelCompression};
///
/// // One annotated structure, many requests.
/// let model = catalog::lenet5();
/// let acc = CartesianAccelerator::cscnn();
/// let mc = ModelCompression::new(model.clone(), acc.scheme());
/// let mut ir = lower::to_ir(&model);
/// for (i, node) in ir.weight_nodes_mut().enumerate() {
///     node.set_sparsity(cscnn_ir::SparsityAnnotation {
///         weight_density: mc.profile.weight_density[i],
///         activation_density: mc.profile.activation_density[i],
///     });
/// }
/// let batch = BatchRunner::new(Runner::new(42)).with_workers(2);
/// let stats = batch.run_batch(&acc, &vec![ir; 4]).unwrap();
/// assert_eq!(stats.requests(), 4);
/// assert_eq!(stats.unique_structures(), 1); // synthesized exactly once
/// ```
#[derive(Clone, Debug)]
pub struct BatchRunner {
    runner: Runner,
    workers: usize,
    sub_arrays: usize,
}

impl BatchRunner {
    /// Creates a batched intake over `runner`, sized by
    /// [`crate::util::configured_workers`]: the validated
    /// `CSCNN_NUM_THREADS` environment variable when set (one knob for
    /// both the tensor kernels and the simulation pool), else one worker
    /// per available CPU (falling back to 4 when parallelism cannot be
    /// queried). Results never depend on the worker count.
    ///
    /// # Panics
    ///
    /// Panics if `CSCNN_NUM_THREADS` is set but invalid.
    pub fn new(runner: Runner) -> Self {
        let workers = crate::util::configured_workers();
        BatchRunner {
            runner,
            workers,
            sub_arrays: 1,
        }
    }

    /// Overrides the worker-pool size (clamped to ≥ 1).
    #[must_use]
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers.max(1);
        self
    }

    /// Schedules each request's independent branches over `sub_arrays` PE
    /// sub-arrays (clamped to ≥ 1; default 1 = sequential). With more than
    /// one, [`BatchStats::overlapped_latency_s`] carries each request's
    /// overlapped makespan; per-node results stay bit-identical.
    #[must_use]
    pub fn with_sub_arrays(mut self, sub_arrays: usize) -> Self {
        self.sub_arrays = sub_arrays.max(1);
        self
    }

    /// The underlying sequential runner.
    pub fn runner(&self) -> &Runner {
        &self.runner
    }

    /// How many scoped worker threads [`BatchRunner::run_batch`] will spawn
    /// for a batch of `requests` entries — never more than the batch has
    /// requests, so small batches (or an empty one) cannot create idle
    /// threads.
    pub fn planned_workers(&self, requests: usize) -> usize {
        self.workers.min(requests)
    }

    /// Simulates every request of a batch on one accelerator.
    ///
    /// Requests run in request order on the simulation worker pool shared
    /// with [`Runner::run_suite`]; structurally identical requests (same
    /// annotated IR) share one workload synthesis through the cache.
    /// `stats.runs[i]` is bit-identical to `runner.run_ir(acc, &requests[i])`.
    ///
    /// # Errors
    ///
    /// The first failing request *by request index* (deterministic, not
    /// discovery order): [`SimError::BadTopology`],
    /// [`SimError::MissingSparsity`] or [`SimError::SparsityOutOfRange`]
    /// exactly as [`Runner::run_ir`] reports them, and
    /// [`SimError::WorkerPanicked`] naming the request's model when an
    /// accelerator model panics mid-simulation. Every worker is joined
    /// before returning.
    pub fn run_batch(
        &self,
        acc: &dyn Accelerator,
        requests: &[ModelIr],
    ) -> Result<BatchStats, SimError> {
        let centro = acc.scheme().uses_centrosymmetric();
        let cache = WorkloadCache::default();
        let order: Vec<usize> = (0..requests.len()).collect();
        let done = run_pool(&order, self.planned_workers(requests.len()), |i| {
            let ir = &requests[i];
            validate_ir(ir)?;
            let workloads = cache.get_or_synthesize(&self.runner, ir, centro)?;
            let cached = workloads.iter().map(|wl| Ok::<_, Infallible>(wl.as_ref()));
            let Ok(mut runs) =
                self.runner
                    .simulate_nodes(&[acc], &ir.name, |n| ir.predecessors(n), cached);
            let run = runs.remove(0);
            Ok(if self.sub_arrays > 1 {
                let sched = crate::schedule::overlap(ir, run, self.sub_arrays);
                (sched.run, Some(sched.makespan_s))
            } else {
                (run, None)
            })
        });

        let mut runs = Vec::with_capacity(requests.len());
        let mut overlapped_latency_s = Vec::new();
        for (result, ir) in done.into_iter().zip(requests) {
            let (run, makespan) = result.unwrap_or_else(|| {
                Err(SimError::WorkerPanicked {
                    model: ir.name.clone(),
                })
            })?;
            runs.push(run);
            overlapped_latency_s.extend(makespan);
        }
        let state = cache
            .entries
            .into_inner()
            .unwrap_or_else(PoisonError::into_inner);
        Ok(BatchStats {
            runs,
            cache_hits: state.hits,
            cache_misses: state.misses,
            overlapped_latency_s,
        })
    }

    /// Simulates one shared IR under many per-request annotation vectors —
    /// the "same network, different measured sparsity per request" shape of
    /// serving traffic. Each vector must carry exactly one annotation per
    /// weight-bearing node, in order; requests with identical vectors share
    /// one workload synthesis.
    ///
    /// # Errors
    ///
    /// [`SimError::AnnotationCount`] naming the first request whose vector
    /// length disagrees with the IR's weight-node count, plus everything
    /// [`BatchRunner::run_batch`] can return.
    pub fn run_batch_annotated(
        &self,
        acc: &dyn Accelerator,
        ir: &ModelIr,
        annotations: &[Vec<SparsityAnnotation>],
    ) -> Result<BatchStats, SimError> {
        let expected = ir.num_weight_nodes();
        let requests = annotations
            .iter()
            .enumerate()
            .map(|(request, anns)| {
                if anns.len() != expected {
                    return Err(SimError::AnnotationCount {
                        model: ir.name.clone(),
                        request,
                        expected,
                        got: anns.len(),
                    });
                }
                let mut annotated = ir.clone();
                for (node, ann) in annotated.weight_nodes_mut().zip(anns) {
                    node.set_sparsity(*ann);
                }
                Ok(annotated)
            })
            .collect::<Result<Vec<_>, _>>()?;
        self.run_batch(acc, &requests)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::tests::{annotated_ir, tiny_grouped, Exploding};
    use crate::CartesianAccelerator;
    use cscnn_models::{catalog, lower};

    #[test]
    fn batch_matches_sequential_and_dedups_synthesis() {
        let acc = CartesianAccelerator::cscnn();
        let ir = annotated_ir(&catalog::lenet5(), &acc);
        let runner = Runner::new(42);
        let batch = BatchRunner::new(runner.clone()).with_workers(4);
        let requests = vec![ir.clone(); 16];
        let stats = batch.run_batch(&acc, &requests).expect("annotated batch");
        assert_eq!(stats.requests(), 16);
        assert_eq!(stats.cache_misses, 1, "synthesized exactly once");
        assert_eq!(stats.cache_hits, 15);
        let sequential = runner.run_ir(&acc, &ir).expect("annotated IR");
        for run in &stats.runs {
            assert_eq!(run.total_cycles(), sequential.total_cycles());
            assert_eq!(run.total_on_chip_pj(), sequential.total_on_chip_pj());
            assert_eq!(run.model, sequential.model);
        }
    }

    #[test]
    fn mixed_batch_keeps_request_order() {
        let acc = CartesianAccelerator::cscnn();
        let lenet = annotated_ir(&catalog::lenet5(), &acc);
        let convnet = annotated_ir(&catalog::convnet(), &acc);
        let requests = vec![lenet.clone(), convnet.clone(), lenet, convnet];
        let stats = BatchRunner::new(Runner::new(7))
            .with_workers(3)
            .run_batch(&acc, &requests)
            .expect("annotated batch");
        assert_eq!(stats.cache_misses, 2);
        assert_eq!(stats.cache_hits, 2);
        let models: Vec<&str> = stats.runs.iter().map(|r| r.model.as_str()).collect();
        assert_eq!(models, ["LeNet-5", "ConvNet", "LeNet-5", "ConvNet"]);
    }

    #[test]
    fn unannotated_request_fails_with_first_index_error() {
        let acc = CartesianAccelerator::cscnn();
        let good = annotated_ir(&catalog::lenet5(), &acc);
        let bare = lower::to_ir(&catalog::lenet5());
        let err = BatchRunner::new(Runner::new(1))
            .run_batch(&acc, &[good, bare])
            .expect_err("second request unannotated");
        assert!(matches!(err, SimError::MissingSparsity { .. }));
    }

    #[test]
    fn annotation_vectors_expand_and_validate() {
        let acc = CartesianAccelerator::cscnn();
        let ir = annotated_ir(&catalog::lenet5(), &acc);
        let n = ir.num_weight_nodes();
        let anns: Vec<SparsityAnnotation> = (0..n)
            .map(|i| SparsityAnnotation {
                weight_density: 0.3 + 0.05 * i as f64,
                activation_density: 0.9,
            })
            .collect();
        let batch = BatchRunner::new(Runner::new(5)).with_workers(2);
        let stats = batch
            .run_batch_annotated(&acc, &ir, &[anns.clone(), anns.clone()])
            .expect("matching annotation vectors");
        assert_eq!(stats.requests(), 2);
        assert_eq!(stats.cache_misses, 1, "identical vectors share synthesis");
        let err = batch
            .run_batch_annotated(&acc, &ir, &[anns[..n - 1].to_vec()])
            .expect_err("short vector");
        assert_eq!(
            err,
            SimError::AnnotationCount {
                model: "LeNet-5".into(),
                request: 0,
                expected: n,
                got: n - 1,
            }
        );
    }

    #[test]
    fn empty_batch_is_well_defined() {
        let acc = CartesianAccelerator::cscnn();
        let stats = BatchRunner::new(Runner::new(1))
            .run_batch(&acc, &[])
            .expect("empty batch");
        assert_eq!(stats.requests(), 0);
        assert_eq!(stats.throughput_rps(), 0.0);
        assert_eq!(stats.p95_latency_s(), 0.0);
        assert_eq!(stats.summary()["requests"], 0u64);
        assert_eq!(stats.overlapped_makespan_s(), None);
    }

    #[test]
    fn small_batches_never_plan_idle_workers() {
        // Regression: a batch smaller than the pool used to spawn
        // `min(workers, max(requests, 1))` scoped threads — one idle thread
        // for an empty batch. The spawn count must never exceed the request
        // count.
        let batch = BatchRunner::new(Runner::new(1)).with_workers(8);
        assert_eq!(batch.planned_workers(0), 0, "empty batch spawns nothing");
        assert_eq!(batch.planned_workers(3), 3);
        assert_eq!(batch.planned_workers(100), 8);
        for requests in 0..12 {
            assert!(batch.planned_workers(requests) <= requests);
        }
    }

    #[test]
    fn batch_validates_topology_like_run_ir() {
        use cscnn_ir::IrEdge;
        let acc = CartesianAccelerator::cscnn();
        let mut bad = annotated_ir(&catalog::lenet5(), &acc);
        bad.edges.push(IrEdge::new(0, bad.nodes.len() + 5));
        let err = BatchRunner::new(Runner::new(3))
            .run_batch(&acc, &[bad])
            .expect_err("dangling edge");
        assert!(matches!(err, SimError::BadTopology { .. }), "{err}");
    }

    #[test]
    fn sub_arrays_surface_overlapped_makespans() {
        let acc = CartesianAccelerator::cscnn();
        // LeNet-5 is a linear chain: overlap must change nothing but still
        // report per-request makespans equal to the sequential sums.
        let ir = annotated_ir(&catalog::lenet5(), &acc);
        let stats = BatchRunner::new(Runner::new(6))
            .with_workers(2)
            .with_sub_arrays(4)
            .run_batch(&acc, &[ir.clone(), ir])
            .expect("annotated batch");
        assert_eq!(stats.overlapped_latency_s.len(), 2);
        for (run, &overlapped) in stats.runs.iter().zip(&stats.overlapped_latency_s) {
            assert!((overlapped - run.total_time_s()).abs() <= 1e-12 * run.total_time_s());
        }
        let summary = stats.summary();
        assert!(summary.get("overlapped_makespan_s").is_some());
    }

    #[test]
    fn aggregate_percentiles_are_order_statistics() {
        let mk = |t: f64| RunStats {
            layers: vec![crate::report::LayerStats {
                time_s: t,
                ..Default::default()
            }],
            ..Default::default()
        };
        let stats = BatchStats {
            runs: (1..=20).map(|i| mk(i as f64)).collect(),
            cache_hits: 0,
            cache_misses: 20,
            ..Default::default()
        };
        assert_eq!(stats.p50_latency_s(), 10.0);
        assert_eq!(stats.p95_latency_s(), 19.0);
        assert_eq!(stats.latency_percentile_s(100.0), 20.0);
        assert_eq!(stats.latency_percentile_s(0.0), 1.0);
        assert!((stats.makespan_s() - 210.0).abs() < 1e-12);
        assert!((stats.throughput_rps() - 20.0 / 210.0).abs() < 1e-12);
    }

    #[test]
    fn panicking_accelerator_fails_only_with_a_typed_error() {
        let ir = annotated_ir(&catalog::lenet5(), &CartesianAccelerator::cscnn());
        let err = BatchRunner::new(Runner::new(2))
            .with_workers(2)
            .run_batch(&Exploding(&["C1"]), &[ir])
            .expect_err("accelerator panics");
        assert_eq!(
            err,
            SimError::WorkerPanicked {
                model: "LeNet-5".into()
            }
        );
    }

    #[test]
    fn lowest_index_failure_is_named_across_workers() {
        // LeNet-5 has a layer `C3` and ConvNet a layer `conv3`; the tiny
        // model has neither. Several requests fail on different workers,
        // and the error always names the lowest-index one.
        let cscnn = CartesianAccelerator::cscnn();
        let tiny = annotated_ir(&tiny_grouped(), &cscnn);
        let lenet = annotated_ir(&catalog::lenet5(), &cscnn);
        let convnet = annotated_ir(&catalog::convnet(), &cscnn);
        let batch = BatchRunner::new(Runner::new(8)).with_workers(3);
        let acc = Exploding(&["C3", "conv3"]);
        for (requests, named) in [
            (
                vec![
                    tiny.clone(),
                    convnet.clone(),
                    lenet.clone(),
                    convnet.clone(),
                ],
                "ConvNet",
            ),
            (vec![tiny.clone(), tiny, lenet, convnet], "LeNet-5"),
        ] {
            let err = batch.run_batch(&acc, &requests).expect_err("requests fail");
            assert_eq!(
                err,
                SimError::WorkerPanicked {
                    model: named.into()
                }
            );
        }
    }

    #[test]
    fn run_batch_rejects_out_of_range_sparsity_by_request_index() {
        let acc = CartesianAccelerator::cscnn();
        let good = annotated_ir(&catalog::lenet5(), &acc);
        let bad = |weight_density: f64| {
            let mut ir = good.clone();
            ir.weight_nodes_mut()
                .next()
                .expect("LeNet-5 has weight layers")
                .set_sparsity(SparsityAnnotation {
                    weight_density,
                    activation_density: 0.5,
                });
            ir
        };
        let err = BatchRunner::new(Runner::new(1))
            .with_workers(2)
            .run_batch(&acc, &[good.clone(), bad(1.5), good.clone(), bad(f64::NAN)])
            .expect_err("second request out of range");
        assert!(
            matches!(&err, SimError::SparsityOutOfRange { layer, field, value }
                if layer == "C1" && *field == "weight_density" && *value == 1.5),
            "{err}"
        );
    }
}
