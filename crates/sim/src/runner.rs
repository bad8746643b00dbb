//! Whole-network and suite simulation driver.

use std::borrow::Borrow;
use std::cmp::Reverse;
use std::convert::Infallible;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};

use cscnn_ir::{LayerNode, ModelIr};
use cscnn_models::{CompressionScheme, LayerKind, ModelCompression, ModelDesc};

use crate::dram::DramConfig;
use crate::energy::EnergyTable;
use crate::error::SimError;
use crate::interface::{Accelerator, LayerContext};
use crate::report::RunStats;
use crate::schedule::ScheduleStats;
use crate::util;
use crate::workload::LayerWorkload;
use crate::ArchConfig;

/// Drives layer-by-layer simulation of whole networks across accelerators.
///
/// # Example
///
/// ```
/// use cscnn_sim::{CartesianAccelerator, Runner};
/// use cscnn_models::catalog;
///
/// let runner = Runner::new(42);
/// let stats = runner.run_model(&CartesianAccelerator::cscnn(), &catalog::lenet5());
/// assert_eq!(stats.layers.len(), catalog::lenet5().layers.len());
/// ```
#[derive(Clone, Debug)]
pub struct Runner {
    dram: DramConfig,
    energy: EnergyTable,
    seed: u64,
}

impl Runner {
    /// Creates a runner with default DRAM/energy models and a workload seed.
    pub fn new(seed: u64) -> Self {
        Runner {
            dram: DramConfig::default(),
            energy: EnergyTable::default(),
            seed,
        }
    }

    /// Overrides the DRAM model.
    pub fn with_dram(mut self, dram: DramConfig) -> Self {
        self.dram = dram;
        self
    }

    /// Simulates one model on one accelerator, layer by layer.
    ///
    /// Workload synthesis uses the accelerator's compression scheme
    /// (Table IV): CSCNN runs the CSCNN+Pruning model, sparse baselines run
    /// the Deep-Compression model, DCNN runs the dense model. Layer inputs
    /// are considered on-chip when the previous layer's output fit in the
    /// global buffer.
    pub fn run_model(&self, acc: &dyn Accelerator, model: &ModelDesc) -> RunStats {
        // One accelerator in, one run out.
        self.simulate_chain(&[acc], acc.scheme(), model).remove(0)
    }

    /// Simulates a `ModelDesc` as a linear chain on a group of accelerators
    /// that share the compression `scheme`: the calibrated profile supplies
    /// each layer's densities, and each layer's workload is synthesized on
    /// the spot and dropped after the layer.
    fn simulate_chain(
        &self,
        accs: &[&dyn Accelerator],
        scheme: CompressionScheme,
        model: &ModelDesc,
    ) -> Vec<RunStats> {
        debug_assert!(accs.iter().all(|acc| acc.scheme() == scheme));
        let centro = scheme.uses_centrosymmetric();
        let profile = ModelCompression::new(model.clone(), scheme).profile;
        let workloads = model.layers.iter().enumerate().map(|(i, layer)| {
            Ok::<_, Infallible>(Some(LayerWorkload::synthesize(
                layer,
                profile.weight_density[i],
                profile.activation_density[i],
                centro,
                workload_seed(self.seed, &model.name, &layer.name),
            )))
        });
        let chain = |i: usize| i.checked_sub(1).into_iter().collect();
        let Ok(runs) = self.simulate_nodes(accs, &model.name, chain, workloads);
        runs
    }

    /// Synthesizes the workload of `node`, one of `ir`'s nodes, seeded by
    /// the model and node names (`None` for a node the simulator does not
    /// time). Seeds never depend on list position, so workloads are
    /// invariant under topological reordering of the node list.
    ///
    /// # Errors
    ///
    /// Those of [`LayerWorkload::from_node`].
    pub(crate) fn node_workload(
        &self,
        ir: &ModelIr,
        node: &LayerNode,
        centro: bool,
    ) -> Result<Option<LayerWorkload>, SimError> {
        let seed = workload_seed(self.seed, &ir.name, node.name().unwrap_or(""));
        LayerWorkload::from_node(node, centro, seed)
    }

    /// The one per-node timing loop behind [`Runner::run_model`],
    /// [`Runner::run_suite`], [`Runner::run_ir`] and
    /// [`crate::BatchRunner`]. It walks a model's nodes in order and times
    /// each timed node on every accelerator of `accs`.
    ///
    /// `workloads` yields node `i`'s workload, or `None` for a node the
    /// simulator does not time (skipped in the reported layer list). It
    /// either synthesizes each workload on the spot, so one is alive at a
    /// time, or borrows it from the batch cache; the first error it
    /// yields is returned. A node's input counts as on-chip when it has
    /// predecessors (`preds(i)`) and *every* one produced an output that
    /// fit in the global buffer; untimed nodes pass their input status
    /// through, and a graph source streams from DRAM. For a linear chain
    /// this is the previous-layer rule. Each accelerator keeps its own
    /// [`ArchConfig`] and its own on-chip chain, so `runs[j]` is
    /// bit-identical to timing `accs[j]` alone.
    pub(crate) fn simulate_nodes<W: Borrow<LayerWorkload>, E>(
        &self,
        accs: &[&dyn Accelerator],
        model: &str,
        preds: impl Fn(usize) -> Vec<usize>,
        workloads: impl Iterator<Item = Result<Option<W>, E>>,
    ) -> Result<Vec<RunStats>, E> {
        // Result vectors are sized up front: growing them between large
        // workload allocations fragments the heap and raises peak memory.
        let nodes = workloads.size_hint().0;
        let cfgs: Vec<ArchConfig> = accs.iter().map(|acc| acc.config()).collect();
        let mut runs: Vec<RunStats> = accs
            .iter()
            .map(|acc| RunStats {
                accelerator: acc.name().to_string(),
                model: model.to_string(),
                layers: Vec::with_capacity(nodes),
            })
            .collect();
        // on_chip[i * accs.len() + j]: whether node i's output is resident
        // in accelerator j's global buffer for its consumers.
        let mut on_chip: Vec<bool> = Vec::with_capacity(nodes * accs.len());
        for (i, slot) in workloads.enumerate() {
            let preds = preds(i);
            let slot = slot?;
            let wl: Option<&LayerWorkload> = slot.as_ref().map(Borrow::borrow);
            for (j, ((acc, cfg), run)) in accs.iter().zip(&cfgs).zip(&mut runs).enumerate() {
                let input_on_chip =
                    !preds.is_empty() && preds.iter().all(|&p| on_chip[p * accs.len() + j]);
                let Some(wl) = wl else {
                    on_chip.push(input_on_chip);
                    continue;
                };
                let out_bytes = util::to_index(wl.layer.output_activations()) * cfg.word_bits / 8;
                let output_fits = out_bytes <= cfg.glb_bytes;
                let ctx = LayerContext {
                    cfg,
                    dram: &self.dram,
                    energy: &self.energy,
                    workload: wl,
                    input_on_chip,
                    output_fits_on_chip: output_fits,
                };
                run.layers.push(acc.simulate_layer(&ctx));
                on_chip.push(output_fits);
            }
        }
        Ok(runs)
    }

    /// Simulates an annotated typed IR model (`Ir → LayerWorkload`
    /// lowering). Weight-bearing nodes must carry measured
    /// [`cscnn_ir::SparsityAnnotation`]s (see
    /// `cscnn::bridge::simulate_trained`); the other node kinds — including
    /// the `Add`/`Concat` joins of DAG-shaped IRs — are untimed, exactly as
    /// [`Runner::run_model`] never sees them in a `ModelDesc`. Workload
    /// seeding is keyed by layer *name* (not list position), so an IR
    /// lowered from a `ModelDesc` simulates bit-identically to the
    /// original, and any valid topological reordering of a DAG's node list
    /// produces identical per-node results.
    ///
    /// # Errors
    ///
    /// [`SimError::BadTopology`] if the IR's graph fails
    /// [`ModelIr::validate`]; [`SimError::MissingSparsity`] naming the
    /// first unannotated weight-bearing node;
    /// [`SimError::SparsityOutOfRange`] naming the first node whose
    /// annotation lies outside `[0, 1]`.
    pub fn run_ir(&self, acc: &dyn Accelerator, ir: &ModelIr) -> Result<RunStats, SimError> {
        validate_ir(ir)?;
        let centro = acc.scheme().uses_centrosymmetric();
        let workloads = ir
            .nodes
            .iter()
            .map(|node| self.node_workload(ir, node, centro));
        let mut runs = self.simulate_nodes(&[acc], &ir.name, |i| ir.predecessors(i), workloads)?;
        Ok(runs.remove(0))
    }

    /// Like [`Runner::run_ir`], but additionally schedules independent
    /// branches concurrently across `sub_arrays` PE sub-arrays. Per-node
    /// cycle/energy results are **bit-identical** to `run_ir` — overlap is
    /// a scheduling property, not a change to any layer's simulation — and
    /// the returned [`ScheduleStats`] reports the overlapped makespan
    /// alongside the sequential sum (see `docs/simulator.md`).
    ///
    /// # Errors
    ///
    /// Everything [`Runner::run_ir`] returns, plus
    /// [`SimError::InvalidConfig`] when `sub_arrays` is zero.
    pub fn run_ir_overlapped(
        &self,
        acc: &dyn Accelerator,
        ir: &ModelIr,
        sub_arrays: usize,
    ) -> Result<ScheduleStats, SimError> {
        if sub_arrays == 0 {
            return Err(SimError::InvalidConfig {
                field: "sub_arrays",
                reason: "must be non-zero",
            });
        }
        let run = self.run_ir(acc, ir)?;
        Ok(crate::schedule::overlap(ir, run, sub_arrays))
    }

    /// Simulates every (accelerator, model) pair. Results are ordered
    /// `[model][accelerator]`, and each is bit-identical to
    /// [`Runner::run_model`] on that pair, whatever the worker count.
    ///
    /// The accelerators are grouped by compression scheme, in order of
    /// first appearance, and each layer is synthesized once per
    /// (model, scheme) and shared by every accelerator of the group (the
    /// nine Table IV accelerators use three schemes). The (model, group)
    /// tasks run longest first on the simulation worker pool that
    /// [`crate::BatchRunner`] also uses, sized by
    /// [`util::configured_workers`] (the `CSCNN_NUM_THREADS` knob); each
    /// worker holds one layer's workload at a time.
    ///
    /// # Errors
    ///
    /// [`SimError::WorkerPanicked`] naming the lowest-index model whose
    /// simulation panicked. Every worker is joined before returning, so
    /// one poisoned model cannot abort the others mid-simulation.
    ///
    /// # Panics
    ///
    /// Panics if `CSCNN_NUM_THREADS` is set but invalid.
    pub fn run_suite(
        &self,
        accelerators: &[Box<dyn Accelerator>],
        models: &[ModelDesc],
    ) -> Result<Vec<Vec<RunStats>>, SimError> {
        let groups = scheme_groups(accelerators);
        // Task `m * groups.len() + g` is model `m` on group `g`.
        let tasks: Vec<(usize, usize)> = (0..models.len())
            .flat_map(|m| (0..groups.len()).map(move |g| (m, g)))
            .collect();
        let mut order: Vec<usize> = (0..tasks.len()).collect();
        // Longest first; the sort is stable, so ties stay in index order.
        order.sort_by_cached_key(|&t| {
            let (m, g) = tasks[t];
            Reverse(model_cost(&models[m]).saturating_mul(util::to_count(groups[g].1.len())))
        });
        let mut done = run_pool(&order, util::configured_workers(), |t| {
            let (m, g) = tasks[t];
            let (scheme, members) = &groups[g];
            let accs: Vec<&dyn Accelerator> =
                members.iter().map(|&a| accelerators[a].as_ref()).collect();
            self.simulate_chain(&accs, *scheme, &models[m])
        })
        .into_iter();
        // Collecting stops at the first incomplete row: the lowest-index
        // failing model.
        models
            .iter()
            .map(|model| {
                let mut row: Vec<Option<RunStats>> = accelerators.iter().map(|_| None).collect();
                for (_, members) in &groups {
                    let runs = done
                        .next()
                        .flatten()
                        .ok_or_else(|| SimError::WorkerPanicked {
                            model: model.name.clone(),
                        })?;
                    for (&a, run) in members.iter().zip(runs) {
                        row[a] = Some(run);
                    }
                }
                Ok(row.into_iter().flatten().collect())
            })
            .collect()
    }
}

/// The one simulation worker pool, shared by [`Runner::run_suite`] and
/// [`crate::BatchRunner::run_batch`]: runs `task(t)` for every task index
/// `t` of `order` on at most `workers` scoped threads, which take tasks in
/// `order` from a shared atomic index. Each task runs under
/// `catch_unwind`, so a panic fails only its own task, and every worker
/// is joined before returning. Results come back by task index, `None`
/// for a task that panicked; the order never changes a result.
pub(crate) fn run_pool<T: Send>(
    order: &[usize],
    workers: usize,
    task: impl Fn(usize) -> T + Sync,
) -> Vec<Option<T>> {
    // The next position in `order` to take. It publishes no data (results
    // come back through `join`), so `Relaxed` suffices.
    let next = AtomicUsize::new(0);
    let done: Vec<Vec<(usize, Option<T>)>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers.min(order.len()))
            .map(|_| {
                scope.spawn(|| {
                    let mut done = Vec::new();
                    while let Some(&t) = order.get(next.fetch_add(1, Ordering::Relaxed)) {
                        done.push((t, catch_unwind(AssertUnwindSafe(|| task(t))).ok()));
                    }
                    done
                })
            })
            .collect();
        // Join *every* handle. A worker lost outside `catch_unwind` leaves
        // its tasks' slots empty, which fails them like a panic.
        handles
            .into_iter()
            .map(|handle| handle.join().unwrap_or_default())
            .collect()
    });
    let mut results: Vec<Option<T>> = order.iter().map(|_| None).collect();
    for (t, result) in done.into_iter().flatten() {
        results[t] = result;
    }
    results
}

/// Groups accelerator indices by compression scheme, in order of first
/// appearance.
fn scheme_groups(accelerators: &[Box<dyn Accelerator>]) -> Vec<(CompressionScheme, Vec<usize>)> {
    let mut groups: Vec<(CompressionScheme, Vec<usize>)> = Vec::new();
    for (a, acc) in accelerators.iter().enumerate() {
        let scheme = acc.scheme();
        match groups.iter_mut().find(|(s, _)| *s == scheme) {
            Some((_, members)) => members.push(a),
            None => groups.push((scheme, vec![a])),
        }
    }
    groups
}

/// Relative cost of simulating `model` on one accelerator, from layer
/// geometry alone: per layer, the binomial draws workload synthesis makes
/// (one per `(k, c/groups)` conv slice, one per FC output) plus the output
/// activations the PE models walk. [`Runner::run_suite`] scales it by the
/// group size to order its tasks longest first; it never affects a result.
fn model_cost(model: &ModelDesc) -> u64 {
    model
        .layers
        .iter()
        .map(|layer| {
            let draws = if layer.kind == LayerKind::FullyConnected {
                layer.k
            } else {
                layer.k * (layer.c / layer.groups)
            };
            util::to_count(draws).saturating_add(layer.output_activations())
        })
        .fold(0, u64::saturating_add)
}

/// Validates an IR's graph topology, wrapping failures in
/// [`SimError::BadTopology`]. Shared by [`Runner::run_ir`] and the batch
/// worker path so batched and sequential simulation reject exactly the
/// same inputs.
pub(crate) fn validate_ir(ir: &ModelIr) -> Result<(), SimError> {
    ir.validate().map_err(|error| SimError::BadTopology {
        model: ir.name.clone(),
        error,
    })
}

/// Derives a layer's workload seed from the runner seed and the *names* of
/// the model and layer (FNV-1a with length terminators). Name-keyed seeds —
/// rather than position-keyed — make sampled workloads invariant under
/// `ModelDesc ↔ ModelIr` lowering and under topological reordering of a
/// DAG's node list; catalog layer names are unique within a model.
fn workload_seed(base: u64, model: &str, layer: &str) -> u64 {
    let mut h = 0xcbf29ce484222325u64;
    for part in [model, layer] {
        for b in part.bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x100000001b3);
        }
        for byte in util::to_count(part.len()).to_le_bytes() {
            h = (h ^ u64::from(byte)).wrapping_mul(0x100000001b3);
        }
    }
    base ^ h
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::baselines;
    use crate::CartesianAccelerator;
    use cscnn_models::catalog;

    #[test]
    fn run_is_deterministic() {
        let runner = Runner::new(1);
        let a = runner.run_model(&CartesianAccelerator::cscnn(), &catalog::lenet5());
        let b = runner.run_model(&CartesianAccelerator::cscnn(), &catalog::lenet5());
        assert_eq!(a.total_cycles(), b.total_cycles());
        assert_eq!(a.total_on_chip_pj(), b.total_on_chip_pj());
    }

    #[test]
    fn cscnn_beats_dcnn_and_scnn_on_lenet() {
        let runner = Runner::new(2);
        let model = catalog::lenet5();
        let dcnn = runner.run_model(&baselines::dcnn(), &model);
        let scnn = runner.run_model(&CartesianAccelerator::scnn(), &model);
        let cscnn = runner.run_model(&CartesianAccelerator::cscnn(), &model);
        assert!(cscnn.speedup_over(&dcnn) > 1.0, "vs DCNN");
        assert!(cscnn.speedup_over(&scnn) > 1.0, "vs SCNN");
    }

    /// Every number of a run, floats as `to_bits`.
    fn run_bits(run: &RunStats) -> Vec<(String, Vec<u64>)> {
        run.layers
            .iter()
            .map(|l| {
                let c = &l.counters;
                let e = &l.energy;
                let mut bits = vec![l.compute_cycles, l.effective_mults];
                bits.extend([
                    c.mults,
                    c.adds,
                    c.wb_reads,
                    c.ib_reads,
                    c.ab_accesses,
                    c.ob_writes,
                    c.crossbar_words,
                    c.ccu_ops,
                    c.ppu_ops,
                    c.index_reads,
                    c.dram_bits,
                ]);
                bits.extend(
                    [
                        l.dram_time_s,
                        l.time_s,
                        e.compute_pj,
                        e.memory_pj,
                        e.others_pj,
                        e.dram_pj,
                        e.mul_array_pj,
                        e.ib_ob_pj,
                        e.wb_pj,
                        e.ab_pj,
                        e.crossbar_pj,
                        e.ccu_pj,
                        e.ppu_pj,
                    ]
                    .map(f64::to_bits),
                );
                (l.name.clone(), bits)
            })
            .collect()
    }

    /// A small model with a depthwise and a grouped layer.
    pub(crate) fn tiny_grouped() -> ModelDesc {
        use cscnn_models::LayerDesc;
        ModelDesc::new(
            "TinyGrouped",
            vec![
                LayerDesc::conv("conv1", 3, 16, 3, 3, 16, 16, 1, 1),
                LayerDesc::grouped("dw2", 16, 16, 3, 3, 16, 16, 1, 1, 16),
                LayerDesc::grouped("gconv3", 16, 32, 3, 3, 16, 16, 2, 1, 4),
                LayerDesc::conv("pw4", 32, 32, 1, 1, 8, 8, 1, 0),
                LayerDesc::fc("fc5", 32 * 8 * 8, 10),
            ],
        )
    }

    /// CSCNN, DCNN, SCNN, planar-tiled CSCNN with an 8 KiB global buffer,
    /// SparTen: the CSCNN+Pruning and Deep-Compression groups are both
    /// non-contiguous, and the CSCNN+Pruning group mixes buffer sizes, so
    /// its members' on-chip chains differ.
    fn interleaved_schemes() -> Vec<Box<dyn Accelerator>> {
        use crate::tiling::TilingStrategy;
        let small_glb = ArchConfig {
            glb_bytes: 8 * 1024,
            ..CartesianAccelerator::cscnn().config()
        };
        vec![
            Box::new(CartesianAccelerator::cscnn()),
            Box::new(baselines::dcnn()),
            Box::new(CartesianAccelerator::scnn()),
            Box::new(
                CartesianAccelerator::cscnn()
                    .with_tiling(TilingStrategy::Planar)
                    .with_config(small_glb),
            ),
            Box::new(baselines::sparten()),
        ]
    }

    #[test]
    fn parallel_suite_equals_sequential_runs() {
        // Sharing a workload across a scheme group and scheduling tasks on
        // a pool must not change a single bit of any (model, accelerator)
        // result.
        let runner = Runner::new(9);
        let accs = interleaved_schemes();
        let models = vec![catalog::lenet5(), tiny_grouped(), catalog::convnet()];
        let suite = runner.run_suite(&accs, &models).expect("no worker panics");
        assert_eq!(suite.len(), models.len());
        for (row, model) in suite.iter().zip(&models) {
            assert_eq!(row.len(), accs.len());
            for (run, acc) in row.iter().zip(&accs) {
                let seq = runner.run_model(acc.as_ref(), model);
                assert_eq!(run.model, seq.model);
                assert_eq!(run.accelerator, seq.accelerator);
                assert_eq!(
                    run_bits(run),
                    run_bits(&seq),
                    "{} on {}",
                    model.name,
                    acc.name()
                );
            }
        }
    }

    /// `model` lowered to a linear-chain IR and annotated with exactly the
    /// densities `run_model` calibrates for `acc`'s scheme.
    pub(crate) fn annotated_ir(model: &ModelDesc, acc: &dyn Accelerator) -> ModelIr {
        use cscnn_ir::SparsityAnnotation;
        let mc = ModelCompression::new(model.clone(), acc.scheme());
        let mut ir = cscnn_models::lower::to_ir(model);
        for (i, node) in ir.weight_nodes_mut().enumerate() {
            node.set_sparsity(SparsityAnnotation {
                weight_density: mc.profile.weight_density[i],
                activation_density: mc.profile.activation_density[i],
            });
        }
        ir
    }

    #[test]
    fn run_ir_matches_run_model_bit_for_bit() {
        // Every field of every layer agrees between the ModelDesc route and
        // the annotated IR route: on a classic chain, on depthwise and
        // grouped layers, and on a wired DAG flattened to a ModelDesc.
        let runner = Runner::new(42);
        let flat_resnet =
            cscnn_models::lower::to_model_desc(&catalog::resnet18_ir()).expect("flattens");
        for model in [catalog::lenet5(), tiny_grouped(), flat_resnet] {
            for acc in [CartesianAccelerator::cscnn(), CartesianAccelerator::scnn()] {
                let from_desc = runner.run_model(&acc, &model);
                let from_ir = runner
                    .run_ir(&acc, &annotated_ir(&model, &acc))
                    .expect("annotated IR simulates");
                assert_eq!(from_desc.model, from_ir.model);
                assert_eq!(from_desc.accelerator, from_ir.accelerator);
                assert_eq!(
                    run_bits(&from_desc),
                    run_bits(&from_ir),
                    "{} on {}",
                    model.name,
                    acc.name()
                );
            }
        }
    }

    #[test]
    fn run_ir_rejects_out_of_range_sparsity() {
        let acc = CartesianAccelerator::cscnn();
        let runner = Runner::new(42);
        for (weight_density, activation_density, field) in [
            (1.5, 0.5, "weight_density"),
            (-0.25, 0.5, "weight_density"),
            (0.5, f64::NAN, "activation_density"),
        ] {
            let mut ir = annotated_ir(&catalog::lenet5(), &acc);
            ir.weight_nodes_mut()
                .nth(1)
                .expect("LeNet-5 has a second weight layer")
                .set_sparsity(cscnn_ir::SparsityAnnotation {
                    weight_density,
                    activation_density,
                });
            let err = runner.run_ir(&acc, &ir).expect_err("density out of range");
            assert!(
                matches!(&err, SimError::SparsityOutOfRange { layer, field: f, .. }
                    if layer == "C3" && *f == field),
                "{err}"
            );
            assert!(err.to_string().contains("C3"), "{err}");
        }
    }

    #[test]
    fn run_ir_rejects_malformed_topologies() {
        use cscnn_ir::IrEdge;
        let mut ir = cscnn_models::lower::to_ir(&catalog::lenet5());
        ir.edges.push(IrEdge::new(0, ir.nodes.len() + 3));
        let runner = Runner::new(42);
        let err = runner
            .run_ir(&CartesianAccelerator::cscnn(), &ir)
            .expect_err("dangling edge");
        assert!(matches!(err, SimError::BadTopology { .. }), "{err}");
        assert!(err.to_string().contains("LeNet-5"));
    }

    #[test]
    fn overlapping_a_linear_chain_changes_nothing_but_reporting() {
        let acc = CartesianAccelerator::cscnn();
        let ir = annotated_ir(&catalog::lenet5(), &acc);
        let runner = Runner::new(42);
        let sequential = runner.run_ir(&acc, &ir).expect("annotated IR");
        let sched = runner
            .run_ir_overlapped(&acc, &ir, 4)
            .expect("annotated IR overlaps");
        assert_eq!(sched.run.total_cycles(), sequential.total_cycles());
        assert_eq!(sched.run.total_on_chip_pj(), sequential.total_on_chip_pj());
        let seq = sched.sequential_time_s();
        assert!(
            (sched.makespan_s - seq).abs() <= 1e-12 * seq,
            "no branches to overlap"
        );
        let err = runner
            .run_ir_overlapped(&acc, &ir, 0)
            .expect_err("zero sub-arrays");
        assert!(matches!(err, SimError::InvalidConfig { .. }));
    }

    #[test]
    fn run_ir_reports_missing_annotations() {
        let ir = cscnn_models::lower::to_ir(&catalog::lenet5());
        let runner = Runner::new(42);
        let err = runner
            .run_ir(&CartesianAccelerator::cscnn(), &ir)
            .expect_err("unannotated IR");
        assert!(matches!(err, SimError::MissingSparsity { .. }));
    }

    /// An accelerator that panics on the layers with the given names.
    pub(crate) struct Exploding(pub(crate) &'static [&'static str]);

    impl Accelerator for Exploding {
        fn name(&self) -> &'static str {
            "Exploding"
        }
        fn scheme(&self) -> CompressionScheme {
            CompressionScheme::Dense
        }
        fn characteristics(&self) -> crate::interface::Characteristics {
            crate::interface::Characteristics {
                compression: "-",
                sparsity: "-",
                dataflow: "-",
            }
        }
        fn simulate_layer(&self, ctx: &LayerContext<'_>) -> crate::report::LayerStats {
            let layer = &ctx.workload.layer.name;
            assert!(
                !self.0.contains(&layer.as_str()),
                "injected fault on {layer}"
            );
            crate::report::LayerStats::default()
        }
    }

    #[test]
    fn suite_surfaces_worker_panics_as_typed_errors() {
        let runner = Runner::new(4);
        // LeNet-5 has a layer `C3` and ConvNet a layer `conv3`; the tiny
        // model has neither. ConvNet is the larger, so its task runs
        // first, but LeNet-5 has the lower index and is the one named.
        let models = vec![tiny_grouped(), catalog::lenet5(), catalog::convnet()];
        let suite = |faulty: &'static [&'static str]| {
            // The exploding accelerator shares the Dense group with DCNN.
            let accs: Vec<Box<dyn Accelerator>> = vec![
                Box::new(CartesianAccelerator::cscnn()),
                Box::new(baselines::dcnn()),
                Box::new(Exploding(faulty)),
            ];
            runner.run_suite(&accs, &models)
        };
        let err = suite(&["C3", "conv3"]).expect_err("worker panics");
        assert_eq!(
            err,
            SimError::WorkerPanicked {
                model: "LeNet-5".into()
            }
        );
        assert!(err.to_string().contains("LeNet-5"));
        let err = suite(&["conv3"]).expect_err("worker panics");
        assert_eq!(
            err,
            SimError::WorkerPanicked {
                model: "ConvNet".into()
            }
        );
        let rows = suite(&[]).expect("healthy suite");
        assert_eq!(rows.len(), 3);
        assert!(rows.iter().all(|row| row.len() == 3));
    }

    #[test]
    fn custom_dram_model_propagates() {
        let slow = crate::dram::DramConfig {
            peak_bytes_per_s: 1e9, // 12.8x slower than default
            ..Default::default()
        };
        let fast_runner = Runner::new(10);
        let slow_runner = Runner::new(10).with_dram(slow);
        let model = catalog::alexnet();
        let acc = CartesianAccelerator::cscnn();
        let fast = fast_runner.run_model(&acc, &model);
        let slow = slow_runner.run_model(&acc, &model);
        assert!(slow.total_time_s() > fast.total_time_s());
        // Compute cycles are DRAM-independent.
        assert_eq!(slow.total_cycles(), fast.total_cycles());
    }

    #[test]
    fn suite_shape_is_models_by_accelerators() {
        let runner = Runner::new(3);
        let accs = baselines::evaluation_accelerators();
        let models = vec![catalog::lenet5(), catalog::convnet()];
        let results = runner.run_suite(&accs, &models).expect("no worker panics");
        assert_eq!(results.len(), 2);
        assert_eq!(results[0].len(), accs.len());
        assert_eq!(results[0][0].accelerator, "DCNN");
        assert_eq!(results[1][8].accelerator, "CSCNN");
    }
}
