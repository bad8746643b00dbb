//! Whole-network and suite simulation driver.

use std::cmp::Reverse;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};

use cscnn_ir::ModelIr;
use cscnn_models::{CompressionScheme, LayerKind, ModelCompression, ModelDesc, SparsityProfile};

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
        let scheme = acc.scheme();
        let mc = ModelCompression::new(model.clone(), scheme);
        // One accelerator in, one run out.
        self.simulate_group(&[acc], scheme, model, &mc.profile)
            .remove(0)
    }

    /// Like [`Runner::run_model`], but with an explicit sparsity profile —
    /// e.g. one *measured* from a trained network's activations rather
    /// than calibrated from published targets.
    ///
    /// # Errors
    ///
    /// [`SimError::ProfileLength`] naming the model and both lengths when
    /// the profile does not carry one weight and one activation density
    /// per layer.
    pub fn run_model_with_profile(
        &self,
        acc: &dyn Accelerator,
        model: &ModelDesc,
        profile: &SparsityProfile,
    ) -> Result<RunStats, SimError> {
        let layers = model.layers.len();
        for got in [
            profile.weight_density.len(),
            profile.activation_density.len(),
        ] {
            if got != layers {
                return Err(SimError::ProfileLength {
                    model: model.name.clone(),
                    expected: layers,
                    got,
                });
            }
        }
        Ok(self
            .simulate_group(&[acc], acc.scheme(), model, profile)
            .remove(0))
    }

    /// Simulates one model on a group of accelerators that share the
    /// compression `scheme`, layer by layer. Each layer's workload is
    /// synthesized once, simulated on every accelerator of the group, and
    /// dropped before the next layer's is drawn, so one workload is alive
    /// at a time. Each accelerator keeps its own [`ArchConfig`] and its own
    /// on-chip input chain, so `runs[j]` is bit-identical to simulating
    /// `accs[j]` alone. `profile` must match `model`'s length.
    fn simulate_group(
        &self,
        accs: &[&dyn Accelerator],
        scheme: CompressionScheme,
        model: &ModelDesc,
        profile: &SparsityProfile,
    ) -> Vec<RunStats> {
        debug_assert!(accs.iter().all(|acc| acc.scheme() == scheme));
        let centro = scheme.uses_centrosymmetric();
        let cfgs: Vec<ArchConfig> = accs.iter().map(|acc| acc.config()).collect();
        let mut runs: Vec<RunStats> = accs
            .iter()
            .map(|acc| RunStats {
                accelerator: acc.name().to_string(),
                model: model.name.clone(),
                layers: Vec::with_capacity(model.layers.len()),
            })
            .collect();
        let mut input_on_chip = vec![false; accs.len()];
        for (i, layer) in model.layers.iter().enumerate() {
            let wl = LayerWorkload::synthesize(
                layer,
                profile.weight_density[i],
                profile.activation_density[i],
                centro,
                workload_seed(self.seed, &model.name, &layer.name),
            );
            let out_acts = util::to_index(layer.output_activations());
            for (((acc, cfg), run), on_chip) in accs
                .iter()
                .zip(&cfgs)
                .zip(&mut runs)
                .zip(&mut input_on_chip)
            {
                let output_fits = out_acts * cfg.word_bits / 8 <= cfg.glb_bytes;
                let ctx = LayerContext {
                    cfg,
                    dram: &self.dram,
                    energy: &self.energy,
                    workload: &wl,
                    input_on_chip: *on_chip,
                    output_fits_on_chip: output_fits,
                };
                run.layers.push(acc.simulate_layer(&ctx));
                *on_chip = output_fits;
            }
        }
        runs
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
    /// first unannotated weight-bearing node.
    pub fn run_ir(&self, acc: &dyn Accelerator, ir: &ModelIr) -> Result<RunStats, SimError> {
        validate_ir(ir)?;
        let centro = acc.scheme().uses_centrosymmetric();
        let workloads = self.ir_workloads(ir, centro)?;
        Ok(self.simulate_prepared(acc, ir, &workloads))
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

    /// Lowers every node of an annotated IR to its workload (`None` for the
    /// nodes the simulator does not time), using exactly the per-layer
    /// seeding of [`Runner::run_ir`] — this is the synthesis half of
    /// `run_ir`, split out so [`crate::BatchRunner`]'s workload cache can
    /// share the result across requests (`docs/batching.md`). Seeds are
    /// keyed by the node's name (weightless nodes never consume a seed), so
    /// workloads are invariant under topological reordering of the list.
    ///
    /// # Errors
    ///
    /// [`SimError::MissingSparsity`] naming the first unannotated
    /// weight-bearing node.
    pub(crate) fn ir_workloads(
        &self,
        ir: &ModelIr,
        centro: bool,
    ) -> Result<Vec<Option<LayerWorkload>>, SimError> {
        let mut workloads = Vec::with_capacity(ir.nodes.len());
        for node in &ir.nodes {
            let seed = workload_seed(self.seed, &ir.name, node.name().unwrap_or(""));
            workloads.push(LayerWorkload::from_node(node, centro, seed)?);
        }
        Ok(workloads)
    }

    /// Simulates pre-synthesized workloads node by node — the timing half
    /// of [`Runner::run_ir`]. `None` entries (untimed nodes) are skipped in
    /// the reported layer list; a layer's input counts as on-chip when
    /// *every* graph predecessor produced an output that fit in the global
    /// buffer (untimed nodes pass their predecessors' status through). For
    /// an implicit linear chain this reduces exactly to
    /// [`Runner::run_model`]'s previous-layer chaining.
    pub(crate) fn simulate_prepared(
        &self,
        acc: &dyn Accelerator,
        ir: &ModelIr,
        workloads: &[Option<LayerWorkload>],
    ) -> RunStats {
        debug_assert_eq!(ir.nodes.len(), workloads.len());
        let cfg = acc.config();
        let mut stats = RunStats {
            accelerator: acc.name().to_string(),
            model: ir.name.clone(),
            ..Default::default()
        };
        // on_chip[i]: whether node i's output is resident in the global
        // buffer for its consumers. Untimed nodes forward their input
        // status (false at a graph source — the model input streams from
        // DRAM).
        let mut on_chip = vec![false; workloads.len()];
        for (i, slot) in workloads.iter().enumerate() {
            let preds = ir.predecessors(i);
            let input_on_chip = !preds.is_empty() && preds.iter().all(|&p| on_chip[p]);
            match slot {
                Some(wl) => {
                    let out_bytes =
                        util::to_index(wl.layer.output_activations()) * cfg.word_bits / 8;
                    let output_fits = out_bytes <= cfg.glb_bytes;
                    let ctx = LayerContext {
                        cfg: &cfg,
                        dram: &self.dram,
                        energy: &self.energy,
                        workload: wl,
                        input_on_chip,
                        output_fits_on_chip: output_fits,
                    };
                    stats.layers.push(acc.simulate_layer(&ctx));
                    on_chip[i] = output_fits;
                }
                None => on_chip[i] = input_on_chip,
            }
        }
        stats
    }

    /// Simulates every (accelerator, model) pair. Results are ordered
    /// `[model][accelerator]`, and each is bit-identical to
    /// [`Runner::run_model`] on that pair, whatever the worker count.
    ///
    /// The accelerators are grouped by compression scheme, in order of
    /// first appearance, and each layer is synthesized once per
    /// (model, scheme) and shared by every accelerator of the group (the
    /// nine Table IV accelerators use three schemes). The (model, group)
    /// tasks run longest first on a pool of [`util::configured_workers`]
    /// scoped threads (the `CSCNN_NUM_THREADS` knob); each worker holds
    /// one layer's workload at a time.
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
        let mut tasks: Vec<(u64, usize, usize)> = models
            .iter()
            .enumerate()
            .flat_map(|(m, model)| {
                let cost = model_cost(model);
                groups.iter().enumerate().map(move |(g, (_, members))| {
                    (cost.saturating_mul(util::to_count(members.len())), m, g)
                })
            })
            .collect();
        // Longest first; ties in index order.
        tasks.sort_unstable_by_key(|&(cost, m, g)| (Reverse(cost), m, g));

        let workers = util::configured_workers().min(tasks.len());
        // The next task to take. It publishes no data (tasks are read-only
        // and results come back through `join`), so `Relaxed` suffices.
        let next = AtomicUsize::new(0);
        type Done = (usize, usize, Option<Vec<RunStats>>);
        let done: Vec<Vec<Done>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|_| {
                    scope.spawn(|| {
                        let mut done = Vec::new();
                        while let Some(&(_, m, g)) = tasks.get(next.fetch_add(1, Ordering::Relaxed))
                        {
                            let (scheme, members) = &groups[g];
                            let model = &models[m];
                            // A panicking accelerator fails only its own
                            // task, not the worker's remaining queue.
                            let runs = catch_unwind(AssertUnwindSafe(|| {
                                let accs: Vec<&dyn Accelerator> =
                                    members.iter().map(|&a| accelerators[a].as_ref()).collect();
                                let mc = ModelCompression::new(model.clone(), *scheme);
                                self.simulate_group(&accs, *scheme, model, &mc.profile)
                            }));
                            done.push((m, g, runs.ok()));
                        }
                        done
                    })
                })
                .collect();
            // Join *every* handle. A worker lost outside `catch_unwind`
            // leaves its tasks' slots empty, which fails their models below.
            handles
                .into_iter()
                .map(|handle| handle.join().unwrap_or_default())
                .collect()
        });

        let mut slots: Vec<Vec<Option<RunStats>>> = models
            .iter()
            .map(|_| accelerators.iter().map(|_| None).collect())
            .collect();
        for (m, g, runs) in done.into_iter().flatten() {
            for (&a, run) in groups[g].1.iter().zip(runs.into_iter().flatten()) {
                slots[m][a] = Some(run);
            }
        }
        // Collecting stops at the first incomplete row: the lowest-index
        // failing model.
        slots
            .into_iter()
            .zip(models)
            .map(|(row, model)| {
                row.into_iter().collect::<Option<Vec<_>>>().ok_or_else(|| {
                    SimError::WorkerPanicked {
                        model: model.name.clone(),
                    }
                })
            })
            .collect()
    }
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
mod tests {
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
    fn tiny_grouped() -> ModelDesc {
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

    /// CSCNN, DCNN, SCNN, planar-tiled CSCNN, SparTen: the CSCNN+Pruning
    /// and Deep-Compression groups are both non-contiguous.
    fn interleaved_schemes() -> Vec<Box<dyn Accelerator>> {
        use crate::tiling::TilingStrategy;
        vec![
            Box::new(CartesianAccelerator::cscnn()),
            Box::new(baselines::dcnn()),
            Box::new(CartesianAccelerator::scnn()),
            Box::new(CartesianAccelerator::cscnn().with_tiling(TilingStrategy::Planar)),
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

    #[test]
    fn explicit_profile_matches_run_model_and_checks_its_length() {
        let runner = Runner::new(5);
        let model = tiny_grouped();
        let acc = CartesianAccelerator::cscnn();
        let mut profile = ModelCompression::new(model.clone(), acc.scheme()).profile;
        let with_profile = runner
            .run_model_with_profile(&acc, &model, &profile)
            .expect("profile matches the model");
        assert_eq!(
            run_bits(&with_profile),
            run_bits(&runner.run_model(&acc, &model))
        );
        profile.activation_density.pop();
        let err = runner
            .run_model_with_profile(&acc, &model, &profile)
            .expect_err("short profile");
        assert_eq!(
            err,
            SimError::ProfileLength {
                model: "TinyGrouped".into(),
                expected: 5,
                got: 4,
            }
        );
        assert!(err.to_string().contains("TinyGrouped"), "{err}");
    }

    #[test]
    fn run_ir_matches_run_model_bit_for_bit() {
        use cscnn_ir::SparsityAnnotation;
        // Annotate the lowered IR with exactly the densities the
        // ModelDesc path calibrates, then both paths must agree.
        let model = catalog::lenet5();
        let acc = CartesianAccelerator::cscnn();
        let mc = cscnn_models::ModelCompression::new(model.clone(), acc.scheme());
        let mut ir = cscnn_models::lower::to_ir(&model);
        for (i, node) in ir.weight_nodes_mut().enumerate() {
            node.set_sparsity(SparsityAnnotation {
                weight_density: mc.profile.weight_density[i],
                activation_density: mc.profile.activation_density[i],
            });
        }
        let runner = Runner::new(42);
        let from_desc = runner.run_model(&acc, &model);
        let from_ir = runner.run_ir(&acc, &ir).expect("annotated IR simulates");
        assert_eq!(from_desc.layers.len(), from_ir.layers.len());
        assert_eq!(from_desc.total_cycles(), from_ir.total_cycles());
        assert_eq!(from_desc.total_on_chip_pj(), from_ir.total_on_chip_pj());
        assert_eq!(from_desc.model, from_ir.model);
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
        use cscnn_ir::SparsityAnnotation;
        let model = catalog::lenet5();
        let acc = CartesianAccelerator::cscnn();
        let mc = cscnn_models::ModelCompression::new(model.clone(), acc.scheme());
        let mut ir = cscnn_models::lower::to_ir(&model);
        for (i, node) in ir.weight_nodes_mut().enumerate() {
            node.set_sparsity(SparsityAnnotation {
                weight_density: mc.profile.weight_density[i],
                activation_density: mc.profile.activation_density[i],
            });
        }
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

    #[test]
    fn suite_surfaces_worker_panics_as_typed_errors() {
        use crate::interface::{Characteristics, LayerContext};
        use crate::report::LayerStats;
        /// Panics on the layers with the given names.
        struct Exploding(&'static [&'static str]);
        impl Accelerator for Exploding {
            fn name(&self) -> &'static str {
                "Exploding"
            }
            fn scheme(&self) -> cscnn_models::CompressionScheme {
                cscnn_models::CompressionScheme::Dense
            }
            fn characteristics(&self) -> Characteristics {
                Characteristics {
                    compression: "-",
                    sparsity: "-",
                    dataflow: "-",
                }
            }
            fn simulate_layer(&self, ctx: &LayerContext<'_>) -> LayerStats {
                let layer = &ctx.workload.layer.name;
                assert!(
                    !self.0.contains(&layer.as_str()),
                    "injected fault on {layer}"
                );
                LayerStats::default()
            }
        }
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
