//! Benchmarks of the simulator itself: per-layer simulation on the
//! detailed Cartesian model, workload synthesis, and the tiling planner.
//! These keep the table/figure harnesses fast.
//!
//! Plain `main()` harness (`harness = false`): each benchmark warms up,
//! then runs batches until ~0.2 s elapses and reports the mean ns/iter.
//! Run with `cargo bench -p cscnn-bench --bench simulator`.

use std::hint::black_box;

use cscnn::models::{catalog, LayerDesc};
use cscnn::sim::dram::DramConfig;
use cscnn::sim::energy::EnergyTable;
use cscnn::sim::tiling::{self, TilingStrategy};
use cscnn::sim::workload::LayerWorkload;
use cscnn::sim::{baselines, Accelerator, CartesianAccelerator, LayerContext, Runner};
use cscnn_bench::timing::bench;

fn vgg_conv_layer() -> LayerDesc {
    LayerDesc::conv("conv3_2", 256, 256, 3, 3, 56, 56, 1, 1)
}

fn main() {
    let layer = vgg_conv_layer();
    let dram = DramConfig::default();
    let energy = EnergyTable::default();
    for (label, acc, centro) in [
        ("cscnn", CartesianAccelerator::cscnn(), true),
        ("scnn", CartesianAccelerator::scnn(), false),
    ] {
        let wl = LayerWorkload::synthesize(&layer, 0.4, 0.6, centro, 1);
        let cfg = acc.config();
        bench(&format!("simulate_vgg_conv3_2_{label}"), || {
            let ctx = LayerContext {
                cfg: &cfg,
                dram: &dram,
                energy: &energy,
                workload: black_box(&wl),
                input_on_chip: true,
                output_fits_on_chip: true,
            };
            black_box(acc.simulate_layer(&ctx));
        });
    }

    bench("synthesize_vgg_conv3_2_workload", || {
        black_box(LayerWorkload::synthesize(
            black_box(&layer),
            0.4,
            0.6,
            true,
            1,
        ));
    });

    let wl = LayerWorkload::synthesize(&layer, 0.4, 0.6, false, 2);
    let cfg = CartesianAccelerator::cscnn().config();
    for (label, s) in [
        ("planar", TilingStrategy::Planar),
        ("mixed", TilingStrategy::Mixed),
    ] {
        bench(&format!("tiling_plan_{label}"), || {
            black_box(tiling::plan(&cfg, black_box(&wl), s, true));
        });
    }

    let runner = Runner::new(1);
    let model = catalog::alexnet();
    bench("run_alexnet_cscnn", || {
        black_box(runner.run_model(&CartesianAccelerator::cscnn(), black_box(&model)));
    });
    bench("run_alexnet_dcnn", || {
        black_box(runner.run_model(&baselines::dcnn(), black_box(&model)));
    });

    {
        use cscnn::sim::pe_detailed::{simulate_detailed, ChannelFibers, PeGeometry, WeightEntry};
        let geo = PeGeometry {
            px: 4,
            py: 4,
            kernel_h: 3,
            kernel_w: 3,
            tile_h: 14,
            tile_w: 14,
            k_count: 8,
            dual: true,
        };
        let channels: Vec<ChannelFibers> = (0..16)
            .map(|ci| {
                let weights = (0..8)
                    .flat_map(|k| {
                        [(0u8, 0u8), (0, 1), (1, 0), (1, 1), (0, 2)]
                            .into_iter()
                            .map(move |(r, s)| WeightEntry {
                                k,
                                r,
                                s,
                                value: 0.5,
                            })
                    })
                    .collect();
                let acts = (0..14)
                    .flat_map(|y| {
                        (0..14)
                            .filter(move |x| (x + y + ci) % 2 == 0)
                            .map(move |x| (y as u16, x as u16, 1.0))
                    })
                    .collect();
                ChannelFibers { weights, acts }
            })
            .collect();
        bench("detailed_pe_16ch_dual", || {
            black_box(
                simulate_detailed(black_box(&geo), black_box(&channels))
                    .expect("bench fibers in range"),
            );
        });
    }

    // Uncached configurations exercise the full micro-simulation; a fresh
    // (px, py) pair per iteration is not possible deterministically, so
    // bench the cached fast path instead.
    bench("stall_factor_cached", || {
        black_box(cscnn::sim::crossbar::stall_factor(4, 4, 2));
    });
}
