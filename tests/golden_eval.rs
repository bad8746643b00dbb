//! Golden evaluation digest: every simulated (model, accelerator, layer)
//! result of the paper's accelerator evaluation, pinned row by row.
//!
//! The digest covers the full Fig. 7 suite (nine accelerators × nine
//! networks, the run behind Figs. 7–10) and the Fig. 11 tiling variants
//! (CSCNN under planar, output-channel and mixed tiling; SCNN with and
//! without the mixed-tiling optimization) on Fig. 11's four networks, all
//! at the harness seed 42. Each row holds the cycle count, DRAM bits,
//! issued multiplications and the exact `f64` bits of the layer's latency
//! and on-chip energy, so a drift in any single layer shows as a readable
//! row diff rather than only as a moved geomean.
//!
//! Regenerate the golden file (after a deliberate model change, which
//! CHANGES.md must justify) with:
//!
//! ```sh
//! cargo test -p cscnn --test golden_eval -- --ignored --exact regenerate_golden_eval
//! ```

use cscnn::models::{catalog, ModelDesc};
use cscnn::sim::tiling::TilingStrategy;
use cscnn::sim::{baselines, geomean, Accelerator, CartesianAccelerator, RunStats, Runner};

const SEED: u64 = 42;
const GOLDEN_PATH: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/../../tests/golden/eval.seed42.txt"
);
const HEADER: &str =
    "# figure\tmodel\taccelerator\tlayer\tcompute_cycles\tdram_bits\teffective_mults\ttime_s_bits\ton_chip_pj_bits";
/// Differing rows printed on a mismatch.
const SHOWN_DIFFS: usize = 12;

/// Fig. 7's measured headline: CSCNN's geomean speedup and on-chip energy
/// gain over each baseline, in suite order, as `fig7` prints them.
const HEADLINE: [(&str, f64, f64); 8] = [
    ("DCNN", 4.62, 2.51),
    ("Cnvlutin", 3.42, 2.39),
    ("Cambricon-X", 1.84, 1.94),
    ("SCNN", 1.72, 1.67),
    ("SparTen", 1.40, 1.44),
    ("Cambricon-S", 1.51, 1.34),
    ("SIGMA", 1.49, 2.29),
    ("SpArch", 1.59, 1.73),
];
/// `fig7` prints two decimals; a factor may differ from its printed value
/// by at most half a unit in the last place.
const HEADLINE_TOLERANCE: f64 = 0.005;

/// The Fig. 11 accelerator variants.
fn fig11_variants() -> Vec<Box<dyn Accelerator>> {
    let cscnn = |tiling, name| -> Box<dyn Accelerator> {
        Box::new(
            CartesianAccelerator::cscnn()
                .with_tiling(tiling)
                .with_name(name),
        )
    };
    vec![
        cscnn(TilingStrategy::Planar, "CSCNN/planar"),
        cscnn(TilingStrategy::OutputChannel, "CSCNN/output-channel"),
        cscnn(TilingStrategy::Mixed, "CSCNN/mixed"),
        Box::new(CartesianAccelerator::scnn()),
        Box::new(
            CartesianAccelerator::scnn()
                .with_tiling(TilingStrategy::Mixed)
                .with_name("SCNN+mixed"),
        ),
    ]
}

fn fig11_models() -> Vec<ModelDesc> {
    vec![
        catalog::lenet5(),
        catalog::convnet(),
        catalog::alexnet(),
        catalog::vgg16(),
    ]
}

/// Runs both evaluations and returns `(fig7 results, digest text)`.
fn evaluate() -> (Vec<Vec<RunStats>>, String) {
    let runner = Runner::new(SEED);
    let fig7 = runner
        .run_suite(
            &baselines::evaluation_accelerators(),
            &catalog::evaluation_suite(),
        )
        .expect("no simulation panics");
    let fig11 = runner
        .run_suite(&fig11_variants(), &fig11_models())
        .expect("no simulation panics");
    let mut text = String::new();
    text.push_str(HEADER);
    text.push('\n');
    for (figure, results) in [("fig7", &fig7), ("fig11", &fig11)] {
        for run in results.iter().flatten() {
            for l in &run.layers {
                text.push_str(&format!(
                    "{figure}\t{}\t{}\t{}\t{}\t{}\t{}\t{:016x}\t{:016x}\n",
                    run.model,
                    run.accelerator,
                    l.name,
                    l.compute_cycles,
                    l.counters.dram_bits,
                    l.effective_mults,
                    l.time_s.to_bits(),
                    l.energy.on_chip_pj().to_bits(),
                ));
            }
        }
    }
    (fig7, text)
}

#[test]
fn evaluation_matches_golden_digest_and_headline() {
    let (fig7, observed) = evaluate();
    let expected = std::fs::read_to_string(GOLDEN_PATH).expect("golden digest file is committed");
    if observed != expected {
        let got: Vec<&str> = observed.lines().collect();
        let want: Vec<&str> = expected.lines().collect();
        let mut report = String::new();
        let mut differing = 0usize;
        for i in 0..got.len().max(want.len()) {
            let (g, w) = (got.get(i), want.get(i));
            if g == w {
                continue;
            }
            differing += 1;
            if differing <= SHOWN_DIFFS {
                report.push_str(&format!(
                    "row {}:\n  golden:   {}\n  observed: {}\n",
                    i + 1,
                    w.unwrap_or(&"<missing>"),
                    g.unwrap_or(&"<missing>"),
                ));
            }
        }
        panic!(
            "{differing} of {} golden rows differ ({} observed); first differences:\n{report}\
             regenerate with: cargo test -p cscnn --test golden_eval -- --ignored --exact \
             regenerate_golden_eval",
            want.len(),
            got.len(),
        );
    }

    let cscnn = fig7[0].len() - 1;
    for (bi, &(name, speedup, energy)) in HEADLINE.iter().enumerate() {
        assert_eq!(fig7[0][bi].accelerator, name, "suite order");
        let factor = |f: &dyn Fn(&RunStats) -> f64| {
            let per_model: Vec<f64> = fig7
                .iter()
                .map(|row| f(&row[bi]) / f(&row[cscnn]))
                .collect();
            geomean(&per_model)
        };
        let sp = factor(&|r| r.total_time_s());
        let en = factor(&|r| r.total_on_chip_pj());
        assert!(
            (sp - speedup).abs() <= HEADLINE_TOLERANCE,
            "CSCNN speedup over {name}: {sp:.4}x, expected {speedup:.2}x ± {HEADLINE_TOLERANCE}"
        );
        assert!(
            (en - energy).abs() <= HEADLINE_TOLERANCE,
            "CSCNN energy gain over {name}: {en:.4}x, expected {energy:.2}x ± {HEADLINE_TOLERANCE}"
        );
    }
}

/// Rewrites the golden file from the current simulator. Ignored so that
/// it runs only when asked for by name.
#[test]
#[ignore = "rewrites tests/golden/eval.seed42.txt"]
fn regenerate_golden_eval() {
    let (_, text) = evaluate();
    std::fs::write(GOLDEN_PATH, text).expect("write golden digest");
}
