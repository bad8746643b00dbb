//! Kernel timing sweep: naive reference vs blocked/threaded kernels.
//!
//! Times `matmul`/`conv2d`/`conv2d_grouped` at paper-relevant layer shapes
//! (AlexNet conv2, VGG conv3-scale, MobileNet depthwise + pointwise), and
//! forward + backward over one kept [`ConvLowering`] at two of them, each
//! in three configurations:
//!
//! * `naive` — the frozen seed kernels of [`cscnn::tensor::reference`],
//!   called directly;
//! * `blocked_1t` — the cache-blocked, register-tiled kernels pinned to a
//!   single thread;
//! * `blocked_mt` — the same kernels at the default thread count.
//!
//! All three configurations compute bit-identical results; only wall-clock
//! time differs. A whole `mobile_cnn` training step is timed by perfbench's
//! `train_mobile` workload instead. Plain timing (warm-up + wall-clock
//! budget, [`cscnn_bench::timing::time_ms`]), no external benchmark
//! harness — consistent with `benches/*.rs`.
//!
//! Output: a human-readable table on stdout and a machine-readable
//! `BENCH_kernels.json` (schema `cscnn-bench-kernels-v1`). `--smoke` runs
//! tiny shapes with a tiny time budget and writes to
//! `target/BENCH_kernels_smoke.json` instead, so CI can exercise the
//! binary and the JSON schema without clobbering the committed full-run
//! numbers.

use std::hint::black_box;
use std::time::Duration;

use cscnn::json::{from_str, to_string_pretty, Value};
use cscnn::tensor::{
    conv2d_grouped, matmul, matmul_at, matmul_bt, num_threads, reference, reset_num_threads,
    set_num_threads, ConvLowering, ConvSpec, Tensor,
};
use cscnn_bench::timing::time_ms;

/// One measured workload: the same computation timed under all three
/// kernel configurations.
struct Sample {
    name: String,
    kind: &'static str,
    shape: String,
    naive_ms: f64,
    blocked_1t_ms: f64,
    blocked_mt_ms: f64,
}

impl Sample {
    fn speedup_1t(&self) -> f64 {
        self.naive_ms / self.blocked_1t_ms
    }

    fn speedup_mt(&self) -> f64 {
        self.naive_ms / self.blocked_mt_ms
    }
}

/// Times `naive` on one thread, then `blocked` on one and on `mt_threads`
/// threads.
fn measure(
    name: &str,
    kind: &'static str,
    shape: String,
    budget: Duration,
    mt_threads: usize,
    naive: &mut dyn FnMut(),
    blocked: &mut dyn FnMut(),
) -> Sample {
    set_num_threads(1);
    let naive_ms = time_ms(budget, naive);
    let blocked_1t_ms = time_ms(budget, blocked);
    set_num_threads(mt_threads);
    let blocked_mt_ms = time_ms(budget, blocked);
    reset_num_threads();
    let sample = Sample {
        name: name.to_string(),
        kind,
        shape,
        naive_ms,
        blocked_1t_ms,
        blocked_mt_ms,
    };
    println!(
        "{:<28} {:>10.3} {:>12.3} {:>12.3} {:>8.2}x {:>8.2}x",
        sample.name,
        sample.naive_ms,
        sample.blocked_1t_ms,
        sample.blocked_mt_ms,
        sample.speedup_1t(),
        sample.speedup_mt(),
    );
    sample
}

/// Deterministic dense test tensor (no RNG state shared across entries).
fn filled(dims: &[usize], scale: f32) -> Tensor {
    Tensor::from_fn(dims, |i| ((i as f32) * scale).sin())
}

struct MatmulShape {
    name: &'static str,
    m: usize,
    k: usize,
    n: usize,
}

struct ConvShape {
    name: &'static str,
    input: [usize; 4],
    filters: usize,
    kernel: usize,
    padding: usize,
    stride: usize,
    groups: usize,
    /// Also time forward + backward over one kept [`ConvLowering`].
    train: bool,
}

fn matmul_entries(smoke: bool, budget: Duration, mt: usize, out: &mut Vec<Sample>) {
    let shapes: &[MatmulShape] = if smoke {
        &[MatmulShape {
            name: "matmul_smoke",
            m: 24,
            k: 24,
            n: 24,
        }]
    } else {
        &[
            MatmulShape {
                name: "matmul_512",
                m: 512,
                k: 512,
                n: 512,
            },
            MatmulShape {
                name: "matmul_fc_alexnet",
                m: 64,
                k: 4096,
                n: 1000,
            },
        ]
    };
    for s in shapes {
        let a = filled(&[s.m, s.k], 1e-3);
        let b = filled(&[s.k, s.n], 2e-3);
        let at = filled(&[s.k, s.m], 1e-3);
        let bt = filled(&[s.n, s.k], 2e-3);
        let shape = format!("[{},{}]x[{},{}]", s.m, s.k, s.k, s.n);
        out.push(measure(
            s.name,
            "matmul",
            shape.clone(),
            budget,
            mt,
            &mut || {
                black_box(reference::matmul(black_box(&a), black_box(&b)));
            },
            &mut || {
                black_box(matmul(black_box(&a), black_box(&b)));
            },
        ));
        out.push(measure(
            &format!("{}_at", s.name),
            "matmul_at",
            shape.clone(),
            budget,
            mt,
            &mut || {
                black_box(reference::matmul_at(black_box(&at), black_box(&b)));
            },
            &mut || {
                black_box(matmul_at(black_box(&at), black_box(&b)));
            },
        ));
        out.push(measure(
            &format!("{}_bt", s.name),
            "matmul_bt",
            shape,
            budget,
            mt,
            &mut || {
                black_box(reference::matmul_bt(black_box(&a), black_box(&bt)));
            },
            &mut || {
                black_box(matmul_bt(black_box(&a), black_box(&bt)));
            },
        ));
    }
}

fn conv_entries(smoke: bool, budget: Duration, mt: usize, out: &mut Vec<Sample>) {
    let shapes: &[ConvShape] = if smoke {
        &[
            ConvShape {
                name: "conv_smoke",
                input: [1, 4, 10, 10],
                filters: 6,
                kernel: 3,
                padding: 1,
                stride: 1,
                groups: 1,
                train: true,
            },
            ConvShape {
                name: "depthwise_smoke",
                input: [2, 8, 8, 8],
                filters: 8,
                kernel: 3,
                padding: 1,
                stride: 1,
                groups: 8,
                train: false,
            },
        ]
    } else {
        &[
            ConvShape {
                name: "alexnet_conv2",
                input: [1, 96, 27, 27],
                filters: 256,
                kernel: 5,
                padding: 2,
                stride: 1,
                groups: 1,
                train: false,
            },
            ConvShape {
                name: "vgg_conv3",
                input: [1, 256, 56, 56],
                filters: 256,
                kernel: 3,
                padding: 1,
                stride: 1,
                groups: 1,
                train: true,
            },
            ConvShape {
                name: "mobilenet_dw_14",
                input: [4, 256, 14, 14],
                filters: 256,
                kernel: 3,
                padding: 1,
                stride: 1,
                groups: 256,
                train: false,
            },
            ConvShape {
                name: "mobilenet_pw_14",
                input: [4, 256, 14, 14],
                filters: 256,
                kernel: 1,
                padding: 0,
                stride: 1,
                groups: 1,
                train: false,
            },
        ]
    };
    for s in shapes {
        let spec = ConvSpec::new(s.kernel, s.kernel)
            .with_stride(s.stride)
            .with_padding(s.padding);
        let input = filled(&s.input, 1e-3);
        let weight = filled(
            &[s.filters, s.input[1] / s.groups, s.kernel, s.kernel],
            2e-3,
        );
        let bias = filled(&[s.filters], 1e-2);
        let shape = format!(
            "{:?} -> K={} {}x{} p{} s{} g{}",
            s.input, s.filters, s.kernel, s.kernel, s.padding, s.stride, s.groups
        );
        let kind = if s.groups > 1 {
            "conv2d_grouped"
        } else {
            "conv2d"
        };
        out.push(measure(
            s.name,
            kind,
            shape.clone(),
            budget,
            mt,
            &mut || {
                black_box(reference::conv2d_grouped(
                    black_box(&input),
                    black_box(&weight),
                    &bias,
                    &spec,
                    s.groups,
                ));
            },
            &mut || {
                black_box(conv2d_grouped(
                    black_box(&input),
                    black_box(&weight),
                    &bias,
                    &spec,
                    s.groups,
                ));
            },
        ));
        if s.train {
            let (oh, ow) = spec.output_dim(s.input[2], s.input[3]);
            let grad_out = filled(&[s.input[0], s.filters, oh, ow], 3e-3);
            // As a `Conv2d` layer does each step: re-lower into the kept
            // buffer, then run forward and backward on that one lowering.
            let mut lowering = ConvLowering::lower(&input, &spec, s.groups);
            out.push(measure(
                &format!("{}_train", s.name),
                "conv_fwd_bwd",
                shape,
                budget,
                mt,
                &mut || {
                    black_box(reference::conv2d_grouped(
                        &input, &weight, &bias, &spec, s.groups,
                    ));
                    black_box(reference::conv2d_grouped_backward(
                        &input, &weight, &grad_out, &spec, s.groups,
                    ));
                },
                &mut || {
                    lowering.lower_into(black_box(&input), &spec, s.groups);
                    black_box(lowering.forward(&weight, &bias));
                    black_box(lowering.backward(&weight, &grad_out));
                },
            ));
        }
    }
}

fn report(samples: &[Sample], smoke: bool, mt: usize) -> Value {
    let entries = samples
        .iter()
        .map(|s| {
            Value::Obj(vec![
                ("name".to_string(), Value::Str(s.name.clone())),
                ("kind".to_string(), Value::Str(s.kind.to_string())),
                ("shape".to_string(), Value::Str(s.shape.clone())),
                ("naive_ms".to_string(), Value::F64(s.naive_ms)),
                ("blocked_1t_ms".to_string(), Value::F64(s.blocked_1t_ms)),
                ("blocked_mt_ms".to_string(), Value::F64(s.blocked_mt_ms)),
                (
                    "speedup_blocked_1t_vs_naive".to_string(),
                    Value::F64(s.speedup_1t()),
                ),
                (
                    "speedup_blocked_mt_vs_naive".to_string(),
                    Value::F64(s.speedup_mt()),
                ),
            ])
        })
        .collect();
    Value::Obj(vec![
        (
            "schema".to_string(),
            Value::Str("cscnn-bench-kernels-v1".to_string()),
        ),
        (
            "mode".to_string(),
            Value::Str(if smoke { "smoke" } else { "full" }.to_string()),
        ),
        (
            "threads".to_string(),
            Value::Obj(vec![("blocked_mt".to_string(), Value::U64(mt as u64))]),
        ),
        ("entries".to_string(), Value::Arr(entries)),
    ])
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let budget = if smoke {
        Duration::from_millis(5)
    } else {
        Duration::from_millis(150)
    };
    // The multi-thread configuration uses the process default (the
    // validated CSCNN_NUM_THREADS, else available parallelism).
    reset_num_threads();
    let mt = num_threads();
    println!(
        "kernel sweep ({}), blocked_mt = {mt} thread(s)",
        if smoke { "smoke" } else { "full" }
    );
    println!(
        "{:<28} {:>10} {:>12} {:>12} {:>9} {:>9}",
        "workload", "naive ms", "blocked 1t", "blocked mt", "1t spdup", "mt spdup"
    );
    let mut samples = Vec::new();
    matmul_entries(smoke, budget, mt, &mut samples);
    conv_entries(smoke, budget, mt, &mut samples);
    reset_num_threads();

    let json = report(&samples, smoke, mt);
    let text = to_string_pretty(&json).expect("report serializes");
    let path = if smoke {
        std::path::PathBuf::from("target/BENCH_kernels_smoke.json")
    } else {
        std::path::PathBuf::from("BENCH_kernels.json")
    };
    std::fs::write(&path, &text).expect("writing the bench report");
    // Round-trip self-check so schema rot fails the smoke run, not a
    // downstream consumer.
    let parsed: Value = from_str(&std::fs::read_to_string(&path).expect("re-reading report"))
        .expect("report parses back");
    let schema = parsed
        .get("schema")
        .and_then(Value::as_str)
        .expect("schema field present");
    assert_eq!(schema, "cscnn-bench-kernels-v1");
    println!("wrote {}", path.display());
}
