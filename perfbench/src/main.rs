//! The CSCNN reproduction's benchmark: end-to-end host-time metrics per
//! workload, and a separate traced run that splits them per layer.
//!
//! ```sh
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload eval_suite --seed 42 --seconds 38 --trace 0
//! cargo run --release --manifest-path perfbench/Cargo.toml -- --workload all
//! cargo run --release --manifest-path perfbench/Cargo.toml -- --smoke
//! cargo run --release --manifest-path perfbench/Cargo.toml -- --regen --workload batch_ir
//! ```
//!
//! The last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`. See `perfbench/README.md`.

mod digest;
mod layers;
mod sim;
mod spans;
mod train;
mod workload;

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use cscnn::json::{ToJson, Value};

use layers::Metric;
use spans::Recorder;
use workload::{Pass, Scale, Workload};

/// The seed every table and figure harness uses (`cscnn_bench::SEED`).
const DEFAULT_SEED: u64 = cscnn_bench::SEED;
/// A seed kept out of tuning, with its own committed digests.
const HELD_OUT_SEED: u64 = 7;
/// Set-ups per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 15;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    seed_given: bool,
}

enum Mode {
    Run(Args),
    Regen(Args),
    Smoke,
}

fn parse_args() -> Result<Mode, String> {
    let mut args = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: 38.0,
        trace: false,
        seed_given: false,
    };
    let (mut regen, mut smoke) = (false, false);
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => {
                args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?;
                args.seed_given = true;
            }
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds >= 0.0 && args.seconds.is_finite()) {
                    return Err("--seconds must be a non-negative number".into());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got `{other}`")),
                }
            }
            "--regen" => regen = true,
            "--smoke" => smoke = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if smoke {
        return Ok(Mode::Smoke);
    }
    if args.workload.is_empty() {
        return Err("--workload is required (one of the workloads, or `all`)".into());
    }
    if args.workload != "all" && !workload::NAMES.contains(&args.workload.as_str()) {
        return Err(format!("unknown workload `{}`", args.workload));
    }
    Ok(if regen {
        Mode::Regen(args)
    } else {
        Mode::Run(args)
    })
}

/// The machine and build a result was measured on.
struct Machine {
    nproc: usize,
    threads: usize,
}

impl Machine {
    /// Pins `CSCNN_NUM_THREADS` to at most the core count (the knob sizes
    /// the tensor kernels and `BatchRunner`; `Runner::run_suite` ignores
    /// it).
    fn pin_threads() -> Self {
        let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
        let requested = std::env::var("CSCNN_NUM_THREADS")
            .ok()
            .and_then(|v| v.trim().parse::<usize>().ok())
            .filter(|&n| n >= 1);
        let threads = requested.map_or(nproc, |n| n.min(nproc));
        std::env::set_var("CSCNN_NUM_THREADS", threads.to_string());
        Machine { nproc, threads }
    }

    fn record(&self) -> Vec<(&'static str, String)> {
        vec![
            ("nproc", self.nproc.to_string()),
            ("CSCNN_NUM_THREADS", self.threads.to_string()),
            (
                "profile",
                if cfg!(debug_assertions) {
                    "debug"
                } else {
                    "release"
                }
                .to_string(),
            ),
            ("rustc", env!("PERFBENCH_RUSTC_VERSION").to_string()),
            ("commit", commit()),
        ]
    }
}

fn repo_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("..")
}

/// The checked-out commit, read from `.git` (the benchmark may run in a
/// copy that is not a git repository).
fn commit() -> String {
    let git = repo_root().join(".git");
    let read = |p: PathBuf| {
        std::fs::read_to_string(p)
            .ok()
            .map(|s| s.trim().to_string())
    };
    let Some(head) = read(git.join("HEAD")) else {
        return "unknown".into();
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    if let Some(hash) = read(git.join(reference)) {
        return hash;
    }
    read(git.join("packed-refs"))
        .and_then(|packed| {
            packed
                .lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next().map(str::to_string))
        })
        .unwrap_or_else(|| "unknown".into())
}

/// Peak resident set of this process, in MiB (`VmHWM`).
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1)?.parse::<f64>().ok())
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// A pass during which the hypervisor ran other guests on more than this
/// share of the machine's CPU time measured the host, not the program.
const STEAL_LIMIT: f64 = 0.05;

/// Steal and total ticks of the whole machine so far, from the `cpu` line
/// of `/proc/stat` (`None` where it cannot be read).
fn cpu_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let ticks: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .map(|t| t.parse().ok())
        .collect::<Option<_>>()?;
    // user nice system idle iowait irq softirq steal; the guest fields
    // after them are already counted in user and nice.
    let steal = *ticks.get(7)?;
    Some((steal, ticks.iter().take(8).sum()))
}

/// Share of the machine's CPU time stolen between two readings of
/// `cpu_ticks` (0 where `/proc/stat` cannot be read).
fn steal_share(before: Option<(u64, u64)>, after: Option<(u64, u64)>) -> f64 {
    match (before, after) {
        (Some((s0, t0)), Some((s1, t1))) if t1 > t0 => {
            s1.saturating_sub(s0) as f64 / (t1 - t0) as f64
        }
        _ => 0.0,
    }
}

fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => 0.5 * (v[n / 2 - 1] + v[n / 2]),
    }
}

/// Runs a pass, turning a panic into one failed operation per expected
/// line.
fn guarded(expected_ops: usize, pass: impl FnOnce() -> Pass) -> Pass {
    catch_unwind(AssertUnwindSafe(pass)).unwrap_or_else(|_| Pass {
        items: 0,
        lines: vec!["ERR panicked".to_string(); expected_ops.max(1)],
    })
}

/// Tally of operations checked against the expected digest.
#[derive(Default)]
struct Tally {
    attempted: usize,
    failed: usize,
    problems: Vec<String>,
}

impl Tally {
    fn check(&mut self, what: &str, expected: &[String], pass: &Pass) {
        let ops = expected.len().max(pass.lines.len());
        let bad = digest::mismatches(expected, &pass.lines)
            .max(pass.errors())
            .min(ops);
        self.attempted += ops;
        self.failed += bad;
        if bad > 0 {
            self.problems
                .push(format!("{what}: {bad} of {ops} operations differ"));
            self.problems
                .extend(digest::diff(expected, &pass.lines).into_iter().take(6));
        }
    }

    fn fail(&mut self, problems: Vec<String>) {
        self.failed = (self.failed + problems.len()).min(self.attempted.max(1));
        self.attempted = self.attempted.max(1);
        self.problems.extend(problems);
    }
}

struct Outcome {
    tally: Tally,
    metrics: Vec<Metric>,
    record: Vec<(&'static str, Value)>,
    trace: Option<String>,
}

/// Wall and process CPU seconds of each of `SETUP_REPEATS` set-ups.
struct SetupTimes {
    wall: Vec<f64>,
    cpu: Vec<f64>,
}

/// Sets up `name` `SETUP_REPEATS` times and returns the last set-up with
/// every set-up's duration.
fn set_up(name: &str, seed: u64, scale: Scale) -> Result<(Box<dyn Workload>, SetupTimes), String> {
    let mut times = SetupTimes {
        wall: Vec::with_capacity(SETUP_REPEATS),
        cpu: Vec::with_capacity(SETUP_REPEATS),
    };
    let mut kept = None;
    for _ in 0..SETUP_REPEATS {
        let (t, cpu) = (Instant::now(), spans::process_cpu_ns());
        let w = workload::setup(name, seed, scale)?;
        times.wall.push(t.elapsed().as_secs_f64());
        times
            .cpu
            .push((spans::process_cpu_ns() - cpu) as f64 * 1e-9);
        kept = Some(w);
    }
    Ok((kept.expect("at least one set-up"), times))
}

/// Runs one workload: set-up, then timed passes for `seconds` (at least
/// one), untraced or traced.
fn run(name: &str, seed: u64, seconds: f64, trace: bool, scale: Scale) -> Result<Outcome, String> {
    let (mut w, setup_times) = set_up(name, seed, scale)?;
    let committed = match scale {
        Scale::Full => digest::committed(name, seed),
        Scale::Tiny => None,
    };
    let mut tally = Tally::default();
    let mut record: Vec<(&'static str, Value)> = Vec::new();
    let started = Instant::now();
    let (metrics, trace_json, reference) = if trace {
        let rec = Recorder::new();
        let (mut untraced_s, mut traced_s, mut cover) = (Vec::new(), Vec::new(), Vec::new());
        let mut all_spans = Vec::new();
        let mut reference: Option<Vec<String>> = committed.clone();
        loop {
            let t = Instant::now();
            let plain = guarded(reference.as_ref().map_or(1, Vec::len), || w.pass());
            untraced_s.push(t.elapsed().as_secs_f64());
            let expected = reference.get_or_insert_with(|| plain.lines.clone()).clone();
            tally.check("untraced pass", &expected, &plain);
            let lo = rec.now_ns();
            let t = Instant::now();
            let traced = guarded(expected.len(), || w.traced_pass(&rec));
            traced_s.push(t.elapsed().as_secs_f64());
            let hi = rec.now_ns();
            // Fidelity: the traced replay must reproduce the untraced
            // outputs bit for bit.
            tally.check("traced pass vs untraced", &plain.lines, &traced);
            tally.check("traced pass", &expected, &traced);
            let (spans, counters) = rec.drain();
            cover.push(layers::coverage(&spans, lo, hi));
            all_spans.push((spans, counters));
            let pair = untraced_s.last().unwrap_or(&0.0) + traced_s.last().unwrap_or(&0.0);
            if started.elapsed().as_secs_f64() + pair > seconds {
                break;
            }
        }
        let passes = all_spans.len();
        let mut counters = std::collections::BTreeMap::new();
        let mut spans = Vec::new();
        for (s, c) in all_spans {
            for (k, v) in c {
                *counters.entry(k).or_insert(0.0) += v;
            }
            spans.push(s);
        }
        let last_pass = spans.last().map(|s| spans::chrome_trace(s));
        let spans: Vec<spans::Span> = spans.into_iter().flatten().collect();
        let overhead = median(&traced_s) / median(&untraced_s) - 1.0;
        let coverage = cover.iter().sum::<f64>() / cover.len().max(1) as f64;
        record.push(("traced_passes", passes.to_json()));
        record.push(("untraced_pass_s", untraced_s.to_json()));
        record.push(("traced_pass_s", traced_s.to_json()));
        (
            layers::per_layer(&spans, &counters, passes, overhead, coverage),
            last_pass,
            reference.unwrap_or_default(),
        )
    } else {
        let (mut pass_s, mut items, mut cpu_s) = (Vec::new(), Vec::new(), Vec::new());
        let mut steal = Vec::new();
        // Read after the first timed pass: a user runs a workload once per
        // process, and on `eval_suite` each later pass only adds the malloc
        // arenas of its 9 fresh threads, so the figure would depend on how
        // many passes fit in `--seconds`.
        let mut peak_mb = None;
        let mut reference: Option<Vec<String>> = committed.clone();
        loop {
            let (t, cpu, ticks) = (Instant::now(), spans::process_cpu_ns(), cpu_ticks());
            let pass = guarded(reference.as_ref().map_or(1, Vec::len), || w.pass());
            let secs = t.elapsed().as_secs_f64();
            cpu_s.push((spans::process_cpu_ns() - cpu) as f64 * 1e-9);
            steal.push(steal_share(ticks, cpu_ticks()));
            pass_s.push(secs);
            items.push(pass.items as f64);
            if peak_mb.is_none() {
                peak_mb = Some(peak_rss_mb());
            }
            let expected = reference.get_or_insert_with(|| pass.lines.clone());
            tally.check("pass", expected, &pass);
            let last = pass_s.last().copied().unwrap_or(0.0);
            if started.elapsed().as_secs_f64() + last > seconds {
                break;
            }
        }
        record.push(("passes", pass_s.len().to_json()));
        record.push(("pass_s", pass_s.to_json()));
        record.push(("pass_cpu_s", cpu_s.to_json()));
        record.push(("pass_steal", steal.to_json()));
        // Items over host seconds of all timed passes: the host's speed
        // swings within seconds, and a median of the few passes of a run
        // jumps between its fast and slow phases. Passes the hypervisor
        // stole from are left out while any pass is left.
        let clean: Vec<usize> = (0..pass_s.len())
            .filter(|&i| steal[i] <= STEAL_LIMIT)
            .collect();
        let counted: Vec<usize> = if clean.is_empty() {
            (0..pass_s.len()).collect()
        } else {
            clean
        };
        record.push(("counted_passes", counted.len().to_json()));
        let rate = counted.iter().map(|&i| items[i]).sum::<f64>()
            / counted.iter().map(|&i| pass_s[i]).sum::<f64>();
        let metrics = vec![
            Metric::new("items_per_s", "1/s", rate),
            Metric::new("setup_s", "s", median(&setup_times.wall)),
            Metric::new("peak_rss_mb", "MiB", peak_mb.unwrap_or_else(peak_rss_mb)),
        ];
        (metrics, None, reference.unwrap_or_default())
    };
    let cross = w.cross_check(&reference);
    if !cross.is_empty() {
        tally.fail(cross);
    }
    record.push(("setup_s", setup_times.wall.to_json()));
    record.push(("setup_cpu_s", setup_times.cpu.to_json()));
    record.push((
        "digest",
        if committed.is_some() {
            "committed"
        } else {
            "first pass"
        }
        .to_json(),
    ));
    if let Some(line) = reference.iter().find(|l| l.starts_with("paper_err=")) {
        record.push(("paper_err", line.to_json()));
    }
    let settings: Vec<(String, Value)> = w
        .settings()
        .into_iter()
        .map(|(k, v)| (k.to_string(), v.to_json()))
        .collect();
    record.push(("settings", Value::Obj(settings)));
    Ok(Outcome {
        tally,
        metrics,
        record,
        trace: trace_json,
    })
}

fn metrics_json(metrics: &[Metric]) -> Value {
    Value::Obj(
        metrics
            .iter()
            .map(|m| {
                (
                    m.name.clone(),
                    Value::Obj(vec![
                        ("value".into(), Value::F64(m.value)),
                        ("unit".into(), m.unit.to_json()),
                    ]),
                )
            })
            .collect(),
    )
}

fn run_mode(args: &Args, machine: &Machine) -> Result<bool, String> {
    let out = run(
        &args.workload,
        args.seed,
        args.seconds,
        args.trace,
        Scale::Full,
    )?;
    let t = &out.tally;
    println!(
        "workload {} seed {} trace {}",
        args.workload,
        args.seed,
        u8::from(args.trace)
    );
    for (k, v) in machine.record() {
        println!("  {k:<28} {v}");
    }
    for (k, v) in &out.record {
        println!(
            "  {k:<28} {}",
            cscnn::json::to_string(v).unwrap_or_default()
        );
    }
    for p in &t.problems {
        println!("  FAIL {p}");
    }
    println!(
        "  {:<28} {} / {} = {}",
        "fail_ratio",
        t.failed,
        t.attempted,
        t.failed as f64 / t.attempted.max(1) as f64
    );
    for m in &out.metrics {
        println!("  {:<44} {:>16.6} {}", m.name, m.value, m.unit);
    }

    let dir = repo_root().join(".bench_out");
    let stem = format!(
        "{}-seed{}-trace{}",
        args.workload,
        args.seed,
        u8::from(args.trace)
    );
    let mut doc = vec![
        ("workload".to_string(), args.workload.to_json()),
        ("seed".to_string(), args.seed.to_json()),
        ("seconds".to_string(), args.seconds.to_json()),
        ("trace".to_string(), args.trace.to_json()),
    ];
    doc.push((
        "machine".into(),
        Value::Obj(
            machine
                .record()
                .into_iter()
                .map(|(k, v)| (k.to_string(), v.to_json()))
                .collect(),
        ),
    ));
    doc.extend(out.record.iter().map(|(k, v)| (k.to_string(), v.clone())));
    doc.push(("attempted".into(), t.attempted.to_json()));
    doc.push(("failed".into(), t.failed.to_json()));
    doc.push(("problems".into(), t.problems.to_json()));
    doc.push(("metrics".into(), metrics_json(&out.metrics)));
    let written = std::fs::create_dir_all(&dir).and_then(|()| {
        let json =
            cscnn::json::to_string_pretty(&Value::Obj(doc)).map_err(std::io::Error::other)?;
        std::fs::write(dir.join(format!("{stem}.json")), json)?;
        if let Some(trace) = &out.trace {
            std::fs::write(dir.join(format!("{stem}.trace.json")), trace)?;
        }
        Ok(())
    });
    if let Err(err) = written {
        println!("  (could not write {}: {err})", dir.display());
    }

    let line = Value::Obj(vec![
        ("correct".into(), Value::Bool(t.failed == 0)),
        ("attempted".into(), t.attempted.max(1).to_json()),
        ("failed".into(), t.failed.to_json()),
        ("metrics".into(), metrics_json(&out.metrics)),
    ]);
    println!(
        "{}",
        cscnn::json::to_string(&line).map_err(|e| e.to_string())?
    );
    Ok(t.failed == 0)
}

/// Runs every workload in its own process, one after another, so that
/// each has its own peak-memory figure.
fn run_all(args: &Args) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut ok = true;
    for name in workload::NAMES {
        let status = std::process::Command::new(&exe)
            .args(["--workload", name])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .status()
            .map_err(|e| e.to_string())?;
        ok &= status.success();
    }
    Ok(ok)
}

/// Recomputes the digests at the default and the held-out seed (or at
/// `--seed`), prints the diff against the committed ones and rewrites
/// them. Refuses to write a digest whose outputs fail their own checks.
fn regen(args: &Args) -> Result<bool, String> {
    let names: Vec<&str> = if args.workload == "all" {
        workload::NAMES.to_vec()
    } else {
        vec![args.workload.as_str()]
    };
    let seeds = if args.seed_given {
        vec![args.seed]
    } else {
        vec![DEFAULT_SEED, HELD_OUT_SEED]
    };
    let mut ok = true;
    for name in names {
        for &seed in &seeds {
            let mut w = workload::setup(name, seed, Scale::Full)?;
            let pass = w.pass();
            let problems = w.cross_check(&pass.lines);
            if pass.errors() > 0 || !problems.is_empty() {
                println!("{name} seed {seed}: not written, the outputs fail their checks:");
                for line in pass.lines.iter().filter(|l| l.starts_with("ERR")) {
                    println!("  {line}");
                }
                for p in problems {
                    println!("  {p}");
                }
                ok = false;
                continue;
            }
            let old = digest::committed(name, seed).unwrap_or_default();
            let diff = digest::diff(&old, &pass.lines);
            println!("{name} seed {seed}: {} changed lines", diff.len());
            for line in diff {
                println!("  {line}");
            }
            digest::write(name, seed, &pass.lines).map_err(|e| e.to_string())?;
        }
    }
    Ok(ok)
}

/// Runs every workload once on tiny inputs, untraced and traced, and
/// checks that each metric `BENCHMARK.json` declares is emitted with a
/// unit and that every name is well formed.
fn smoke() -> Result<bool, String> {
    let path = repo_root().join("BENCHMARK.json");
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    let doc: Value = cscnn::json::from_str(&text).map_err(|e| e.to_string())?;
    let declared = |key: &str| -> Vec<String> {
        doc.get(key)
            .and_then(Value::as_array)
            .map(|items| {
                items
                    .iter()
                    .filter_map(|m| m.get("name").and_then(Value::as_str).map(str::to_string))
                    .collect()
            })
            .unwrap_or_default()
    };
    let well_formed = |name: &str| {
        !name.is_empty()
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    };
    let mut ok = true;
    for name in workload::NAMES {
        for (trace, key) in [(false, "end_to_end"), (true, "per_layer")] {
            let out = run(name, DEFAULT_SEED, 0.0, trace, Scale::Tiny)?;
            let emitted: Vec<&Metric> = out.metrics.iter().collect();
            let mut problems = out.tally.problems.clone();
            if out.tally.failed > 0 {
                problems.push(format!("{} operations failed", out.tally.failed));
            }
            for want in declared(key) {
                match emitted.iter().find(|m| m.name == want) {
                    Some(m) if !m.unit.is_empty() && m.value.is_finite() => {}
                    Some(_) => problems.push(format!("{want}: no unit or not finite")),
                    None => problems.push(format!("{want}: declared but not emitted")),
                }
            }
            for m in &emitted {
                if !well_formed(&m.name) || !well_formed(m.unit.replace('/', "_").as_str()) {
                    problems.push(format!("malformed metric `{}` [{}]", m.name, m.unit));
                }
            }
            let status = if problems.is_empty() { "ok" } else { "FAIL" };
            println!("smoke {name} trace {}: {status}", u8::from(trace));
            for p in &problems {
                println!("  {p}");
            }
            ok &= problems.is_empty();
        }
    }
    Ok(ok)
}

fn main() -> ExitCode {
    let machine = Machine::pin_threads();
    let result = match parse_args() {
        Ok(Mode::Smoke) => smoke(),
        Ok(Mode::Regen(args)) => regen(&args),
        Ok(Mode::Run(args)) if args.workload == "all" => run_all(&args),
        Ok(Mode::Run(args)) => run_mode(&args, &machine),
        Err(err) => Err(err),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(err) => {
            eprintln!("perfbench: {err}");
            ExitCode::from(2)
        }
    }
}
