//! Runs the benchmark's smoke mode: every workload once on tiny inputs,
//! untraced and traced, checking that every metric `BENCHMARK.json`
//! declares is emitted with a unit and a well-formed name.

use std::process::Command;

#[test]
fn smoke_mode_emits_every_declared_metric() {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .arg("--smoke")
        .output()
        .expect("benchmark binary runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "smoke mode failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert_eq!(stdout.matches(": ok").count(), 8, "{stdout}");
}

#[test]
fn unknown_arguments_are_rejected_without_a_result() {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", "nope"])
        .output()
        .expect("benchmark binary runs");
    assert!(!out.status.success());
    assert!(out.stdout.is_empty());
}
