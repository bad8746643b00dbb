//! Wall-clock timing shared by the plain-`main()` benches under
//! `benches/` and the `kernels` sweep binary.
//!
//! No external harness: each helper warms up, then repeats the closure
//! until a time budget is spent (always at least one timed call) and
//! reports the mean time per call.

use std::time::{Duration, Instant};

/// Budget of [`bench()`] and [`bench_with_setup`].
const BENCH_BUDGET: Duration = Duration::from_millis(200);

/// Runs `f` until `budget` elapses, at least once; returns the timed
/// calls' total wall-clock time and their count.
fn repeat(budget: Duration, f: &mut dyn FnMut()) -> (Duration, u64) {
    let start = Instant::now();
    let mut iters = 0u64;
    loop {
        f();
        iters += 1;
        if start.elapsed() >= budget {
            return (start.elapsed(), iters);
        }
    }
}

fn report(name: &str, spent: Duration, iters: u64) {
    let per_iter = spent.as_nanos() as f64 / iters as f64;
    println!("{name:<36} {per_iter:>14.0} ns/iter  ({iters} iters)");
}

/// Times `f` after three warm-up calls and prints one
/// `name  ns/iter  (iters)` line.
pub fn bench(name: &str, mut f: impl FnMut()) {
    for _ in 0..3 {
        f();
    }
    let (spent, iters) = repeat(BENCH_BUDGET, &mut f);
    report(name, spent, iters);
}

/// [`bench()`] for closures that consume their input: `setup` rebuilds it
/// before every call, outside the timed region.
pub fn bench_with_setup<T>(name: &str, mut setup: impl FnMut() -> T, mut f: impl FnMut(T)) {
    f(setup());
    let mut spent = Duration::ZERO;
    let mut iters = 0u64;
    while spent < BENCH_BUDGET {
        let input = setup();
        let start = Instant::now();
        f(input);
        spent += start.elapsed();
        iters += 1;
    }
    report(name, spent, iters);
}

/// Mean wall-clock milliseconds per call of `f`: one warm-up call, then
/// repeats until `budget` elapses.
pub fn time_ms(budget: Duration, f: &mut dyn FnMut()) -> f64 {
    f();
    let (spent, iters) = repeat(budget, f);
    spent.as_secs_f64() * 1_000.0 / iters as f64
}
