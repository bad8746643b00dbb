//! Output digests: one text line per operation, committed per workload and
//! seed under `digests/`, so that a change in any simulated or trained
//! result shows as a readable line diff.

use std::path::PathBuf;

use cscnn::sim::RunStats;
use cscnn::PipelineReport;

/// FNV-1a (64-bit) over the fields fed to it.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn u64(&mut self, x: u64) {
        self.bytes(&x.to_le_bytes());
    }

    fn str(&mut self, s: &str) {
        self.bytes(s.as_bytes());
        self.u64(s.len() as u64);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// Digest line of one simulated run: readable totals plus an FNV-1a over
/// every layer's `compute_cycles`, `effective_mults` and the bits of
/// `time_s`, `dram_time_s` and on-chip pJ.
pub fn run_line(prefix: &str, run: &RunStats) -> String {
    let mut h = Fnv::new();
    for l in &run.layers {
        h.str(&l.name);
        h.u64(l.compute_cycles);
        h.u64(l.effective_mults);
        h.u64(l.time_s.to_bits());
        h.u64(l.dram_time_s.to_bits());
        h.u64(l.energy.on_chip_pj().to_bits());
    }
    format!(
        "{prefix} layers={} cycles={} time_s={:016x} on_chip_pj={:016x} layer_fnv={:016x}",
        run.layers.len(),
        run.total_cycles(),
        run.total_time_s().to_bits(),
        run.total_on_chip_pj().to_bits(),
        h.finish()
    )
}

/// Digest line of one compression-pipeline run: the bits of every
/// accuracy, of the kept fraction, and the multiplication counts.
pub fn report_line(name: &str, r: &PipelineReport) -> String {
    format!(
        "{name} baseline={:016x} projected={:016x} retrained={:016x} pruned={} kept={:016x} \
         mults={}/{}/{}",
        r.baseline_accuracy.to_bits(),
        r.post_projection_accuracy.to_bits(),
        r.retrained_accuracy.to_bits(),
        r.pruned_accuracy
            .map_or_else(|| "none".to_string(), |a| format!("{:016x}", a.to_bits())),
        r.kept_fraction.to_bits(),
        r.mults.dense,
        r.mults.centrosymmetric,
        r.mults.pruned
    )
}

fn path(workload: &str, seed: u64) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("digests")
        .join(format!("{workload}.seed{seed}.txt"))
}

/// The committed digest for `(workload, seed)`, if one exists.
pub fn committed(workload: &str, seed: u64) -> Option<Vec<String>> {
    let text = std::fs::read_to_string(path(workload, seed)).ok()?;
    Some(
        text.lines()
            .filter(|l| !l.starts_with('#') && !l.is_empty())
            .map(str::to_string)
            .collect(),
    )
}

/// Number of operations whose line differs from `expected` (a missing or
/// extra line counts as one failed operation).
pub fn mismatches(expected: &[String], got: &[String]) -> usize {
    let common = expected.iter().zip(got).filter(|(e, g)| e != g).count();
    common + expected.len().abs_diff(got.len())
}

/// Line diff between `old` and `new` (`-`/`+` per differing position).
pub fn diff(old: &[String], new: &[String]) -> Vec<String> {
    let mut out = Vec::new();
    for i in 0..old.len().max(new.len()) {
        match (old.get(i), new.get(i)) {
            (Some(o), Some(n)) if o == n => {}
            (o, n) => {
                if let Some(o) = o {
                    out.push(format!("- {o}"));
                }
                if let Some(n) = n {
                    out.push(format!("+ {n}"));
                }
            }
        }
    }
    out
}

/// Writes the digest for `(workload, seed)`.
pub fn write(workload: &str, seed: u64, lines: &[String]) -> std::io::Result<()> {
    let mut text = format!(
        "# {workload} output digest at seed {seed}; regenerate with\n\
         # cargo run --release --manifest-path perfbench/Cargo.toml -- --regen --workload {workload} --seed {seed}\n"
    );
    for line in lines {
        text.push_str(line);
        text.push('\n');
    }
    let file = path(workload, seed);
    if let Some(dir) = file.parent() {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(file, text)
}
