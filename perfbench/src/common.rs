//! What every workload shares: seeded inputs, the work directory, the
//! report a workload hands back, and a few process probes.

use crate::stats;
use crate::trace;
use kron::KronProduct;
use kron_graph::Graph;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// One run's settings.
#[derive(Clone, Debug)]
pub struct Ctx {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub cores: usize,
    pub work: PathBuf,
}

impl Ctx {
    /// A seed for one named input of this run.
    pub fn seed_for(&self, what: &str) -> u64 {
        let mut h = self.seed ^ 0x9e37_79b9_7f4a_7c15;
        for b in what.bytes() {
            h = splitmix(h ^ u64::from(b));
        }
        h
    }
}

/// SplitMix64 step.
pub fn splitmix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The repository's standard web-like factor of order `n`
/// (`kron_bench::web_factor`: Holme–Kim, `m = 3`, `p_t = 0.75`, fixed
/// seed). The graph is the same in every run, so runs compare the same
/// work; the run's seed drives everything sampled from it.
pub fn web_factor(n: usize) -> Graph {
    let _s = trace::span("gen.web_factor");
    kron_bench::web_factor(n)
}

/// The product of the web factors of orders `n_a` and `n_b`.
pub fn product(n_a: usize, n_b: usize) -> KronProduct {
    let a = web_factor(n_a);
    let b = web_factor(n_b);
    let _s = trace::span("core.KronProduct::new");
    KronProduct::new(a, b)
}

/// A fresh, empty directory under the run's work directory.
pub fn fresh_dir(ctx: &Ctx, name: &str) -> PathBuf {
    let dir = ctx.work.join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create work directory");
    dir
}

/// Bytes of shard artifacts in a run directory (manifests, run summary
/// and factor copies excluded).
pub fn artifact_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .filter(|e| e.file_name().to_string_lossy().starts_with("shard_"))
        .filter(|e| e.path().extension().is_some_and(|x| x != "json"))
        .filter_map(|e| e.metadata().ok())
        .map(|md| md.len())
        .sum()
}

/// Flush every file of a run directory to disk, so the kernel's
/// writeback of freshly streamed shards does not land inside a
/// measurement.
pub fn sync_dir(dir: &Path) {
    if let Ok(entries) = std::fs::read_dir(dir) {
        for e in entries.flatten() {
            if let Ok(f) = std::fs::File::open(e.path()) {
                let _ = f.sync_all();
            }
        }
    }
}

/// The machine's CPU time so far as (stolen, total) jiffies, from the
/// `cpu` line of `/proc/stat`. Stolen time is time the hypervisor ran
/// something else while this VM's vCPUs wanted to run.
pub fn host_cpu_jiffies() -> (u64, u64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let fields: Vec<u64> = stat
        .lines()
        .next()
        .unwrap_or("")
        .split_whitespace()
        .skip(1)
        .map(|x| x.parse().unwrap_or(0))
        .collect();
    // user nice system idle iowait irq softirq steal (guest time is
    // already inside user and nice)
    let total = fields.iter().take(8).sum();
    (fields.get(7).copied().unwrap_or(0), total)
}

/// Peak resident set size of this process, MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Run `setup` `times` times and keep the last result; the setup time
/// is the median of the repetitions.
pub fn timed_setup<T>(times: usize, mut setup: impl FnMut() -> T) -> (T, f64, usize) {
    let mut secs = Vec::with_capacity(times);
    let mut last: Option<T> = None;
    for _ in 0..times.max(1) {
        drop(last.take()); // free the previous state before the next
        let t0 = Instant::now();
        let _s = trace::span("setup");
        last = Some(setup());
        secs.push(t0.elapsed().as_secs_f64());
    }
    (
        last.expect("at least one setup"),
        stats::median(&secs),
        secs.len(),
    )
}

/// A measured figure: its value, unit and how many samples it stands on.
#[derive(Clone, Debug)]
pub struct Figure {
    pub value: f64,
    pub unit: &'static str,
    pub samples: usize,
}

pub fn fig(value: f64, unit: &'static str, samples: usize) -> Figure {
    Figure {
        value,
        unit,
        samples,
    }
}

/// What a workload hands back to `main`.
#[derive(Debug, Default)]
pub struct Report {
    /// Operations attempted and failed (a wrong answer is a failure).
    pub attempted: u64,
    pub failed: u64,
    /// The generic end-to-end metrics (see `BENCHMARK.json`).
    pub end_to_end: BTreeMap<&'static str, Figure>,
    /// The same results under the workload's own metric names.
    pub named: Vec<(&'static str, Figure)>,
    /// Per-layer metrics (traced runs only).
    pub layers: BTreeMap<&'static str, f64>,
    /// End-to-end metrics of the untraced half of a traced run.
    pub untraced: BTreeMap<&'static str, Figure>,
    /// Human-readable lines printed before the result.
    pub notes: Vec<String>,
    /// Correctness problems, one line each.
    pub problems: Vec<String>,
    /// The spans of a traced run.
    pub spans: Vec<crate::trace::Span>,
}

impl Report {
    /// Count one operation; a failed one is described by `problem`.
    pub fn op(&mut self, problem: Option<String>) {
        self.attempted += 1;
        if let Some(p) = problem {
            self.fail(p);
        }
    }

    /// Count a failure of an operation already counted as attempted.
    pub fn fail(&mut self, problem: String) {
        self.failed += 1;
        if self.problems.len() < 20 {
            self.problems.push(problem);
        }
    }
}

/// Time one call.
pub fn time<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let t0 = Instant::now();
    let out = f();
    (out, t0.elapsed())
}
