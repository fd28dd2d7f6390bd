//! The repository benchmark.
//!
//! ```text
//! perfbench --workload offline-validate|serve-point|cluster-traverse|all
//!           --seed N --seconds S --trace 0|1
//! ```
//!
//! Run from the repository root, e.g. `cargo run --release --offline
//! --manifest-path perfbench/Cargo.toml -- --workload serve-point --seed 1
//! --seconds 10 --trace 0`. Inputs are made from `--seed`; every answer
//! is checked, off the clock, against the paper's closed forms. Human
//! readable lines come first; the last line of standard output is one
//! JSON object `{"correct", "attempted", "failed", "metrics"}` holding
//! the end-to-end metrics (`--trace 0`) or the per-layer metrics
//! (`--trace 1`). The exit code is 0 only when every answer was right.
//! Scratch files live under `.bench_work/` and are removed at exit;
//! traced runs leave their spans in `.bench_traces/`.

mod answers;
mod cluster;
mod common;
mod loadgen;
mod offline;
mod serve_point;
mod stats;
mod trace;

use common::{Ctx, Report};
use std::path::PathBuf;
use std::process::ExitCode;

/// The end-to-end metrics every workload reports, with their units.
const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("throughput_per_s", "1/s"),
    ("p50_us", "us"),
    ("artifact_bytes_per_entry", "B"),
];

/// The per-layer metrics of a traced run, with their units. A layer the
/// workload does not exercise reports 0.
const PER_LAYER: [(&str, &str); 51] = [
    ("gen.factor_s", "s"),
    ("core.enumerate_s", "s"),
    ("core.closed_form_ns", "ns"),
    ("stream.count_sink_s", "s"),
    ("stream.csr2_write_s", "s"),
    ("stream.verify_s", "s"),
    ("stream.artifact_bytes", "B"),
    ("stream.open_verified_s", "s"),
    ("stream.row_scan_entries_per_s", "1/s"),
    ("triangles.wedge_checks", "count"),
    ("analyze.census_wedge_checks_per_s", "1/s"),
    ("analyze.census_s", "s"),
    ("analyze.pagerank_s", "s"),
    ("analyze.cc_s", "s"),
    ("analyze.bfs_s", "s"),
    ("analyze.pagerank_iterations", "count"),
    ("analyze.pagerank_scaling", "x"),
    ("engine.degree_p50_us", "us"),
    ("engine.degree_p99_us", "us"),
    ("engine.has_edge_p50_us", "us"),
    ("engine.has_edge_p99_us", "us"),
    ("engine.neighbors_p50_us", "us"),
    ("engine.neighbors_p99_us", "us"),
    ("engine.tri_edge_p50_us", "us"),
    ("engine.tri_edge_p99_us", "us"),
    ("engine.tri_vertex_p50_us", "us"),
    ("engine.tri_vertex_p99_us", "us"),
    ("engine.wedge_checks", "count"),
    ("cache.hit_rate", "ratio"),
    ("cache.hits", "count"),
    ("cache.misses", "count"),
    ("cache.bytes", "B"),
    ("server.overhead_p50_us", "us"),
    ("server.overhead_p99_us", "us"),
    ("server.requests", "count"),
    ("server.bad_requests", "count"),
    ("loadgen.late_p99_us", "us"),
    ("router.hop_p50_us", "us"),
    ("cluster.row_fetch_p50_us", "us"),
    ("cluster.row_fetch_p99_us", "us"),
    ("cluster.rows_remote", "count"),
    ("cluster.rows_per_request", "count"),
    ("cluster.row_wire_bytes", "B"),
    ("path.shortest_path_p50_us", "us"),
    ("path.shortest_path_p99_us", "us"),
    ("path.khop_p50_us", "us"),
    ("path.khop_p99_us", "us"),
    ("path.rows_per_traversal", "count"),
    ("trace.overhead_pct", "%"),
    ("trace.spans", "count"),
    ("host.steal_pct", "%"),
];

const WORKLOADS: [&str; 3] = ["offline-validate", "serve-point", "cluster-traverse"];

/// The core count the committed bounds were tuned on. A result from a
/// host with another count is marked for re-baseline, not compared.
const BASELINE_CORES: usize = 2;

/// Share of the machine's CPU time (percent) the hypervisor may steal
/// during a run before the run is flagged as not comparable.
const STEAL_FLAG_PCT: f64 = 5.0;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Result<String, String> {
        argv.iter()
            .position(|a| a == flag)
            .and_then(|i| argv.get(i + 1).cloned())
            .ok_or_else(|| format!("missing {flag}"))
    };
    let workload = get("--workload")?;
    if workload != "all" && !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?} (one of {WORKLOADS:?} or all)"
        ));
    }
    let seed = get("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = get("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    let trace = match get("--trace").as_deref() {
        Ok("0") | Err(_) => false,
        Ok("1") => true,
        Ok(other) => return Err(format!("--trace must be 0 or 1, got {other:?}")),
    };
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// The checked-out commit, read from `.git` in the working directory
/// (never above it); "unknown" outside a git checkout.
fn commit() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    let id = match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(format!(".git/{r}"))
            .ok()
            .or_else(|| {
                std::fs::read_to_string(".git/packed-refs")
                    .ok()
                    .and_then(|p| {
                        p.lines()
                            .find(|l| l.ends_with(r))
                            .and_then(|l| l.split(' ').next().map(str::to_string))
                    })
            })
            .unwrap_or_default(),
        None => head.to_string(),
    };
    let id = id.trim();
    if id.is_empty() {
        "unknown".into()
    } else {
        id.into()
    }
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A finite number as JSON (non-finite values become 0).
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

fn provenance(args: &Args, cores: usize) -> String {
    let cmd: Vec<String> = std::env::args().map(|a| json_str(&a)).collect();
    let (factors, formats) = match args.workload.as_str() {
        "offline-validate" => (
            format!("web_factor({})xweb_factor({})", offline::N_A, offline::N_B),
            "csr2",
        ),
        "serve-point" => (
            format!("web_factor({0})xweb_factor({0})", serve_point::N),
            "csr",
        ),
        "cluster-traverse" => (
            format!("web_factor({0})xweb_factor({0})", cluster::N),
            "csr2",
        ),
        _ => ("see each workload".into(), "csr,csr2"),
    };
    format!(
        "{{\"cores\":{cores},\"baseline_cores\":{BASELINE_CORES},\"rebaseline\":{},\"cmd\":[{}],\"workload\":{},\"seed\":{},\"seconds\":{},\"trace\":{},\"commit\":{},\"factors\":{},\"shard_formats\":{}}}",
        cores != BASELINE_CORES,
        cmd.join(","),
        json_str(&args.workload),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        json_str(&commit()),
        json_str(&factors),
        json_str(formats),
    )
}

/// Removes the run's scratch directory however the run ends.
struct WorkDir(PathBuf);

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // Leave `.bench_work` itself only if another run still uses it.
        if let Some(parent) = self.0.parent() {
            let _ = std::fs::remove_dir(parent);
        }
    }
}

fn print_report(args: &Args, rep: &Report) {
    for note in &rep.notes {
        println!("{note}");
    }
    println!(
        "end-to-end metrics of {} (name value unit samples):",
        args.workload
    );
    let failed_ratio = rep.failed as f64 / rep.attempted.max(1) as f64;
    println!("  failed_ratio {failed_ratio} ratio {}", rep.attempted);
    for (name, f) in &rep.named {
        println!("  {name} {} {} {}", f.value, f.unit, f.samples);
    }
    for (name, f) in &rep.end_to_end {
        println!("  [{name}] {} {} {}", f.value, f.unit, f.samples);
    }
    if args.trace {
        println!("tracing overhead (untraced half -> traced half):");
        for (name, traced) in &rep.end_to_end {
            if let Some(plain) = rep.untraced.get(name) {
                let pct = (traced.value / plain.value - 1.0) * 100.0;
                println!(
                    "  {name}: {} -> {} {} ({pct:+.1}%)",
                    plain.value, traced.value, traced.unit
                );
            }
        }
        println!("span self time (name count total_ms self_ms):");
        for (name, count, total, own) in trace::summarize(&rep.spans).into_iter().take(40) {
            println!(
                "  {name} {count} {:.3} {:.3}",
                total as f64 / 1e6,
                own as f64 / 1e6
            );
        }
    }
    for p in &rep.problems {
        println!("WRONG: {p}");
    }
}

fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(String, f64, &str)],
) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(name),
                json_num(*value),
                json_str(unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

fn run_one(args: &Args, cores: usize) -> ExitCode {
    let root = PathBuf::from(".bench_work");
    let work = WorkDir(root.join(format!("{}-{}", args.workload, std::process::id())));
    let ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        cores,
        work: work.0.clone(),
    };
    if let Err(e) = std::fs::create_dir_all(&ctx.work) {
        eprintln!("perfbench: cannot create {}: {e}", ctx.work.display());
        return ExitCode::from(2);
    }
    trace::enable(args.trace);
    let (steal0, total0) = common::host_cpu_jiffies();
    let mut rep = match args.workload.as_str() {
        "offline-validate" => offline::run(&ctx),
        "serve-point" => serve_point::run(&ctx),
        _ => cluster::run(&ctx),
    };
    trace::enable(false);
    rep.end_to_end
        .insert("peak_rss_mb", common::fig(common::peak_rss_mb(), "MB", 1));
    let (steal1, total1) = common::host_cpu_jiffies();
    let steal_pct = 100.0 * (steal1 - steal0) as f64 / (total1 - total0).max(1) as f64;
    rep.layers.insert("host.steal_pct", steal_pct);
    rep.notes.push(format!(
        "host: {steal_pct:.1}% of the machine's CPU time was stolen by the hypervisor during the run{}",
        if steal_pct > STEAL_FLAG_PCT {
            format!(
                " -- NOT COMPARABLE: above {STEAL_FLAG_PCT}%, this run is slow for reasons outside the program"
            )
        } else {
            String::new()
        }
    ));

    let metrics: Vec<(String, f64, &str)> = if args.trace {
        let tput = |m: &std::collections::BTreeMap<&str, common::Figure>| {
            m.get("throughput_per_s").map_or(0.0, |f| f.value)
        };
        let (plain, traced) = (tput(&rep.untraced), tput(&rep.end_to_end));
        rep.layers.insert(
            "trace.overhead_pct",
            if traced > 0.0 {
                (plain / traced - 1.0) * 100.0
            } else {
                0.0
            },
        );
        rep.layers.insert("trace.spans", rep.spans.len() as f64);
        let dir = PathBuf::from(".bench_traces");
        let file = dir.join(format!("{}-seed{}.jsonl", args.workload, args.seed));
        if std::fs::create_dir_all(&dir)
            .and_then(|()| std::fs::write(&file, trace::to_json_lines(&rep.spans)))
            .is_ok()
        {
            rep.notes.push(format!(
                "{} spans written to {}",
                rep.spans.len(),
                file.display()
            ));
        }
        PER_LAYER
            .iter()
            .map(|&(name, unit)| {
                (
                    name.to_string(),
                    rep.layers.get(name).copied().unwrap_or(0.0),
                    unit,
                )
            })
            .collect()
    } else {
        END_TO_END
            .iter()
            .map(|&(name, unit)| {
                (
                    name.to_string(),
                    rep.end_to_end.get(name).map_or(0.0, |f| f.value),
                    unit,
                )
            })
            .collect()
    };
    let missing: Vec<&str> = END_TO_END
        .iter()
        .map(|(n, _)| *n)
        .filter(|n| {
            rep.end_to_end
                .get(n)
                .is_none_or(|f| f.value.is_nan() || f.value <= 0.0)
        })
        .collect();
    if !missing.is_empty() {
        rep.fail(format!("no measurement for {missing:?}"));
    }
    print_report(args, &rep);
    let correct = rep.failed == 0;
    println!(
        "{}",
        result_line(correct, rep.attempted, rep.failed, &metrics)
    );
    drop(work);
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

/// `--workload all`: each workload in its own child process (so peak
/// RSS stays per workload), one after the other.
fn run_all(args: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(e) => e,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let (mut attempted, mut failed, mut correct) = (0u64, 0u64, true);
    let mut metrics: Vec<(String, f64, &str)> = Vec::new();
    for w in WORKLOADS {
        let out = std::process::Command::new(&exe)
            .args(["--workload", w, "--seed", &args.seed.to_string()])
            .args([
                "--seconds",
                &args.seconds.to_string(),
                "--trace",
                if args.trace { "1" } else { "0" },
            ])
            .stderr(std::process::Stdio::inherit())
            .output();
        let Ok(out) = out else {
            eprintln!("perfbench: cannot run {w}");
            return ExitCode::from(2);
        };
        let text = String::from_utf8_lossy(&out.stdout);
        let mut lines: Vec<&str> = text.lines().collect();
        let last = lines.pop().unwrap_or("");
        for l in lines {
            println!("{l}");
        }
        correct &= out.status.success();
        let Ok(doc) = kron_stream::json::Json::parse(last) else {
            eprintln!("perfbench: {w} printed no result");
            return ExitCode::from(2);
        };
        let get = |k: &str| {
            doc.get(k)
                .and_then(kron_stream::json::Json::as_u64)
                .unwrap_or(0)
        };
        attempted += get("attempted");
        failed += get("failed");
        let names: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
        for &(name, unit) in names {
            let v = doc
                .get("metrics")
                .and_then(|m| m.get(name))
                .and_then(|m| m.get("value"))
                .and_then(kron_stream::json::Json::as_f64)
                .unwrap_or(0.0);
            metrics.push((format!("{w}:{name}"), v, unit));
        }
    }
    println!(
        "{}",
        result_line(correct && failed == 0, attempted, failed, &metrics)
    );
    if correct && failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let cores = std::thread::available_parallelism().map_or(1, |c| c.get());
    println!("provenance {}", provenance(&args, cores));
    if args.workload == "all" {
        run_all(&args)
    } else {
        run_one(&args, cores)
    }
}
