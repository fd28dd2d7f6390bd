//! `serve-point`: one in-process HTTP server over v1 `csr` shards with a
//! small row cache, driven open loop. Requests are pipelined on
//! keep-alive connections at a fixed ladder of absolute rates; each
//! latency is timed from the request's due time. A last, saturating
//! phase measures throughput. Every answer is checked against the
//! closed forms as it arrives, after its arrival time was taken.

use crate::answers::{self, engine_answer, expected, Rng, Zipf};
use crate::common::{self, fig, product, Ctx, Report};
use crate::loadgen::{get_request, Pipeline, Response, RunResult, Schedule};
use crate::stats::{self, Rung, RungLimits};
use crate::trace;
use kron::KronProduct;
use kron_serve::http::encode_query_component;
use kron_serve::{OpenOptions, Query, ServeEngine, Server, ServerOptions};
use kron_stream::{stream_product, OutputFormat, StreamConfig};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

/// Factor order: the product has about 13M entries, ~100 MB of v1 rows.
pub const N: usize = 600;
const SHARDS: usize = 16;
/// Setup repetitions (the setup time is their median).
const SETUPS: usize = 5;
/// Row cache budget, far below the size of the rows.
const CACHE_BYTES: u64 = 4 << 20;
/// Offered rates of the load ladder, requests per second.
const LADDER: [u64; 6] = [1000, 2000, 4000, 8000, 16000, 32000];
/// The rung `serve_p50_us` / `serve_p99_us` are read at.
pub const REFERENCE: u64 = 4000;
/// What a rung must meet: p99 within 2 ms, the generator late by no
/// more than that limit at p99 (client and server share the cores, so a
/// busy server can hold the generator back), and no more than 2 ms of
/// arrivals in flight at its end.
pub const LIMITS: RungLimits = RungLimits {
    p99_us: 2000.0,
    late_p99_us: 2000.0,
    backlog_secs: 0.002,
};
/// Zipf exponent of the vertex popularity.
const ZIPF_S: f64 = 1.0;
/// Distinct requests in the pool the phases cycle through.
const POOL: usize = 100_000;
/// In-flight window per connection in the saturating phase.
const SATURATE_WINDOW: usize = 32;
/// Time windows the reference rung's p50 and tail are taken over (the
/// median window is reported).
const WINDOWS: usize = 8;
/// Time windows of the saturating phase; the first is its ramp-up and is
/// left out, the median of the others is the throughput.
const SATURATE_WINDOWS: usize = 14;
/// Seconds an open-loop phase may take to drain after its last request
/// was due.
const DRAIN: Duration = Duration::from_secs(20);

struct State {
    prod: KronProduct,
    engine: ServeEngine,
    server: Server,
    dir: PathBuf,
}

fn setup(ctx: &Ctx) -> Result<State, String> {
    let prod = product(N, N);
    let dir = common::fresh_dir(ctx, "serve");
    let mut cfg = StreamConfig::new(&dir, OutputFormat::Csr);
    cfg.shards = SHARDS;
    cfg.threads = ctx.cores;
    {
        let _s = trace::span("stream.stream_product.csr");
        stream_product(&prod, &cfg).map_err(|e| format!("stream_product: {e}"))?;
    }
    let engine = {
        let _s = trace::span("stream.open_verified");
        ServeEngine::open_with(
            &dir,
            &OpenOptions {
                verify_checksums: true,
                row_cache_bytes: CACHE_BYTES,
                ..OpenOptions::default()
            },
        )
        .map_err(|e| format!("open engine: {e}"))?
    };
    common::sync_dir(&dir);
    let server = Server::bind("127.0.0.1:0").map_err(|e| format!("bind: {e}"))?;
    Ok(State {
        prod,
        engine,
        server,
        dir,
    })
}

/// The seeded request pool: queries, their request bytes, and the
/// answers they must get.
struct Pool {
    queries: Vec<Query>,
    bytes: Vec<Vec<u8>>,
    expect: Vec<String>,
}

fn pool(ctx: &Ctx, prod: &KronProduct) -> Pool {
    let mut rng = Rng(ctx.seed_for("serve-queries"));
    let zipf = Zipf::new(prod.num_vertices(), ZIPF_S, &mut rng);
    let queries: Vec<Query> = (0..POOL)
        .map(|_| {
            let v = zipf.sample(&mut rng);
            let u = rng.f64();
            if u < 0.40 {
                Query::Degree(v)
            } else if u < 0.55 {
                let w = if rng.f64() < 0.5 {
                    answers::some_neighbor(prod, v, &mut rng).unwrap_or(v)
                } else {
                    zipf.sample(&mut rng)
                };
                Query::HasEdge(v, w)
            } else if u < 0.65 {
                Query::Neighbors(v)
            } else if u < 0.85 {
                Query::EdgeTriangles(v, answers::some_neighbor(prod, v, &mut rng).unwrap_or(v))
            } else {
                Query::VertexTriangles(v)
            }
        })
        .collect();
    let bytes = queries
        .iter()
        .map(|q| {
            get_request(&format!(
                "/query?q={}",
                encode_query_component(&q.to_string())
            ))
        })
        .collect();
    let expect = queries.iter().map(|q| expected(prod, q)).collect();
    Pool {
        queries,
        bytes,
        expect,
    }
}

/// The pool entry of a phase's `i`-th request, for a phase that began
/// at pool entry `start`: phases cycle through the pool.
fn entry(start: usize, i: usize) -> usize {
    (start + i) % POOL
}

/// One open-loop phase: up to `count` requests from the pool starting at
/// `*next`, on `schedule`. Each response is checked against the closed
/// form as it arrives; `*next` moves past the requests sent.
fn phase(
    pipe: &Pipeline,
    pool: &Pool,
    next: &mut usize,
    count: usize,
    schedule: Schedule,
    name: &'static str,
) -> (usize, RunResult) {
    let start = *next;
    let check = |i: usize, r: &Response| {
        let e = entry(start, i);
        if r.status != 200 {
            Some(format!("{}: HTTP {}", pool.queries[e], r.status))
        } else if r.body != pool.expect[e].as_bytes() {
            Some(format!(
                "{}: answered {:?}, closed form {:?}",
                pool.queries[e],
                String::from_utf8_lossy(&r.body).trim_end(),
                pool.expect[e].trim_end()
            ))
        } else {
            None
        }
    };
    let _s = trace::span(name);
    let res = pipe.run(
        count,
        |i| pool.bytes[entry(start, i)].as_slice(),
        &check,
        schedule,
        DRAIN,
        trace::current(),
    );
    *next = entry(start, res.outcomes.len());
    (start, res)
}

/// Fold a phase's checked answers into a rung: correct answers give
/// latencies, everything else is a failure.
fn judge(rate: u64, start: usize, res: &RunResult, pool: &Pool, rep: &mut Report) -> Rung {
    let mut rung = Rung {
        rate,
        backlog_end: res.backlog_end,
        ..Rung::default()
    };
    for (i, o) in res.outcomes.iter().enumerate() {
        let problem = match &o.verdict {
            None => Some(format!("{}: no response", pool.queries[entry(start, i)])),
            Some(problem) => problem.clone(),
        };
        if let (Some(due), Some(sent)) = (o.due, o.sent) {
            rung.late_us.push(stats::us(stats::lateness(due, sent)));
        }
        match (problem, o.due, o.done) {
            (None, Some(due), Some(done)) => {
                rung.ok_us
                    .push(stats::us(stats::latency_from_due(due, done)));
                rung.ok_at
                    .push(due.saturating_duration_since(res.started).as_secs_f64());
                rep.op(None);
            }
            (problem, ..) => {
                rung.failed += 1;
                rep.op(Some(problem.unwrap_or_else(|| "no timing".into())));
            }
        }
    }
    rung
}

/// What one measurement produced.
struct Measured {
    reference: Rung,
    /// The reference rung's pool entries, for the in-process replay.
    reference_idx: Vec<usize>,
    ladder: Vec<(Rung, Option<String>)>,
    saturate_rps: f64,
    saturate_n: usize,
}

fn measure(
    pipe: &Pipeline,
    pool: &Pool,
    next: &mut usize,
    seconds: f64,
    rep: &mut Report,
) -> Measured {
    let ref_secs = 0.4 * seconds;
    let rung_secs = 0.25 * seconds / (LADDER.len() - 1) as f64;
    let count = |rate: u64, secs: f64| ((rate as f64 * secs) as usize).max(1);

    let (start, res) = phase(
        pipe,
        pool,
        next,
        count(REFERENCE, ref_secs),
        Schedule::Rate(REFERENCE as f64),
        "serve.rung.reference",
    );
    let reference = judge(REFERENCE, start, &res, pool, rep);
    let reference_idx = (0..res.outcomes.len()).map(|i| entry(start, i)).collect();
    let mut ladder = vec![(reference.clone(), reference.verdict(&LIMITS))];
    for rate in LADDER.into_iter().filter(|&r| r != REFERENCE) {
        // Above the reference rung, stop at the first rung not met: the
        // ones beyond would only queue behind it.
        if rate > REFERENCE
            && ladder
                .iter()
                .any(|(r, v)| r.rate > REFERENCE && v.is_some())
        {
            break;
        }
        let (start, res) = phase(
            pipe,
            pool,
            next,
            count(rate, rung_secs),
            Schedule::Rate(rate as f64),
            "serve.rung",
        );
        let rung = judge(rate, start, &res, pool, rep);
        let verdict = rung.verdict(&LIMITS);
        ladder.push((rung, verdict));
    }
    ladder.sort_by_key(|(r, _)| r.rate);

    // The saturating phase sends for all of `send_for` however fast the
    // server answers: its request count is one no server can reach, and
    // the pool is cycled.
    let send_for = Duration::from_secs_f64(0.35 * seconds);
    let (start, res) = phase(
        pipe,
        pool,
        next,
        usize::MAX,
        Schedule::Saturate {
            window: SATURATE_WINDOW,
            send_for,
        },
        "serve.saturate",
    );
    let sat = judge(0, start, &res, pool, rep);

    // Completions per window while the load was on, after a ramp-up of
    // one window; the median window is the throughput.
    let done: Vec<f64> = (sat.ok_at.iter().zip(&sat.ok_us))
        .map(|(at, us)| at + us / 1e6)
        .collect();
    let send = send_for.as_secs_f64();
    let saturate_rps = stats::windowed_rate(
        &done,
        send / SATURATE_WINDOWS as f64,
        send,
        SATURATE_WINDOWS - 1,
    );
    Measured {
        reference,
        reference_idx,
        ladder,
        saturate_rps,
        saturate_n: sat.ok_us.len(),
    }
}

/// The reference rung's p50: the median over [`WINDOWS`] time windows of
/// each window's p50.
fn reference_p50(m: &Measured) -> f64 {
    stats::windowed_median(&m.reference.ok_at, &m.reference.ok_us, WINDOWS)
}

fn end_to_end(out: &mut BTreeMap<&'static str, common::Figure>, m: &Measured) {
    let n = m.reference.ok_us.len();
    out.insert("p50_us", fig(reference_p50(m), "us", n));
    out.insert("throughput_per_s", fig(m.saturate_rps, "1/s", m.saturate_n));
}

/// Sets a stop flag when dropped, so a panic inside a scope still lets
/// the servers running in it shut down.
pub struct StopOnDrop<'a>(pub &'a AtomicBool);

impl Drop for StopOnDrop<'_> {
    fn drop(&mut self) {
        self.0.store(true, Ordering::SeqCst);
    }
}

pub fn run(ctx: &Ctx) -> Report {
    let mut rep = Report::default();
    let (st, setup_s, setups) = common::timed_setup(SETUPS, || setup(ctx));
    let st = match st {
        Ok(st) => st,
        Err(e) => {
            rep.op(Some(e));
            return rep;
        }
    };
    rep.end_to_end.insert("setup_s", fig(setup_s, "s", setups));
    rep.end_to_end.insert(
        "artifact_bytes_per_entry",
        fig(
            common::artifact_bytes(&st.dir) as f64 / st.prod.nnz() as f64,
            "B",
            1,
        ),
    );
    rep.notes.push(format!(
        "serve-point: web_factor({N}) x web_factor({N}), {} vertices, {} entries, {SHARDS} csr shards, row cache {CACHE_BYTES} B, {} connections",
        st.prod.num_vertices(),
        st.prod.nnz(),
        ctx.cores
    ));
    let pool = pool(ctx, &st.prod);
    let addr = st.server.local_addr().expect("bound address");
    let stop = AtomicBool::new(false);
    let opts = ServerOptions::default();
    let mut next = 0usize;
    let (measured, server_report) = std::thread::scope(|s| {
        let _stop = StopOnDrop(&stop);
        let server = s.spawn(|| st.server.run(&st.engine, &opts, &stop));
        let pipe = match Pipeline::connect(addr, ctx.cores) {
            Ok(p) => p,
            Err(e) => {
                rep.op(Some(format!("connect: {e}")));
                return (None, None);
            }
        };
        // A short warm-up at the reference rate, not measured.
        let (start, res) = phase(
            &pipe,
            &pool,
            &mut next,
            (REFERENCE / 5) as usize,
            Schedule::Rate(REFERENCE as f64),
            "serve.warmup",
        );
        judge(REFERENCE, start, &res, &pool, &mut rep);
        let m = if ctx.trace {
            trace::enable(false);
            let plain = measure(&pipe, &pool, &mut next, ctx.seconds / 2.0, &mut rep);
            end_to_end(&mut rep.untraced, &plain);
            trace::enable(true);
            let before = st.engine.routing();
            let m = measure(&pipe, &pool, &mut next, ctx.seconds / 2.0, &mut rep);
            let after = st.engine.routing();
            let l = &mut rep.layers;
            l.insert("cache.hits", (after.cache_hits - before.cache_hits) as f64);
            l.insert(
                "cache.misses",
                (after.cache_misses - before.cache_misses) as f64,
            );
            let touched = l["cache.hits"] + l["cache.misses"];
            l.insert(
                "cache.hit_rate",
                if touched > 0.0 {
                    l["cache.hits"] / touched
                } else {
                    0.0
                },
            );
            l.insert("cache.bytes", after.cache_bytes as f64);
            m
        } else {
            measure(&pipe, &pool, &mut next, ctx.seconds, &mut rep)
        };
        drop(pipe);
        stop.store(true, Ordering::SeqCst);
        let report = server.join().ok().and_then(Result::ok);
        (Some(m), report)
    });
    let Some(m) = measured else { return rep };

    end_to_end(&mut rep.end_to_end, &m);
    let remote = st.engine.routing().remote_fetches;
    rep.op((remote != 0).then(|| format!("serve-point fetched {remote} remote rows, expected 0")));
    let n = m.reference.ok_us.len();
    // The tail: the median over [`WINDOWS`] time windows of each
    // window's p99 (or the highest percentile every window supports).
    let (tail, tail_p) =
        stats::windowed_tail(&m.reference.ok_at, &m.reference.ok_us, WINDOWS, 99.0);
    rep.named
        .push(("serve_p50_us", fig(reference_p50(&m), "us", n)));
    rep.named.push(("serve_p99_us", fig(tail, "us", n)));
    if tail_p != 99.0 {
        rep.notes.push(format!(
            "serve_p99_us is reported at p{tail_p}: too few samples for p99"
        ));
    }
    match stats::max_met_rate(
        &m.ladder.iter().map(|(r, _)| r.clone()).collect::<Vec<_>>(),
        &LIMITS,
    ) {
        Some(rate) => rep
            .named
            .push(("serve_max_rps", fig(rate as f64, "1/s", m.ladder.len()))),
        None => rep
            .notes
            .push("serve_max_rps: not met (no rung met its limits)".into()),
    }
    rep.named.push((
        "serve_saturated_rps",
        fig(m.saturate_rps, "1/s", m.saturate_n),
    ));
    for (r, verdict) in &m.ladder {
        let so = stats::sorted(&r.ok_us);
        let (p50, p99) = (stats::percentile(&so, 50.0), stats::percentile(&so, 99.0));
        rep.notes.push(format!(
            "rung {:>6}/s{}: {} ok, {} failed, p50 {p50:.0}us, p90 {:.0} p95 {:.0} p99 {p99:.0}us, late p99 {:.0}us, backlog {} -> {}",
            r.rate,
            if r.rate == REFERENCE { " (reference)" } else { "" },
            r.ok_us.len(),
            r.failed,
            stats::percentile(&so, 90.0),
            stats::percentile(&so, 95.0),
            r.late_p99(),
            r.backlog_end,
            verdict.as_deref().map_or("met".to_string(), |v| format!("not met: {v}")),
        ));
    }

    if ctx.trace {
        replay(&st, &pool, &m, &mut rep);
        if let Some(r) = &server_report {
            rep.layers.insert("server.requests", r.requests as f64);
            rep.layers
                .insert("server.bad_requests", r.bad_requests as f64);
        }
        rep.layers
            .insert("loadgen.late_p99_us", m.reference.late_p99());
        rep.layers.insert("cluster.rows_remote", remote as f64);
        rep.spans = trace::take();
        let spans = &rep.spans;
        let l = &mut rep.layers;
        l.insert("gen.factor_s", trace::median_s(spans, "gen.web_factor"));
        l.insert(
            "stream.open_verified_s",
            trace::median_s(spans, "stream.open_verified"),
        );
        l.insert(
            "stream.artifact_bytes",
            common::artifact_bytes(&st.dir) as f64,
        );
    }
    rep
}

/// Replay the reference rung's queries in process, one at a time, to
/// split the HTTP latency into engine time and the rest.
fn replay(st: &State, pool: &Pool, m: &Measured, rep: &mut Report) {
    let mut per_kind: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    let mut all = Vec::new();
    let mut wedge_checks = 0u64;
    for &i in m.reference_idx.iter().take(20_000) {
        let q = &pool.queries[i];
        let kind = answers::kind(q);
        let name: &'static str = match kind {
            "degree" => "engine.degree",
            "has_edge" => "engine.has_edge",
            "neighbors" => "engine.neighbors",
            "tri_edge" => "engine.tri_edge",
            _ => "engine.tri_vertex",
        };
        let (res, t) = common::time(|| {
            let _s = trace::span_req(name, Some(i as u64));
            engine_answer(&st.engine, q)
        });
        let us = stats::us(t);
        per_kind.entry(kind).or_default().push(us);
        all.push(us);
        rep.op(match res {
            Ok((a, checks)) => {
                wedge_checks += checks;
                (a != pool.expect[i]).then(|| format!("in-process {q}: {a:?}"))
            }
            Err(e) => Some(format!("in-process {q}: {e}")),
        });
    }
    let l = &mut rep.layers;
    for (kind, lat) in &per_kind {
        let s = stats::sorted(lat);
        let (p50, p99) = (stats::percentile(&s, 50.0), stats::percentile(&s, 99.0));
        let key = |suffix: &str| -> &'static str {
            match (*kind, suffix) {
                ("degree", "p50") => "engine.degree_p50_us",
                ("degree", _) => "engine.degree_p99_us",
                ("has_edge", "p50") => "engine.has_edge_p50_us",
                ("has_edge", _) => "engine.has_edge_p99_us",
                ("neighbors", "p50") => "engine.neighbors_p50_us",
                ("neighbors", _) => "engine.neighbors_p99_us",
                ("tri_edge", "p50") => "engine.tri_edge_p50_us",
                ("tri_edge", _) => "engine.tri_edge_p99_us",
                (_, "p50") => "engine.tri_vertex_p50_us",
                _ => "engine.tri_vertex_p99_us",
            }
        };
        l.insert(key("p50"), p50);
        l.insert(key("p99"), p99);
    }
    l.insert("engine.wedge_checks", wedge_checks as f64);
    l.insert("triangles.wedge_checks", wedge_checks as f64);
    let engine = stats::sorted(&all);
    let http = stats::sorted(&m.reference.ok_us);
    l.insert(
        "server.overhead_p50_us",
        stats::percentile(&http, 50.0) - stats::percentile(&engine, 50.0),
    );
    l.insert(
        "server.overhead_p99_us",
        stats::percentile(&http, 99.0) - stats::percentile(&engine, 99.0),
    );
}
