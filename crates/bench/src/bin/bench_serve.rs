//! Serving throughput experiment: queries/sec and latency percentiles per
//! query kind and per *answer source* — the mmap'd CSR artifact walk vs
//! the closed-form factor oracle vs cross-checked both — plus a skewed
//! hot-row workload exercising the artifact path's LRU.
//!
//! ```text
//! bench_serve [--n N] [--shards S] [--queries Q] [--cache BYTES]
//!             [--conns C] [--json]
//! ```
//!
//! With `--json`, results are written to `BENCH_serve.json` in the
//! current directory so the serving-performance trajectory is tracked
//! across PRs (the generation-side counterpart is `BENCH_stream.json`).
//! The `oracle_speedup` block records how many times faster the
//! closed-form oracle answers triangle point queries than the shard walk.
//!
//! The `row_wire` block streams a csr2 twin of the run, times its
//! checksum-verified cold open against the v1 open, and compares total
//! `/row` body bytes for the same rows served raw (LE u64, the v1 wire
//! encoding) vs `enc=vd` (varint delta) over a live loopback server —
//! the bench fails unless vd cuts wire bytes by at least 1.5×.
//!
//! The `server`/`concurrency_*` rows drive the event-loop server with
//! 100 / 1000 / 10000 concurrent keep-alive connections (capped by
//! `--conns`) via the `stress_serve` sibling binary run as a child
//! process — at 10K sockets each side needs its own fd budget. The p99
//! across the sweep is the "flat latency under concurrency" record the
//! event loop is accepted against.

use kron::KronProduct;
use kron_bench::web_factor;
use kron_serve::{run_batch, AnswerSource, OpenOptions, Query, QueryStats, ServeEngine};
use kron_stream::json::Json;
use kron_stream::{stream_product, OutputFormat, StreamConfig};
use rand::prelude::*;
use std::time::Instant;

/// One deterministic query mix per kind, shared across answer sources so
/// their rows are directly comparable.
fn query_mixes(engine: &ServeEngine, q: usize) -> Vec<(&'static str, Vec<Query>)> {
    let n_c = engine.num_vertices();
    let mut rng = StdRng::seed_from_u64(2018);
    let mut rand_v = || rng.gen_range(0..n_c);
    vec![
        ("degree", (0..q).map(|_| Query::Degree(rand_v())).collect()),
        (
            "neighbors",
            (0..q / 2).map(|_| Query::Neighbors(rand_v())).collect(),
        ),
        (
            "has_edge",
            (0..q)
                .map(|_| {
                    let u = rand_v();
                    let v = engine.neighbors(u).unwrap().first().copied().unwrap_or(0);
                    Query::HasEdge(u, v)
                })
                .collect(),
        ),
        (
            "tri_vertex",
            (0..q / 10)
                .map(|_| Query::VertexTriangles(rand_v()))
                .collect(),
        ),
        (
            "tri_edge",
            (0..q / 2)
                .map(|_| {
                    let u = rand_v();
                    let v = engine.neighbors(u).unwrap().first().copied().unwrap_or(u);
                    Query::EdgeTriangles(u, v)
                })
                .collect(),
        ),
    ]
}

/// A skewed triangle workload: almost every query hits one of a few dozen
/// hot vertices — the shape the hot-row LRU exists for.
fn skewed_mix(engine: &ServeEngine, q: usize) -> Vec<Query> {
    let n_c = engine.num_vertices();
    let mut rng = StdRng::seed_from_u64(4096);
    let hot: Vec<u64> = (0..32).map(|_| rng.gen_range(0..n_c)).collect();
    (0..q / 10)
        .map(|_| {
            if rng.gen_bool(0.95) {
                Query::VertexTriangles(hot[rng.gen_range(0..hot.len())])
            } else {
                Query::VertexTriangles(rng.gen_range(0..n_c))
            }
        })
        .collect()
}

fn print_row(label: &str, kind: &str, stats: &QueryStats) {
    println!(
        "{label:<15} {kind:<14} {:>7} queries  {:>12.0} q/s  p50 {:>8.1}µs  p99 {:>8.1}µs",
        stats.queries,
        stats.qps(),
        stats.p50.as_secs_f64() * 1e6,
        stats.p99.as_secs_f64() * 1e6,
    );
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opt = |name: &str| -> Option<String> {
        args.iter()
            .position(|a| a == name)
            .and_then(|i| args.get(i + 1).cloned())
    };
    let json_out = args.iter().any(|a| a == "--json");
    let n: usize = opt("--n").and_then(|v| v.parse().ok()).unwrap_or(600);
    let shards: usize = opt("--shards").and_then(|v| v.parse().ok()).unwrap_or(16);
    let q: usize = opt("--queries")
        .and_then(|v| v.parse().ok())
        .unwrap_or(10_000);
    let cache_bytes: u64 = opt("--cache")
        .and_then(|v| v.parse().ok())
        .unwrap_or(4 << 20);
    let conns_cap: usize = opt("--conns")
        .and_then(|v| v.parse().ok())
        .unwrap_or(10_000);

    let prod = KronProduct::new(web_factor(n), web_factor(n));
    let dir = std::env::temp_dir().join(format!("kron_bench_serve_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut cfg = StreamConfig::new(&dir, OutputFormat::Csr);
    cfg.shards = shards;
    let t0 = Instant::now();
    stream_product(&prod, &cfg).expect("stream csr shards");
    let gen_secs = t0.elapsed().as_secs_f64();

    let t0 = Instant::now();
    let artifact = ServeEngine::open_verified(&dir).expect("open + verify shard set");
    let open_secs = t0.elapsed().as_secs_f64();
    let n_c = artifact.num_vertices();
    eprintln!(
        "product: {} entries over {n_c} vertices; {shards} shards generated in \
         {gen_secs:.2}s, opened + checksum-verified in {open_secs:.2}s",
        prod.nnz(),
    );

    // Checksums were verified once above; the other engines reuse the same
    // artifacts structurally and differ only in answer source / cache.
    let open = |source: AnswerSource, row_cache_bytes: u64| -> ServeEngine {
        ServeEngine::open_with(
            &dir,
            &OpenOptions {
                verify_checksums: false,
                source,
                row_cache_bytes,
                ..OpenOptions::default()
            },
        )
        .expect("open engine")
    };
    let t0 = Instant::now();
    let oracle = open(AnswerSource::Oracle, 0);
    let oracle_open_secs = t0.elapsed().as_secs_f64();
    let crosscheck = open(AnswerSource::CrossCheck, 0);
    eprintln!("factor oracle loaded in {oracle_open_secs:.2}s (closed forms precomputed)");

    let mixes = query_mixes(&artifact, q);
    let mut results: Vec<(String, &'static str, QueryStats)> = Vec::new();
    for (label, engine) in [
        ("artifact", &artifact),
        ("oracle", &oracle),
        ("cross-check", &crosscheck),
    ] {
        for (kind, queries) in &mixes {
            let out = run_batch(engine, queries);
            assert_eq!(out.stats.errors, 0, "{label}/{kind}: queries must not fail");
            assert_eq!(
                out.stats.mismatches, 0,
                "{label}/{kind}: a fresh run directory must cross-check clean"
            );
            print_row(label, kind, &out.stats);
            results.push((label.to_string(), kind, out.stats));
        }
    }

    // Skewed hot-vertex load: artifact path with and without the row LRU.
    let cached = open(AnswerSource::Artifact, cache_bytes);
    let hot = skewed_mix(&artifact, q);
    for (label, engine) in [("artifact", &artifact), ("artifact+cache", &cached)] {
        let out = run_batch(engine, &hot);
        assert_eq!(out.stats.errors, 0, "{label}/skewed: queries must not fail");
        print_row(label, "tri_vertex_hot", &out.stats);
        results.push((label.to_string(), "tri_vertex_hot", out.stats));
    }
    let cache_report = cached.routing();
    eprintln!("hot-row cache: {cache_report}");

    // Format comparison: stream a csr2 twin of the same product, time a
    // fully checksum-verified cold open of each format, then serve the
    // csr2 run and fetch one stride-sampled sweep of `/row`s twice —
    // raw LE u64 (the v1 wire encoding) and `enc=vd` (the varint delta
    // encoding cluster peers negotiate) — and compare total body bytes.
    let dir2 = std::env::temp_dir().join(format!("kron_bench_serve_csr2_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir2);
    let mut cfg2 = StreamConfig::new(&dir2, OutputFormat::Csr2);
    cfg2.shards = shards;
    stream_product(&prod, &cfg2).expect("stream csr2 shards");
    let t0 = Instant::now();
    let artifact2 = ServeEngine::open_verified(&dir2).expect("open + verify csr2 shard set");
    let csr2_open_secs = t0.elapsed().as_secs_f64();
    eprintln!("cold open + checksum verify: csr {open_secs:.2}s, csr2 {csr2_open_secs:.2}s");
    let (wire_rows, raw_wire_bytes, vd_wire_bytes) = {
        use kron_serve::http::Client;
        use kron_serve::{Server, ServerOptions};
        use std::sync::atomic::{AtomicBool, Ordering};
        let server = Server::bind("127.0.0.1:0").expect("bind wire-bytes server");
        let addr = server.local_addr().expect("wire-bytes local addr");
        let stop = AtomicBool::new(false);
        std::thread::scope(|s| {
            let run = s.spawn(|| server.run(&artifact2, &ServerOptions::default(), &stop));
            let mut client = Client::connect(addr).expect("connect wire-bytes server");
            let set = artifact2.shard_set();
            let per_shard = (2048 / set.num_shards()).max(1);
            let (mut rows, mut raw, mut vd) = (0u64, 0u64, 0u64);
            for shard in 0..set.num_shards() {
                let span = set.shard_vertices(shard).expect("shard span");
                let step = ((span.end - span.start) / per_shard as u64).max(1);
                for v in span.clone().step_by(step as usize) {
                    for (enc, total) in [("", &mut raw), ("&enc=vd", &mut vd)] {
                        let (status, _ctype, body) = client
                            .get_bytes_typed(&format!("/row?shard={shard}&v={v}{enc}"))
                            .expect("GET /row");
                        assert_eq!(status, 200, "wire-bytes sweep must not fail");
                        *total += body.len() as u64;
                    }
                    rows += 1;
                }
            }
            drop(client);
            stop.store(true, Ordering::SeqCst);
            run.join().unwrap().expect("wire-bytes server run");
            (rows, raw, vd)
        })
    };
    let wire_ratio = raw_wire_bytes as f64 / vd_wire_bytes.max(1) as f64;
    println!(
        "/row wire bytes over {wire_rows} rows: raw {raw_wire_bytes}, \
         vd {vd_wire_bytes} ({wire_ratio:.2}x fewer)"
    );
    assert!(
        wire_ratio >= 1.5,
        "varint delta rows must cut /row wire bytes by at least 1.5x \
         (got {wire_ratio:.2}x)"
    );
    let _ = std::fs::remove_dir_all(&dir2);

    // Loopback HTTP server workload: the same degree mix, answered by a
    // live `kron serve --listen`-style server over real TCP — measures
    // the full wire round trip (framing + loopback stack) against the
    // in-process rows above.
    {
        use kron_serve::http::{encode_query_component, Client};
        use kron_serve::{Server, ServerOptions};
        use std::sync::atomic::{AtomicBool, Ordering};
        let server = Server::bind("127.0.0.1:0").expect("bind loopback");
        let addr = server.local_addr().expect("local addr");
        let stop = AtomicBool::new(false);
        let degree_mix = &mixes[0].1;
        let stats = std::thread::scope(|s| {
            let run = s.spawn(|| server.run(&artifact, &ServerOptions::default(), &stop));
            let mut client = Client::connect(addr).expect("connect to server");
            let paths: Vec<String> = degree_mix
                .iter()
                .map(|qq| format!("/query?q={}", encode_query_component(&qq.to_string())))
                .collect();
            let t0 = Instant::now();
            let mut lats = Vec::with_capacity(paths.len());
            let mut errors = 0usize;
            for path in &paths {
                let q0 = Instant::now();
                let (status, _body) = client.get(path).expect("GET /query");
                lats.push(q0.elapsed());
                errors += usize::from(status != 200);
            }
            let wall = t0.elapsed();
            drop(client);
            stop.store(true, Ordering::SeqCst);
            let report = run.join().unwrap().expect("server run");
            assert_eq!(report.queries, paths.len() as u64, "server counted all");
            QueryStats::from_samples(AnswerSource::Artifact, lats, errors, 0, 1, wall, 0)
        });
        assert_eq!(stats.errors, 0, "server/degree_http: queries must not fail");
        print_row("server", "degree_http", &stats);
        results.push(("server".to_string(), "degree_http", stats));
    }

    // Traversal loopback workload: `/path` and `/khop` over a live
    // server on the cached artifact engine. One traversal fans out into
    // many neighbor-row fetches, so the record is not just latency: the
    // routing counters say how many rows each workload pulled and what
    // the hot-row cache absorbed.
    let (traversal_reqs, traversal_rows_fetched, traversal_hit_rate) = {
        use kron_serve::http::Client;
        use kron_serve::{Server, ServerOptions};
        use std::sync::atomic::{AtomicBool, Ordering};
        let server = Server::bind("127.0.0.1:0").expect("bind traversal server");
        let addr = server.local_addr().expect("traversal local addr");
        let stop = AtomicBool::new(false);
        let mut rng = StdRng::seed_from_u64(1018);
        let per_kind = (q / 20).max(16);
        let path_reqs: Vec<String> = (0..per_kind)
            .map(|_| {
                format!(
                    "/path?from={}&to={}",
                    rng.gen_range(0..n_c),
                    rng.gen_range(0..n_c)
                )
            })
            .collect();
        let khop_reqs: Vec<String> = (0..per_kind)
            .map(|_| format!("/khop?v={}&k=2", rng.gen_range(0..n_c)))
            .collect();
        let before = cached.routing();
        std::thread::scope(|s| {
            let run = s.spawn(|| server.run(&cached, &ServerOptions::default(), &stop));
            let mut client = Client::connect(addr).expect("connect traversal server");
            for (kind, reqs) in [("path_http", &path_reqs), ("khop_http", &khop_reqs)] {
                let t0 = Instant::now();
                let mut lats = Vec::with_capacity(reqs.len());
                let mut errors = 0usize;
                for path in reqs.iter() {
                    let q0 = Instant::now();
                    let (status, _body) = client.get(path).expect("GET traversal");
                    lats.push(q0.elapsed());
                    errors += usize::from(status != 200);
                }
                let stats = QueryStats::from_samples(
                    AnswerSource::Artifact,
                    lats,
                    errors,
                    0,
                    1,
                    t0.elapsed(),
                    0,
                );
                assert_eq!(stats.errors, 0, "server/{kind}: traversals must not fail");
                print_row("server", kind, &stats);
                results.push(("server".to_string(), kind, stats));
            }
            drop(client);
            stop.store(true, Ordering::SeqCst);
            run.join().unwrap().expect("traversal server run");
        });
        let after = cached.routing();
        let touched = (after.cache_hits + after.cache_misses)
            .saturating_sub(before.cache_hits + before.cache_misses);
        let hits = after.cache_hits.saturating_sub(before.cache_hits);
        let hit_rate = if touched > 0 {
            hits as f64 / touched as f64
        } else {
            0.0
        };
        eprintln!(
            "traversals: {} requests fetched {touched} rows, cache hit rate {:.2}",
            2 * per_kind,
            hit_rate
        );
        (2 * per_kind, touched, hit_rate)
    };

    // Concurrency sweep: the event-loop server under 100 / 1000 / 10000
    // concurrent keep-alive connections, driven by the `stress_serve`
    // sibling binary as a child process (10K sockets per side want
    // separate fd budgets). Rows land in the JSON report as
    // engine "server", kind "concurrency_<N>".
    let mut concurrency_rows: Vec<Json> = Vec::new();
    {
        use kron_serve::{Server, ServerOptions};
        use std::sync::atomic::{AtomicBool, Ordering};
        let stress_bin = std::env::current_exe()
            .ok()
            .and_then(|p| p.parent().map(|d| d.join("stress_serve")))
            .filter(|p| p.exists());
        match stress_bin {
            None => eprintln!(
                "concurrency sweep skipped: no stress_serve next to bench_serve \
                 (build it with `cargo build --release -p kron-bench --bin stress_serve`)"
            ),
            Some(bin) => {
                let server = Server::bind("127.0.0.1:0").expect("bind sweep server");
                let addr = server.local_addr().expect("sweep local addr");
                let stop = AtomicBool::new(false);
                let sweep_opts = ServerOptions {
                    // headroom above the largest sweep point so the cap
                    // itself is never what shapes the latency
                    max_conns: 12_000,
                    ..Default::default()
                };
                std::thread::scope(|s| {
                    let run = s.spawn(|| server.run(&artifact, &sweep_opts, &stop));
                    for conns in [100usize, 1000, 10_000] {
                        if conns > conns_cap {
                            eprintln!("concurrency_{conns} skipped (--conns {conns_cap})");
                            continue;
                        }
                        // enough rounds for stable percentiles at every
                        // sweep point, ≥ 2 requests per connection at 10K
                        let requests = (conns * 2).max(20_000);
                        let out = std::process::Command::new(&bin)
                            .args([
                                addr.to_string(),
                                "--conns".into(),
                                conns.to_string(),
                                "--requests".into(),
                                requests.to_string(),
                                "--threads".into(),
                                "16".into(),
                                "--json".into(),
                            ])
                            .output()
                            .expect("spawn stress_serve");
                        for line in String::from_utf8_lossy(&out.stderr).lines() {
                            eprintln!("  [stress_serve] {line}");
                        }
                        assert!(
                            out.status.success(),
                            "concurrency_{conns}: stress_serve reported request errors"
                        );
                        let stdout = String::from_utf8_lossy(&out.stdout);
                        let doc = stdout
                            .lines()
                            .rev()
                            .find(|l| l.starts_with('{'))
                            .and_then(|l| Json::parse(l).ok())
                            .expect("stress_serve --json summary");
                        let g = |k: &str| doc.req(k).ok().and_then(|v| v.as_f64()).unwrap_or(0.0);
                        let kind = format!("concurrency_{conns}");
                        println!(
                            "{:<15} {kind:<14} {:>7} queries  {:>12.0} q/s  \
                             p50 {:>8.1}µs  p99 {:>8.1}µs",
                            "server",
                            g("queries") as u64,
                            g("qps"),
                            g("p50_us"),
                            g("p99_us"),
                        );
                        let Json::Obj(stat_pairs) = doc else {
                            unreachable!("req() above proved doc is an object")
                        };
                        let mut pairs = vec![
                            ("engine".to_string(), Json::str("server")),
                            ("kind".to_string(), Json::str(&kind)),
                        ];
                        pairs.extend(stat_pairs.into_iter().filter(|(k, _)| k != "tool"));
                        concurrency_rows.push(Json::Obj(pairs));
                    }
                    stop.store(true, Ordering::SeqCst);
                    run.join().unwrap().expect("sweep server run");
                });
            }
        }
    }

    // Cluster loopback workload: two shard-subset nodes + a forwarding
    // router over the same run directory, driven with the same degree and
    // tri_vertex mixes. The degree row measures pure routing overhead
    // (one extra hop, no cross-node rows); the tri_vertex row pays real
    // node-to-node /row fetches for every non-resident neighbor.
    if shards >= 2 {
        use kron_serve::http::{encode_query_component, Client};
        use kron_serve::{PeerSpec, Router, Server, ServerOptions};
        use std::sync::atomic::{AtomicBool, Ordering};
        let split = shards / 2;
        let node0_srv = Server::bind("127.0.0.1:0").expect("bind node 0");
        let node1_srv = Server::bind("127.0.0.1:0").expect("bind node 1");
        let front = Server::bind("127.0.0.1:0").expect("bind router");
        let (addr0, addr1) = (
            node0_srv.local_addr().unwrap(),
            node1_srv.local_addr().unwrap(),
        );
        let node = |subset: std::ops::Range<usize>, peers: Vec<PeerSpec>| {
            ServeEngine::open_with(
                &dir,
                &OpenOptions {
                    verify_checksums: false,
                    row_cache_bytes: cache_bytes,
                    shard_subset: Some(subset),
                    peers,
                    ..OpenOptions::default()
                },
            )
            .expect("open cluster node")
        };
        let node0 = node(
            0..split,
            vec![PeerSpec {
                shards: split..shards,
                addr: addr1.to_string(),
            }],
        );
        let node1 = node(
            split..shards,
            vec![PeerSpec {
                shards: 0..split,
                addr: addr0.to_string(),
            }],
        );
        let stop = AtomicBool::new(false);
        let opts = ServerOptions::default();
        let cluster_rows = std::thread::scope(|s| {
            let h0 = s.spawn(|| node0_srv.run(&node0, &opts, &stop));
            let h1 = s.spawn(|| node1_srv.run(&node1, &opts, &stop));
            let router = Router::discover(
                &[addr0.to_string(), addr1.to_string()],
                std::time::Duration::from_secs(5),
            )
            .expect("discover cluster");
            let (stop_ref, opts_ref, front_ref) = (&stop, &opts, &front);
            let hr = s.spawn(move || router.run(front_ref, opts_ref, stop_ref));
            let mut client = Client::connect(front.local_addr().unwrap()).expect("connect router");
            let mut rows = Vec::new();
            for (kind, queries) in [
                ("degree_http", &mixes[0].1),
                ("tri_vertex_http", &mixes[3].1),
            ] {
                let t0 = Instant::now();
                let mut lats = Vec::with_capacity(queries.len());
                let mut errors = 0usize;
                for q in queries.iter() {
                    let path = format!("/query?q={}", encode_query_component(&q.to_string()));
                    let q0 = Instant::now();
                    let (status, _body) = client.get(&path).expect("routed GET /query");
                    lats.push(q0.elapsed());
                    errors += usize::from(status != 200);
                }
                let stats = QueryStats::from_samples(
                    AnswerSource::Artifact,
                    lats,
                    errors,
                    0,
                    1,
                    t0.elapsed(),
                    0,
                );
                assert_eq!(stats.errors, 0, "cluster/{kind}: queries must not fail");
                print_row("cluster", kind, &stats);
                rows.push((kind, stats));
            }
            drop(client);
            stop.store(true, Ordering::SeqCst);
            let rep0 = h0.join().unwrap().expect("node 0 run");
            let rep1 = h1.join().unwrap().expect("node 1 run");
            hr.join().unwrap().expect("router run");
            assert!(
                rep0.rows_served + rep1.rows_served > 0,
                "the tri_vertex mix must cross the node boundary"
            );
            eprintln!(
                "cluster rows served across the wire: {}",
                rep0.rows_served + rep1.rows_served
            );
            rows
        });
        for (kind, stats) in cluster_rows {
            results.push(("cluster".to_string(), kind, stats));
        }
    }

    // Oracle speedup on the triangle point queries — the paper's closed
    // forms vs the shard walk, same query stream.
    let qps_of = |label: &str, kind: &str| -> f64 {
        results
            .iter()
            .find(|(l, k, _)| l == label && *k == kind)
            .map(|(_, _, s)| s.qps())
            .unwrap_or(0.0)
    };
    // Guard the denominators: a tiny --queries can produce empty batches
    // (qps 0), and a NaN/inf ratio would corrupt the JSON report.
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    let speedup_tri_vertex = ratio(
        qps_of("oracle", "tri_vertex"),
        qps_of("artifact", "tri_vertex"),
    );
    let speedup_tri_edge = ratio(qps_of("oracle", "tri_edge"), qps_of("artifact", "tri_edge"));
    let speedup_hot_cache = ratio(
        qps_of("artifact+cache", "tri_vertex_hot"),
        qps_of("artifact", "tri_vertex_hot"),
    );
    eprintln!(
        "oracle speedup: tri_vertex ×{speedup_tri_vertex:.1}, tri_edge ×{speedup_tri_edge:.1}; \
         row-cache speedup on skewed tri_vertex ×{speedup_hot_cache:.2}"
    );
    let _ = std::fs::remove_dir_all(&dir);

    if json_out {
        let doc = Json::obj(vec![
            ("bench", Json::str("serve")),
            ("factor_n", Json::num(n)),
            ("shards", Json::num(shards)),
            ("product_entries", Json::num(prod.nnz())),
            ("open_verified_secs", Json::num(open_secs)),
            ("csr2_open_verified_secs", Json::num(csr2_open_secs)),
            ("oracle_open_secs", Json::num(oracle_open_secs)),
            (
                "row_wire",
                Json::obj(vec![
                    ("rows", Json::num(wire_rows)),
                    ("raw_bytes", Json::num(raw_wire_bytes)),
                    ("vd_bytes", Json::num(vd_wire_bytes)),
                    ("raw_over_vd", Json::num(wire_ratio)),
                ]),
            ),
            ("cache_bytes", Json::num(cache_bytes)),
            ("cache_hit_rate", Json::num(cache_report.hit_rate())),
            (
                "oracle_speedup",
                Json::obj(vec![
                    ("tri_vertex", Json::num(speedup_tri_vertex)),
                    ("tri_edge", Json::num(speedup_tri_edge)),
                ]),
            ),
            ("cache_speedup_tri_vertex_hot", Json::num(speedup_hot_cache)),
            (
                "traversal",
                Json::obj(vec![
                    ("requests", Json::num(traversal_reqs)),
                    ("rows_fetched", Json::num(traversal_rows_fetched)),
                    ("cache_hit_rate", Json::num(traversal_hit_rate)),
                ]),
            ),
            (
                "results",
                Json::Arr(
                    results
                        .iter()
                        .map(|(label, kind, stats)| {
                            let mut pairs = vec![
                                ("engine".to_string(), Json::str(label)),
                                ("kind".to_string(), Json::str(kind)),
                            ];
                            if let Json::Obj(stat_pairs) = stats.to_json() {
                                pairs.extend(stat_pairs);
                            }
                            Json::Obj(pairs)
                        })
                        .chain(concurrency_rows)
                        .collect(),
                ),
            ),
        ]);
        let rows = match doc.req("results") {
            Ok(Json::Arr(rows)) => rows.len(),
            _ => 0,
        };
        std::fs::write("BENCH_serve.json", format!("{doc}\n")).expect("write BENCH_serve.json");
        eprintln!("wrote BENCH_serve.json ({rows} rows)");
    }
}
