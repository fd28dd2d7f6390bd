//! `cluster-traverse`: two in-process nodes, each holding half of the
//! csr2 shards with a row cache, behind an in-process router. A closed
//! loop of clients (one per core) sends point queries, shortest paths
//! and 2-hop neighbourhoods; every row a node does not hold is fetched
//! from its peer over `GET /row?enc=vd`. Every answer is checked against
//! the closed forms and a single-node path finder after the run.

use crate::answers::{expected, Rng};
use crate::common::{self, fig, product, Ctx, Report};
use crate::serve_point::StopOnDrop;
use crate::stats;
use crate::trace::{self, Span};
use kron::KronProduct;
use kron_serve::http::{encode_query_component, Client};
use kron_serve::{
    OpenOptions, PathFinder, PeerSpec, Query, Router, ServeEngine, Server, ServerOptions,
};
use kron_stream::json::Json;
use kron_stream::{stream_product, OutputFormat, StreamConfig};
use std::collections::{BTreeMap, HashMap};
use std::net::SocketAddr;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// Factor order of both factors.
pub const N: usize = 300;
const SHARDS: usize = 8;
/// Setup repetitions (the setup time is their median).
const SETUPS: usize = 9;
/// Row cache budget per node.
const CACHE_BYTES: u64 = 2 << 20;
/// Requests generated per client (the stream wraps around if a run
/// gets through them all).
const STREAM: usize = 50_000;
/// Time windows the tail and the throughput are taken over.
const WINDOWS: usize = 8;
/// Requests of each side probe in a traced run.
const PROBES: usize = 1000;

/// One client request.
#[derive(Clone, Copy, Debug)]
enum Req {
    Point(Query),
    Path(u64, u64),
    Khop(u64),
}

impl Req {
    fn path(&self) -> String {
        match self {
            Req::Point(q) => format!("/query?q={}", encode_query_component(&q.to_string())),
            Req::Path(a, b) => format!("/path?from={a}&to={b}"),
            Req::Khop(v) => format!("/khop?v={v}&k=2"),
        }
    }

    fn span(&self) -> &'static str {
        match self {
            Req::Point(Query::Degree(_)) => "router.degree",
            Req::Point(_) => "router.tri_vertex",
            Req::Path(..) => "router.path",
            Req::Khop(_) => "router.khop",
        }
    }
}

struct State {
    prod: KronProduct,
    dir: PathBuf,
    nodes: [ServeEngine; 2],
    servers: [Server; 2],
    front: Server,
}

fn setup(ctx: &Ctx) -> Result<State, String> {
    let prod = product(N, N);
    let dir = common::fresh_dir(ctx, "cluster");
    let mut cfg = StreamConfig::new(&dir, OutputFormat::Csr2);
    cfg.shards = SHARDS;
    cfg.threads = ctx.cores;
    {
        let _s = trace::span("stream.stream_product.csr2");
        stream_product(&prod, &cfg).map_err(|e| format!("stream_product: {e}"))?;
    }
    common::sync_dir(&dir);
    let bind = || Server::bind("127.0.0.1:0").map_err(|e| format!("bind: {e}"));
    let servers = [bind()?, bind()?];
    let front = bind()?;
    let addr = |i: usize| {
        servers[i]
            .local_addr()
            .map(|a| a.to_string())
            .map_err(|e| e.to_string())
    };
    let split = SHARDS / 2;
    let halves = [0..split, split..SHARDS];
    let open = |me: usize| -> Result<ServeEngine, String> {
        let _s = trace::span("stream.open_verified");
        ServeEngine::open_with(
            &dir,
            &OpenOptions {
                verify_checksums: true,
                row_cache_bytes: CACHE_BYTES,
                shard_subset: Some(halves[me].clone()),
                peers: vec![PeerSpec {
                    shards: halves[1 - me].clone(),
                    addr: addr(1 - me)?,
                }],
                ..OpenOptions::default()
            },
        )
        .map_err(|e| format!("open node {me}: {e}"))
    };
    let nodes = [open(0)?, open(1)?];
    Ok(State {
        prod,
        dir,
        nodes,
        servers,
        front,
    })
}

/// Uniform vertices drawn as a Weyl sequence over the vertices sorted
/// by degree: each vertex is equally likely, and every prefix of the
/// stream holds its fair share of hubs, so a run's cost does not hang on
/// how many hubs it happened to draw.
struct Stratified<'a> {
    by_degree: &'a [u64],
    x: f64,
    step: f64,
}

impl Stratified<'_> {
    fn next(&mut self) -> u64 {
        self.x = (self.x + self.step).fract();
        self.by_degree
            [((self.x * self.by_degree.len() as f64) as usize).min(self.by_degree.len() - 1)]
    }
}

/// Each client's seeded request stream: degree 20%, tri_vertex 40%,
/// path 25%, 2-hop 15%, endpoints uniform (stratified by degree).
fn streams(ctx: &Ctx, prod: &KronProduct, clients: usize) -> Vec<Vec<Req>> {
    let mut by_degree: Vec<u64> = (0..prod.num_vertices()).collect();
    by_degree.sort_by_key(|&v| (prod.degree(v), v));
    const GOLDEN: f64 = 0.618_033_988_749_895;
    const SILVER: f64 = std::f64::consts::SQRT_2 - 1.0;
    (0..clients)
        .map(|c| {
            let mut rng = Rng(ctx.seed_for(&format!("cluster-client-{c}")));
            let mut seq = |step: f64| Stratified {
                by_degree: &by_degree,
                x: rng.f64(),
                step,
            };
            let (mut degree, mut tri, mut from, mut to, mut khop) = (
                seq(GOLDEN),
                seq(GOLDEN),
                seq(GOLDEN),
                seq(SILVER),
                seq(GOLDEN),
            );
            (0..STREAM)
                .map(|_| {
                    let u = rng.f64();
                    if u < 0.20 {
                        Req::Point(Query::Degree(degree.next()))
                    } else if u < 0.60 {
                        Req::Point(Query::VertexTriangles(tri.next()))
                    } else if u < 0.85 {
                        Req::Path(from.next(), to.next())
                    } else {
                        Req::Khop(khop.next())
                    }
                })
                .collect()
        })
        .collect()
}

fn hash(bytes: &[u8]) -> u64 {
    use std::hash::{Hash, Hasher};
    let mut h = std::collections::hash_map::DefaultHasher::new();
    bytes.hash(&mut h);
    h.finish()
}

/// One answered (or failed) request of the closed loop.
struct Sample {
    client: usize,
    idx: usize,
    /// When it was sent, seconds into the run.
    at: f64,
    us: f64,
    /// `None` on a transport failure.
    response: Option<Answer>,
}

/// What the check needs of a response: its status and a hash of its
/// body, plus the body itself for paths (which are checked edge by edge).
struct Answer {
    status: u16,
    hash: u64,
    body: Option<Vec<u8>>,
}

/// `clients` closed-loop clients against `addr` for `seconds`.
fn closed_loop(
    addr: SocketAddr,
    reqs: &[Vec<Req>],
    paths: &[Vec<String>],
    seconds: f64,
) -> Vec<Sample> {
    let t0 = Instant::now();
    let end = t0 + Duration::from_secs_f64(seconds);
    let parent = trace::current();
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..reqs.len())
            .map(|c| {
                s.spawn(move || {
                    let mut out = Vec::new();
                    let mut client = Client::connect(addr).ok();
                    let mut i = 0usize;
                    while Instant::now() < end {
                        let idx = i % reqs[c].len();
                        i += 1;
                        let start = Instant::now();
                        let response = client
                            .as_mut()
                            .and_then(|cl| cl.get_bytes(&paths[c][idx]).ok());
                        let response = response.map(|(status, body)| Answer {
                            status,
                            hash: hash(&body),
                            body: matches!(reqs[c][idx], Req::Path(..)).then_some(body),
                        });
                        let done = Instant::now();
                        trace::record(reqs[c][idx].span(), start, done, parent, Some(idx as u64));
                        if response.is_none() {
                            client = Client::connect(addr).ok();
                        }
                        out.push(Sample {
                            client: c,
                            idx,
                            at: (start - t0).as_secs_f64(),
                            us: stats::us(done - start),
                            response,
                        });
                    }
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("client thread"))
            .collect()
    })
}

/// Ground truth for traversals, from one node holding every shard.
struct Reference<'a> {
    finder: PathFinder<'a>,
    hops: HashMap<(u64, u64), Option<u64>>,
    khop: HashMap<u64, u64>,
}

/// Why `answer` is not the right answer to `req`, if it is not.
fn check(
    prod: &KronProduct,
    reference: &mut Reference<'_>,
    req: &Req,
    answer: &Answer,
) -> Option<String> {
    match *req {
        Req::Point(q) => {
            let want = expected(prod, &q);
            (answer.hash != hash(want.as_bytes())).then(|| {
                format!(
                    "{q}: answer differs from the closed form {:?}",
                    want.trim_end()
                )
            })
        }
        Req::Khop(v) => {
            let want =
                *reference
                    .khop
                    .entry(v)
                    .or_insert_with(|| match reference.finder.khop(v, 2) {
                        Ok(a) => hash(format!("{}\n", a.to_json()).as_bytes()),
                        Err(_) => 0,
                    });
            (answer.hash != want).then(|| format!("khop {v}: differs from the single-node answer"))
        }
        Req::Path(from, to) => {
            let text = String::from_utf8_lossy(answer.body.as_deref().unwrap_or_default());
            let want = *reference.hops.entry((from, to)).or_insert_with(|| {
                reference
                    .finder
                    .shortest_path(from, to, None)
                    .ok()
                    .and_then(|a| a.hops())
            });
            let doc = match Json::parse(text.trim_end()) {
                Ok(doc) => doc,
                Err(e) => return Some(format!("path {from}->{to}: bad JSON: {e}")),
            };
            let Some(path) = doc.get("path").and_then(Json::as_arr) else {
                return want.map(|h| {
                    format!("path {from}->{to}: unreachable, single node found {h} hops")
                });
            };
            let path: Vec<u64> = path.iter().filter_map(Json::as_u64).collect();
            if path.first() != Some(&from) || path.last() != Some(&to) {
                return Some(format!("path {from}->{to}: wrong endpoints"));
            }
            if let Some(w) = path.windows(2).find(|w| !prod.has_edge(w[0], w[1])) {
                return Some(format!(
                    "path {from}->{to}: {}-{} is not an edge",
                    w[0], w[1]
                ));
            }
            let hops = path.len() as u64 - 1;
            (want != Some(hops) || doc.get("hops").and_then(Json::as_u64) != Some(hops))
                .then(|| format!("path {from}->{to}: {hops} hops, single node {want:?}"))
        }
    }
}

/// Latency and throughput of one closed-loop run (correct answers only).
struct Measured {
    ok_at: Vec<f64>,
    ok_us: Vec<f64>,
    rps: f64,
    requests: usize,
}

fn judge(
    samples: &[Sample],
    reqs: &[Vec<Req>],
    seconds: f64,
    prod: &KronProduct,
    reference: &mut Reference<'_>,
    rep: &mut Report,
) -> Measured {
    let mut m = Measured {
        ok_at: Vec::new(),
        ok_us: Vec::new(),
        rps: 0.0,
        requests: samples.len(),
    };
    for s in samples {
        let req = &reqs[s.client][s.idx];
        let problem = match &s.response {
            None => Some(format!("{}: transport error", req.path())),
            Some(a) if a.status != 200 => Some(format!("{}: HTTP {}", req.path(), a.status)),
            Some(a) => check(prod, reference, req, a),
        };
        if problem.is_none() {
            m.ok_at.push(s.at);
            m.ok_us.push(s.us);
        }
        rep.op(problem);
    }
    let done: Vec<f64> = m
        .ok_at
        .iter()
        .zip(&m.ok_us)
        .map(|(a, u)| a + u / 1e6)
        .collect();
    m.rps = stats::windowed_rate(&done, 0.0, seconds, WINDOWS);
    m
}

/// The median over [`WINDOWS`] time windows of each window's p50.
fn p50(m: &Measured) -> f64 {
    stats::windowed_median(&m.ok_at, &m.ok_us, WINDOWS)
}

fn end_to_end(out: &mut BTreeMap<&'static str, common::Figure>, m: &Measured) {
    let n = m.ok_us.len();
    out.insert("p50_us", fig(p50(m), "us", n));
    out.insert("throughput_per_s", fig(m.rps, "1/s", n));
}

/// Per-node counters that the traced measurement is bracketed with.
struct Counters {
    hits: u64,
    misses: u64,
    remote: u64,
    wire_bytes: u64,
}

fn counters(st: &State, addrs: &[SocketAddr; 2]) -> Counters {
    let mut c = Counters {
        hits: 0,
        misses: 0,
        remote: 0,
        wire_bytes: 0,
    };
    for (node, addr) in st.nodes.iter().zip(addrs) {
        let r = node.routing();
        c.hits += r.cache_hits;
        c.misses += r.cache_misses;
        c.remote += r.remote_fetches;
        c.wire_bytes += Client::connect(addr)
            .and_then(|mut cl| cl.get("/stats"))
            .ok()
            .and_then(|(_, body)| Json::parse(&body).ok())
            .and_then(|doc| doc.get("row_wire_bytes").and_then(Json::as_u64))
            .unwrap_or(0);
    }
    c
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
    let n = st.prod.num_vertices();
    rep.notes.push(format!(
        "cluster-traverse: web_factor({N}) x web_factor({N}), {n} vertices, {} entries, {SHARDS} csr2 shards over 2 nodes + router, row cache {CACHE_BYTES} B per node, {} closed-loop clients",
        st.prod.nnz(),
        ctx.cores
    ));
    let reqs = streams(ctx, &st.prod, ctx.cores);
    let paths: Vec<Vec<String>> = reqs
        .iter()
        .map(|r| r.iter().map(Req::path).collect())
        .collect();
    let single = match ServeEngine::open_with(
        &st.dir,
        &OpenOptions {
            verify_checksums: false,
            ..OpenOptions::default()
        },
    ) {
        Ok(e) => e,
        Err(e) => {
            rep.op(Some(format!("open single-node reference: {e}")));
            return rep;
        }
    };
    let mut reference = Reference {
        finder: PathFinder::new(&single),
        hops: HashMap::new(),
        khop: HashMap::new(),
    };

    let addrs = [
        st.servers[0].local_addr().expect("node address"),
        st.servers[1].local_addr().expect("node address"),
    ];
    let front = st.front.local_addr().expect("router address");
    let stop = AtomicBool::new(false);
    let opts = ServerOptions::default();
    let before_all = st
        .nodes
        .iter()
        .map(|e| e.routing().remote_fetches)
        .sum::<u64>();
    // Discovery needs the nodes up, and the router must outlive the scope
    // its thread runs in.
    let router: std::sync::OnceLock<Router> = std::sync::OnceLock::new();
    let outcome = std::thread::scope(|s| {
        let _stop = StopOnDrop(&stop);
        let nodes: Vec<_> = (0..2)
            .map(|i| {
                let (st, opts, stop) = (&st, &opts, &stop);
                s.spawn(move || st.servers[i].run(&st.nodes[i], opts, stop))
            })
            .collect();
        match Router::discover(
            &[addrs[0].to_string(), addrs[1].to_string()],
            Duration::from_secs(5),
        ) {
            Ok(r) => {
                let _ = router.set(r);
            }
            Err(e) => {
                rep.op(Some(format!("router discovery: {e}")));
                return None;
            }
        }
        let router_thread = s.spawn(|| router.get().map(|r| r.run(&st.front, &opts, &stop)));
        // A short warm-up, not measured.
        let warm = closed_loop(front, &reqs, &paths, 0.3);
        judge(&warm, &reqs, 0.3, &st.prod, &mut reference, &mut rep);

        let m = if ctx.trace {
            trace::enable(false);
            let half = ctx.seconds / 2.0;
            let plain = closed_loop(front, &reqs, &paths, half);
            let plain = judge(&plain, &reqs, half, &st.prod, &mut reference, &mut rep);
            end_to_end(&mut rep.untraced, &plain);
            trace::enable(true);
            let before = counters(&st, &addrs);
            let samples = {
                let _s = trace::span("cluster.closed_loop");
                closed_loop(front, &reqs, &paths, half)
            };
            let after = counters(&st, &addrs);
            let m = judge(&samples, &reqs, half, &st.prod, &mut reference, &mut rep);
            let l = &mut rep.layers;
            let hits = (after.hits - before.hits) as f64;
            let misses = (after.misses - before.misses) as f64;
            l.insert("cache.hits", hits);
            l.insert("cache.misses", misses);
            l.insert(
                "cache.hit_rate",
                if hits + misses > 0.0 {
                    hits / (hits + misses)
                } else {
                    0.0
                },
            );
            l.insert(
                "cache.bytes",
                st.nodes
                    .iter()
                    .map(|e| e.routing().cache_bytes)
                    .sum::<u64>() as f64,
            );
            let remote = (after.remote - before.remote) as f64;
            l.insert("cluster.rows_remote", remote);
            l.insert(
                "cluster.rows_per_request",
                remote / m.requests.max(1) as f64,
            );
            l.insert(
                "cluster.row_wire_bytes",
                (after.wire_bytes - before.wire_bytes) as f64,
            );
            probes(&st, &addrs, front, &samples, &reqs, &mut rep);
            m
        } else {
            let samples = closed_loop(front, &reqs, &paths, ctx.seconds);
            judge(
                &samples,
                &reqs,
                ctx.seconds,
                &st.prod,
                &mut reference,
                &mut rep,
            )
        };
        stop.store(true, Ordering::SeqCst);
        let reports: Vec<_> = nodes
            .into_iter()
            .filter_map(|h| h.join().ok().and_then(Result::ok))
            .collect();
        let _ = router_thread.join();
        Some((m, reports))
    });
    let Some((m, reports)) = outcome else {
        return rep;
    };

    let remote = st
        .nodes
        .iter()
        .map(|e| e.routing().remote_fetches)
        .sum::<u64>()
        - before_all;
    rep.op((remote == 0).then(|| "cluster-traverse fetched no remote rows".to_string()));
    end_to_end(&mut rep.end_to_end, &m);
    let (tail, tail_p) = stats::windowed_tail(&m.ok_at, &m.ok_us, WINDOWS, 99.0);
    let count = m.ok_us.len();
    rep.named
        .push(("cluster_p50_us", fig(p50(&m), "us", count)));
    rep.named.push(("cluster_p99_us", fig(tail, "us", count)));
    rep.named.push(("cluster_rps", fig(m.rps, "1/s", count)));
    if tail_p != 99.0 {
        rep.notes.push(format!(
            "cluster_p99_us is reported at p{tail_p}: too few samples for p99"
        ));
    }
    rep.notes.push(format!(
        "cluster: {remote} remote rows fetched over {} requests; whole-run p99 {:.0}us",
        m.requests,
        stats::percentile(&stats::sorted(&m.ok_us), 99.0)
    ));

    if ctx.trace {
        rep.layers.insert(
            "server.requests",
            reports.iter().map(|r| r.requests).sum::<u64>() as f64,
        );
        rep.layers.insert(
            "server.bad_requests",
            reports.iter().map(|r| r.bad_requests).sum::<u64>() as f64,
        );
        rep.spans.extend(trace::take());
        let spans: &[Span] = &rep.spans;
        let med = trace::median_s;
        let l = &mut rep.layers;
        l.insert("gen.factor_s", med(spans, "gen.web_factor"));
        l.insert(
            "stream.csr2_write_s",
            med(spans, "stream.stream_product.csr2"),
        );
        l.insert("stream.open_verified_s", med(spans, "stream.open_verified"));
        l.insert(
            "stream.artifact_bytes",
            common::artifact_bytes(&st.dir) as f64,
        );
    }
    rep
}

/// p50 and p99 (µs) of the spans named `name`.
fn span_p50_p99(spans: &[Span], name: &str) -> (f64, f64) {
    let us: Vec<f64> = trace::durations_s(spans, name)
        .iter()
        .map(|s| s * 1e6)
        .collect();
    let s = stats::sorted(&us);
    (stats::percentile(&s, 50.0), stats::percentile(&s, 99.0))
}

/// Layer probes: the router hop (routed vs direct degree queries), the
/// raw peer row fetch, and the traversals replayed in process on a
/// cluster node.
fn probes(
    st: &State,
    addrs: &[SocketAddr; 2],
    front: SocketAddr,
    samples: &[Sample],
    reqs: &[Vec<Req>],
    rep: &mut Report,
) {
    let n = st.prod.num_vertices();
    let split = st.nodes[0].shard_set().subset_vertices().end;
    let mut rng = Rng(0x5eed ^ n);
    let (mut routed, mut direct) = match (
        Client::connect(front),
        Client::connect(addrs[0]),
        Client::connect(addrs[1]),
    ) {
        (Ok(r), Ok(a), Ok(b)) => (r, [a, b]),
        _ => {
            rep.op(Some("probe connect failed".into()));
            return;
        }
    };
    for _ in 0..PROBES {
        let v = rng.below(n);
        let path = format!("/query?q=degree%20{v}");
        let owner = usize::from(v >= split);
        let want = expected(&st.prod, &Query::Degree(v));
        for (name, client) in [
            ("probe.routed_degree", &mut routed),
            ("probe.direct_degree", &mut direct[owner]),
        ] {
            let res = {
                let _s = trace::span(name);
                client.get(&path)
            };
            rep.op(match res {
                Ok((200, body)) if body == want => None,
                Ok((status, body)) => Some(format!("{name} {v}: HTTP {status} {body:?}")),
                Err(e) => Some(format!("{name} {v}: {e}")),
            });
        }
    }
    let set = st.nodes[0].shard_set();
    for _ in 0..PROBES {
        let v = rng.below(n);
        let Some(shard) = set.route(v) else { continue };
        let owner = usize::from(v >= split);
        let res = {
            let _s = trace::span("cluster.row_fetch");
            direct[owner].get_bytes_typed(&format!("/row?shard={shard}&v={v}&enc=vd"))
        };
        rep.op(match res {
            Ok((200, _, body)) => {
                let mut row = Vec::new();
                let ok = kron_stream::decode_row_vd(&body, &mut row) && row == st.prod.neighbors(v);
                (!ok).then(|| format!("/row {v}: decoded row differs from the closed form"))
            }
            Ok((status, ..)) => Some(format!("/row {v}: HTTP {status}")),
            Err(e) => Some(format!("/row {v}: {e}")),
        });
    }

    // Traversals of the run, replayed in process on node 0 (which
    // fetches node 1's rows over the wire).
    let finder = PathFinder::new(&st.nodes[0]);
    let touched = |e: &ServeEngine| {
        let r = e.routing();
        r.total_fetches() + r.cache_hits
    };
    let before = touched(&st.nodes[0]);
    let mut traversals = 0u64;
    for s in samples.iter().take(2000) {
        let res = match reqs[s.client][s.idx] {
            Req::Path(a, b) => {
                let _s = trace::span("path.shortest_path");
                finder.shortest_path(a, b, None).map(|_| ())
            }
            Req::Khop(v) => {
                let _s = trace::span("path.khop");
                finder.khop(v, 2).map(|_| ())
            }
            Req::Point(_) => continue,
        };
        traversals += 1;
        rep.op(res.err().map(|e| format!("in-process traversal: {e}")));
    }
    let rows = touched(&st.nodes[0]) - before;

    let spans = trace::take();
    let l = &mut rep.layers;
    let (routed_p50, _) = span_p50_p99(&spans, "probe.routed_degree");
    let (direct_p50, _) = span_p50_p99(&spans, "probe.direct_degree");
    l.insert("router.hop_p50_us", routed_p50 - direct_p50);
    let (p50, p99) = span_p50_p99(&spans, "cluster.row_fetch");
    l.insert("cluster.row_fetch_p50_us", p50);
    l.insert("cluster.row_fetch_p99_us", p99);
    let (p50, p99) = span_p50_p99(&spans, "path.shortest_path");
    l.insert("path.shortest_path_p50_us", p50);
    l.insert("path.shortest_path_p99_us", p99);
    let (p50, p99) = span_p50_p99(&spans, "path.khop");
    l.insert("path.khop_p50_us", p50);
    l.insert("path.khop_p99_us", p99);
    l.insert(
        "path.rows_per_traversal",
        rows as f64 / traversals.max(1) as f64,
    );
    // Put the spans back: they belong to the run's trace.
    rep.spans.extend(spans);
}
