//! The stateless forwarding router: one address in front of a cluster of
//! shard-subset nodes, speaking the **unchanged single-node wire
//! protocol** to clients.
//!
//! `kron route --peers ADDR,ADDR,… --listen ADDR` owns no shards, opens
//! no run directory, and keeps no query state — it learns each peer's
//! claimed vertex range at startup (`GET /shards`), validates that the
//! claims **cover** the whole product (overlapping claims are
//! **replicas**), and then:
//!
//! * forwards `GET /query` to a node owning the query's routing vertex
//!   ([`crate::Query::routing_vertex`]), rotating round-robin over the
//!   vertex's replicas, and relays the answer verbatim;
//! * splits `POST /batch` bodies into per-node sub-batches, forwards them,
//!   and reassembles the answer lines **in input order** — byte-identical
//!   to what one node serving the whole run directory would produce;
//! * merges `GET /stats` across peers (per-peer documents plus summed
//!   totals and per-replica health; see `ARCHITECTURE.md` § "Cluster
//!   serving" for the normative merge rules);
//! * fans `GET /healthz` out to every peer (`ok` only when all are).
//!
//! Each peer is a [`crate::cluster`] replica client — the same one a
//! node fetches remote rows with — so a failed forward (connect error,
//! timeout, 5xx, short sub-batch response) transparently **fails over**
//! to the next replica, and per-peer consecutive-failure counters drive
//! health ejection exactly as on the nodes (down after 3 consecutive
//! failures, probed via `GET /healthz` on a doubling backoff, restored
//! on success). Unlike a node's `/row` fetch, any non-5xx answer is
//! relayed to the client verbatim. Only when *every* replica of a
//! vertex has failed does the client see an error: a single `502 Bad
//! Gateway` naming each replica tried — the router never invents an
//! answer. Parse errors
//! (`400`) are produced by the router itself with the same messages a
//! node would emit, so clients cannot tell a router from a node on the
//! error path either.
//!
//! With `--rediscover SECS` ([`Router::set_rediscover`]) the router
//! re-runs discovery on a timer, so nodes can join/leave a live cluster:
//! a returning node is restored the moment it answers `/shards`, a
//! vanished one keeps its last-known claim (health-ejected until it
//! probes healthy), and a table that would leave a shard uncovered is
//! rejected, keeping the last good one.
//!
//! ## Example
//!
//! ```no_run
//! use kron_serve::{Router, Server, ServerOptions};
//! use std::sync::atomic::AtomicBool;
//! use std::time::Duration;
//!
//! // Three nodes already serve (overlapping) shard subsets.
//! let mut router = Router::discover(
//!     &["10.0.0.1:8080".into(), "10.0.0.2:8080".into(), "10.0.0.3:8080".into()],
//!     Duration::from_secs(5),
//! )
//! .unwrap();
//! router.set_rediscover(Duration::from_secs(10));
//! let front = Server::bind("0.0.0.0:8080").unwrap();
//! let stop = AtomicBool::new(false);
//! let report = router
//!     .run(&front, &ServerOptions::default(), &stop)
//!     .unwrap();
//! println!("{report}");
//! ```

use crate::batch;
use crate::cluster::{failover, Replica, Verdict};
use crate::event_loop::serve_connections;
use crate::http::{self, encode_query_component, Client, Response, JSON, TEXT};
use crate::server::{
    batch_too_large, shards_doc, LoopCounters, Server, ServerOptions, MAX_BATCH_RESPONSE,
};
use kron_stream::json::Json;
use std::io;
use std::ops::Range;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, RwLock};
use std::time::{Duration, Instant};

/// One peer's parsed `GET /shards` answer: its shard claim, vertex
/// span, the run shape `(shards, num_vertices)`, and the connection the
/// exchange left open (seeded into the peer's pool).
type Discovered = (Range<usize>, Range<u64>, (u64, u64), Client);

/// One discovered peer: its claim beside the [`Replica`] client that
/// forwards to it (address, keep-alive pool, health).
struct RouterPeer {
    shards: Range<usize>,
    vertices: Range<u64>,
    replica: Replica,
}

/// One immutable routing table: the discovered peers of one
/// (re-)discovery round. Handlers snapshot it per request, so a
/// concurrent re-discovery swap never tears a request in half.
struct RouterTable {
    /// Ascending by claim (then address) — the `/stats` peer order.
    peers: Vec<Arc<RouterPeer>>,
    num_vertices: u64,
    num_shards: usize,
}

impl RouterTable {
    /// Indices of the peers whose claim contains `v` — the vertex's
    /// replicas. Out-of-range vertices go to the replicas of the first
    /// vertex range: their engines produce the exact out-of-range error a
    /// single-node server would, keeping the client-visible bytes
    /// identical. `/query` and `/batch` both route through here, so the
    /// policy cannot diverge between them.
    fn candidates_for(&self, v: u64) -> Vec<usize> {
        let own: Vec<usize> = self
            .peers
            .iter()
            .enumerate()
            .filter(|(_, p)| p.vertices.contains(&v))
            .map(|(i, _)| i)
            .collect();
        if !own.is_empty() {
            return own;
        }
        self.peers
            .iter()
            .enumerate()
            .filter(|(_, p)| p.vertices.start == 0)
            .map(|(i, _)| i)
            .collect()
    }

    fn addr_list(&self) -> String {
        self.peers
            .iter()
            .map(|p| p.replica.addr.as_str())
            .collect::<Vec<_>>()
            .join(", ")
    }
}

/// Totals of one router run, returned by [`Router::run`] after shutdown.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RouterReport {
    /// HTTP requests handled (all endpoints).
    pub requests: u64,
    /// Requests rejected as malformed (bad framing, bad query syntax).
    pub bad_requests: u64,
    /// Query lines forwarded to peers (each `/query`, plus each line of
    /// every `/batch`).
    pub queries: u64,
    /// Forwards that failed on **every** replica (the client saw a 502).
    pub forward_errors: u64,
    /// Single-replica failures that moved a forward on to the next
    /// replica (the client saw nothing).
    pub failovers: u64,
}

impl std::fmt::Display for RouterReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} requests ({} malformed), {} queries forwarded, {} failovers, \
             {} forward errors",
            self.requests, self.bad_requests, self.queries, self.failovers, self.forward_errors
        )
    }
}

/// Per-run router state shared by connection handlers.
struct RouterState<'r> {
    router: &'r Router,
    started: Instant,
    http: LoopCounters,
    queries: AtomicU64,
    forward_errors: AtomicU64,
}

/// A replica-aware query router over a set of shard-subset nodes.
///
/// Build one with [`Router::discover`], optionally enable periodic
/// re-discovery with [`Router::set_rediscover`], then drive it with
/// [`Router::run`] over a bound [`Server`] listener.
pub struct Router {
    table: RwLock<Arc<RouterTable>>,
    /// The `--peers` list as given — re-discovery re-contacts these.
    peer_addrs: Vec<String>,
    timeout: Duration,
    rediscover: Option<Duration>,
    /// Round-robin cursor over replicas.
    rr: AtomicUsize,
    /// Failovers survive table swaps (per-peer counters reset when a
    /// peer's claim changes), so `/stats` never under-reports them.
    failovers: AtomicU64,
    rediscoveries: AtomicU64,
}

impl std::fmt::Debug for Router {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Router")
            .field("peers", &self.peer_summary())
            .field("num_vertices", &self.num_vertices())
            .finish()
    }
}

impl Router {
    /// Contact every peer's `GET /shards` once and build the routing
    /// table. Peers may be listed in any order; their claims must
    /// **cover** the whole product — overlapping claims are replicas.
    ///
    /// # Errors
    ///
    /// A message naming the offending peer when one is unreachable,
    /// answers malformed JSON, or disagrees with the others on the run's
    /// shape (`shards` / `num_vertices`); or naming the first uncovered
    /// shard when the claims leave a gap.
    pub fn discover(peer_addrs: &[String], timeout: Duration) -> Result<Router, String> {
        let table = Self::build_table(peer_addrs, timeout, None)?;
        Ok(Router {
            table: RwLock::new(Arc::new(table)),
            peer_addrs: peer_addrs.to_vec(),
            timeout,
            rediscover: None,
            rr: AtomicUsize::new(0),
            failovers: AtomicU64::new(0),
            rediscoveries: AtomicU64::new(0),
        })
    }

    /// Re-run discovery every `every` during [`Router::run`], so nodes
    /// can join/leave the cluster without a router restart.
    pub fn set_rediscover(&mut self, every: Duration) {
        self.rediscover = Some(every);
    }

    /// Completed re-discovery rounds (table swaps).
    pub fn rediscoveries(&self) -> u64 {
        self.rediscoveries.load(Ordering::Relaxed)
    }

    /// One peer's `GET /shards` exchange, parsed.
    fn discover_one(addr: &str, timeout: Duration) -> Result<Discovered, String> {
        let fail = |detail: String| format!("peer {addr}: {detail}");
        let mut client =
            Client::connect_timeout(addr, timeout).map_err(|e| fail(format!("connect: {e}")))?;
        let (status, body) = client
            .get("/shards")
            .map_err(|e| fail(format!("GET /shards: {e}")))?;
        if status != 200 {
            return Err(fail(format!("GET /shards answered {status}")));
        }
        let doc = Json::parse(&body).map_err(|e| fail(format!("/shards JSON: {e}")))?;
        let num = |key: &str| -> Result<u64, String> {
            doc.req(key)
                .and_then(|v| v.as_u64().ok_or_else(|| format!("{key} is not an integer")))
                .map_err(|e| fail(format!("/shards: {e}")))
        };
        let subset = doc
            .req("subset")
            .ok()
            .and_then(Json::as_arr)
            .filter(|a| a.len() == 2)
            .and_then(|a| Some((a[0].as_usize()?, a[1].as_usize()?)))
            .ok_or_else(|| fail("/shards: subset is not [lo, hi]".into()))?;
        let shape = (num("shards")?, num("num_vertices")?);
        Ok((
            subset.0..subset.1,
            num("vertex_lo")?..num("vertex_hi")?,
            shape,
            client,
        ))
    }

    /// Build a routing table from `peer_addrs`. At startup (`prev` is
    /// `None`) every peer must answer; during re-discovery an unreachable
    /// peer keeps its last-known claim (still health-ejected) and a
    /// never-seen one is skipped, so a flapping node cannot take the
    /// router down with it.
    fn build_table(
        peer_addrs: &[String],
        timeout: Duration,
        prev: Option<&RouterTable>,
    ) -> Result<RouterTable, String> {
        if peer_addrs.is_empty() {
            return Err("router needs at least one peer".into());
        }
        let mut peers: Vec<Arc<RouterPeer>> = Vec::with_capacity(peer_addrs.len());
        let mut shape: Option<(u64, u64)> = prev.map(|t| (t.num_shards as u64, t.num_vertices));
        for addr in peer_addrs {
            match Self::discover_one(addr, timeout) {
                Ok((shards, vertices, this_shape, client)) => {
                    match shape {
                        None => shape = Some(this_shape),
                        Some(expect) if expect != this_shape => {
                            return Err(format!(
                                "peer {addr}: serves a different run ({} shards / {} \
                                 vertices, expected {} / {})",
                                this_shape.0, this_shape.1, expect.0, expect.1
                            ))
                        }
                        Some(_) => {}
                    }
                    // An unchanged claim keeps its pool, health, and
                    // counters; answering /shards is also proof of life,
                    // restoring an ejected peer.
                    let reused = prev.and_then(|t| {
                        t.peers
                            .iter()
                            .find(|p| {
                                p.replica.addr == *addr
                                    && p.shards == shards
                                    && p.vertices == vertices
                            })
                            .cloned()
                    });
                    let peer = reused.unwrap_or_else(|| {
                        let replica = Replica::new(addr, addr.clone(), timeout);
                        Arc::new(RouterPeer {
                            shards,
                            vertices,
                            replica,
                        })
                    });
                    peer.replica.health.record_success();
                    peer.replica.pool_push(client);
                    peers.push(peer);
                }
                Err(e) => {
                    let carried = prev
                        .and_then(|t| t.peers.iter().find(|p| p.replica.addr == *addr).cloned());
                    match carried {
                        Some(p) => peers.push(p),
                        None if prev.is_none() => return Err(e),
                        None => {} // a joining node that is not up yet
                    }
                }
            }
        }
        let (num_shards, num_vertices) =
            shape.ok_or_else(|| "no peer answered GET /shards".to_string())?;
        let num_shards = num_shards as usize;
        peers.sort_by(|a, b| {
            (a.shards.start, a.shards.end, &a.replica.addr).cmp(&(
                b.shards.start,
                b.shards.end,
                &b.replica.addr,
            ))
        });
        // The claims must cover the run; overlap is replication.
        for s in 0..num_shards {
            if !peers.iter().any(|p| p.shards.contains(&s)) {
                return Err(format!(
                    "cluster ownership map incomplete: shard {s} is not claimed \
                     by any --peers node (a node is missing from --peers)"
                ));
            }
        }
        Ok(RouterTable {
            peers,
            num_vertices,
            num_shards,
        })
    }

    /// Current table snapshot (cheap: one `Arc` clone under a read lock).
    fn table(&self) -> Arc<RouterTable> {
        self.table.read().unwrap().clone()
    }

    /// One re-discovery round: build a fresh table from the configured
    /// peers and swap it in; on failure (a shape conflict, or coverage
    /// lost) the last good table stays.
    fn rediscover_tick(&self) {
        let prev = self.table();
        if let Ok(next) = Self::build_table(&self.peer_addrs, self.timeout, Some(&prev)) {
            *self.table.write().unwrap() = Arc::new(next);
            self.rediscoveries.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// One `addr → shards a..b, vertices x..y` line per peer, for startup
    /// narration.
    pub fn peer_summary(&self) -> Vec<String> {
        self.table()
            .peers
            .iter()
            .map(|p| {
                format!(
                    "{} → shards {}..{}, vertices {}..{}",
                    p.replica.addr, p.shards.start, p.shards.end, p.vertices.start, p.vertices.end
                )
            })
            .collect()
    }

    /// Product vertex count of the routed run.
    pub fn num_vertices(&self) -> u64 {
        self.table().num_vertices
    }

    /// Route until `shutdown` becomes `true`, accepting on the bound
    /// `front` listener, then return the run's totals. Mirrors
    /// [`Server::run`]'s connection model and shutdown contract exactly;
    /// the router itself records no mismatches (those live on the
    /// nodes — see `/stats`). When re-discovery is enabled
    /// ([`Router::set_rediscover`]) a timer thread re-runs discovery at
    /// that interval until shutdown.
    ///
    /// # Errors
    ///
    /// Like [`Server::run`], the loop itself does not fail; the
    /// `io::Result` is kept for interface stability.
    pub fn run(
        &self,
        front: &Server,
        opts: &ServerOptions,
        shutdown: &AtomicBool,
    ) -> io::Result<RouterReport> {
        let state = RouterState {
            router: self,
            started: Instant::now(),
            http: LoopCounters::new(),
            queries: AtomicU64::new(0),
            forward_errors: AtomicU64::new(0),
        };
        std::thread::scope(|s| {
            let timer = self.rediscover.map(|every| {
                s.spawn(move || {
                    let mut last = Instant::now();
                    while !shutdown.load(Ordering::Relaxed) {
                        std::thread::sleep(Duration::from_millis(25));
                        if last.elapsed() >= every {
                            self.rediscover_tick();
                            last = Instant::now();
                        }
                    }
                })
            });
            serve_connections(
                front.listener(),
                &opts.loop_config(),
                "kron route",
                shutdown,
                &state.http,
                &|req| route(&state, req),
            );
            if let Some(t) = timer {
                t.join().unwrap();
            }
        });
        Ok(RouterReport {
            requests: state.http.requests.load(Ordering::Relaxed),
            bad_requests: state.http.bad_requests.load(Ordering::Relaxed),
            queries: state.queries.load(Ordering::Relaxed),
            forward_errors: state.forward_errors.load(Ordering::Relaxed),
            failovers: self.failovers.load(Ordering::Relaxed),
        })
    }
}

/// A peer's slot in a [`fan_out`] round: `None` when the peer was
/// skipped, otherwise the forward's outcome.
type FanOutSlot<'t> = (&'t Arc<RouterPeer>, Option<Result<(u16, String), String>>);

/// Forward `method path` to every peer of `table` concurrently — a hung
/// peer costs the caller one timeout, not one per peer. `body_of(i)`
/// returns the body for peer `i`, or `None` to skip it (a batch with no
/// queries for a node must not fail on that node being unreachable).
/// Results come back in peer order, `None` for skipped peers.
fn fan_out<'t, 'b>(
    table: &'t RouterTable,
    method: &'static str,
    path: &str,
    body_of: &(impl Fn(usize) -> Option<&'b [u8]> + Sync),
) -> Vec<FanOutSlot<'t>> {
    let op = format!("{method} {path}");
    let request = |body: &[u8], client: &mut Client| match method {
        "GET" => client.get(path),
        _ => client.post(path, body),
    };
    std::thread::scope(|s| {
        let handles: Vec<_> = table
            .peers
            .iter()
            .enumerate()
            .map(|(i, p)| {
                body_of(i).map(|body| {
                    let (op, request) = (&op, &request);
                    s.spawn(move || p.replica.exchange("", op, |c| request(body, c)))
                })
            })
            .collect();
        table
            .peers
            .iter()
            .zip(handles)
            .map(|(p, h)| (p, h.map(|h| h.join().unwrap())))
            .collect()
    })
}

/// Every endpoint the router serves, in the order its `501` inventory
/// lists them. `/row` is not among them: the router answers it `404`.
const ENDPOINTS: [&str; 7] = [
    "/healthz", "/query", "/batch", "/path", "/khop", "/stats", "/shards",
];

/// The router's own `502`: every replica failed (`detail` names each).
fn gateway_error(state: &RouterState<'_>, detail: String) -> Response {
    state.forward_errors.fetch_add(1, Ordering::Relaxed);
    http::error(502, detail)
}

/// The single-vertex forward behind `/query`, `/path` and `/khop`: a
/// parse error is the router's own `400` (the message a node would
/// give); otherwise forward `GET path` (the canonical form) to a replica
/// of `vertex` with failover. Any non-5xx answer is relayed verbatim —
/// it is deterministic, and every replica of a consistent cluster would
/// repeat it; `ok_type` labels a `200` body, error bodies are text.
fn forward_one(
    state: &RouterState<'_>,
    parsed: Result<(u64, String), String>,
    ok_type: &'static str,
) -> Response {
    let (vertex, path) = match parsed {
        Ok(parsed) => parsed,
        Err(e) => return http::error(400, e),
    };
    state.queries.fetch_add(1, Ordering::Relaxed);
    let (r, table) = (state.router, state.router.table());
    let replicas: Vec<&Replica> = (table.candidates_for(vertex).into_iter())
        .map(|i| &table.peers[i].replica)
        .collect();
    let forwarded = failover(
        &replicas,
        r.rr.fetch_add(1, Ordering::Relaxed),
        None,
        &format!("GET {path}"),
        |client| client.get(&path),
        |(status, body): (u16, String)| match status {
            500.. => Verdict::FailOver(format!("GET answered {status}: {}", body.trim())),
            _ => Verdict::Done((status, body)),
        },
        Some(&r.failovers),
    );
    match forwarded {
        Ok((status, body)) => {
            let ctype = if status == 200 { ok_type } else { TEXT };
            (status, ctype, body.into_bytes())
        }
        Err(e) => gateway_error(state, e),
    }
}

/// Dispatch one request: parse/validate locally (same errors as a node),
/// forward the rest.
fn route(state: &RouterState<'_>, req: &http::Request) -> Response {
    let r = state.router;
    match (req.method.as_str(), req.path.as_str()) {
        ("GET", "/healthz") => {
            let table = r.table();
            // Probe every peer concurrently: one hung node must cost the
            // probe one timeout, not one per peer — monitoring timeouts
            // are usually shorter than peers × 5 s. Health state is not
            // consulted or updated here: a monitoring probe reports the
            // cluster as it is right now.
            for (p, res) in fan_out(&table, "GET", "/healthz", &|_| Some(&[][..])) {
                match res.expect("healthz skips no peer") {
                    Ok((200, _)) => {}
                    Ok((status, _)) => {
                        let addr = &p.replica.addr;
                        return http::error(
                            503,
                            format!("peer {addr} unhealthy (status {status})"),
                        );
                    }
                    Err(e) => return http::error(503, e),
                }
            }
            (200, TEXT, b"ok\n".to_vec())
        }
        // Parse locally first (identical 400s to a node), then forward
        // the canonical form to a replica of the routing vertex — a node
        // traverses cross-shard through its own /row fetches, so any
        // node holding the first row can answer.
        ("GET", "/query") => forward_one(
            state,
            batch::parse_query_param(req).map(|q| {
                let path = format!("/query?q={}", encode_query_component(&q.to_string()));
                (q.routing_vertex(), path)
            }),
            TEXT,
        ),
        ("GET", "/path") => forward_one(
            state,
            crate::path::parse_path_params(req).map(|(from, to, max_depth)| {
                let mut path = format!("/path?from={from}&to={to}");
                if let Some(k) = max_depth {
                    path.push_str(&format!("&max_depth={k}"));
                }
                (from, path)
            }),
            JSON,
        ),
        ("GET", "/khop") => forward_one(
            state,
            crate::path::parse_khop_params(req).map(|(v, k)| (v, format!("/khop?v={v}&k={k}"))),
            JSON,
        ),
        ("POST", "/batch") => {
            let queries = match batch::parse_batch_body(req) {
                Ok(queries) => queries,
                Err(e) => return http::error(400, e),
            };
            state
                .queries
                .fetch_add(queries.len() as u64, Ordering::Relaxed);
            // Split into per-peer sub-batches (input order is
            // preserved within each), forward them concurrently
            // (wall clock tracks the slowest node, not the sum),
            // then reassemble the answer lines by original index —
            // byte-identical to a single node walking the batch in
            // order. A failed sub-batch (transport, 5xx, short
            // response) returns its queries to the pool and the
            // next round re-assigns them to surviving replicas;
            // the loop is bounded because every retry round
            // excludes at least one more peer.
            let table = r.table();
            let rr_base = r.rr.fetch_add(1, Ordering::Relaxed);
            let mut lines: Vec<Option<String>> = vec![None; queries.len()];
            let mut excluded: Vec<bool> = vec![false; table.peers.len()];
            let mut total_len = 0usize;
            loop {
                let remaining: Vec<usize> =
                    (0..queries.len()).filter(|&i| lines[i].is_none()).collect();
                if remaining.is_empty() {
                    break;
                }
                // Gate each peer once per round (probing down
                // peers whose backoff elapsed), not once per query.
                let mut probe_failures = Vec::new();
                let usable: Vec<bool> = table
                    .peers
                    .iter()
                    .enumerate()
                    .map(|(i, p)| !excluded[i] && p.replica.admit(&mut probe_failures))
                    .collect();
                let mut by_peer: Vec<(Vec<usize>, String)> = table
                    .peers
                    .iter()
                    .map(|_| (Vec::new(), String::new()))
                    .collect();
                for &i in &remaining {
                    let cands: Vec<usize> = table
                        .candidates_for(queries[i].routing_vertex())
                        .into_iter()
                        .filter(|&c| usable[c])
                        .collect();
                    if cands.is_empty() {
                        return gateway_error(
                            state,
                            format!(
                                "all replicas failed for batch query {:?} (peers: {})",
                                queries[i].to_string(),
                                table.addr_list()
                            ),
                        );
                    }
                    let pick = cands[(rr_base + i) % cands.len()];
                    by_peer[pick].0.push(i);
                    by_peer[pick].1.push_str(&format!("{}\n", queries[i]));
                }
                let responses = fan_out(&table, "POST", "/batch", &|i: usize| {
                    let (indices, body) = &by_peer[i];
                    (!indices.is_empty()).then_some(body.as_bytes())
                });
                for (idx, ((peer, res), (indices, _))) in
                    responses.into_iter().zip(&by_peer).enumerate()
                {
                    let Some(res) = res else {
                        continue; // no queries route to this peer
                    };
                    // Transport failures, 5xx, and short responses
                    // fail over; any other non-200 is deterministic
                    // and surfaces (a retry would repeat it).
                    let resp = match res {
                        Ok((200, resp)) if resp.lines().count() == indices.len() => resp,
                        Ok((status, resp)) if status < 500 && status != 200 => {
                            return gateway_error(
                                state,
                                format!(
                                    "peer {}: /batch answered {status}: {}",
                                    peer.replica.addr,
                                    resp.trim()
                                ),
                            );
                        }
                        _ => {
                            peer.replica.health.record_failure();
                            r.failovers.fetch_add(1, Ordering::Relaxed);
                            excluded[idx] = true;
                            continue;
                        }
                    };
                    peer.replica.health.record_success();
                    peer.replica.health.record_served();
                    for (&i, line) in indices.iter().zip(resp.lines()) {
                        total_len += line.len() + 1;
                        lines[i] = Some(line.to_string());
                    }
                    if total_len > MAX_BATCH_RESPONSE {
                        return batch_too_large();
                    }
                }
            }
            let mut out = String::with_capacity(total_len);
            for line in lines.into_iter().flatten() {
                out.push_str(&line);
                out.push('\n');
            }
            (200, TEXT, out.into_bytes())
        }
        ("GET", "/stats") => {
            // Merge rule (normative in ARCHITECTURE.md): per-peer docs
            // verbatim under `peers` (ascending claim) with the peer's
            // replica-health fields beside them, the named counters
            // summed under `totals`, the router's own counters at the
            // top level. An unreachable peer reports `"up":false` and
            // `"stats":null` and is left out of the totals — the per-peer
            // nulls make the partiality visible, and a cluster running
            // degraded must still be observable (a down node taking
            // `/stats` down with it would blind monitoring exactly when
            // it matters).
            let table = r.table();
            let mut peer_docs = Vec::with_capacity(table.peers.len());
            let mut totals = [0u64; 6];
            const KEYS: [&str; 6] = [
                "queries",
                "errors",
                "bad_requests",
                "sampled_checks",
                "mismatch_count",
                "rows_served",
            ];
            let responses = fan_out(&table, "GET", "/stats", &|i: usize| {
                // don't pay a timeout per /stats call for a known-down
                // peer; it reports up:false, stats:null below
                table.peers[i].replica.health.is_up().then_some(&[][..])
            });
            for (p, res) in responses {
                let stats = match res {
                    Some(Ok((200, body))) => Json::parse(&body).ok(),
                    _ => None,
                };
                if let Some(doc) = &stats {
                    for (i, key) in KEYS.iter().enumerate() {
                        totals[i] += doc.get(key).and_then(Json::as_u64).unwrap_or(0);
                    }
                }
                let span = vec![
                    ("vertex_lo", Json::num(p.vertices.start)),
                    ("vertex_hi", Json::num(p.vertices.end)),
                ];
                let mut fields = p.replica.stats_fields(&p.shards, span);
                fields.push(("stats", stats.unwrap_or(Json::Null)));
                peer_docs.push(Json::obj(fields));
            }
            let doc = Json::obj(vec![
                ("role", Json::str("router")),
                (
                    "uptime_secs",
                    Json::num(state.started.elapsed().as_secs_f64()),
                ),
                (
                    "requests",
                    Json::num(state.http.requests.load(Ordering::Relaxed)),
                ),
                (
                    "bad_requests",
                    Json::num(state.http.bad_requests.load(Ordering::Relaxed)),
                ),
                ("queries", Json::num(state.queries.load(Ordering::Relaxed))),
                (
                    "forward_errors",
                    Json::num(state.forward_errors.load(Ordering::Relaxed)),
                ),
                ("failovers", Json::num(r.failovers.load(Ordering::Relaxed))),
                (
                    "rediscoveries",
                    Json::num(r.rediscoveries.load(Ordering::Relaxed)),
                ),
                ("connections", state.http.conns.to_json()),
                (
                    "totals",
                    Json::Obj(
                        KEYS.iter()
                            .zip(totals)
                            .map(|(k, v)| (k.to_string(), Json::num(v)))
                            .collect(),
                    ),
                ),
                ("peers", Json::Arr(peer_docs)),
            ]);
            http::json(200, doc)
        }
        ("GET", "/shards") => {
            // The cluster presents as one complete node — a router (or a
            // router of routers) in front of it needs nothing else.
            let table = r.table();
            let (shards, n) = (table.num_shards, table.num_vertices);
            shards_doc(shards, 0..shards, 0..n, n)
        }
        ("GET", "/row") => http::error(
            404,
            "the router serves no rows (fetch from the owning node)",
        ),
        (_, path) if path == "/row" || ENDPOINTS.contains(&path) => http::method_not_allowed(),
        // 501, not 404: the path may well exist on the nodes (the
        // analytics-job API under /jobs is node-local state — an id
        // minted by one node means nothing to its peers, so the router
        // deliberately does not forward it). Name what *is* served so a
        // client landing here can tell "wrong tier" from "no such thing".
        _ => http::not_implemented(
            "not implemented by the router",
            &ENDPOINTS,
            Some("/jobs is node-local: submit to a node, not the router"),
        ),
    }
}
