//! Multi-node shard-subset serving: peer specs, replica-aware shard →
//! peer resolution, and the one replica client with failover that both
//! a node's remote-row fetcher and the router ([`crate::router`]) use.
//!
//! One machine stops being enough exactly when the paper's products get
//! interesting: a trillion-entry CSR run directory does not fit one
//! node's disks or page cache. The cluster answer keeps the wire protocol
//! and the run-directory format unchanged and splits only *residency*:
//! each node opens a contiguous **shard subset**
//! ([`kron_stream::ShardSet::open_subset`]) of the same run directory and
//! serves every query it receives — local rows zero-copy off its own
//! mappings, non-resident rows fetched from a peer over the internal
//! `GET /row?shard=S&v=V&enc=vd` endpoint. The fetcher asks for the
//! varint delta encoding and decodes by the response's `Content-Type`
//! (`application/kron-row-vd` → varint, `application/octet-stream` → raw
//! little-endian `u64` words), so either side may be older without
//! corrupting a row; see `ARCHITECTURE.md` § "Cluster serving" for the
//! normative wire format.
//!
//! The **ownership map** has two layers, both static:
//!
//! * *shard → vertex range* comes from the run directory's manifests —
//!   every node reads all of them (they are small JSON files), so routing
//!   any product vertex to its owning shard needs no network round trip;
//! * *shard → replica list* comes from the command line: each node is
//!   started with `--shards a..b` (its own claim) and `--peers
//!   a..b=ADDR,…` ([`PeerSpec`]) for every other node. Claims **may
//!   overlap** — a shard claimed by several peers has several replicas,
//!   and fetches rotate over them — but together with the own claim they
//!   must **cover** `0..shards`, or the engine refuses to open (the
//!   rejection names the first uncovered shard).
//!
//! Peers are contacted lazily (first non-resident row fetch), so nodes
//! can start in any order. Every call to a peer — a node's `/row`
//! fetch or a router's forward — goes through one `Replica` (address,
//! capped keep-alive pool, `PeerHealth`) and one `failover` loop, which
//! differ per caller only in how an answer is classified: a failed call
//! (connect error, timeout, 5xx, or a malformed row body) transparently
//! **fails over** to the next replica; per-peer consecutive-failure
//! counters drive **health ejection**: after `EJECT_AFTER` (3)
//! consecutive failures a peer is marked down and skipped until a `GET
//! /healthz` probe — allowed no sooner than a backoff that starts at
//! `PROBE_BACKOFF_INITIAL` (500 ms) and doubles to `PROBE_BACKOFF_MAX`
//! (8 s) — succeeds again. Fetched rows flow through the engine's hot-row
//! [`crate::RowCache`] when one is configured — remote rows are exactly
//! the expensive-fetch case the LRU exists for.
//!
//! ## Example
//!
//! ```
//! use kron_serve::PeerSpec;
//!
//! // Two replicas for shards 2..4: the same range, two addresses.
//! let peers = PeerSpec::parse_list("2..4=10.0.0.1:8080,2..4=10.0.0.2:8080").unwrap();
//! assert_eq!(peers.len(), 2);
//! assert_eq!(peers[0].shards, peers[1].shards);
//! assert_eq!(peers[1].to_string(), "2..4=10.0.0.2:8080");
//! ```

use crate::engine::ServeError;
use crate::http::Client;
use kron_stream::json::Json;
use std::io;
use std::ops::Range;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Default node-to-node fetch timeout (connect and read): long enough
/// for a loaded peer, short enough that a dead one surfaces as a bounded
/// [`ServeError::Remote`] instead of a stalled query.
pub const DEFAULT_PEER_TIMEOUT: Duration = Duration::from_secs(5);

/// Consecutive transport failures after which a peer is ejected
/// (marked down and skipped until a health probe succeeds).
pub(crate) const EJECT_AFTER: u64 = 3;

/// Backoff before the first `/healthz` probe of an ejected peer.
pub(crate) const PROBE_BACKOFF_INITIAL: Duration = Duration::from_millis(500);

/// Cap on the probe backoff (doubles after every failed probe).
pub(crate) const PROBE_BACKOFF_MAX: Duration = Duration::from_secs(8);

/// One peer of a cluster node: the contiguous shard range it serves and
/// the address its server listens on.
///
/// The CLI spelling is `a..b=HOST:PORT` (`a..b` end-exclusive, matching
/// the manifests' ranges); `--peers` takes a comma-separated list.
/// Several entries may claim the same (or overlapping) ranges — they are
/// replicas.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PeerSpec {
    /// The run-wide shard indices `[start, end)` this peer serves.
    pub shards: Range<usize>,
    /// The peer's `host:port`.
    pub addr: String,
}

/// Parse a shard range spelled `a..b` (end-exclusive, `a < b`).
///
/// # Errors
///
/// Returns a message naming the offending token when the spelling is not
/// `a..b` with integers `a < b`.
pub fn parse_shard_range(s: &str) -> Result<Range<usize>, String> {
    let (lo, hi) = s
        .split_once("..")
        .ok_or_else(|| format!("shard range {s:?} must be spelled a..b (end-exclusive)"))?;
    let parse = |tok: &str| -> Result<usize, String> {
        tok.parse()
            .map_err(|_| format!("shard range {s:?}: {tok:?} is not a shard index"))
    };
    let (lo, hi) = (parse(lo)?, parse(hi)?);
    if lo >= hi {
        return Err(format!("shard range {s:?} is empty (need a < b)"));
    }
    Ok(lo..hi)
}

impl PeerSpec {
    /// Parse one `a..b=HOST:PORT` spec.
    ///
    /// # Errors
    ///
    /// Returns a message naming the offending token when the range or
    /// address part is missing or malformed.
    pub fn parse(s: &str) -> Result<PeerSpec, String> {
        let (range, addr) = s
            .split_once('=')
            .ok_or_else(|| format!("peer {s:?} must be spelled a..b=HOST:PORT"))?;
        let shards = parse_shard_range(range)?;
        if addr.is_empty() {
            return Err(format!("peer {s:?} has an empty address"));
        }
        Ok(PeerSpec {
            shards,
            addr: addr.to_string(),
        })
    }

    /// Parse a comma-separated `--peers` list.
    ///
    /// # Errors
    ///
    /// Returns the first per-entry [`PeerSpec::parse`] failure, or a
    /// message for an empty list.
    pub fn parse_list(s: &str) -> Result<Vec<PeerSpec>, String> {
        let specs: Vec<PeerSpec> = s
            .split(',')
            .filter(|t| !t.is_empty())
            .map(PeerSpec::parse)
            .collect::<Result<_, _>>()?;
        if specs.is_empty() {
            return Err("peer list is empty".into());
        }
        Ok(specs)
    }
}

impl std::fmt::Display for PeerSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}..{}={}",
            self.shards.start, self.shards.end, self.addr
        )
    }
}

/// What the health gate says about using a peer right now.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Gate {
    /// Peer is up — use it.
    Up,
    /// Peer is down and its probe backoff has elapsed — probe `/healthz`
    /// before using it.
    ProbeDue,
    /// Peer is down and the backoff has not elapsed — skip it.
    Skip,
}

/// Per-peer health state and counters, shared by the node-side remote-row
/// client and the router (both follow the same normative ejection/probe
/// semantics — ARCHITECTURE.md § "Cluster serving").
///
/// * a fetch/forward **success** resets the consecutive-failure count and
///   restores a down peer;
/// * a transport **failure** (connect error, timeout, 5xx, malformed row
///   body) increments it; at [`EJECT_AFTER`] the peer is ejected: marked
///   down, skipped by replica selection, and probed via `GET /healthz`
///   no sooner than a backoff that starts at [`PROBE_BACKOFF_INITIAL`]
///   and doubles (to [`PROBE_BACKOFF_MAX`]) after every failed probe.
pub(crate) struct PeerHealth {
    /// Epoch for the monotonic millisecond timestamps below.
    epoch: Instant,
    consecutive_failures: AtomicU64,
    down: AtomicBool,
    /// ms since `epoch` when the next `/healthz` probe may run.
    next_probe_ms: AtomicU64,
    /// Current probe backoff in ms.
    backoff_ms: AtomicU64,
    /// Successful fetches/forwards served by this peer.
    fetches: AtomicU64,
    /// Failed attempts on this peer that moved the caller on (or failed
    /// the request, when it was the last replica).
    failovers: AtomicU64,
    /// Up → down transitions.
    ejections: AtomicU64,
}

impl PeerHealth {
    pub(crate) fn new() -> PeerHealth {
        PeerHealth {
            epoch: Instant::now(),
            consecutive_failures: AtomicU64::new(0),
            down: AtomicBool::new(false),
            next_probe_ms: AtomicU64::new(0),
            backoff_ms: AtomicU64::new(0),
            fetches: AtomicU64::new(0),
            failovers: AtomicU64::new(0),
            ejections: AtomicU64::new(0),
        }
    }

    fn now_ms(&self) -> u64 {
        self.epoch.elapsed().as_millis() as u64
    }

    pub(crate) fn is_up(&self) -> bool {
        !self.down.load(Ordering::Relaxed)
    }

    /// May this peer be used right now (up, or down with the probe
    /// backoff elapsed)?
    pub(crate) fn gate(&self) -> Gate {
        if self.is_up() {
            Gate::Up
        } else if self.now_ms() >= self.next_probe_ms.load(Ordering::Relaxed) {
            Gate::ProbeDue
        } else {
            Gate::Skip
        }
    }

    /// A successful fetch/forward (or probe): reset failures, restore a
    /// down peer.
    pub(crate) fn record_success(&self) {
        self.consecutive_failures.store(0, Ordering::Relaxed);
        self.backoff_ms.store(0, Ordering::Relaxed);
        self.down.store(false, Ordering::Relaxed);
    }

    /// A request this peer answered (counted separately from health so a
    /// probe-only success does not look like served traffic).
    pub(crate) fn record_served(&self) {
        self.fetches.fetch_add(1, Ordering::Relaxed);
    }

    /// A transport failure while the peer was (believed) up: bump the
    /// failover counter and eject at [`EJECT_AFTER`] consecutive
    /// failures.
    pub(crate) fn record_failure(&self) {
        self.failovers.fetch_add(1, Ordering::Relaxed);
        let n = self.consecutive_failures.fetch_add(1, Ordering::Relaxed) + 1;
        if n >= EJECT_AFTER && !self.down.swap(true, Ordering::Relaxed) {
            self.ejections.fetch_add(1, Ordering::Relaxed);
            let backoff = PROBE_BACKOFF_INITIAL.as_millis() as u64;
            self.backoff_ms.store(backoff, Ordering::Relaxed);
            self.next_probe_ms
                .store(self.now_ms() + backoff, Ordering::Relaxed);
        }
    }

    /// A failed `/healthz` probe of a down peer: double the backoff (to
    /// the cap) and push the next probe out.
    pub(crate) fn record_probe_failure(&self) {
        let cap = PROBE_BACKOFF_MAX.as_millis() as u64;
        let doubled = (self.backoff_ms.load(Ordering::Relaxed) * 2)
            .clamp(PROBE_BACKOFF_INITIAL.as_millis() as u64, cap);
        self.backoff_ms.store(doubled, Ordering::Relaxed);
        self.next_probe_ms
            .store(self.now_ms() + doubled, Ordering::Relaxed);
    }

    #[cfg(test)]
    pub(crate) fn failovers(&self) -> u64 {
        self.failovers.load(Ordering::Relaxed)
    }
}

/// Idle keep-alive connections kept per replica (capped: the router's
/// re-discovery seeds one per tick).
const POOL_CAP: usize = 8;

/// One peer node as the node-side row fetcher and the router both see
/// it: address, the label failure text names it by (`a..b=ADDR` on a
/// node, `ADDR` on the router), a pool of idle keep-alive connections
/// (concurrent callers fan out over parallel connections), and health.
pub(crate) struct Replica {
    pub(crate) addr: String,
    label: String,
    timeout: Duration,
    pool: Mutex<Vec<Client>>,
    pub(crate) health: PeerHealth,
}

/// What a replica's answer means for [`failover`].
pub(crate) enum Verdict<T> {
    /// Served: record a success and return `T`.
    Done(T),
    /// Answered but could not serve (5xx, malformed body): record a
    /// failure and try the next replica.
    FailOver(String),
    /// Deterministic, so every replica would repeat it: end the call
    /// with this error, no health change.
    Stop(String),
}

impl Replica {
    pub(crate) fn new(addr: &str, label: String, timeout: Duration) -> Replica {
        Replica {
            addr: addr.to_string(),
            label,
            timeout,
            pool: Mutex::new(Vec::new()),
            health: PeerHealth::new(),
        }
    }

    /// This replica's `/stats` `peers[]` entry for its claim `shards`,
    /// in the normative field order: `peer`, `shards`, the caller's
    /// `extra` claim fields, then `up`, `fetches`, `failovers`,
    /// `ejections`.
    pub(crate) fn stats_fields(
        &self,
        shards: &Range<usize>,
        extra: Vec<(&'static str, Json)>,
    ) -> Vec<(&'static str, Json)> {
        let h = &self.health;
        let mut fields = vec![
            ("peer", Json::str(&self.addr)),
            (
                "shards",
                Json::Arr(vec![Json::num(shards.start), Json::num(shards.end)]),
            ),
        ];
        fields.extend(extra);
        fields.extend([
            ("up", Json::Bool(h.is_up())),
            ("fetches", Json::num(h.fetches.load(Ordering::Relaxed))),
            ("failovers", Json::num(h.failovers.load(Ordering::Relaxed))),
            ("ejections", Json::num(h.ejections.load(Ordering::Relaxed))),
        ]);
        fields
    }

    /// Return an idle connection to the pool (dropped at the cap).
    pub(crate) fn pool_push(&self, client: Client) {
        let mut pool = self.pool.lock().expect("replica pool lock poisoned");
        if pool.len() < POOL_CAP {
            pool.push(client);
        }
    }

    /// The health gate: pass an up replica; probe a down one with `GET
    /// /healthz` once its backoff has elapsed, else skip it, naming the
    /// refusal in `failures`.
    pub(crate) fn admit(&self, failures: &mut Vec<String>) -> bool {
        let why = match self.health.gate() {
            Gate::Up => return true,
            Gate::ProbeDue => {
                let healthy = Client::connect_timeout(self.addr.as_str(), self.timeout)
                    .and_then(|mut c| c.get("/healthz"))
                    .is_ok_and(|(status, _)| status == 200);
                if healthy {
                    self.health.record_success();
                    return true;
                }
                self.health.record_probe_failure();
                "probe failed"
            }
            Gate::Skip => "awaiting probe",
        };
        failures.push(format!("peer {}: down ({why})", self.label));
        false
    }

    /// One exchange: pop a pooled connection or dial; a transport
    /// failure on a pooled connection is retried once on a fresh dial
    /// (a restarted peer leaves it stale). `op` names the exchange and
    /// `context` follows the label in failure text.
    pub(crate) fn exchange<R>(
        &self,
        context: &str,
        op: &str,
        request: impl Fn(&mut Client) -> io::Result<R>,
    ) -> Result<R, String> {
        let fail = |detail: String| format!("peer {}{context}: {detail}", self.label);
        let dial = || Client::connect_timeout(self.addr.as_str(), self.timeout);
        let pooled = self.pool.lock().expect("replica pool lock poisoned").pop();
        let had_pooled = pooled.is_some();
        let mut client = match pooled {
            Some(c) => c,
            None => dial().map_err(|e| fail(format!("connect: {e}")))?,
        };
        let resp = match request(&mut client) {
            Ok(r) => r,
            Err(first) => {
                drop(client); // stale — never pool it again
                if !had_pooled {
                    return Err(fail(format!("{op}: {first}")));
                }
                client = dial().map_err(|e| fail(format!("reconnect after {first}: {e}")))?;
                request(&mut client).map_err(|e| fail(format!("{op} (retried): {e}")))?
            }
        };
        // The connection framed a full response either way — reusable.
        self.pool_push(client);
        Ok(resp)
    }
}

/// One call with failover, rotating over `replicas` from `start`: gate
/// each replica's health, exchange with it, and let `classify` judge
/// the answer. A transport failure or [`Verdict::FailOver`] records a
/// failure (and bumps `failovers`) and moves on; once every replica has
/// failed, the error names each one. `subject` (`/row shard S v V`)
/// names what is fetched in every failure.
pub(crate) fn failover<R, T>(
    replicas: &[&Replica],
    start: usize,
    subject: Option<&str>,
    op: &str,
    request: impl Fn(&mut Client) -> io::Result<R>,
    classify: impl Fn(R) -> Verdict<T>,
    failovers: Option<&AtomicU64>,
) -> Result<T, String> {
    let context = subject.map_or_else(String::new, |s| format!(" ({s})"));
    let mut failures: Vec<String> = Vec::new();
    for k in 0..replicas.len() {
        let replica = replicas[(start + k) % replicas.len()];
        if !replica.admit(&mut failures) {
            continue;
        }
        let named = |detail: String| format!("peer {}{context}: {detail}", replica.label);
        let failure = match replica.exchange(&context, op, &request).map(&classify) {
            Ok(Verdict::Done(t)) => {
                replica.health.record_success();
                replica.health.record_served();
                return Ok(t);
            }
            Ok(Verdict::Stop(detail)) => return Err(named(detail)),
            Ok(Verdict::FailOver(detail)) => named(detail),
            Err(e) => e,
        };
        replica.health.record_failure();
        if let Some(count) = failovers {
            count.fetch_add(1, Ordering::Relaxed);
        }
        failures.push(failure);
    }
    Err(format!(
        "all replicas failed{}: {}",
        subject.map_or_else(String::new, |s| format!(" for {s}")),
        failures.join("; ")
    ))
}

/// The remote side of a cluster node's engine: shard → replica-list
/// resolution over one [`Replica`] per `--peers` entry, fetched from
/// through [`failover`].
pub(crate) struct RemoteShards {
    specs: Vec<PeerSpec>,
    /// One per entry of `specs`, in the same order.
    replicas: Vec<Replica>,
    /// Run-wide shard index → indices into `replicas` of its replicas
    /// (empty = resident locally only).
    by_shard: Vec<Vec<usize>>,
    /// Round-robin cursor over replicas, shared across shards.
    rr: AtomicUsize,
}

impl std::fmt::Debug for RemoteShards {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RemoteShards")
            .field("peers", &self.specs)
            .finish()
    }
}

impl RemoteShards {
    /// Build the shard → replica-list table, enforcing that `own` plus
    /// the peer ranges **cover** `0..num_shards`. Overlapping claims are
    /// replicas; a gap rejects the open, naming the first uncovered
    /// shard.
    pub(crate) fn new(
        specs: &[PeerSpec],
        own: Range<usize>,
        num_shards: usize,
        timeout: Duration,
    ) -> Result<RemoteShards, ServeError> {
        let mut by_shard: Vec<Vec<usize>> = vec![Vec::new(); num_shards];
        let mut covered = vec![false; num_shards];
        for s in own.clone() {
            covered[s] = true;
        }
        for (i, spec) in specs.iter().enumerate() {
            if spec.shards.end > num_shards {
                return Err(ServeError::Open(format!(
                    "peer {spec}: run has only {num_shards} shards"
                )));
            }
            for s in spec.shards.clone() {
                covered[s] = true;
                by_shard[s].push(i);
            }
        }
        if let Some(gap) = covered.iter().position(|&c| !c) {
            return Err(ServeError::Open(format!(
                "ownership map incomplete: shard {gap} is neither resident \
                 (own range {}..{}) nor assigned to any --peers entry",
                own.start, own.end
            )));
        }
        Ok(RemoteShards {
            specs: specs.to_vec(),
            replicas: specs
                .iter()
                .map(|spec| Replica::new(&spec.addr, spec.to_string(), timeout))
                .collect(),
            by_shard,
            rr: AtomicUsize::new(0),
        })
    }

    /// The configured peer specs, in `--peers` order.
    pub(crate) fn specs(&self) -> Vec<PeerSpec> {
        self.specs.clone()
    }

    /// The `/stats` `peers` array: one object per `--peers` entry with
    /// its claim and health counters, in `--peers` order.
    pub(crate) fn peer_stats(&self) -> Json {
        let peers = self.specs.iter().zip(&self.replicas);
        Json::Arr(
            peers
                .map(|(spec, replica)| Json::obj(replica.stats_fields(&spec.shards, Vec::new())))
                .collect(),
        )
    }

    /// Fetch the adjacency row of `v` in `shard` from one of the shard's
    /// replicas, failing over on transport errors.
    pub(crate) fn fetch(&self, shard: usize, v: u64) -> Result<Arc<[u64]>, ServeError> {
        let replicas: Vec<&Replica> = self.by_shard[shard]
            .iter()
            .map(|&i| &self.replicas[i])
            .collect();
        assert!(
            !replicas.is_empty(),
            "fetch() is only called for shards the table maps to peers"
        );
        // Ask for the varint delta encoding; the answer's Content-Type —
        // not the request — decides how to decode, so an older peer that
        // ignores `enc` and answers raw words still decodes correctly.
        let path = format!("/row?shard={shard}&v={v}&enc=vd");
        failover(
            &replicas,
            self.rr.fetch_add(1, Ordering::Relaxed),
            Some(&format!("/row shard {shard} v {v}")),
            "fetch",
            |client| client.get_bytes_typed(&path),
            classify_row,
            None,
        )
        .map_err(ServeError::Remote)
    }
}

/// Judge one `/row` answer: a 5xx or a body that does not frame as a
/// row (torn or corrupted — another replica may frame it right) fails
/// over; any other non-200 is config skew between nodes, which every
/// replica would repeat, so it stops the fetch.
fn classify_row((status, ctype, body): (u16, String, Vec<u8>)) -> Verdict<Arc<[u64]>> {
    if status != 200 {
        let detail = format!("status {status}: {}", String::from_utf8_lossy(&body).trim());
        return if status >= 500 {
            Verdict::FailOver(detail)
        } else {
            Verdict::Stop(detail)
        };
    }
    if ctype == crate::http::ROW_VD_CONTENT_TYPE {
        let mut row = Vec::new();
        if !kron_stream::decode_row_vd(&body, &mut row) {
            return Verdict::FailOver(format!(
                "body of {} bytes is not a well-formed varint delta row",
                body.len()
            ));
        }
        return Verdict::Done(row.into());
    }
    if body.len() % 8 != 0 {
        return Verdict::FailOver(format!(
            "body of {} bytes is not a whole number of u64 words",
            body.len()
        ));
    }
    Verdict::Done(
        body.chunks_exact(8)
            .map(|w| u64::from_le_bytes(w.try_into().expect("chunks_exact yields 8 bytes")))
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn peer_specs_parse_and_roundtrip() {
        let p = PeerSpec::parse("3..7=127.0.0.1:9000").unwrap();
        assert_eq!(p.shards, 3..7);
        assert_eq!(p.addr, "127.0.0.1:9000");
        assert_eq!(PeerSpec::parse(&p.to_string()).unwrap(), p);

        let list = PeerSpec::parse_list("0..1=a:1,1..2=b:2").unwrap();
        assert_eq!(list.len(), 2);

        for bad in [
            "0..1",     // no address
            "=x:1",     // no range
            "1..1=x:1", // empty range
            "2..1=x:1", // backwards
            "a..b=x:1", // not integers
            "0..1=",    // empty address
            "",         // empty list
        ] {
            assert!(
                PeerSpec::parse_list(bad).is_err(),
                "{bad:?} must be rejected"
            );
        }
        assert!(parse_shard_range("0-4").is_err(), "only a..b is accepted");
    }

    #[test]
    fn replica_claims_may_overlap_but_must_cover() {
        let t = DEFAULT_PEER_TIMEOUT;
        let spec = |s: &str| PeerSpec::parse(s).unwrap();
        // complete, disjoint: own 0..2, peers cover 2..6
        assert!(RemoteShards::new(&[spec("2..4=a:1"), spec("4..6=b:1")], 0..2, 6, t).is_ok());
        // overlap with the own range is a replica, not an error
        assert!(RemoteShards::new(&[spec("1..6=a:1")], 0..2, 6, t).is_ok());
        // overlap between peers: shards 4..5 have two replicas
        let r = RemoteShards::new(&[spec("2..5=a:1"), spec("4..6=b:1")], 0..2, 6, t).unwrap();
        assert_eq!(r.by_shard[4], vec![0, 1]);
        assert_eq!(r.by_shard[3], vec![0]);
        // duplicate peer entries are two replicas of the same address
        assert!(RemoteShards::new(&[spec("2..6=a:1"), spec("2..6=a:1")], 0..2, 6, t).is_ok());
        // gap: shard 5 uncovered — named in the rejection
        let err = RemoteShards::new(&[spec("2..5=a:1")], 0..2, 6, t).unwrap_err();
        assert!(err.to_string().contains("incomplete"), "{err}");
        assert!(err.to_string().contains("shard 5"), "{err}");
        // beyond the run
        let err = RemoteShards::new(&[spec("2..9=a:1")], 0..2, 6, t).unwrap_err();
        assert!(err.to_string().contains("only 6 shards"), "{err}");
    }

    /// Fuzz the replica-table validation: randomized claim sets with
    /// gaps, partial overlaps, duplicate peers, and the single-replica
    /// degenerate case must be accepted iff coverage is complete, and a
    /// rejection must name the **first** uncovered shard.
    #[test]
    fn replica_table_fuzz_accepts_iff_coverage_complete() {
        let t = DEFAULT_PEER_TIMEOUT;
        let mut state = 0x243F_6A88_85A3_08D3u64; // deterministic LCG
        let mut rnd = |m: usize| -> usize {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) as usize) % m.max(1)
        };
        let addrs = ["a:1", "b:1", "a:1", "c:1"]; // duplicates on purpose
        let mut accepted = 0usize;
        let mut rejected = 0usize;
        for _ in 0..400 {
            let num_shards = 1 + rnd(8);
            let own_lo = rnd(num_shards);
            let own_hi = own_lo + 1 + rnd(num_shards - own_lo);
            let n_peers = rnd(4);
            let specs: Vec<PeerSpec> = (0..n_peers)
                .map(|_| {
                    let lo = rnd(num_shards);
                    let hi = lo + 1 + rnd(num_shards - lo);
                    PeerSpec {
                        shards: lo..hi,
                        addr: addrs[rnd(addrs.len())].to_string(),
                    }
                })
                .collect();
            let mut covered = vec![false; num_shards];
            covered[own_lo..own_hi].fill(true);
            for spec in &specs {
                for s in spec.shards.clone() {
                    covered[s] = true;
                }
            }
            let first_gap = covered.iter().position(|&c| !c);
            let result = RemoteShards::new(&specs, own_lo..own_hi, num_shards, t);
            match (first_gap, result) {
                (None, Ok(r)) => {
                    accepted += 1;
                    // every shard resolves: resident or ≥ 1 replica
                    for s in 0..num_shards {
                        assert!(
                            (own_lo..own_hi).contains(&s) || !r.by_shard[s].is_empty(),
                            "shard {s} unresolvable in an accepted table"
                        );
                    }
                }
                (Some(gap), Err(e)) => {
                    rejected += 1;
                    let msg = e.to_string();
                    assert!(msg.contains("incomplete"), "{msg}");
                    assert!(
                        msg.contains(&format!("shard {gap} ")),
                        "rejection must name the first uncovered shard {gap}: {msg}"
                    );
                }
                (None, Err(e)) => panic!("complete coverage rejected: {e}"),
                (Some(gap), Ok(_)) => panic!("gap at shard {gap} accepted"),
            }
        }
        // the generator must actually exercise both outcomes
        assert!(accepted > 20, "only {accepted} accepted cases");
        assert!(rejected > 20, "only {rejected} rejected cases");
    }

    #[test]
    fn unreachable_peer_is_a_bounded_remote_error() {
        let remote = RemoteShards::new(
            // port 1 on loopback: nothing listens there
            &[PeerSpec::parse("1..2=127.0.0.1:1").unwrap()],
            0..1,
            2,
            Duration::from_millis(200),
        )
        .unwrap();
        let err = remote.fetch(1, 5).unwrap_err();
        assert!(matches!(err, ServeError::Remote(_)), "{err}");
        assert!(err.to_string().contains("127.0.0.1:1"), "{err}");
        assert!(err.to_string().contains("all replicas failed"), "{err}");
    }

    #[test]
    fn health_ejection_and_probe_backoff_sequence() {
        let h = PeerHealth::new();
        assert_eq!(h.gate(), Gate::Up);
        h.record_failure();
        h.record_failure();
        assert!(h.is_up(), "two failures must not eject yet");
        h.record_failure();
        assert!(!h.is_up(), "third consecutive failure ejects");
        assert_eq!(h.gate(), Gate::Skip, "backoff starts at 500 ms");
        h.record_success();
        assert_eq!(h.gate(), Gate::Up, "success restores the peer");
        assert_eq!(h.failovers(), 3);
    }

    /// A loopback HTTP stub for the replica client: request `r` on
    /// accepted connection `c` gets `respond(c, r)` as its status, or a
    /// hang-up when that is `None` (a restarted peer's stale socket).
    /// `counts` tallies (connections accepted, requests read).
    fn stub<'s>(
        s: &'s std::thread::Scope<'s, '_>,
        stop: &'s AtomicBool,
        counts: &'s [AtomicUsize; 2],
        respond: impl Fn(usize, usize) -> Option<u16> + Send + 's,
    ) -> String {
        use std::io::{BufRead, BufReader, Write};
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        listener.set_nonblocking(true).unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        s.spawn(move || {
            while !stop.load(Ordering::SeqCst) {
                let stream = match listener.accept() {
                    Ok((stream, _)) => stream,
                    Err(_) => {
                        std::thread::sleep(Duration::from_millis(1));
                        continue;
                    }
                };
                let c = counts[0].fetch_add(1, Ordering::SeqCst);
                stream.set_nonblocking(false).unwrap();
                stream
                    .set_read_timeout(Some(Duration::from_secs(10)))
                    .unwrap();
                let mut reader = BufReader::new(stream.try_clone().unwrap());
                let mut out = stream;
                for r in 0.. {
                    // read one request head (bodies are empty)
                    let mut line = String::new();
                    loop {
                        line.clear();
                        if reader.read_line(&mut line).unwrap_or(0) == 0 {
                            break;
                        }
                        if line == "\r\n" {
                            break;
                        }
                    }
                    if line != "\r\n" {
                        break; // the client closed the connection
                    }
                    counts[1].fetch_add(1, Ordering::SeqCst);
                    let Some(status) = respond(c, r) else {
                        break;
                    };
                    let body = format!("stub {status}");
                    let head = format!(
                        "HTTP/1.1 {status} X\r\nContent-Length: {}\r\n\r\n",
                        body.len()
                    );
                    out.write_all(format!("{head}{body}").as_bytes()).unwrap();
                }
            }
        });
        addr
    }

    /// The shared failover loop with a `/row`-style classifier: 5xx
    /// fails over, 200 is done, any other status stops the call.
    fn call(replicas: &[&Replica], failovers: Option<&AtomicU64>) -> Result<u16, String> {
        failover(
            replicas,
            0,
            Some("/x"),
            "fetch",
            |c| c.get("/x"),
            |(status, body): (u16, String)| match status {
                500.. => Verdict::FailOver(format!("status {status}: {body}")),
                200 => Verdict::Done(status),
                _ => Verdict::Stop(format!("status {status}: {body}")),
            },
            failovers,
        )
    }

    fn counts() -> [AtomicUsize; 2] {
        [AtomicUsize::new(0), AtomicUsize::new(0)]
    }

    #[test]
    fn replica_loop_fails_over_on_5xx_stops_on_4xx_and_names_every_failure() {
        let stop = AtomicBool::new(false);
        let (busy_n, ok_n, missing_n) = (counts(), counts(), counts());
        std::thread::scope(|s| {
            let t = Duration::from_secs(5);
            let replica = |addr: &str| Replica::new(addr, format!("0..1={addr}"), t);
            let busy = replica(&stub(s, &stop, &busy_n, |_, _| Some(503)));
            let ok = replica(&stub(s, &stop, &ok_n, |_, _| Some(200)));
            let missing = replica(&stub(s, &stop, &missing_n, |_, _| Some(404)));
            let dead = replica("127.0.0.1:1"); // nothing listens there

            // a 5xx answer fails over to the next replica
            let total = AtomicU64::new(0);
            assert_eq!(call(&[&busy, &ok], Some(&total)), Ok(200));
            assert_eq!(busy.health.failovers(), 1);
            assert_eq!(total.load(Ordering::SeqCst), 1);
            assert_eq!(ok.health.failovers(), 0);

            // a 4xx answer stops the call: no failover, no health change
            let err = call(&[&missing, &ok], None).unwrap_err();
            assert_eq!(
                err,
                format!("peer {} (/x): status 404: stub 404", missing.label)
            );
            assert_eq!(missing.health.failovers(), 0);
            assert_eq!(
                ok_n[1].load(Ordering::SeqCst),
                1,
                "the next replica is never asked"
            );

            // every replica failing: one message naming each replica
            let err = call(&[&busy, &dead], None).unwrap_err();
            assert!(err.starts_with("all replicas failed for /x: "), "{err}");
            assert!(
                err.contains(&format!("peer {} (/x): status 503: stub 503", busy.label)),
                "{err}"
            );
            assert!(
                err.contains(&format!("peer {} (/x): connect: ", dead.label)),
                "{err}"
            );
            assert_eq!((busy.health.failovers(), dead.health.failovers()), (2, 1));
            stop.store(true, Ordering::SeqCst);
        });
        assert_eq!(
            busy_n[0].load(Ordering::SeqCst),
            1,
            "the pooled connection is reused"
        );
        assert_eq!(missing_n[1].load(Ordering::SeqCst), 1);
    }

    #[test]
    fn stale_pooled_connection_is_retried_exactly_once() {
        let stop = AtomicBool::new(false);
        let (restarted_n, dying_n) = (counts(), counts());
        std::thread::scope(|s| {
            let t = Duration::from_secs(5);
            // every connection answers its first request, then hangs up
            let restarted = stub(s, &stop, &restarted_n, |_, r| (r == 0).then_some(200));
            let restarted = Replica::new(&restarted, restarted.clone(), t);
            // only the first connection answers; later ones hang up
            let dying = stub(s, &stop, &dying_n, |c, r| (c == 0 && r == 0).then_some(200));
            let dying = Replica::new(&dying, dying.clone(), t);

            for replica in [&restarted, &dying] {
                assert_eq!(
                    call(&[replica], None),
                    Ok(200),
                    "first call dials and pools"
                );
            }
            // the pooled connection is stale: one fresh dial serves the call
            assert_eq!(call(&[&restarted], None), Ok(200));
            assert_eq!(restarted.health.failovers(), 0);
            // a retry that fails too is the replica's failure — no third dial
            let err = call(&[&dying], None).unwrap_err();
            assert!(err.contains("fetch (retried): "), "{err}");
            assert_eq!(dying.health.failovers(), 1);
            stop.store(true, Ordering::SeqCst);
        });
        assert_eq!(restarted_n[0].load(Ordering::SeqCst), 2);
        assert_eq!(dying_n[0].load(Ordering::SeqCst), 2, "exactly one redial");
        assert_eq!(dying_n[1].load(Ordering::SeqCst), 3);
    }
}
