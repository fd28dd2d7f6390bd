//! Load generators: an open-loop client that pipelines pre-encoded HTTP
//! requests over a few keep-alive connections on a fixed schedule, and
//! the HTTP/1.1 response framing it needs. It uses two threads in all
//! (the caller's, which writes, and one reader), so with two
//! connections it stays within a 2-core host's thread budget.

use crate::trace;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// One parsed HTTP response.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Response {
    pub status: u16,
    pub body: Vec<u8>,
}

/// Parse one complete response off the front of `buf`: the response and
/// the bytes it used, `Ok(None)` if more bytes are needed.
///
/// # Errors
///
/// A message for a response that can never become valid.
pub fn parse_response(buf: &[u8]) -> Result<Option<(Response, usize)>, String> {
    let Some(head_end) = buf.windows(4).position(|w| w == b"\r\n\r\n") else {
        return Ok(None);
    };
    let head = std::str::from_utf8(&buf[..head_end]).map_err(|_| "response head is not UTF-8")?;
    let mut lines = head.split("\r\n");
    let status_line = lines.next().unwrap_or("");
    let status = status_line
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse::<u16>().ok())
        .ok_or_else(|| format!("bad status line {status_line:?}"))?;
    let len = lines
        .filter_map(|l| l.split_once(':'))
        .find(|(k, _)| k.trim().eq_ignore_ascii_case("content-length"))
        .and_then(|(_, v)| v.trim().parse::<usize>().ok())
        .ok_or("response has no Content-Length")?;
    let total = head_end + 4 + len;
    if buf.len() < total {
        return Ok(None);
    }
    Ok(Some((
        Response {
            status,
            body: buf[head_end + 4..total].to_vec(),
        },
        total,
    )))
}

/// `GET path` as request bytes.
pub fn get_request(path: &str) -> Vec<u8> {
    format!("GET {path} HTTP/1.1\r\nHost: bench\r\n\r\n").into_bytes()
}

/// When each request of a run is due.
#[derive(Clone, Copy, Debug)]
pub enum Schedule {
    /// Request `i` is due `i / rate` seconds after the start.
    Rate(f64),
    /// Every request is due at the start, at most `window` are in
    /// flight per connection, and sending stops after `send_for` (a
    /// saturating load; requests never sent are dropped from the result).
    Saturate { window: usize, send_for: Duration },
}

/// What happened to one request.
#[derive(Clone, Debug, Default)]
pub struct Outcome {
    pub due: Option<Instant>,
    pub sent: Option<Instant>,
    pub done: Option<Instant>,
    /// `None` when the request failed in transport (refused, reset,
    /// timed out, never sent); otherwise what the run's check said of
    /// the response: `Some(None)` if it was right.
    pub verdict: Option<Option<String>>,
}

/// The outcomes of one run, in request order.
#[derive(Debug)]
pub struct RunResult {
    pub outcomes: Vec<Outcome>,
    /// Requests in flight when the last one was sent.
    pub backlog_end: usize,
    /// When the run began (the first request's due time).
    pub started: Instant,
}

#[repr(C)]
struct PollFd {
    fd: i32,
    events: i16,
    revents: i16,
}

const POLLIN: i16 = 0x001;

extern "C" {
    fn poll(fds: *mut PollFd, nfds: std::ffi::c_ulong, timeout: i32) -> i32;
}

/// Wait up to `timeout_ms` for any of `fds` to become readable; the
/// indices of the readable (or hung-up / errored) ones.
fn wait_readable(fds: &[i32], timeout_ms: i32) -> Vec<usize> {
    let mut pfds: Vec<PollFd> = fds
        .iter()
        .map(|&fd| PollFd {
            fd,
            events: POLLIN,
            revents: 0,
        })
        .collect();
    // SAFETY: `pfds` is a valid, exclusively borrowed array of
    // `pfds.len()` pollfd structs for the duration of the call.
    let n = unsafe {
        poll(
            pfds.as_mut_ptr(),
            pfds.len() as std::ffi::c_ulong,
            timeout_ms,
        )
    };
    if n <= 0 {
        return Vec::new();
    }
    pfds.iter()
        .enumerate()
        .filter(|(_, p)| p.revents != 0)
        .map(|(i, _)| i)
        .collect()
}

struct Conn {
    stream: TcpStream,
    /// Requests sent on this connection and not yet answered, oldest
    /// first: responses come back in this order.
    fifo: Mutex<std::collections::VecDeque<usize>>,
    dead: AtomicBool,
}

/// Keep-alive connections to one server, driven open loop.
pub struct Pipeline {
    conns: Vec<Conn>,
}

impl Pipeline {
    /// Open `n` connections to `addr`.
    ///
    /// # Errors
    ///
    /// The first connect failure.
    pub fn connect(addr: SocketAddr, n: usize) -> io::Result<Pipeline> {
        let mut conns = Vec::with_capacity(n);
        for _ in 0..n.max(1) {
            let stream = TcpStream::connect(addr)?;
            stream.set_nodelay(true)?;
            conns.push(Conn {
                stream,
                fifo: Mutex::new(Default::default()),
                dead: AtomicBool::new(false),
            });
        }
        Ok(Pipeline { conns })
    }

    /// Send requests `0..total` (the bytes of request `i` are `req(i)`)
    /// on `schedule`, round robin over the connections, and collect the
    /// responses. Each response is handed to `check` with its request's
    /// index as it arrives, after its arrival time was taken, and only
    /// the verdict is kept. Requests unanswered `timeout` after the last
    /// one was due fail. Memory grows with the requests actually sent,
    /// so a saturating run may be given a `total` it can never reach.
    /// Each request is traced as an `http.request` span under `parent`
    /// when tracing is on.
    pub fn run<'r>(
        &self,
        total: usize,
        req: impl Fn(usize) -> &'r [u8],
        check: &(dyn Fn(usize, &Response) -> Option<String> + Sync),
        schedule: Schedule,
        timeout: Duration,
        parent: Option<u64>,
    ) -> RunResult {
        let received = AtomicUsize::new(0);
        let writer_done = AtomicBool::new(false);
        let started = Instant::now();
        let due_at = |i: usize| match schedule {
            Schedule::Rate(rate) => started + Duration::from_secs_f64(i as f64 / rate),
            Schedule::Saturate { .. } => started,
        };
        let last_due = due_at(total.saturating_sub(1));
        for c in &self.conns {
            c.fifo
                .lock()
                .expect("fifo lock: the other load thread panicked")
                .clear();
        }
        let (sent, backlog_end, replies) = std::thread::scope(|s| {
            let reader = s.spawn(|| {
                self.read_loop(total, check, &received, &writer_done, last_due + timeout)
            });
            let mut sent: Vec<Option<Instant>> = Vec::with_capacity(total.min(1 << 16));
            let mut in_flight_pushed = 0usize;
            for i in 0..total {
                let due = due_at(i);
                match schedule {
                    Schedule::Rate(_) => {
                        let now = Instant::now();
                        if due > now {
                            std::thread::sleep(due - now);
                        }
                    }
                    Schedule::Saturate { window, send_for } => {
                        if started.elapsed() >= send_for {
                            break;
                        }
                        let cap = window * self.conns.len();
                        while in_flight_pushed.saturating_sub(received.load(Ordering::Acquire))
                            >= cap
                            && Instant::now() < last_due + timeout
                        {
                            std::thread::sleep(Duration::from_micros(20));
                        }
                    }
                }
                sent.push(None);
                let k = (0..self.conns.len())
                    .map(|o| (i + o) % self.conns.len())
                    .find(|&k| !self.conns[k].dead.load(Ordering::Acquire));
                let Some(k) = k else { continue };
                let conn = &self.conns[k];
                conn.fifo
                    .lock()
                    .expect("fifo lock: the other load thread panicked")
                    .push_back(i);
                if (&conn.stream).write_all(req(i)).is_err() {
                    conn.dead.store(true, Ordering::Release);
                    let mut fifo = conn
                        .fifo
                        .lock()
                        .expect("fifo lock: the other load thread panicked");
                    if fifo.back() == Some(&i) {
                        fifo.pop_back();
                    }
                    continue;
                }
                sent[i] = Some(Instant::now());
                in_flight_pushed += 1;
            }
            let backlog_end = in_flight_pushed.saturating_sub(received.load(Ordering::Acquire));
            writer_done.store(true, Ordering::Release);
            let replies = reader.join().expect("load reader thread");
            (sent, backlog_end, replies)
        });
        let mut outcomes: Vec<Outcome> = sent
            .iter()
            .enumerate()
            .map(|(i, &sent)| Outcome {
                due: Some(due_at(i)),
                sent,
                ..Outcome::default()
            })
            .collect();
        for (i, done, verdict) in replies {
            outcomes[i].done = Some(done);
            outcomes[i].verdict = Some(verdict);
            if let Some(sent) = outcomes[i].sent {
                trace::record("http.request", sent, done, parent, Some(i as u64));
            }
        }
        RunResult {
            outcomes,
            backlog_end,
            started,
        }
    }

    fn read_loop(
        &self,
        total: usize,
        check: &(dyn Fn(usize, &Response) -> Option<String> + Sync),
        received: &AtomicUsize,
        writer_done: &AtomicBool,
        deadline: Instant,
    ) -> Vec<(usize, Instant, Option<String>)> {
        let fds: Vec<i32> = self.conns.iter().map(|c| c.stream.as_raw_fd()).collect();
        let mut bufs: Vec<Vec<u8>> = vec![Vec::new(); self.conns.len()];
        let mut chunk = vec![0u8; 64 * 1024];
        let mut out = Vec::with_capacity(total.min(1 << 16));
        let outstanding = |c: &Conn| {
            c.fifo
                .lock()
                .expect("fifo lock: the other load thread panicked")
                .len()
        };
        loop {
            let all_sent = writer_done.load(Ordering::Acquire);
            if all_sent && self.conns.iter().all(|c| outstanding(c) == 0) {
                break;
            }
            if Instant::now() > deadline {
                break;
            }
            for k in wait_readable(&fds, 2) {
                let conn = &self.conns[k];
                let n = match (&conn.stream).read(&mut chunk) {
                    Ok(0) | Err(_) => {
                        // Everything still in flight on a closed
                        // connection has failed; count it as resolved
                        // so a windowed writer does not wait on it.
                        conn.dead.store(true, Ordering::Release);
                        let mut fifo = conn
                            .fifo
                            .lock()
                            .expect("fifo lock: the other load thread panicked");
                        received.fetch_add(fifo.len(), Ordering::AcqRel);
                        fifo.clear();
                        continue;
                    }
                    Ok(n) => n,
                };
                let now = Instant::now();
                let buf = &mut bufs[k];
                buf.extend_from_slice(&chunk[..n]);
                let mut used = 0;
                while let Ok(Some((resp, len))) = parse_response(&buf[used..]) {
                    used += len;
                    let Some(i) = conn
                        .fifo
                        .lock()
                        .expect("fifo lock: the other load thread panicked")
                        .pop_front()
                    else {
                        break;
                    };
                    received.fetch_add(1, Ordering::AcqRel);
                    out.push((i, now, check(i, &resp)));
                }
                buf.drain(..used);
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A stand-in server that answers every request with `ok`.
    fn stub_server() -> SocketAddr {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        std::thread::spawn(move || {
            for conn in listener.incoming() {
                let Ok(mut conn) = conn else { return };
                std::thread::spawn(move || {
                    let (mut chunk, mut pending) = ([0u8; 4096], Vec::new());
                    while let Ok(n @ 1..) = conn.read(&mut chunk) {
                        pending.extend_from_slice(&chunk[..n]);
                        let mut answers = Vec::new();
                        while let Some(end) = pending.windows(4).position(|w| w == b"\r\n\r\n") {
                            pending.drain(..end + 4);
                            answers.extend_from_slice(
                                b"HTTP/1.1 200 OK\r\nContent-Length: 3\r\n\r\nok\n",
                            );
                        }
                        if conn.write_all(&answers).is_err() {
                            return;
                        }
                    }
                });
            }
        });
        addr
    }

    #[test]
    fn saturating_run_outlasts_its_request_pool() {
        // Three distinct requests, cycled: the run must keep sending for
        // its whole `send_for` rather than stop when the pool runs out.
        let pool = [get_request("/a"), get_request("/b"), get_request("/c")];
        let pipe = Pipeline::connect(stub_server(), 2).unwrap();
        let send_for = Duration::from_millis(200);
        let res = pipe.run(
            usize::MAX,
            |i| pool[i % pool.len()].as_slice(),
            &|_, r| (r.body != b"ok\n").then(|| "wrong body".into()),
            Schedule::Saturate {
                window: 4,
                send_for,
            },
            Duration::from_secs(5),
            None,
        );
        assert!(res.outcomes.len() > 10 * pool.len());
        let last_sent = res.outcomes.iter().filter_map(|o| o.sent).max().unwrap();
        assert!(last_sent - res.started >= send_for * 9 / 10);
        assert!(res.outcomes.iter().all(|o| o.verdict == Some(None)));
    }

    #[test]
    fn a_failed_check_is_kept_as_the_verdict() {
        let req = get_request("/x");
        let pipe = Pipeline::connect(stub_server(), 1).unwrap();
        let res = pipe.run(
            4,
            |_| req.as_slice(),
            &|i, _| (i == 2).then(|| "third is wrong".into()),
            Schedule::Rate(1000.0),
            Duration::from_secs(5),
            None,
        );
        let verdicts: Vec<_> = res.outcomes.iter().map(|o| o.verdict.clone()).collect();
        assert_eq!(
            verdicts,
            [
                Some(None),
                Some(None),
                Some(Some("third is wrong".into())),
                Some(None)
            ]
        );
    }

    #[test]
    fn frames_pipelined_responses() {
        let two = b"HTTP/1.1 200 OK\r\nContent-Length: 3\r\n\r\n12\nHTTP/1.1 404 Not Found\r\ncontent-length: 0\r\n\r\n";
        let (a, used) = parse_response(two).unwrap().unwrap();
        assert_eq!(
            a,
            Response {
                status: 200,
                body: b"12\n".to_vec()
            }
        );
        let (b, rest) = parse_response(&two[used..]).unwrap().unwrap();
        assert_eq!(b.status, 404);
        assert_eq!(used + rest, two.len());
        assert_eq!(parse_response(&two[..used - 1]).unwrap(), None);
        assert!(parse_response(b"HTTP/1.1 200 OK\r\n\r\n").is_err());
    }
}
