//! Loopback HTTP client of `rlc-serve`: one request per connection, as the
//! server speaks it, with the open-loop and closed-loop load generators.

use rlc_core::Query;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// One finished exchange.
#[derive(Debug, Clone)]
pub struct Reply {
    /// HTTP status; `0` when the transport failed or the response was torn.
    pub status: u16,
    /// `answer` of a query envelope.
    pub answer: Option<bool>,
    /// `generation` stamp of the envelope.
    pub generation: Option<u64>,
    /// Time spent in `connect`.
    pub connect: Duration,
}

/// Encodes a query as the JSON object `POST /query` parses.
pub fn encode_query(query: &Query) -> Vec<u8> {
    let blocks: Vec<String> = query
        .constraint()
        .blocks()
        .iter()
        .map(|block| {
            let labels: Vec<String> = block.iter().map(|l| l.index().to_string()).collect();
            format!("[{}]", labels.join(","))
        })
        .collect();
    format!(
        "{{\"source\":{},\"target\":{},\"constraint\":{{\"blocks\":[{}]}}}}",
        query.source,
        query.target,
        blocks.join(",")
    )
    .into_bytes()
}

/// One request/response exchange on a fresh connection.
pub fn exchange(addr: SocketAddr, method: &str, path: &str, body: &[u8]) -> Reply {
    let started = Instant::now();
    let mut connect = Duration::ZERO;
    let mut raw = Vec::new();
    let _ = TcpStream::connect(addr).and_then(|mut stream| {
        connect = started.elapsed();
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(10)))?;
        let head = format!(
            "{method} {path} HTTP/1.1\r\nHost: localhost\r\nContent-Length: {}\r\n\r\n",
            body.len()
        );
        let mut request = head.into_bytes();
        request.extend_from_slice(body);
        stream.write_all(&request)?;
        stream.read_to_end(&mut raw)
    });
    let (status, text) = parse_response(&raw).unwrap_or((0, String::new()));
    Reply {
        status,
        answer: field(&text, "\"answer\":").and_then(|v| match v {
            "true" => Some(true),
            "false" => Some(false),
            _ => None,
        }),
        generation: field(&text, "\"generation\":").and_then(|v| v.parse().ok()),
        connect,
    }
}

/// `GET path`, returning the status and the body.
pub fn get(addr: SocketAddr, path: &str) -> (u16, String) {
    let mut raw = Vec::new();
    let _ = TcpStream::connect(addr).and_then(|mut stream| {
        stream.set_read_timeout(Some(Duration::from_secs(10)))?;
        let head = format!("GET {path} HTTP/1.1\r\nHost: localhost\r\n\r\n");
        stream.write_all(head.as_bytes())?;
        stream.read_to_end(&mut raw)
    });
    parse_response(&raw).unwrap_or((0, String::new()))
}

/// Splits a raw response into (status, body), requiring the body to match
/// the declared `Content-Length`: a torn response is not a response.
fn parse_response(raw: &[u8]) -> Option<(u16, String)> {
    let text = std::str::from_utf8(raw).ok()?;
    let status: u16 = text.split(' ').nth(1)?.parse().ok()?;
    let head_end = text.find("\r\n\r\n")?;
    let (head, body) = (&text[..head_end], &text[head_end + 4..]);
    let declared: usize = head.lines().find_map(|line| {
        let lower = line.to_ascii_lowercase();
        lower
            .strip_prefix("content-length:")
            .and_then(|v| v.trim().parse().ok())
    })?;
    (body.len() == declared).then(|| (status, body.to_owned()))
}

/// The scalar after `key` in a flat JSON envelope.
fn field<'a>(text: &'a str, key: &str) -> Option<&'a str> {
    let rest = &text[text.find(key)? + key.len()..];
    let end = rest.find([',', '}']).unwrap_or(rest.len());
    Some(rest[..end].trim())
}

/// One open-loop request as it went.
#[derive(Debug, Clone)]
pub struct Timed {
    /// Index of the query in the workload's query list.
    pub query: usize,
    /// The reply.
    pub reply: Reply,
    /// From when the request was due until its reply was read.
    pub latency: Duration,
    /// How late the sender ran: from due until the connect started.
    pub lag: Duration,
}

/// Sends `count` schedule slots (queries `first`, `first + 1`, … modulo
/// the list) at `rate` per second from `clients` threads; client `c` owns
/// slots `c, c + clients, …`. With `reload = Some((blob, every))`, the
/// middle slot of every `every` is a reload of `blob` instead of a query.
/// The schedule never stretches: a client that falls behind sends at once,
/// and every latency is measured from when its slot was due.
pub fn open_loop(
    addr: SocketAddr,
    bodies: &[Vec<u8>],
    first: usize,
    count: usize,
    rate: f64,
    clients: usize,
    reload: Option<(&[u8], usize)>,
) -> (Vec<Timed>, Vec<ReloadRun>) {
    let interval = Duration::from_secs_f64(1.0 / rate);
    let start = Instant::now() + Duration::from_millis(2);
    let clients = clients.max(1);
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|client| {
                scope.spawn(move || {
                    let (mut queries, mut reloads) = (Vec::new(), Vec::new());
                    let mut i = client;
                    while i < count {
                        let due = start + interval.mul_f64(i as f64);
                        wait_until(due);
                        let lag = Instant::now().saturating_duration_since(due);
                        let query = (first + i) % bodies.len();
                        match reload {
                            Some((blob, every)) if i % every == every / 2 => {
                                reloads.push(reload_once(addr, blob, bodies, query));
                            }
                            _ => {
                                let reply = exchange(addr, "POST", "/query", &bodies[query]);
                                queries.push(Timed {
                                    query,
                                    reply,
                                    latency: due.elapsed(),
                                    lag,
                                });
                            }
                        }
                        i += clients;
                    }
                    (queries, reloads)
                })
            })
            .collect();
        let (mut queries, mut reloads) = (Vec::new(), Vec::new());
        for handle in handles {
            let (q, r) = handle.join().unwrap_or_default();
            queries.extend(q);
            reloads.extend(r);
        }
        (queries, reloads)
    })
}

/// One reload and the probe that waits for its generation.
#[derive(Debug, Clone)]
pub struct ReloadRun {
    /// Status of `POST /admin/reload`.
    pub status: u16,
    /// Generation the reload installed.
    pub generation: Option<u64>,
    /// Query the probe asked.
    pub probe_query: usize,
    /// The probe's reply.
    pub probe: Reply,
    /// Round trip of the probe alone.
    pub probe_latency: Duration,
    /// Reload plus probe: until the new generation answered.
    pub elapsed: Duration,
}

/// `POST /admin/reload` with `blob`, then one `POST /query` probe: the
/// round trip ends when the new generation answers.
pub fn reload_once(addr: SocketAddr, blob: &[u8], bodies: &[Vec<u8>], probe: usize) -> ReloadRun {
    let started = Instant::now();
    let reloaded = exchange(addr, "POST", "/admin/reload", blob);
    let probe_query = probe % bodies.len();
    let sent = Instant::now();
    let reply = exchange(addr, "POST", "/query", &bodies[probe_query]);
    ReloadRun {
        status: reloaded.status,
        generation: reloaded.generation,
        probe_query,
        probe: reply,
        probe_latency: sent.elapsed(),
        elapsed: started.elapsed(),
    }
}

/// Sleeps until shortly before `due`, then spins to it: a timer wake-up
/// alone overshoots by a varying amount on a busy host, and that overshoot
/// would land in every latency measured from `due`.
fn wait_until(due: Instant) {
    const SPIN: Duration = Duration::from_micros(250);
    if let Some(wait) = due.checked_duration_since(Instant::now() + SPIN) {
        std::thread::sleep(wait);
    }
    while Instant::now() < due {
        std::hint::spin_loop();
    }
}

/// Closed loop: `clients` threads each send the next query as soon as the
/// previous reply arrived, for `span`. Returns `(query index, reply)` pairs
/// and the wall time the loop ran.
pub fn closed_loop(
    addr: SocketAddr,
    bodies: &[Vec<u8>],
    first: usize,
    clients: usize,
    span: Duration,
) -> (Vec<(usize, Reply)>, Duration) {
    let started = Instant::now();
    let stop = AtomicBool::new(false);
    let replies = std::thread::scope(|scope| {
        let stop = &stop;
        let handles: Vec<_> = (0..clients.max(1))
            .map(|client| {
                scope.spawn(move || {
                    let mut mine = Vec::new();
                    let mut i = first + client * 7919;
                    while !stop.load(Ordering::Acquire) {
                        let query = i % bodies.len();
                        mine.push((query, exchange(addr, "POST", "/query", &bodies[query])));
                        i += 1;
                        if started.elapsed() >= span {
                            stop.store(true, Ordering::Release);
                        }
                    }
                    mine
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().unwrap_or_default())
            .collect()
    });
    (replies, started.elapsed())
}
