//! Open-loop load generator: one thread per connection sends each
//! request when it is due, whether or not earlier replies have arrived,
//! and times every request from its due time, so a stall also charges
//! the requests queued behind it.

use std::collections::VecDeque;
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use uniq_serve::protocol::{parse_response, Response};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// A returning subject whose HRTF is already stored.
    Hit,
    /// A new subject: the server must run the pipeline.
    Miss,
}

/// One scheduled request.
#[derive(Debug, Clone)]
pub struct Planned {
    pub due_s: f64,
    pub seed: u64,
    pub kind: Kind,
    /// The request line without its trailing newline.
    pub line: String,
}

#[derive(Debug, Clone, PartialEq)]
pub enum Reply {
    Ok {
        fingerprint: u64,
        cache_hit: bool,
        /// Time spent inside the server (`wall_seconds` of the reply).
        service_s: f64,
    },
    Shed,
    Error(String),
    Missing,
}

#[derive(Debug, Clone)]
pub struct Outcome {
    pub seed: u64,
    pub kind: Kind,
    /// Reply arrival minus due time; `None` without a reply.
    pub latency_s: Option<f64>,
    pub reply: Reply,
}

impl Outcome {
    /// Latency of a request answered `ok`; `None` for every failure.
    pub fn ok_latency(&self) -> Option<f64> {
        match self.reply {
            Reply::Ok { .. } => self.latency_s,
            _ => None,
        }
    }
}

#[derive(Debug, Clone, Default)]
pub struct ConnReport {
    pub outcomes: Vec<Outcome>,
    /// Largest gap between a request's due time and its send, seconds.
    pub late_max_s: f64,
    /// When the connection finished: its last reply, or giving up.
    pub done_s: f64,
}

/// Opens a client connection: `TCP_NODELAY`, so a request line is never
/// held back waiting for an acknowledgement.
pub fn connect(addr: SocketAddr) -> std::io::Result<TcpStream> {
    let stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    Ok(stream)
}

/// Sends `plan` (sorted by due time, relative to `t0`) on `stream` and
/// collects every reply. Replies arrive in request order; requests still
/// unanswered `grace` after the last due time count as missing.
pub fn drive(mut stream: TcpStream, plan: &[Planned], t0: Instant, grace: Duration) -> ConnReport {
    let mut report = ConnReport::default();
    let mut pending: VecDeque<usize> = VecDeque::new();
    let mut replies: Vec<Option<(f64, Reply)>> = vec![None; plan.len()];
    let mut buf: Vec<u8> = Vec::new();
    let mut chunk = [0u8; 8192];
    let last_due = plan.last().map_or(0.0, |p| p.due_s);
    let deadline = last_due + grace.as_secs_f64();
    let mut next = 0usize;
    let mut closed = false;
    while !closed && (next < plan.len() || !pending.is_empty()) {
        let now = t0.elapsed().as_secs_f64();
        if next < plan.len() && now >= plan[next].due_s {
            report.late_max_s = report.late_max_s.max(now - plan[next].due_s);
            // One write per request: the line and its newline together.
            let mut wire = Vec::with_capacity(plan[next].line.len() + 1);
            wire.extend_from_slice(plan[next].line.as_bytes());
            wire.push(b'\n');
            if stream.write_all(&wire).is_err() {
                break;
            }
            pending.push_back(next);
            next += 1;
            continue;
        }
        if now >= deadline {
            break;
        }
        let wait_s = if next < plan.len() {
            plan[next].due_s - now
        } else {
            deadline - now
        };
        if pending.is_empty() {
            std::thread::sleep(Duration::from_secs_f64(wait_s));
            continue;
        }
        let timeout = Duration::from_secs_f64(wait_s.max(1e-4));
        if stream.set_read_timeout(Some(timeout)).is_err() {
            break;
        }
        match stream.read(&mut chunk) {
            Ok(0) => closed = true,
            Ok(n) => {
                let arrived = t0.elapsed().as_secs_f64();
                buf.extend_from_slice(&chunk[..n]);
                while let Some(pos) = buf.iter().position(|&b| b == b'\n') {
                    let line: Vec<u8> = buf.drain(..=pos).collect();
                    let Some(idx) = pending.pop_front() else {
                        // A reply nobody asked for: the exchange is out of
                        // step, so the rest of this connection is void.
                        closed = true;
                        break;
                    };
                    let reply = parse_reply(&String::from_utf8_lossy(&line[..line.len() - 1]));
                    replies[idx] = Some((arrived - plan[idx].due_s, reply));
                }
            }
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {}
            Err(_) => closed = true,
        }
    }
    report.done_s = t0.elapsed().as_secs_f64();
    report.outcomes = plan
        .iter()
        .zip(replies)
        .map(|(p, r)| {
            let (latency_s, reply) = match r {
                Some((l, reply)) => (Some(l), reply),
                None => (None, Reply::Missing),
            };
            Outcome {
                seed: p.seed,
                kind: p.kind,
                latency_s,
                reply,
            }
        })
        .collect();
    report
}

fn parse_reply(line: &str) -> Reply {
    match parse_response(line) {
        Ok(Response::Personalized(r)) => Reply::Ok {
            fingerprint: r.fingerprint,
            cache_hit: r.cache_hit,
            service_s: r.wall_seconds,
        },
        Ok(Response::Overloaded { .. }) => Reply::Shed,
        Ok(Response::Error { kind, message }) => Reply::Error(format!("{kind}: {message}")),
        Ok(other) => Reply::Error(format!("unexpected reply {other:?}")),
        Err(e) => Reply::Error(format!("unparseable reply: {e}")),
    }
}

/// Sends one control line (`stats`, `ping`) and waits for its reply.
pub fn roundtrip(addr: SocketAddr, line: &str) -> Result<Response, String> {
    let mut stream = connect(addr).map_err(|e| e.to_string())?;
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .map_err(|e| e.to_string())?;
    stream
        .write_all(format!("{line}\n").as_bytes())
        .map_err(|e| e.to_string())?;
    let mut buf = Vec::new();
    let mut chunk = [0u8; 4096];
    while !buf.contains(&b'\n') {
        let n = stream.read(&mut chunk).map_err(|e| e.to_string())?;
        if n == 0 {
            return Err("connection closed before the reply".into());
        }
        buf.extend_from_slice(&chunk[..n]);
    }
    let end = buf.iter().position(|&b| b == b'\n').unwrap_or(buf.len());
    parse_response(&String::from_utf8_lossy(&buf[..end])).map_err(|e| e.to_string())
}

pub fn personalize_line(seed: u64) -> String {
    format!("{{\"type\":\"personalize\",\"seed\":{seed}}}")
}

/// A personalize request that overrides the server's base configuration
/// with the anechoic 15° / 45 dB pipeline.
pub fn anechoic_line(seed: u64) -> String {
    format!("{{\"type\":\"personalize\",\"seed\":{seed},\"grid\":15,\"snr\":45,\"anechoic\":true}}")
}
