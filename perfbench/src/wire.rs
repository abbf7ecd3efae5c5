//! An open-loop line-protocol client.
//!
//! [`drive`] writes each request at its scheduled time from one thread
//! while a second thread reads the replies, which the server sends in
//! request order. A stalled server therefore shows up in the latency of
//! every request queued behind the stall, timed from when it was due,
//! instead of delaying the sends (coordinated omission).

use crate::measure::sleep_until;
use crate::spans::Spans;
use std::io::{self, BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// One request line with the instant it is due to be sent.
#[derive(Debug, Clone)]
pub struct Scheduled {
    /// When the request is due.
    pub due: Instant,
    /// The request line, without its newline.
    pub line: String,
    /// Span id of the request (used only when tracing).
    pub id: u64,
}

/// What happened to one scheduled request.
#[derive(Debug, Clone)]
pub struct Exchange {
    /// When it was due.
    pub intended: Instant,
    /// When the client was free to act on it: the due time, or later if
    /// the connection slot it needs was still held.
    pub ready: Instant,
    /// When the client began acting on it (its connect, if it opened a
    /// connection; else its write).
    pub began: Instant,
    /// The reply line and the instant it was read; `None` if lost.
    pub reply: Option<(String, Instant)>,
}

/// Connects with `TCP_NODELAY`, so each request leaves at once.
pub fn connect(addr: SocketAddr) -> io::Result<TcpStream> {
    let stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    Ok(stream)
}

/// Writes `line` plus a newline in one call.
fn send(mut stream: &TcpStream, line: &str) -> io::Result<()> {
    let mut bytes = Vec::with_capacity(line.len() + 1);
    bytes.extend_from_slice(line.as_bytes());
    bytes.push(b'\n');
    stream.write_all(&bytes)
}

/// Reads up to `n` reply lines, giving up after `idle` without data.
fn read_replies(
    stream: TcpStream,
    n: usize,
    idle: Duration,
    ids: &[u64],
) -> (Vec<(String, Instant)>, Spans) {
    let mut spans = Spans::default();
    let mut out = Vec::with_capacity(n);
    if stream.set_read_timeout(Some(idle)).is_err() {
        return (out, spans);
    }
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    while out.len() < n {
        let start = Instant::now();
        line.clear();
        match reader.read_line(&mut line) {
            Ok(0) | Err(_) => break,
            Ok(_) => {
                let at = Instant::now();
                if let Some(&id) = ids.get(out.len()) {
                    spans.record(id, "read", start, at);
                }
                out.push((line.trim_end().to_string(), at));
            }
        }
    }
    (out, spans)
}

/// Sends every request of `schedule` at its due time on `stream` and
/// reads the replies in order on a second thread. Replies still missing
/// after `idle` without data are reported lost. With `spans`, records a
/// `write` span per send and a `read` span per reply.
pub fn drive(
    stream: &TcpStream,
    schedule: &[Scheduled],
    idle: Duration,
    spans: Option<&mut Spans>,
) -> Vec<Exchange> {
    let trace = spans.is_some();
    let ids: Vec<u64> = if trace {
        schedule.iter().map(|s| s.id).collect()
    } else {
        Vec::new()
    };
    let mut sent = Vec::with_capacity(schedule.len());
    let mut write_spans = Spans::default();
    let (replies, read_spans) = std::thread::scope(|s| {
        let reader = stream
            .try_clone()
            .map(|clone| s.spawn(|| read_replies(clone, schedule.len(), idle, &ids)));
        for next in schedule {
            sleep_until(next.due);
            let start = Instant::now();
            if send(stream, &next.line).is_err() {
                break;
            }
            if trace {
                write_spans.record(next.id, "write", start, Instant::now());
            }
            sent.push(start);
        }
        match reader {
            Ok(handle) => handle.join().expect("reply reader"),
            Err(_) => (Vec::new(), Spans::default()),
        }
    });
    if let Some(s) = spans {
        s.merge(write_spans);
        s.merge(read_spans);
    }
    let mut replies = replies.into_iter();
    schedule
        .iter()
        .enumerate()
        .map(|(i, next)| {
            // A request never sent (the connection broke) is lost.
            let began = sent.get(i).copied();
            Exchange {
                intended: next.due,
                ready: next.due,
                began: began.unwrap_or(next.due),
                reply: began.and_then(|_| replies.next()),
            }
        })
        .collect()
}

/// Sends one request on a fresh connection and collects reply lines up
/// to and including the one `last` accepts (for multi-line verbs such as
/// `METRICS`).
pub fn request_lines(
    addr: SocketAddr,
    line: &str,
    timeout: Duration,
    last: impl Fn(&str) -> bool,
) -> io::Result<Vec<String>> {
    let stream = connect(addr)?;
    stream.set_read_timeout(Some(timeout))?;
    send(&stream, line)?;
    let mut out = Vec::new();
    for text in BufReader::new(&stream).lines() {
        let text = text?;
        let done = last(&text);
        out.push(text);
        if done {
            let _ = send(&stream, "QUIT");
            return Ok(out);
        }
    }
    Err(io::Error::new(
        io::ErrorKind::UnexpectedEof,
        format!("no reply to {line}"),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    /// A server that answers `OK <n>` to each line, stalling `stall`
    /// before its first answer, and answering at most `answer` lines.
    fn fake_server(stall: Duration, answer: usize) -> (SocketAddr, std::thread::JoinHandle<()>) {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let handle = std::thread::spawn(move || {
            let (stream, _) = listener.accept().expect("accept");
            stream.set_nodelay(true).expect("nodelay");
            let mut writer = stream.try_clone().expect("clone");
            for (n, line) in BufReader::new(stream).lines().enumerate() {
                if line.is_err() {
                    break;
                }
                if n == 0 {
                    std::thread::sleep(stall);
                }
                if n < answer && writeln!(writer, "OK {n}").is_err() {
                    break;
                }
            }
        });
        (addr, handle)
    }

    #[test]
    fn a_stall_shows_in_every_request_queued_behind_it() {
        let stall = Duration::from_millis(200);
        let (addr, server) = fake_server(stall, usize::MAX);
        let stream = connect(addr).expect("connect");
        let t0 = Instant::now() + Duration::from_millis(5);
        let every = Duration::from_millis(10);
        let schedule: Vec<Scheduled> = (0..30u32)
            .map(|i| Scheduled {
                due: t0 + every * i,
                line: format!("REQ {i}"),
                id: u64::from(i),
            })
            .collect();
        let out = drive(&stream, &schedule, Duration::from_secs(5), None);
        drop(stream);
        server.join().expect("server thread");

        assert_eq!(out.len(), 30);
        let stall_end = out[0].began + stall;
        for (i, e) in out.iter().enumerate() {
            // Open loop: every send left on schedule despite the stall.
            assert!(
                e.began.duration_since(e.intended) < Duration::from_millis(8),
                "request {i} sent late"
            );
            let (line, at) = e.reply.as_ref().expect("answered");
            assert_eq!(line, &format!("OK {i}"));
            // Each request due before the stall ended waited for it, and
            // its latency from the due time shows that wait.
            if e.intended < stall_end {
                assert!(*at >= stall_end, "request {i} answered inside the stall");
                assert!(
                    at.duration_since(e.intended) >= stall_end.duration_since(e.intended),
                    "request {i} hides the stall"
                );
            }
        }
        // Requests due well after the stall are answered promptly.
        let last = out.last().expect("non-empty");
        assert!(
            last.reply
                .as_ref()
                .expect("answered")
                .1
                .duration_since(last.intended)
                < stall
        );
    }

    #[test]
    fn replies_missing_after_the_idle_timeout_are_lost() {
        let (addr, server) = fake_server(Duration::ZERO, 1);
        let stream = connect(addr).expect("connect");
        let now = Instant::now();
        let schedule: Vec<Scheduled> = (0..3)
            .map(|i| Scheduled {
                due: now,
                line: format!("REQ {i}"),
                id: i,
            })
            .collect();
        let out = drive(&stream, &schedule, Duration::from_millis(100), None);
        drop(stream);
        server.join().expect("server thread");
        assert_eq!(out.len(), 3);
        assert!(out[0].reply.is_some());
        assert!(out[1].reply.is_none() && out[2].reply.is_none());
    }
}
