//! Blocking accept loops that stop on request.
//!
//! Every TCP listener in this system (the server's front door and the
//! WAL ship listener) blocks in `accept()`, so a new connection is
//! served the moment it arrives instead of at the next poll tick. To
//! stop one, the owner sets its flag and calls [`wake_acceptor`]: one
//! loopback connection returns the blocked `accept`, and the loop
//! re-checks the flag before serving anything, so the wake connection
//! is dropped unserved.

use crate::retry::Backoff;
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

/// Accepts connections on `listener` and hands each to `serve` until
/// `stop` is set and the acceptor woken (see [`wake_acceptor`]).
///
/// A failed `accept` (descriptor exhaustion, an aborted handshake)
/// returns at once on a blocking listener, so failures back off — a
/// persistent one must not spin the core.
pub fn accept_until_stopped(
    listener: &TcpListener,
    stop: &AtomicBool,
    mut serve: impl FnMut(TcpStream),
) {
    let mut backoff = Backoff::new(Duration::from_millis(1), Duration::from_millis(100));
    loop {
        let accepted = listener.accept();
        if stop.load(Ordering::Acquire) {
            return;
        }
        match accepted {
            Ok((stream, _)) => {
                backoff.reset();
                serve(stream);
            }
            Err(_) => std::thread::sleep(backoff.next_sleep()),
        }
    }
}

/// Wakes an [`accept_until_stopped`] loop blocked in `accept` on `addr`
/// (the listener's bound address) by connecting to it. An unspecified
/// bind address (`0.0.0.0`, `::`) is reached through loopback. The
/// connection is closed right away; a failed connect means the
/// listener is already gone.
pub fn wake_acceptor(addr: SocketAddr) {
    let _ = TcpStream::connect(wake_addr(addr));
}

/// `addr` with an unspecified IP replaced by loopback of its family.
fn wake_addr(addr: SocketAddr) -> SocketAddr {
    let ip = match addr.ip() {
        IpAddr::V4(ip) if ip.is_unspecified() => IpAddr::V4(Ipv4Addr::LOCALHOST),
        IpAddr::V6(ip) if ip.is_unspecified() => IpAddr::V6(Ipv6Addr::LOCALHOST),
        ip => ip,
    };
    SocketAddr::new(ip, addr.port())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::time::Instant;

    #[test]
    fn serves_until_woken_and_never_serves_the_wake() {
        for bind in ["127.0.0.1:0", "0.0.0.0:0"] {
            let listener = TcpListener::bind(bind).expect("bind");
            let addr = listener.local_addr().expect("local addr");
            let stop = Arc::new(AtomicBool::new(false));
            let (tx, rx) = std::sync::mpsc::channel();
            let acceptor = {
                let stop = Arc::clone(&stop);
                std::thread::spawn(move || {
                    accept_until_stopped(&listener, &stop, |stream| {
                        tx.send(stream).expect("test alive");
                    });
                })
            };
            let _client = TcpStream::connect(wake_addr(addr)).expect("connect");
            rx.recv_timeout(Duration::from_secs(5))
                .expect("served while running");
            let started = Instant::now();
            stop.store(true, Ordering::Release);
            wake_acceptor(addr);
            acceptor.join().expect("acceptor exits");
            assert!(started.elapsed() < Duration::from_secs(1), "{bind}");
            assert!(rx.try_recv().is_err(), "{bind}: wake connection served");
        }
    }
}
