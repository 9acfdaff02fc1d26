//! The TCP shell: listener, bounded job queue, worker pool, graceful
//! shutdown.
//!
//! Dependency-free networking over [`std::net::TcpListener`]. The
//! threading model:
//!
//! * one **accept loop** blocks in `accept` and spawns a handler thread
//!   per connection; once the server drains, a one-off connection to the
//!   listener wakes it so it can see the drain flag and exit;
//! * each **handler** frames NDJSON request lines (own buffer scan — no
//!   `BufReader`, so read timeouts never lose partial lines), pushes jobs
//!   onto the **bounded queue** and writes each response back as a single
//!   write of the line and its `\n`, with `TCP_NODELAY` set — the protocol
//!   is strict request/response, so Nagle's coalescing would only hold
//!   each frame back until the peer's delayed ACK;
//! * a fixed **worker pool** drains the queue through
//!   [`Service::handle_line`] — the sweep inside then fans out further
//!   over the engine's own rayon pool.
//!
//! A full queue is answered immediately with a typed `queue_full` error
//! (the queue never blocks ingress), and an over-long line with
//! `bad_request` before the connection closes (its framing is
//! unrecoverable). Graceful shutdown (`{"op":"shutdown"}`) stops the
//! accept loop, cancels in-flight sweeps through the shared budget flag —
//! they stop at certified partial frontiers and still answer — drains the
//! queue, and joins every thread: the handler that answered the request
//! wakes the blocked accept loop, and [`Server::join`] does the same for a
//! drain begun directly through [`Service::begin_shutdown`].

use std::io::{self, ErrorKind, Read, Write};
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::mpsc::{Receiver, SyncSender, TrySendError};
use std::sync::{mpsc, Arc, Mutex};
use std::thread;
use std::time::Duration;

use crate::protocol::{error_line, ErrorBody, MAX_REQUEST_BYTES};
use crate::service::{Service, ServiceOptions};

/// Tuning knobs of a [`Server`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct ServerOptions {
    /// Worker threads evaluating explorations.
    pub workers: usize,
    /// Bounded job-queue depth; a full queue answers `queue_full`.
    pub queue: usize,
    /// Byte budget of the result cache.
    pub cache_bytes: usize,
}

impl Default for ServerOptions {
    fn default() -> Self {
        ServerOptions {
            workers: 2,
            queue: 32,
            cache_bytes: ServiceOptions::default().cache_bytes,
        }
    }
}

/// How often an idle connection handler polls the drain flag.
const POLL: Duration = Duration::from_millis(50);

/// One queued request: the raw line plus the handler's reply channel.
struct Job {
    line: String,
    reply: mpsc::Sender<String>,
}

/// A running batch exploration server; see the module docs.
pub struct Server {
    addr: SocketAddr,
    service: Arc<Service>,
    accept: Option<thread::JoinHandle<()>>,
    workers: Vec<thread::JoinHandle<()>>,
    queue: Option<SyncSender<Job>>,
}

impl Server {
    /// Binds `addr` (e.g. `"127.0.0.1:0"` for an ephemeral port) and
    /// starts the accept loop and worker pool.
    ///
    /// # Errors
    ///
    /// [`io::Error`] from binding or configuring the listener.
    pub fn bind(addr: impl ToSocketAddrs, opts: ServerOptions) -> io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let service = Arc::new(Service::new(ServiceOptions {
            cache_bytes: opts.cache_bytes,
            ..ServiceOptions::default()
        }));

        let (tx, rx) = mpsc::sync_channel::<Job>(opts.queue.max(1));
        let rx = Arc::new(Mutex::new(rx));
        let workers = (0..opts.workers.max(1))
            .map(|_| {
                let rx = Arc::clone(&rx);
                let service = Arc::clone(&service);
                thread::spawn(move || worker_loop(&rx, &service))
            })
            .collect();

        let accept = {
            let service = Arc::clone(&service);
            let tx = tx.clone();
            thread::spawn(move || accept_loop(&listener, &service, &tx))
        };

        Ok(Server {
            addr,
            service,
            accept: Some(accept),
            workers,
            queue: Some(tx),
        })
    }

    /// The bound address (with the OS-assigned port when bound to `:0`).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The shared service (counters, drain flag) — what tests inspect.
    pub fn service(&self) -> &Arc<Service> {
        &self.service
    }

    /// Blocks until the server has fully shut down: the accept loop has
    /// exited (it watches the drain flag a `shutdown` request raises),
    /// every connection has closed, the queue has drained and every
    /// worker has exited.
    ///
    /// A drain begun through [`Service::begin_shutdown`] before this call
    /// is noticed at once (this wakes the accept loop); one begun that way
    /// while `join` already blocks is noticed at the next connection.
    pub fn join(mut self) {
        if self.service.is_draining() {
            wake_accept(self.addr);
        }
        if let Some(accept) = self.accept.take() {
            let _ = accept.join();
        }
        // All handler clones are gone once the accept loop has joined its
        // handlers; dropping the master sender ends the workers' queue.
        self.queue = None;
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

fn worker_loop(rx: &Arc<Mutex<Receiver<Job>>>, service: &Arc<Service>) {
    loop {
        let job = {
            let guard = match rx.lock() {
                Ok(g) => g,
                Err(poisoned) => poisoned.into_inner(),
            };
            guard.recv()
        };
        match job {
            Ok(job) => {
                let response = service.handle_line(&job.line);
                let _ = job.reply.send(response);
            }
            Err(_) => return, // every sender gone: shutdown complete
        }
    }
}

fn accept_loop(listener: &TcpListener, service: &Arc<Service>, tx: &SyncSender<Job>) {
    let mut handlers: Vec<thread::JoinHandle<()>> = Vec::new();
    loop {
        let accepted = listener.accept();
        // A drain wakes this blocking accept with a throwaway connection
        // (see `wake_accept`); anything accepted once draining is dropped.
        if service.is_draining() {
            break;
        }
        match accepted {
            Ok((stream, _)) => {
                let service = Arc::clone(service);
                let tx = tx.clone();
                handlers.push(thread::spawn(move || {
                    handle_connection(stream, &service, &tx);
                }));
            }
            // Out of descriptors and the like: back off instead of spinning.
            Err(_) => thread::sleep(POLL),
        }
        handlers.retain(|h| !h.is_finished());
    }
    for h in handlers {
        let _ = h.join();
    }
}

/// Wakes an accept loop blocked on `addr` by connecting to it once; the
/// loop then sees the drain flag and exits. A refused connection means the
/// listener is already gone, which is just as good. A listener bound to an
/// unspecified address (`0.0.0.0`, `::`) is reached through loopback,
/// since not every platform accepts a connect to the unspecified address.
fn wake_accept(addr: SocketAddr) {
    let ip = match addr.ip() {
        IpAddr::V4(ip) if ip.is_unspecified() => IpAddr::V4(Ipv4Addr::LOCALHOST),
        IpAddr::V6(ip) if ip.is_unspecified() => IpAddr::V6(Ipv6Addr::LOCALHOST),
        ip => ip,
    };
    let _ = TcpStream::connect(SocketAddr::new(ip, addr.port()));
}

/// Frames NDJSON lines off one connection and round-trips each through
/// the job queue. Exits on EOF, an unrecoverable framing error, a write
/// failure, or (when idle) a draining server. The first answer given
/// while the server drains wakes the accept loop.
fn handle_connection(stream: TcpStream, service: &Arc<Service>, tx: &SyncSender<Job>) {
    let mut stream = stream;
    if stream.set_read_timeout(Some(POLL)).is_err() || stream.set_nodelay(true).is_err() {
        return;
    }
    let mut woke = false;
    let mut pending: Vec<u8> = Vec::new();
    let mut buf = [0u8; 16 * 1024];
    loop {
        // Drain complete lines first.
        while let Some(nl) = pending.iter().position(|&b| b == b'\n') {
            let line_bytes: Vec<u8> = pending.drain(..=nl).collect();
            let line = String::from_utf8_lossy(&line_bytes[..nl]).into_owned();
            let line = line.trim_end_matches('\r').to_string();
            if line.is_empty() {
                continue;
            }
            let mut response = dispatch(line, tx);
            response.push('\n');
            let sent = stream.write_all(response.as_bytes()).is_ok();
            if !woke && service.is_draining() {
                woke = true;
                if let Ok(addr) = stream.local_addr() {
                    wake_accept(addr);
                }
            }
            if !sent {
                return;
            }
        }
        if pending.len() > MAX_REQUEST_BYTES {
            // The line cap is enforced mid-read: answer once, then close
            // (the rest of the oversized line cannot be re-framed).
            let e = ErrorBody::bad_request(format!(
                "request line exceeds the {MAX_REQUEST_BYTES}-byte cap"
            ));
            let mut response = error_line(&e);
            response.push('\n');
            let _ = stream.write_all(response.as_bytes());
            return;
        }
        match stream.read(&mut buf) {
            Ok(0) => return, // EOF
            Ok(n) => pending.extend_from_slice(&buf[..n]),
            Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => {
                // Idle poll: once the server drains, stop waiting for
                // more requests (in-flight ones were already answered).
                if service.is_draining() && pending.is_empty() {
                    return;
                }
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(_) => return,
        }
    }
}

/// Queues one line for a worker and waits for its response. A full
/// queue or a torn-down pool answers immediately with a typed error.
fn dispatch(line: String, tx: &SyncSender<Job>) -> String {
    let (reply_tx, reply_rx) = mpsc::channel();
    match tx.try_send(Job {
        line,
        reply: reply_tx,
    }) {
        Ok(()) => match reply_rx.recv() {
            Ok(response) => response,
            Err(_) => error_line(&ErrorBody {
                class: "shutting_down".into(),
                message: "the server shut down before answering".into(),
            }),
        },
        Err(TrySendError::Full(_)) => error_line(&ErrorBody {
            class: "queue_full".into(),
            message: "the job queue is full; retry later".into(),
        }),
        Err(TrySendError::Disconnected(_)) => error_line(&ErrorBody {
            class: "shutting_down".into(),
            message: "the server is shutting down".into(),
        }),
    }
}

/// Runs a server in the foreground: binds, then blocks until a
/// `shutdown` request completes the drain. The `on_ready` callback gets
/// the bound address before serving starts (the CLI prints it).
///
/// # Errors
///
/// As [`Server::bind`].
pub fn serve(
    addr: impl ToSocketAddrs,
    opts: ServerOptions,
    on_ready: impl FnOnce(SocketAddr),
) -> io::Result<()> {
    let server = Server::bind(addr, opts)?;
    on_ready(server.addr());
    server.join();
    Ok(())
}
