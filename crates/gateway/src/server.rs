//! The gateway server: accept loop, per-connection reader threads, the
//! shedding/drain state machine, and the plaintext metrics listener.
//!
//! ## Invariants
//!
//! * **No client-reachable panic.**  Reader threads decode with the
//!   total codec in [`crate::proto`]; engine errors arrive as typed
//!   [`SubmitError`] values; responses are written through a guard whose
//!   `Drop` answers even when the engine discards a request.  A
//!   malformed frame is logged, counted, and drops *its own* connection
//!   — nothing else.
//! * **Every accepted request is answered.**  "Accepted" means a frame
//!   decoded into a [`proto::Request`] before shutdown began (a reader
//!   stops before accepting once it sees the flag); from that instant a
//!   [`ResponseGuard`] exists whose destructor writes a typed
//!   `WorkerLost` rejection if no verdict (or other rejection) was
//!   written first.  Connection teardown and gateway shutdown both wait
//!   for in-flight guards to resolve before closing the socket.
//! * **Readers never block on the engine.**  Submission goes through
//!   [`MonitorEngine::try_submit_with`]; a full queue yields an
//!   immediate typed `Saturated` response (load shedding) instead of a
//!   blocked socket.

use crate::metrics::{GatewayStats, Metrics};
use crate::proto::{
    self, Rejection, Request, RequestKind, Response, WireError, DEFAULT_MAX_FRAME, WIRE_VERSION,
};
use naps_serve::{LayeredEpochReport, MonitorEngine, SubmitError};
use naps_sync::atomic::{AtomicBool, Ordering};
use naps_sync::thread::{self, JoinHandle};
use naps_sync::{Arc, Condvar, Mutex};
use naps_tensor::Tensor;
use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::time::{Duration, Instant};

/// Tunables for a [`Gateway`].
#[derive(Debug, Clone)]
pub struct GatewayConfig {
    /// Largest accepted frame payload; a bigger length prefix is
    /// rejected before allocation and drops the connection.
    pub max_frame_len: u32,
    /// Write timeout on client sockets, so one dead client cannot wedge
    /// a worker callback forever.
    pub write_timeout: Option<Duration>,
    /// How long a fresh connection may take to complete the 6-byte
    /// handshake before being dropped.
    pub handshake_timeout: Option<Duration>,
    /// Whether to bind the plaintext metrics listener (same IP as the
    /// gateway, ephemeral port — see [`Gateway::metrics_addr`]).
    pub metrics: bool,
}

impl Default for GatewayConfig {
    fn default() -> Self {
        GatewayConfig {
            max_frame_len: DEFAULT_MAX_FRAME,
            write_timeout: Some(Duration::from_secs(5)),
            handshake_timeout: Some(Duration::from_secs(5)),
            metrics: true,
        }
    }
}

/// Connection registry: the live sockets (for the shutdown sweep) and
/// reader-thread handles (joined at shutdown so no thread leaks).
struct Registry {
    next_id: u64,
    /// A clone of each live connection's socket, so shutdown can
    /// `shutdown(Read)` it and unblock the reader.
    streams: HashMap<u64, TcpStream>,
    handles: Vec<JoinHandle<()>>,
    /// Set under this lock at shutdown; registration checks it so no
    /// connection can slip past the sweep and block forever.
    closed: bool,
}

struct Inner {
    engine: Arc<MonitorEngine>,
    cfg: GatewayConfig,
    metrics: Metrics,
    shutting_down: AtomicBool,
    registry: Mutex<Registry>,
}

/// Per-connection shared state: the serialized writer half and the
/// in-flight request count the teardown path drains.
struct Conn {
    inner: Arc<Inner>,
    writer: Mutex<TcpStream>,
    in_flight: Mutex<usize>,
    idle: Condvar,
}

/// The answer-exactly-once guard for one accepted request.
///
/// Construction increments the connection's in-flight count;
/// [`ResponseGuard::respond`] writes the response; `Drop` writes a
/// typed [`Rejection::WorkerLost`] if nothing was written (the engine
/// dropped the request — e.g. its last worker died with the request
/// queued), then decrements the count.  Whichever thread ends up
/// holding the guard — reader, engine worker, or the engine's unwind
/// path — the client hears back and the drain can finish.
struct ResponseGuard {
    conn: Arc<Conn>,
    id: u64,
    kind: RequestKind,
    started: Instant,
    done: bool,
}

impl ResponseGuard {
    fn new(conn: Arc<Conn>, id: u64, kind: RequestKind) -> Self {
        *conn.in_flight.lock().unwrap_or_else(|e| e.into_inner()) += 1;
        ResponseGuard {
            conn,
            id,
            kind,
            started: Instant::now(),
            done: false,
        }
    }

    /// Writes `resp` and marks the request answered.
    fn respond(mut self, resp: &Response) {
        self.write(resp);
        self.done = true;
    }

    fn write(&self, resp: &Response) {
        let metrics = &self.conn.inner.metrics;
        // Encoding a verdict only fails on count overflow (≥ 2^32
        // classes); degrade to a typed internal error.  The fixed-shape
        // `Internal` rejection always encodes, but if that ever changed
        // the response would be *counted as lost* — never an empty frame
        // on the wire, never a panic.
        let encoded = proto::encode_response(self.id, resp)
            .or_else(|_| proto::encode_response(self.id, &Response::Rejected(Rejection::Internal)));
        match encoded {
            Ok(bytes) => {
                let mut writer = self.conn.writer.lock().unwrap_or_else(|e| e.into_inner());
                if proto::write_frame(&mut *writer, &bytes).is_err() {
                    // The client vanished mid-request; the response is
                    // lost but accounted for, and the reader will notice
                    // the dead socket.
                    // ordering: relaxed — independent stat counter
                    metrics.write_errors.fetch_add(1, Ordering::Relaxed);
                }
            }
            Err(_) => {
                // ordering: relaxed — independent stat counter
                metrics.write_errors.fetch_add(1, Ordering::Relaxed);
            }
        }
        // ordering: relaxed — monotone counter; the drain barrier is the
        // in_flight mutex + condvar, not this metric.
        metrics.answered.fetch_add(1, Ordering::Relaxed);
        metrics
            .kind(self.kind)
            .latency
            .record(self.started.elapsed());
    }
}

impl Drop for ResponseGuard {
    fn drop(&mut self) {
        if !self.done {
            // The engine dropped the request without answering — the
            // wire contract still holds: a typed error, not silence.
            self.write(&Response::Rejected(Rejection::WorkerLost));
        }
        let mut n = self
            .conn
            .in_flight
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        *n = n.saturating_sub(1);
        drop(n);
        self.conn.idle.notify_all();
    }
}

/// A running gateway: the accept thread, one reader thread per
/// connection, and (optionally) the metrics listener.
///
/// Dropping a `Gateway` performs the same graceful shutdown as
/// [`Gateway::shutdown`] — every accepted request is answered, every
/// thread joined — just without returning the final stats.
pub struct Gateway {
    inner: Arc<Inner>,
    addr: SocketAddr,
    metrics_addr: Option<SocketAddr>,
    accept: Option<JoinHandle<()>>,
    metrics_thread: Option<JoinHandle<()>>,
}

impl Gateway {
    /// Binds the gateway on `addr` (use port 0 for an ephemeral port)
    /// and starts serving `engine`.  The engine stays owned by the
    /// caller: shutting the gateway down does **not** shut the engine
    /// down.
    pub fn bind(
        engine: Arc<MonitorEngine>,
        addr: impl ToSocketAddrs,
        cfg: GatewayConfig,
    ) -> std::io::Result<Gateway> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let metrics_listener = if cfg.metrics {
            let bind_ip = SocketAddr::new(addr.ip(), 0);
            Some(TcpListener::bind(bind_ip)?)
        } else {
            None
        };
        let metrics_addr = match &metrics_listener {
            Some(l) => Some(l.local_addr()?),
            None => None,
        };
        let inner = Arc::new(Inner {
            engine,
            cfg,
            metrics: Metrics::new(),
            shutting_down: AtomicBool::new(false),
            registry: Mutex::new(Registry {
                next_id: 0,
                streams: HashMap::new(),
                handles: Vec::new(),
                closed: false,
            }),
        });
        let accept = {
            let inner = Arc::clone(&inner);
            thread::Builder::new()
                .name("naps-gw-accept".into())
                .spawn(move || accept_loop(&inner, &listener))?
        };
        let metrics_thread = match metrics_listener {
            Some(listener) => {
                let inner = Arc::clone(&inner);
                Some(
                    thread::Builder::new()
                        .name("naps-gw-metrics".into())
                        .spawn(move || metrics_loop(&inner, &listener))?,
                )
            }
            None => None,
        };
        Ok(Gateway {
            inner,
            addr,
            metrics_addr,
            accept: Some(accept),
            metrics_thread,
        })
    }

    /// The address the gateway is listening on.
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The metrics listener's address (connect, read to EOF, get the
    /// plaintext page), if metrics are enabled.
    pub fn metrics_addr(&self) -> Option<SocketAddr> {
        self.metrics_addr
    }

    /// A point-in-time snapshot of the gateway's counters — the typed
    /// form of the metrics page.
    pub fn stats(&self) -> GatewayStats {
        self.inner.metrics.snapshot(self.inner.engine.queue_depth())
    }

    /// Graceful drain: stop accepting connections and frames, answer
    /// every already-accepted request (verdict or typed error), join
    /// every thread, and return the final counters.  Each connection
    /// then reads and drops the frames its peer pipelined past the
    /// shutdown point before closing, so the close does not reset
    /// verdicts the peer has not read yet; connections do this in
    /// parallel, for at most one second each.
    pub fn shutdown(mut self) -> GatewayStats {
        self.shutdown_impl();
        self.stats()
    }

    fn shutdown_impl(&mut self) {
        self.inner.shutting_down.store(true, Ordering::SeqCst);
        // Close the registry (no new connections can register) and
        // shut the read half of every live socket: readers unblock,
        // stop accepting frames, and drain their in-flight requests.
        {
            let mut reg = self
                .inner
                .registry
                .lock()
                .unwrap_or_else(|e| e.into_inner());
            reg.closed = true;
            for stream in reg.streams.values() {
                let _ = stream.shutdown(Shutdown::Read);
            }
        }
        // Wake the accept loop with a throwaway connection and join it.
        if let Some(handle) = self.accept.take() {
            let _ = TcpStream::connect_timeout(&self.addr, Duration::from_secs(1));
            let _ = handle.join();
        }
        // Join the reader threads (each drains its in-flight requests
        // before exiting — this is the answer-everything barrier).
        let handles = {
            let mut reg = self
                .inner
                .registry
                .lock()
                .unwrap_or_else(|e| e.into_inner());
            std::mem::take(&mut reg.handles)
        };
        for handle in handles {
            let _ = handle.join();
        }
        // Finally the metrics listener.
        if let Some(handle) = self.metrics_thread.take() {
            if let Some(addr) = self.metrics_addr {
                let _ = TcpStream::connect_timeout(&addr, Duration::from_secs(1));
            }
            let _ = handle.join();
        }
    }
}

impl Drop for Gateway {
    fn drop(&mut self) {
        self.shutdown_impl();
    }
}

fn accept_loop(inner: &Arc<Inner>, listener: &TcpListener) {
    loop {
        match listener.accept() {
            Ok((stream, peer)) => {
                if inner.shutting_down.load(Ordering::SeqCst) {
                    // The shutdown wake-up (or a late client): refuse.
                    drop(stream);
                    break;
                }
                spawn_connection(inner, stream, peer);
            }
            Err(e) => {
                if inner.shutting_down.load(Ordering::SeqCst) {
                    break;
                }
                // Transient accept failure (e.g. fd exhaustion): note it
                // and keep serving; never take the listener down.
                eprintln!("naps-gateway: accept error: {e}");
                thread::sleep(Duration::from_millis(50));
            }
        }
    }
}

fn spawn_connection(inner: &Arc<Inner>, stream: TcpStream, peer: SocketAddr) {
    // A clone for the shutdown sweep; if the socket can't be cloned it
    // is already unusable.
    let sweep = match stream.try_clone() {
        Ok(s) => s,
        Err(e) => {
            eprintln!("naps-gateway: {peer}: clone failed: {e}");
            return;
        }
    };
    let mut reg = inner.registry.lock().unwrap_or_else(|e| e.into_inner());
    if reg.closed {
        return; // raced with shutdown: refuse, the sweep already ran
    }
    let id = reg.next_id;
    reg.next_id += 1;
    reg.streams.insert(id, sweep);
    // Reap finished reader threads so a long-lived gateway's handle
    // list stays proportional to *live* connections.
    let mut finished = Vec::new();
    let mut live = Vec::new();
    for h in reg.handles.drain(..) {
        if h.is_finished() {
            finished.push(h);
        } else {
            live.push(h);
        }
    }
    reg.handles = live;
    let spawned = thread::Builder::new()
        .name(format!("naps-gw-conn-{id}"))
        .spawn({
            let inner = Arc::clone(inner);
            move || {
                handle_connection(&inner, stream, id, peer);
                let mut reg = inner.registry.lock().unwrap_or_else(|e| e.into_inner());
                reg.streams.remove(&id);
                drop(reg);
                inner
                    .metrics
                    .connections_current
                    // ordering: relaxed — gauge; readers tolerate staleness
                    .fetch_sub(1, Ordering::Relaxed);
            }
        });
    match spawned {
        Ok(handle) => {
            let open = inner
                .metrics
                .connections_current
                // ordering: relaxed — gauge; readers tolerate staleness
                .fetch_add(1, Ordering::Relaxed)
                + 1;
            inner
                .metrics
                .connections_peak
                // ordering: relaxed — high-water gauge; fetch_max keeps
                // racing accepts from regressing it (checked by the
                // naps-sim stat_max model)
                .fetch_max(open, Ordering::Relaxed);
            inner
                .metrics
                .connections_total
                // ordering: relaxed — monotone stat counter
                .fetch_add(1, Ordering::Relaxed);
            reg.handles.push(handle);
        }
        Err(e) => {
            reg.streams.remove(&id);
            eprintln!("naps-gateway: {peer}: spawn failed: {e}");
        }
    }
    drop(reg);
    for h in finished {
        let _ = h.join();
    }
}

/// Runs one connection: handshake, then read → decode → submit until
/// the client goes away (or sends garbage), then drain and close.
fn handle_connection(inner: &Arc<Inner>, mut stream: TcpStream, id: u64, peer: SocketAddr) {
    // Handshake under a read deadline so an idle prober can't pin the
    // thread; cleared once the peer has proven it speaks the protocol.
    let _ = stream.set_read_timeout(inner.cfg.handshake_timeout);
    let _ = stream.set_nodelay(true);
    match proto::read_hello(&mut stream) {
        Ok(version) if version == WIRE_VERSION => {}
        Ok(version) => {
            // ordering: relaxed — stat counter on the error path
            inner.metrics.malformed.fetch_add(1, Ordering::Relaxed);
            eprintln!("naps-gateway: conn {id} ({peer}): unsupported protocol v{version}");
            // Tell the peer which version we speak, then hang up.
            let _ = stream.write_all(&proto::encode_hello(WIRE_VERSION));
            return;
        }
        Err(e) => {
            if e.is_malformed() {
                // ordering: relaxed — stat counter on the error path
                inner.metrics.malformed.fetch_add(1, Ordering::Relaxed);
                eprintln!("naps-gateway: conn {id} ({peer}): bad handshake: {e}");
            }
            return;
        }
    }
    if stream
        .write_all(&proto::encode_hello(WIRE_VERSION))
        .is_err()
    {
        return;
    }
    let _ = stream.set_read_timeout(None);
    let _ = stream.set_write_timeout(inner.cfg.write_timeout);

    let writer = match stream.try_clone() {
        Ok(w) => w,
        Err(e) => {
            eprintln!("naps-gateway: conn {id} ({peer}): clone failed: {e}");
            return;
        }
    };
    let conn = Arc::new(Conn {
        inner: Arc::clone(inner),
        writer: Mutex::new(writer),
        in_flight: Mutex::new(0),
        idle: Condvar::new(),
    });

    loop {
        let payload = match proto::read_frame(&mut stream, inner.cfg.max_frame_len) {
            Ok(p) => p,
            Err(WireError::Closed) => break, // clean EOF (or shutdown sweep)
            Err(e) => {
                if e.is_malformed() {
                    // ordering: relaxed — stat counter on the error path
                    inner.metrics.malformed.fetch_add(1, Ordering::Relaxed);
                    eprintln!("naps-gateway: conn {id} ({peer}): dropping: {e}");
                }
                break;
            }
        };
        let req = match proto::decode_request(&payload) {
            Ok(r) => r,
            Err(e) => {
                // ordering: relaxed — stat counter on the error path
                inner.metrics.malformed.fetch_add(1, Ordering::Relaxed);
                eprintln!("naps-gateway: conn {id} ({peer}): dropping: {e}");
                break;
            }
        };
        // Once shutdown begins, stop before accepting: a frame decoded
        // after the flag is never accepted (the peer sees the connection
        // close), and everything accepted before it is submitted and
        // answered with its verdict as it drains below.
        if inner.shutting_down.load(Ordering::SeqCst) {
            break;
        }
        serve_request(inner, &conn, req);
    }

    // Drain: every accepted request resolves its guard (verdict, typed
    // rejection, or the guard's own WorkerLost fallback), so this always
    // terminates.  The timeout only bounds each wait, not the drain.
    let mut in_flight = conn.in_flight.lock().unwrap_or_else(|e| e.into_inner());
    while *in_flight > 0 {
        let (guard, _timed_out) = conn
            .idle
            .wait_timeout(in_flight, Duration::from_millis(100))
            .unwrap_or_else(|e| e.into_inner());
        in_flight = guard;
    }
    drop(in_flight);
    if inner.shutting_down.load(Ordering::SeqCst) {
        discard_unread(&mut stream);
    }
    let _ = stream.shutdown(Shutdown::Both);
}

/// Longest a connection spends discarding unread input at shutdown.
const DISCARD_LIMIT: Duration = Duration::from_secs(1);

/// Reads and drops whatever the peer pipelined past the shutdown point.
/// Closing a socket with unread input resets the connection, and a reset
/// can destroy verdicts already written but not yet read by the peer.
/// The shutdown sweep shuts this socket's read half (it runs right after
/// the flag this reader saw), so reads stop at the end of the queued
/// input; [`DISCARD_LIMIT`] bounds a peer that keeps sending.
fn discard_unread(stream: &mut TcpStream) {
    let deadline = Instant::now() + DISCARD_LIMIT;
    let mut sink = [0u8; 4096];
    while Instant::now() < deadline {
        match stream.read(&mut sink) {
            Ok(0) | Err(_) => break,
            Ok(_) => {}
        }
    }
}

/// Accepts one decoded request: accounts it, submits it without
/// blocking, and guarantees a response via the [`ResponseGuard`].
fn serve_request(inner: &Arc<Inner>, conn: &Arc<Conn>, req: Request) {
    let Request {
        id,
        kind,
        query,
        input,
    } = req;
    // ordering: relaxed — monotone stat counters; the answer-everything
    // guarantee rides on the ResponseGuard, not on these.
    inner.metrics.accepted.fetch_add(1, Ordering::Relaxed);
    inner
        .metrics
        .kind(kind)
        .count
        // ordering: relaxed — monotone stat counter
        .fetch_add(1, Ordering::Relaxed);
    let guard = ResponseGuard::new(Arc::clone(conn), id, kind);
    let tensor = Tensor::from_vec(vec![input.len()], input);
    // The guard travels to whichever side ends up answering: into the
    // worker callback on success, back to this thread on a typed
    // submission error.  The slot makes the hand-off explicit — and if
    // the engine drops the callback unexecuted (worker death), the
    // guard's destructor still answers.
    let slot = Arc::new(Mutex::new(Some(guard)));
    let callback_slot = Arc::clone(&slot);
    let result = inner.engine.try_submit_with(tensor, query, move |report| {
        if let Some(guard) = callback_slot
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .take()
        {
            guard.respond(&wire_response(kind, report));
        }
    });
    if let Err(err) = result {
        if let Some(guard) = slot.lock().unwrap_or_else(|e| e.into_inner()).take() {
            if matches!(err, SubmitError::Saturated) {
                // ordering: relaxed — monotone stat counter
                inner.metrics.shed.fetch_add(1, Ordering::Relaxed);
            }
            guard.respond(&Response::Rejected(rejection_for(&err)));
        }
    }
}

/// Projects a layered verdict onto the response shape the request asked
/// for: the single-layer kinds get the primary-layer projection, the
/// layered kinds the full report.
fn wire_response(kind: RequestKind, report: LayeredEpochReport) -> Response {
    match kind {
        RequestKind::Check | RequestKind::CheckGraded => Response::Single(report.into_single()),
        RequestKind::CheckLayered | RequestKind::CheckLayeredGraded => Response::Layered(report),
    }
}

fn rejection_for(err: &SubmitError) -> Rejection {
    match err {
        SubmitError::Saturated => Rejection::Saturated,
        SubmitError::ShutDown => Rejection::ShuttingDown,
        SubmitError::WorkerLost => Rejection::WorkerLost,
        SubmitError::WidthMismatch { expected, actual } => Rejection::WidthMismatch {
            expected: u32::try_from(*expected).unwrap_or(u32::MAX),
            actual: u32::try_from(*actual).unwrap_or(u32::MAX),
        },
        // `SubmitError` is non-exhaustive: future variants must degrade
        // to a typed response, never to an unwinding `match`.
        _ => Rejection::Internal,
    }
}

fn metrics_loop(inner: &Arc<Inner>, listener: &TcpListener) {
    loop {
        match listener.accept() {
            Ok((mut stream, _peer)) => {
                if inner.shutting_down.load(Ordering::SeqCst) {
                    break;
                }
                let page = inner.metrics.render(inner.engine.queue_depth());
                let _ = stream.set_write_timeout(Some(Duration::from_secs(2)));
                let _ = stream.write_all(page.as_bytes());
                let _ = stream.shutdown(Shutdown::Both);
            }
            Err(_) => {
                if inner.shutting_down.load(Ordering::SeqCst) {
                    break;
                }
                thread::sleep(Duration::from_millis(50));
            }
        }
    }
}
