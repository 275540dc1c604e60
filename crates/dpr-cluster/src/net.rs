//! The real network plane: a non-blocking, multi-worker TCP server.
//!
//! One [`NetServer`] hosts *all* of a process's shard workers behind a
//! single listener. An acceptor thread hands new connections round-robin to
//! a fixed pool of I/O threads; each I/O thread owns many non-blocking
//! connections and pumps them in a loop (read → parse frames → execute →
//! queue responses → flush). Requests are routed to workers by the frame
//! header's `shard` field, so thousands of client connections fan in to a
//! handful of threads.
//!
//! # Waiting for work
//!
//! An I/O thread that finds nothing to do first spins and yields for a few
//! rounds ([`dpr_core::Backoff`] up to `is_waiting_long`), which is cheap
//! and keeps a busy thread on its CPU. After that it blocks in `ppoll(2)`
//! (module `readiness`) with no timeout: read readiness on every open
//! connection, write readiness on every connection with unsent bytes, and
//! the thread's own wake handle. A request therefore wakes its thread as
//! soon as it arrives. The acceptor blocks the same way on the listener
//! and its wake handle. Two events end a wait that no socket ends: the
//! acceptor wakes an I/O thread after handing it a connection, and
//! [`NetServer::shutdown`] (or dropping the server) wakes every thread.
//! No thread of the plane ever sleeps on a timer.
//!
//! Frames on one connection are processed strictly in arrival order and
//! responses to them are queued in completion order, which for the inline
//! execution model below means *request order per connection*. Clients
//! pipeline by writing many `Request` frames before reading any
//! `Response`; cross-connection order is unspecified.
//!
//! # Steady-state allocation discipline
//!
//! The request path is allocation-free in steady state:
//!
//! * Connection read/write buffers and the per-thread read chunk are
//!   pooled [`ScratchLease`]s (`dpr_core::pool`), acquired at connection
//!   set-up and recycled on close.
//! * A `Request` body is copied once from the read buffer into a pooled
//!   shared buffer and frozen into a [`bytes::Bytes`] view; op keys and
//!   values are zero-copy slices of it ([`wire::decode_request_body`]).
//! * Ops and results decode into per-thread reusable buffers
//!   (`IoScratch`), execution appends results in place
//!   ([`Worker::execute_local_into`]), and the response is encoded
//!   straight into the connection write buffer ([`wire::encode_response`])
//!   with a back-patched length — no intermediate frame or body `Vec`.
//! * The per-session epoch fence is a cache-padded [`StripedMap`], so
//!   concurrent handshakes on different I/O threads do not serialise.
//!
//! The full wire contract (byte layout, handshake, dedupe across
//! reconnect, failure modes) is specified in `docs/NETWORK.md`, including
//! the buffer-ownership rules for pooled bodies.
//!
//! [`ScratchLease`]: dpr_core::ScratchLease
//! [`StripedMap`]: dpr_core::StripedMap

use crate::message::{ClusterOp, OpResult};
use crate::metrics;
use crate::readiness::{self, PollFd, Wake, POLLIN, POLLOUT};
use crate::wire::{self, FrameKind, Hello, HelloAck, ProtoError, ProtoErrorCode};
use crate::worker::Worker;
use bytes::Bytes;
use dpr_core::{BufferPool, DprError, Result, ScratchLease, SessionId, ShardId, StripedMap};
use libdpr::BatchHeader;
use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// Tuning knobs for a [`NetServer`].
#[derive(Debug, Clone)]
pub struct NetServerConfig {
    /// I/O threads sharing the connection set. The paper's deployment runs
    /// thread-per-core; default is the host's parallelism capped at 4 so
    /// test clusters with several in-process servers do not oversubscribe.
    pub io_threads: usize,
    /// Socket read chunk size.
    pub read_chunk: usize,
}

impl Default for NetServerConfig {
    fn default() -> Self {
        let cores = std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1);
        NetServerConfig {
            io_threads: cores.min(4),
            read_chunk: 64 << 10,
        }
    }
}

/// Shared server state consulted by every I/O thread.
struct ServerCtx {
    /// Shard-routed workers (`frame.shard` → worker).
    workers: HashMap<u32, Arc<Worker>>,
    /// Hosted shards in id order, echoed in every `HelloAck`.
    shards: Vec<ShardId>,
    /// Highest epoch accepted per session, for zombie-connection fencing.
    /// Striped by session: reconnect storms on different sessions fence on
    /// different locks. Shared across I/O threads because a reconnect may
    /// land elsewhere.
    epochs: StripedMap<SessionId, u32>,
}

/// Per-I/O-thread reusable buffers: one read chunk plus decode/execute
/// scratch, so a steady-state request allocates nothing on this thread.
struct IoScratch {
    /// Socket read staging (pooled).
    read: ScratchLease,
    /// Decoded ops of the frame being handled.
    ops: Vec<ClusterOp>,
    /// Results of the batch being executed.
    results: Vec<OpResult>,
    /// Decoded batch header (its `deps` vector is reused across frames).
    header: BatchHeader,
}

impl IoScratch {
    fn new(read_chunk: usize) -> IoScratch {
        IoScratch {
            read: BufferPool::global().acquire_scratch(read_chunk),
            ops: Vec::new(),
            results: Vec::new(),
            header: BatchHeader {
                session: SessionId(0),
                world_line: dpr_core::WorldLine(0),
                version_lower_bound: dpr_core::Version(0),
                deps: Vec::new(),
                first_serial: 0,
                op_count: 0,
            },
        }
    }
}

/// One client connection owned by an I/O thread.
struct Conn {
    stream: TcpStream,
    /// Received-but-unparsed bytes (pooled).
    rd: ScratchLease,
    /// Encoded-but-unsent bytes (`wr[wr_pos..]` is pending; pooled).
    wr: ScratchLease,
    wr_pos: usize,
    /// Set by a successful `Hello`.
    session: Option<(SessionId, u32)>,
    /// Frames are still read and handled. A closed connection lingers only
    /// until its queued bytes are flushed.
    open: bool,
    /// The peer has finished sending; set by `fill`, which leaves closing
    /// to the caller so the frames already buffered are handled first.
    eof: bool,
}

impl Conn {
    fn new(stream: TcpStream) -> Conn {
        let pool = BufferPool::global();
        Conn {
            stream,
            rd: pool.acquire_scratch(4 << 10),
            wr: pool.acquire_scratch(4 << 10),
            wr_pos: 0,
            session: None,
            open: true,
            eof: false,
        }
    }

    /// Encode one outbound frame into the write buffer via `f` and record
    /// it as transmitted (the flush loop below drains the buffer as the
    /// socket allows).
    fn queue_with<F: FnOnce(&mut Vec<u8>)>(&mut self, f: F) {
        let before = self.wr.len();
        f(&mut self.wr);
        metrics::net_frames_tx().inc();
        metrics::net_frame_bytes().record((self.wr.len() - before) as u64);
    }

    /// Bytes queued but not yet written to the socket.
    fn has_unsent(&self) -> bool {
        self.wr_pos < self.wr.len()
    }

    /// Write pending bytes without blocking. Returns whether progress was
    /// made. A hard error closes the connection and discards what could
    /// not be sent, so the connection is not kept waiting for a socket
    /// that will never take it.
    fn flush(&mut self) -> bool {
        let mut progressed = false;
        while self.has_unsent() {
            match self.stream.write(&self.wr[self.wr_pos..]) {
                Ok(n) if n > 0 => {
                    self.wr_pos += n;
                    progressed = true;
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Ok(_) | Err(_) => {
                    self.open = false;
                    self.wr_pos = self.wr.len();
                    break;
                }
            }
        }
        if self.wr_pos == self.wr.len() && self.wr_pos > 0 {
            self.wr.clear();
            self.wr_pos = 0;
        } else if self.wr_pos > 64 << 10 {
            // Reclaim the sent prefix of a long-lived backlog.
            self.wr.drain(..self.wr_pos);
            self.wr_pos = 0;
        }
        progressed
    }

    /// Read whatever the socket has ready. Returns whether bytes arrived.
    fn fill(&mut self, chunk: usize, scratch: &mut Vec<u8>) -> bool {
        let mut progressed = false;
        loop {
            scratch.resize(chunk, 0);
            match self.stream.read(scratch) {
                Ok(0) => {
                    // EOF: peer closed. Frames already buffered still get
                    // handled; a dangling partial frame is simply dropped
                    // (the truncation is the peer's, not ours to answer).
                    self.eof = true;
                    break;
                }
                Ok(n) => {
                    self.rd.extend_from_slice(&scratch[..n]);
                    progressed = true;
                    if n < chunk {
                        break;
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(_) => {
                    self.open = false;
                    break;
                }
            }
        }
        progressed
    }

    /// Send a protocol error; close the connection unless the code is
    /// recoverable.
    fn proto_error(&mut self, code: ProtoErrorCode, seq: u64, detail: impl Into<String>) {
        metrics::net_frame_rejects().inc();
        let err = ProtoError {
            code,
            detail: detail.into(),
        };
        self.queue_with(|wr| err.encode(wr, seq));
        if !code.recoverable() {
            self.open = false;
        }
    }
}

/// One frame lifted out of the read buffer into owned (pool-backed) form,
/// so the connection can be mutated while it is handled.
enum ParsedFrame {
    Hello(Hello),
    /// Body copied once into a pooled shared buffer; ops will be zero-copy
    /// slices of it.
    Request {
        shard: u32,
        seq: u64,
        body: Bytes,
    },
    CutReq {
        seq: u64,
    },
    Goodbye,
    /// A server-only kind arrived at the server.
    ServerOnly {
        kind: FrameKind,
        seq: u64,
    },
    /// The header was fine but the body failed to parse.
    Malformed {
        seq: u64,
        detail: String,
    },
}

/// Lift one frame's body out of the read buffer. Borrows `body` only for
/// the duration of the copy/parse, returning owned data.
fn parse_frame(h: &wire::FrameHeader, body: &[u8]) -> ParsedFrame {
    match h.kind {
        FrameKind::Hello => match Hello::from_body(body) {
            Ok(hello) => ParsedFrame::Hello(hello),
            Err(e) => ParsedFrame::Malformed {
                seq: h.seq,
                detail: e.to_string(),
            },
        },
        FrameKind::Request => {
            // One copy, read buffer → pooled shared buffer. Everything
            // downstream (keys, values handed to the shard) is a zero-copy
            // view of this allocation; it recycles when the views drop.
            let mut lease = BufferPool::global().acquire_shared(body.len());
            lease.data_mut()[..body.len()].copy_from_slice(body);
            ParsedFrame::Request {
                shard: h.shard,
                seq: h.seq,
                body: lease.freeze(body.len()),
            }
        }
        FrameKind::CutReq => ParsedFrame::CutReq { seq: h.seq },
        FrameKind::Goodbye => ParsedFrame::Goodbye,
        FrameKind::HelloAck | FrameKind::Response | FrameKind::CutResp | FrameKind::Error => {
            ParsedFrame::ServerOnly {
                kind: h.kind,
                seq: h.seq,
            }
        }
    }
}

/// Parse and handle every complete frame in `conn.rd`. Returns whether any
/// frame was handled.
fn drain_frames(conn: &mut Conn, ctx: &ServerCtx, scratch: &mut IoScratch) -> bool {
    let mut consumed = 0usize;
    let mut progressed = false;
    loop {
        let header = match wire::decode_header(&conn.rd[consumed..]) {
            Ok(Some(h)) => h,
            Ok(None) => break,
            Err(e) => {
                // Malformed header: the stream cannot be resynchronised.
                conn.proto_error(ProtoErrorCode::BadFrame, 0, e.to_string());
                break;
            }
        };
        let total = header.frame_len();
        if conn.rd.len() - consumed < total {
            break;
        }
        metrics::net_frames_rx().inc();
        metrics::net_frame_bytes().record(total as u64);
        // Release the previous frame's zero-copy views before acquiring the
        // next pooled body: while `scratch.ops` still borrows the old buffer
        // the pool sees it busy and must evict + allocate instead of reusing.
        scratch.ops.clear();
        scratch.results.clear();
        let parsed = parse_frame(
            &header,
            &conn.rd[consumed + wire::FRAME_HEADER_LEN..consumed + total],
        );
        consumed += total;
        progressed = true;
        apply_frame(conn, ctx, parsed, scratch);
        if !conn.open {
            break;
        }
    }
    if consumed > 0 {
        conn.rd.drain(..consumed);
    }
    progressed
}

fn apply_frame(conn: &mut Conn, ctx: &ServerCtx, parsed: ParsedFrame, scratch: &mut IoScratch) {
    match parsed {
        ParsedFrame::Hello(hello) => {
            {
                let mut epochs = ctx.epochs.lock_for(&hello.session);
                let latest = epochs.entry(hello.session).or_insert(0);
                if hello.epoch < *latest {
                    drop(epochs);
                    conn.proto_error(
                        ProtoErrorCode::StaleEpoch,
                        0,
                        format!("epoch {} < accepted", hello.epoch),
                    );
                    return;
                }
                *latest = hello.epoch;
            }
            conn.session = Some((hello.session, hello.epoch));
            let world_line = ctx
                .workers
                .values()
                .next()
                .map(|w| w.world_line())
                .unwrap_or(hello.world_line);
            let ack = HelloAck {
                epoch: hello.epoch,
                world_line,
                shards: ctx.shards.clone(),
            };
            conn.queue_with(|wr| ack.encode(wr));
        }
        ParsedFrame::Request { shard, seq, body } => {
            handle_request(conn, ctx, shard, seq, &body, scratch);
        }
        ParsedFrame::CutReq { seq } => {
            let outcome = ctx
                .workers
                .values()
                .next()
                .ok_or(DprError::Closed)
                .and_then(|w| w.read_cut_cached());
            match outcome {
                Ok(snapshot) => {
                    let (world_line, ref cut) = *snapshot;
                    conn.queue_with(|wr| wire::encode_cut_response(wr, seq, world_line, cut));
                }
                Err(e) => {
                    conn.proto_error(ProtoErrorCode::BadFrame, seq, e.to_string());
                }
            }
        }
        ParsedFrame::Goodbye => {
            conn.open = false;
        }
        ParsedFrame::ServerOnly { kind, seq } => {
            conn.proto_error(
                ProtoErrorCode::BadFrame,
                seq,
                format!("client sent server-only frame {kind:?}"),
            );
        }
        ParsedFrame::Malformed { seq, detail } => {
            conn.proto_error(ProtoErrorCode::BadFrame, seq, detail);
        }
    }
}

/// The request hot path: zero-copy decode into reused buffers, in-place
/// execution, direct response encode. No heap allocation in steady state.
fn handle_request(
    conn: &mut Conn,
    ctx: &ServerCtx,
    shard: u32,
    seq: u64,
    body: &Bytes,
    scratch: &mut IoScratch,
) {
    if conn.session.is_none() {
        conn.proto_error(
            ProtoErrorCode::HandshakeRequired,
            seq,
            "Request before Hello",
        );
        return;
    }
    let Some(worker) = ctx.workers.get(&shard) else {
        conn.proto_error(
            ProtoErrorCode::UnknownShard,
            seq,
            format!("shard {shard} not hosted here"),
        );
        return;
    };
    scratch.ops.clear();
    if let Err(e) = wire::decode_request_body_into(body, &mut scratch.ops, &mut scratch.header) {
        conn.proto_error(ProtoErrorCode::BadFrame, seq, e.to_string());
        return;
    }
    let header = &scratch.header;
    if worker.dedupe_enabled() {
        match worker.dedupe_check(header) {
            // First delivery still executing (its connection died
            // mid-batch, or raced this one): the client retries.
            Some(None) => {
                conn.proto_error(
                    ProtoErrorCode::DuplicateInFlight,
                    seq,
                    "batch already executing",
                );
                return;
            }
            Some(Some((reply, results))) => {
                conn.queue_with(|wr| {
                    wire::encode_response(wr, shard, seq, Ok((&reply, &results)));
                });
                return;
            }
            None => {}
        }
    }
    scratch.results.clear();
    match worker.execute_local_into(header, &scratch.ops, &mut scratch.results) {
        Ok(reply) => {
            if worker.dedupe_enabled() {
                worker.dedupe_record_parts(header, Ok((&reply, &scratch.results)));
            }
            conn.queue_with(|wr| {
                wire::encode_response(wr, shard, seq, Ok((&reply, &scratch.results)));
            });
        }
        Err(e) => {
            if worker.dedupe_enabled() {
                worker.dedupe_record_parts(header, Err(&e));
            }
            conn.queue_with(|wr| wire::encode_response(wr, shard, seq, Err(&e)));
        }
    }
}

fn io_loop(
    rx: &crossbeam::channel::Receiver<TcpStream>,
    wake: &Wake,
    ctx: &Arc<ServerCtx>,
    stop: &Arc<AtomicBool>,
    cfg: &NetServerConfig,
) {
    let mut conns: Vec<Conn> = Vec::new();
    let mut scratch = IoScratch::new(cfg.read_chunk);
    let mut backoff = dpr_core::Backoff::new();
    let mut fds: Vec<PollFd> = Vec::new();
    loop {
        let mut progressed = false;
        // Fan-in: adopt connections the acceptor has assigned to us.
        while let Ok(stream) = rx.try_recv() {
            stream.set_nonblocking(true).ok();
            stream.set_nodelay(true).ok();
            conns.push(Conn::new(stream));
            metrics::net_conns_active().add(1);
            progressed = true;
        }
        if stop.load(Ordering::Acquire) {
            // Clean shutdown: tell every peer, best-effort flush, exit.
            for conn in &mut conns {
                conn.queue_with(|wr| wire::encode_control(wr, FrameKind::Goodbye, 0));
                conn.flush();
            }
            metrics::net_conns_active().sub(conns.len() as i64);
            return;
        }
        for conn in &mut conns {
            if conn.open {
                progressed |= conn.fill(cfg.read_chunk, &mut scratch.read);
                progressed |= drain_frames(conn, ctx, &mut scratch);
                if conn.eof {
                    conn.open = false;
                }
            }
            progressed |= conn.flush();
        }
        let before = conns.len();
        conns.retain(|c| c.open || c.has_unsent());
        metrics::net_conns_active().sub((before - conns.len()) as i64);
        if progressed {
            backoff.reset();
        } else if !backoff.is_waiting_long() {
            backoff.snooze();
        } else {
            // Block until a socket or the wake handle is ready.
            fds.clear();
            fds.push(wake.poll_fd());
            fds.extend(conns.iter().map(|c| {
                let mut events = if c.open { POLLIN } else { 0 };
                if c.has_unsent() {
                    events |= POLLOUT;
                }
                PollFd::new(c.stream.as_raw_fd(), events)
            }));
            metrics::net_io_waits().inc();
            // A failed wait (the kernel is out of memory) only costs one
            // more spin round.
            let _ = readiness::wait(&mut fds, None);
            if fds[0].ready() {
                // Before the loop re-checks the hand-off channel and the
                // stop flag.
                wake.clear();
            }
        }
    }
}

/// A running network-plane server. Dropping it without calling
/// [`NetServer::shutdown`] stops and wakes the threads, which then send
/// `Goodbye` and exit on their own, but does not join them.
pub struct NetServer {
    stop: Arc<AtomicBool>,
    /// Wake handles of the acceptor and of every I/O thread.
    wakes: Vec<Wake>,
    local_addr: SocketAddr,
    accept: Option<std::thread::JoinHandle<()>>,
    io: Vec<std::thread::JoinHandle<()>>,
}

impl NetServer {
    /// Serve `workers` on `listener` until [`NetServer::shutdown`].
    ///
    /// Every worker is reachable through the one listener; requests route
    /// by the frame header's `shard` field.
    pub fn start(
        workers: Vec<Arc<Worker>>,
        listener: TcpListener,
        config: NetServerConfig,
    ) -> Result<NetServer> {
        if workers.is_empty() {
            return Err(DprError::Invalid(
                "NetServer needs at least one worker".into(),
            ));
        }
        listener.set_nonblocking(true)?;
        let local_addr = listener.local_addr()?;
        let mut shards: Vec<ShardId> = workers.iter().map(|w| w.shard()).collect();
        shards.sort_unstable();
        let ctx = Arc::new(ServerCtx {
            workers: workers.into_iter().map(|w| (w.shard().0, w)).collect(),
            shards,
            epochs: StripedMap::with_default_stripes(),
        });
        let stop = Arc::new(AtomicBool::new(false));
        let io_threads = config.io_threads.max(1);
        let accept_wake = Wake::new()?;
        let io_wakes = (0..io_threads)
            .map(|_| Wake::new())
            .collect::<std::io::Result<Vec<Wake>>>()?;
        let mut senders = Vec::with_capacity(io_threads);
        let mut io = Vec::with_capacity(io_threads);
        for (i, wake) in io_wakes.iter().enumerate() {
            let (tx, rx) = crossbeam::channel::unbounded::<TcpStream>();
            senders.push(tx);
            let wake = wake.clone();
            let ctx = ctx.clone();
            let stop = stop.clone();
            let cfg = config.clone();
            io.push(
                std::thread::Builder::new()
                    .name(format!("dpr-net-io-{i}"))
                    .spawn(move || io_loop(&rx, &wake, &ctx, &stop, &cfg))
                    .expect("spawn net io thread"),
            );
        }
        let accept = {
            let stop = stop.clone();
            let wake = accept_wake.clone();
            let io_wakes = io_wakes.clone();
            std::thread::Builder::new()
                .name("dpr-net-accept".into())
                .spawn(move || accept_loop(&listener, &senders, &wake, &io_wakes, &stop))
                .expect("spawn net accept thread")
        };
        let mut wakes = io_wakes;
        wakes.push(accept_wake);
        Ok(NetServer {
            stop,
            wakes,
            local_addr,
            accept: Some(accept),
            io,
        })
    }

    /// The bound address (useful with port 0).
    #[must_use]
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Set the stop flag, then wake every thread so it sees it.
    fn signal_stop(&self) {
        self.stop.store(true, Ordering::Release);
        for wake in &self.wakes {
            wake.wake();
        }
    }

    /// Signal shutdown and join every thread: the acceptor, then each I/O
    /// thread after it has sent `Goodbye` to its connections. No detached
    /// threads survive.
    pub fn shutdown(mut self) {
        self.signal_stop();
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
        for h in self.io.drain(..) {
            let _ = h.join();
        }
    }
}

impl Drop for NetServer {
    fn drop(&mut self) {
        self.signal_stop();
    }
}

/// The acceptor: hand each new connection to the next I/O thread in turn
/// and wake it; block on the listener and `wake` in between.
fn accept_loop(
    listener: &TcpListener,
    senders: &[crossbeam::channel::Sender<TcpStream>],
    wake: &Wake,
    io_wakes: &[Wake],
    stop: &AtomicBool,
) {
    let mut next = 0usize;
    loop {
        if stop.load(Ordering::Acquire) {
            return;
        }
        match listener.accept() {
            Ok((stream, _)) => {
                let i = next % senders.len();
                let _ = senders[i].send(stream);
                io_wakes[i].wake();
                next = next.wrapping_add(1);
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                let mut fds = [PollFd::new(listener.as_raw_fd(), POLLIN), wake.poll_fd()];
                // A failed wait (the kernel is out of memory) only costs
                // one more `accept` attempt.
                let _ = readiness::wait(&mut fds, None);
                if fds[1].ready() {
                    wake.clear();
                }
            }
            // Listener gone (closed or errored): stop the whole server
            // rather than leaking a dead acceptor.
            Err(_) => {
                stop.store(true, Ordering::Release);
                for w in io_wakes {
                    w.wake();
                }
                return;
            }
        }
    }
}
