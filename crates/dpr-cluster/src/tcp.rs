//! TCP clients for the real network plane.
//!
//! The server side lives in [`crate::net`] (non-blocking fan-in
//! [`NetServer`](crate::NetServer)); the byte-level contract lives in
//! [`crate::wire`] and is specified in `docs/NETWORK.md`. This module
//! provides the two client shapes:
//!
//! * [`TcpClient`] — synchronous request/response, one batch at a time,
//!   with a configurable read deadline. The simplest correct client; used
//!   by the integration tests and as the worked example in the docs.
//! * [`PipelinedClient`] — one connection, many batches in flight
//!   (windowing is the caller's policy), duplicate-safe retransmission and
//!   reconnect-with-epoch-bump. This is the client the `netload` generator
//!   drives, and its request/response path is allocation-free in steady
//!   state: frames encode into recycled buffers that double as the
//!   retransmission record, receive buffers are pooled, and response
//!   bodies land in pooled shared buffers whose values are zero-copy
//!   views ([`bytes::Bytes`]).
//!
//! Both keep their socket non-blocking: a receive reads whatever is ready
//! and, only if nothing was, blocks in `ppoll(2)` (module `readiness`)
//! for exactly the time the caller allows. A send that finds the socket
//! buffer full blocks the same way until it has room.

use crate::message::{ClusterOp, OpResult};
use crate::readiness::{self, POLLIN, POLLOUT};
use crate::wire::{
    self, CutResponse, Frame, FrameKind, Hello, HelloAck, ProtoError, ProtoErrorCode,
};
use bytes::Bytes;
use dpr_core::{BufferPool, DprError, Result, ScratchLease, ShardId, WorldLine};
use libdpr::{BatchHeader, DprClientSession};
use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

pub use crate::wire::{WireRequest, WireResponse};

/// Default read deadline for synchronous calls: long enough for a worker
/// mid-checkpoint, short enough that a hung worker surfaces as a typed
/// [`DprError::Timeout`] instead of blocking the client forever.
pub const DEFAULT_READ_TIMEOUT: Duration = Duration::from_secs(10);

/// Encoded-request buffers a [`PipelinedClient`] keeps for reuse once their
/// batch completes.
const SPARE_BUFFERS: usize = 256;

/// Bytes one receive call reads from the socket at most.
const READ_CHUNK: usize = 64 << 10;

/// One framed connection with pooled receive and encode buffers.
struct FramedConn {
    addr: SocketAddr,
    stream: TcpStream,
    /// Received-but-unparsed bytes (pooled).
    rd: ScratchLease,
    /// Outbound encode staging (pooled), cleared per send.
    enc: ScratchLease,
    next_seq: u64,
}

impl FramedConn {
    fn dial(addr: SocketAddr) -> Result<FramedConn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true).ok();
        stream.set_nonblocking(true)?;
        let pool = BufferPool::global();
        Ok(FramedConn {
            addr,
            stream,
            rd: pool.acquire_scratch(16 << 10),
            enc: pool.acquire_scratch(4 << 10),
            next_seq: 1,
        })
    }

    /// Encode one frame via `f` into the recycled staging buffer and write
    /// it out — no per-send allocation.
    fn send_with<F: FnOnce(&mut Vec<u8>)>(&mut self, f: F) -> Result<()> {
        self.enc.clear();
        f(&mut self.enc);
        write_all(&self.stream, &self.enc)
    }

    /// Write an already-encoded frame (a [`PipelinedClient`] in-flight
    /// record) verbatim.
    fn send_bytes(&mut self, frame: &[u8]) -> Result<()> {
        write_all(&self.stream, frame)
    }

    /// Pop the next complete frame from the buffer, if any (owned-`Frame`
    /// tier, used by the synchronous client).
    fn pop_frame(&mut self) -> Result<Option<Frame>> {
        match wire::decode_frame(&self.rd)? {
            Some((frame, used)) => {
                self.rd.drain(..used);
                Ok(Some(frame))
            }
            None => Ok(None),
        }
    }

    /// Pop the next complete frame, lifting its body into a pooled shared
    /// buffer: result values decoded from it are zero-copy views, and the
    /// buffer recycles when they drop. The allocation-free twin of
    /// [`FramedConn::pop_frame`].
    fn pop_frame_pooled(&mut self) -> Result<Option<(wire::FrameHeader, Bytes)>> {
        let header = match wire::decode_header(&self.rd)? {
            Some(h) => h,
            None => return Ok(None),
        };
        let total = header.frame_len();
        if self.rd.len() < total {
            return Ok(None);
        }
        let body = &self.rd[wire::FRAME_HEADER_LEN..total];
        let mut lease = BufferPool::global().acquire_shared(body.len());
        lease.data_mut()[..body.len()].copy_from_slice(body);
        let body = lease.freeze(body.len());
        self.rd.drain(..total);
        Ok(Some((header, body)))
    }

    /// Blocking frame read with a deadline. [`DprError::Timeout`] once the
    /// deadline passes without a complete frame.
    fn recv_deadline(&mut self, deadline: Instant) -> Result<Frame> {
        loop {
            if let Some(frame) = self.pop_frame()? {
                return Ok(frame);
            }
            if self.read_ready()? {
                continue;
            }
            let remaining = deadline
                .checked_duration_since(Instant::now())
                .ok_or(DprError::Timeout)?;
            readiness::wait_one(&self.stream, POLLIN, Some(remaining))?;
        }
    }

    /// Read whatever is available; only if nothing is, wait up to `wait`
    /// for bytes to arrive.
    fn recv_available(&mut self, wait: Duration) -> Result<()> {
        if !self.read_ready()? && !wait.is_zero() {
            readiness::wait_one(&self.stream, POLLIN, Some(wait))?;
            self.read_ready()?;
        }
        Ok(())
    }

    /// Read the bytes the socket has ready, without blocking. Returns
    /// whether any arrived; [`DprError::Closed`] if the peer closed and
    /// nothing did. A short read means the socket was drained, so it ends
    /// the call without one more `read` to see `WouldBlock`.
    fn read_ready(&mut self) -> Result<bool> {
        let mut chunk = [0u8; READ_CHUNK];
        let mut got = false;
        loop {
            match self.stream.read(&mut chunk) {
                Ok(0) if got => return Ok(true),
                Ok(0) => return Err(DprError::Closed),
                Ok(n) => {
                    self.rd.extend_from_slice(&chunk[..n]);
                    got = true;
                    if n < READ_CHUNK {
                        return Ok(true);
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return Ok(got),
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e.into()),
            }
        }
    }

    /// Run the handshake on a fresh connection.
    fn handshake(
        &mut self,
        session: &DprClientSession,
        epoch: u32,
        deadline: Instant,
    ) -> Result<HelloAck> {
        let hello = Hello {
            session: session.id(),
            epoch,
            world_line: session.world_line(),
        };
        self.send_with(|out| hello.encode(out))?;
        let frame = self.recv_deadline(deadline)?;
        match frame.kind {
            FrameKind::HelloAck => {
                let ack = HelloAck::from_frame(&frame)?;
                if ack.epoch != epoch {
                    return Err(DprError::Invalid(format!(
                        "handshake echoed epoch {} != {epoch}",
                        ack.epoch
                    )));
                }
                Ok(ack)
            }
            FrameKind::Error => Err(ProtoError::from_frame(&frame)?.to_dpr_error()),
            k => Err(DprError::Invalid(format!("expected HelloAck, got {k:?}"))),
        }
    }
}

/// Write all of `buf` to the non-blocking `stream`, waiting for room in
/// the socket buffer whenever it is full.
fn write_all(mut stream: &TcpStream, mut buf: &[u8]) -> Result<()> {
    while !buf.is_empty() {
        match stream.write(buf) {
            Ok(0) => return Err(DprError::Closed),
            Ok(n) => buf = &buf[n..],
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                readiness::wait_one(stream, POLLOUT, None)?;
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e.into()),
        }
    }
    Ok(())
}

/// A synchronous TCP client multiplexing one [`DprClientSession`] over the
/// network plane: one connection per distinct server address, one batch in
/// flight at a time.
pub struct TcpClient {
    session: DprClientSession,
    epoch: u32,
    read_timeout: Duration,
    /// Distinct server connections.
    conns: Vec<FramedConn>,
    /// Shard → index into `conns`.
    routes: HashMap<ShardId, usize>,
}

impl TcpClient {
    /// Connect to each shard's server and run the session handshake.
    /// Shards sharing an address share one connection (the fan-in server
    /// hosts many shards behind one listener).
    pub fn connect(
        session: DprClientSession,
        addrs: &HashMap<ShardId, SocketAddr>,
    ) -> Result<TcpClient> {
        let mut client = TcpClient {
            session,
            epoch: 1,
            read_timeout: DEFAULT_READ_TIMEOUT,
            conns: Vec::new(),
            routes: HashMap::new(),
        };
        let deadline = Instant::now() + client.read_timeout;
        let mut by_addr: HashMap<SocketAddr, usize> = HashMap::new();
        for (&shard, &addr) in addrs {
            let idx = match by_addr.get(&addr) {
                Some(&idx) => idx,
                None => {
                    let mut conn = FramedConn::dial(addr)?;
                    conn.handshake(&client.session, client.epoch, deadline)?;
                    client.conns.push(conn);
                    let idx = client.conns.len() - 1;
                    by_addr.insert(addr, idx);
                    idx
                }
            };
            client.routes.insert(shard, idx);
        }
        Ok(client)
    }

    /// Replace the read deadline applied to every synchronous call
    /// (default [`DEFAULT_READ_TIMEOUT`]). A hung worker then surfaces as
    /// [`DprError::Timeout`] instead of blocking forever.
    pub fn set_read_timeout(&mut self, timeout: Duration) {
        self.read_timeout = timeout;
    }

    /// The underlying DPR session (commit tracking, failure handling).
    pub fn session_mut(&mut self) -> &mut DprClientSession {
        &mut self.session
    }

    /// Tear down every connection and dial again with a bumped epoch —
    /// the reconnect path after a network failure or server restart.
    /// In-flight state is per-call in this client, so nothing is replayed.
    pub fn reconnect(&mut self) -> Result<()> {
        self.epoch += 1;
        let deadline = Instant::now() + self.read_timeout;
        for conn in &mut self.conns {
            let mut fresh = FramedConn::dial(conn.addr)?;
            fresh.handshake(&self.session, self.epoch, deadline)?;
            fresh.next_seq = conn.next_seq;
            *conn = fresh;
        }
        Ok(())
    }

    fn conn_for(&mut self, shard: ShardId) -> Result<&mut FramedConn> {
        let idx = *self
            .routes
            .get(&shard)
            .ok_or_else(|| DprError::Invalid(format!("no connection to {shard}")))?;
        Ok(&mut self.conns[idx])
    }

    /// Execute a batch on `shard` synchronously over the wire.
    ///
    /// Returns [`DprError::Timeout`] if no response arrives within the
    /// configured read deadline; the connection is then left with the
    /// orphaned response still pending, so callers should
    /// [`TcpClient::reconnect`] before reusing the session.
    pub fn execute(&mut self, shard: ShardId, ops: Vec<ClusterOp>) -> Result<Vec<OpResult>> {
        let header = self.session.begin_batch(shard, ops.len() as u32)?;
        let deadline = Instant::now() + self.read_timeout;
        let conn = self.conn_for(shard)?;
        let seq = conn.next_seq;
        conn.next_seq += 1;
        conn.send_with(|out| wire::encode_request(out, shard, seq, &header, &ops))?;
        loop {
            let frame = conn.recv_deadline(deadline)?;
            match frame.kind {
                FrameKind::Response if frame.seq == seq => {
                    let resp = WireResponse::from_frame(&frame)?;
                    let (reply, results) = resp.outcome?;
                    self.session.process_reply(&reply)?;
                    return Ok(results);
                }
                // A stale response (e.g. from before a timeout) — skip.
                FrameKind::Response => {}
                FrameKind::Error => {
                    return Err(ProtoError::from_frame(&frame)?.to_dpr_error());
                }
                FrameKind::Goodbye => return Err(DprError::Closed),
                k => {
                    return Err(DprError::Invalid(format!(
                        "unexpected frame {k:?} awaiting response"
                    )))
                }
            }
        }
    }

    /// Fetch the DPR cut over the wire and advance this session's
    /// committed prefix, returning the new prefix length.
    ///
    /// Mirrors `SessionHandle::refresh_commit_safe`: the cut is applied
    /// only while the server is still on this session's world-line.
    pub fn refresh_commit_over_wire(&mut self) -> Result<u64> {
        let deadline = Instant::now() + self.read_timeout;
        let conn = self
            .conns
            .first_mut()
            .ok_or_else(|| DprError::Invalid("client has no connections".into()))?;
        let seq = conn.next_seq;
        conn.next_seq += 1;
        conn.send_with(|out| wire::encode_control(out, FrameKind::CutReq, seq))?;
        loop {
            let frame = conn.recv_deadline(deadline)?;
            match frame.kind {
                FrameKind::CutResp if frame.seq == seq => {
                    let resp = CutResponse::from_frame(&frame)?;
                    let mine = self.session.world_line();
                    if resp.world_line != mine {
                        return Err(DprError::WorldLineMismatch {
                            requested: mine,
                            current: resp.world_line,
                        });
                    }
                    return Ok(self.session.refresh_commit(&resp.cut));
                }
                FrameKind::Response | FrameKind::CutResp => {}
                FrameKind::Error => {
                    return Err(ProtoError::from_frame(&frame)?.to_dpr_error());
                }
                FrameKind::Goodbye => return Err(DprError::Closed),
                k => {
                    return Err(DprError::Invalid(format!(
                        "unexpected frame {k:?} awaiting cut"
                    )))
                }
            }
        }
    }
}

/// One batch awaiting its response on a [`PipelinedClient`].
///
/// Holds the *encoded frame bytes* — which double as the retransmission
/// record, so retries rewrite the identical frame without re-encoding —
/// plus the scalar header facts the completion path needs. The buffer is
/// recycled into the client's spare list when the batch completes.
struct InflightBatch {
    /// The encoded `Request` frame, exactly as first sent.
    bytes: Vec<u8>,
    /// Serial of the first op (for the caller's completion accounting).
    first_serial: u64,
    /// World-line the batch was issued on (for mismatch reporting).
    world_line: WorldLine,
    issued_at: Instant,
    sent_at: Instant,
}

/// A completed batch surfaced by [`PipelinedClient::poll`].
pub struct Completed {
    /// The wire sequence number (as returned by [`PipelinedClient::issue`]).
    pub seq: u64,
    /// Serial of the first op in the batch.
    pub first_serial: u64,
    /// When the batch was first issued (for latency accounting).
    pub issued_at: Instant,
    /// Per-op results, or the batch's rejection.
    pub result: Result<Vec<OpResult>>,
}

/// A completed batch surfaced by [`PipelinedClient::poll_each`] — results
/// borrow the client's reused decode scratch, so the steady-state
/// completion path allocates nothing.
pub struct CompletedRef<'a> {
    /// The wire sequence number (as returned by [`PipelinedClient::issue`]).
    pub seq: u64,
    /// Serial of the first op in the batch.
    pub first_serial: u64,
    /// When the batch was first issued (for latency accounting).
    pub issued_at: Instant,
    /// Per-op results, or the batch's rejection.
    pub result: std::result::Result<&'a [OpResult], DprError>,
}

/// A pipelined client session over one connection to a fan-in server: many
/// batches in flight, explicit polling, duplicate-safe retransmission, and
/// reconnect with an epoch bump. The windowing policy (how many batches to
/// keep in flight) belongs to the caller — typically the `netload`
/// closed-loop generator.
pub struct PipelinedClient {
    session: DprClientSession,
    epoch: u32,
    conn: FramedConn,
    /// Shards reachable through this connection (from the handshake).
    shards: Vec<ShardId>,
    inflight: HashMap<u64, InflightBatch>,
    /// Recycled encode buffers from completed batches.
    spare: Vec<Vec<u8>>,
    /// Reused header for issuing (deps vector rebuilt in place).
    header_scratch: BatchHeader,
    /// Reused results buffer for decoding responses.
    results_scratch: Vec<OpResult>,
    /// World-line mismatch observed but not yet surfaced via poll.
    world_line_failure: Option<WorldLine>,
}

impl PipelinedClient {
    /// Dial `addr` and run the session handshake.
    pub fn connect(session: DprClientSession, addr: SocketAddr) -> Result<PipelinedClient> {
        let mut conn = FramedConn::dial(addr)?;
        let ack = conn.handshake(&session, 1, Instant::now() + DEFAULT_READ_TIMEOUT)?;
        let world_line = session.world_line();
        let id = session.id();
        Ok(PipelinedClient {
            session,
            epoch: 1,
            conn,
            shards: ack.shards,
            inflight: HashMap::new(),
            spare: Vec::new(),
            header_scratch: BatchHeader {
                session: id,
                world_line,
                version_lower_bound: dpr_core::Version::ZERO,
                deps: Vec::new(),
                first_serial: 0,
                op_count: 0,
            },
            results_scratch: Vec::new(),
            world_line_failure: None,
        })
    }

    /// Shards the server advertised in its handshake.
    #[must_use]
    pub fn shards(&self) -> &[ShardId] {
        &self.shards
    }

    /// The underlying DPR session.
    pub fn session_mut(&mut self) -> &mut DprClientSession {
        &mut self.session
    }

    /// Batches issued but not yet completed.
    #[must_use]
    pub fn inflight(&self) -> usize {
        self.inflight.len()
    }

    /// Issue one batch without waiting; returns its wire sequence number.
    ///
    /// The ops are encoded straight into a recycled buffer (kept as the
    /// retransmission record until the batch completes), so callers can
    /// reuse their own op buffers across calls — steady state allocates
    /// nothing.
    pub fn issue(&mut self, shard: ShardId, ops: &[ClusterOp]) -> Result<u64> {
        self.session
            .begin_batch_into(shard, ops.len() as u32, &mut self.header_scratch)?;
        let header = &self.header_scratch;
        let seq = self.conn.next_seq;
        self.conn.next_seq += 1;
        let mut bytes = self.spare.pop().unwrap_or_default();
        wire::encode_request(&mut bytes, shard, seq, header, ops);
        let record = InflightBatch {
            bytes,
            first_serial: header.first_serial,
            world_line: header.world_line,
            issued_at: Instant::now(),
            sent_at: Instant::now(),
        };
        self.conn.send_bytes(&record.bytes)?;
        self.inflight.insert(seq, record);
        Ok(seq)
    }

    /// Fire-and-forget cut query; the answer is applied to the session's
    /// committed prefix inside [`PipelinedClient::poll`] when it arrives.
    pub fn request_cut(&mut self) -> Result<()> {
        let seq = self.conn.next_seq;
        self.conn.next_seq += 1;
        self.conn
            .send_with(|out| wire::encode_control(out, FrameKind::CutReq, seq))
    }

    /// Return a completed batch's encode buffer to the spare list.
    fn recycle(&mut self, mut bytes: Vec<u8>) {
        if self.spare.len() < SPARE_BUFFERS {
            bytes.clear();
            self.spare.push(bytes);
        }
    }

    /// Drain ready responses, waiting up to `wait` for bytes to arrive.
    ///
    /// Returns completed batches (order of completion). A world-line
    /// mismatch — the cluster failed and recovered underneath us — is
    /// surfaced as [`DprError::WorldLineMismatch`] *after* the completions
    /// that preceded it have been returned by earlier calls.
    pub fn poll(&mut self, wait: Duration) -> Result<Vec<Completed>> {
        let mut out = Vec::new();
        self.poll_each(wait, |c| {
            out.push(Completed {
                seq: c.seq,
                first_serial: c.first_serial,
                issued_at: c.issued_at,
                result: c.result.map(<[OpResult]>::to_vec),
            });
        })?;
        Ok(out)
    }

    /// [`PipelinedClient::poll`] without the per-batch allocations: each
    /// completion is handed to `f` as a [`CompletedRef`] whose results
    /// borrow a reused decode buffer. Returns the number of completions
    /// delivered. Semantics (cut handling, retryable protocol errors,
    /// world-line failure surfacing) are identical to `poll`.
    pub fn poll_each(
        &mut self,
        wait: Duration,
        mut f: impl FnMut(CompletedRef<'_>),
    ) -> Result<usize> {
        self.conn.recv_available(wait)?;
        let mut delivered = 0usize;
        while let Some((header, body)) = self.conn.pop_frame_pooled()? {
            match header.kind {
                FrameKind::Response => {
                    let Some(batch) = self.inflight.remove(&header.seq) else {
                        continue; // response to a superseded transmission
                    };
                    // Scratch is moved out so the borrow handed to `f`
                    // cannot alias the client while it runs.
                    let mut results = std::mem::take(&mut self.results_scratch);
                    results.clear();
                    let outcome = match wire::decode_response_body(&body, &mut results) {
                        Ok(o) => o,
                        Err(e) => {
                            self.results_scratch = results;
                            return Err(e);
                        }
                    };
                    let result: std::result::Result<&[OpResult], DprError> = match outcome {
                        Ok(reply) => match self.session.process_reply(&reply) {
                            Ok(()) => Ok(results.as_slice()),
                            Err(DprError::WorldLineMismatch { current, .. }) => {
                                self.world_line_failure = Some(current);
                                Err(DprError::WorldLineMismatch {
                                    requested: batch.world_line,
                                    current,
                                })
                            }
                            Err(e) => Err(e),
                        },
                        Err(e) => {
                            if let DprError::WorldLineMismatch { current, .. } = e {
                                self.world_line_failure = Some(current);
                            }
                            Err(e)
                        }
                    };
                    f(CompletedRef {
                        seq: header.seq,
                        first_serial: batch.first_serial,
                        issued_at: batch.issued_at,
                        result,
                    });
                    delivered += 1;
                    self.results_scratch = results;
                    self.recycle(batch.bytes);
                }
                FrameKind::CutResp => {
                    let resp = CutResponse::from_body(&body)?;
                    if resp.world_line == self.session.world_line() {
                        self.session.refresh_commit(&resp.cut);
                    }
                }
                FrameKind::Error => {
                    let err = ProtoError::from_body(&body)?;
                    match err.code {
                        // Retryable: the batch stays in flight and will be
                        // retransmitted by `retransmit_stalled`.
                        ProtoErrorCode::DuplicateInFlight => {}
                        _ => return Err(err.to_dpr_error()),
                    }
                }
                FrameKind::Goodbye => return Err(DprError::Closed),
                k => {
                    return Err(DprError::Invalid(format!(
                        "unexpected frame {k:?} on pipelined connection"
                    )))
                }
            }
        }
        if delivered == 0 {
            if let Some(current) = self.world_line_failure {
                return Err(DprError::WorldLineMismatch {
                    requested: self.session.world_line(),
                    current,
                });
            }
        }
        Ok(delivered)
    }

    /// Retransmit every batch whose response has been outstanding for at
    /// least `older_than`. Safe for non-idempotent ops only when the
    /// server runs duplicate suppression (`dedupe_window > 0`); see
    /// `docs/NETWORK.md` §6. Returns the number retransmitted.
    ///
    /// Resends are the stored frame bytes verbatim — same seq, same
    /// serials — which is what makes them safe to dedupe server-side.
    pub fn retransmit_stalled(&mut self, older_than: Duration) -> Result<usize> {
        let now = Instant::now();
        let mut resent = 0usize;
        let stalled: Vec<u64> = self
            .inflight
            .iter()
            .filter(|(_, b)| now.duration_since(b.sent_at) >= older_than)
            .map(|(&s, _)| s)
            .collect();
        for seq in stalled {
            let batch = self.inflight.get_mut(&seq).expect("collected above");
            batch.sent_at = now;
            self.conn.send_bytes(&batch.bytes)?;
            resent += 1;
        }
        Ok(resent)
    }

    /// Drop the connection, dial again with a bumped epoch, and retransmit
    /// every in-flight batch. The server's dedupe cache replays batches
    /// that executed before the disconnect, keeping them exactly-once.
    pub fn reconnect(&mut self) -> Result<()> {
        self.epoch += 1;
        let mut fresh = FramedConn::dial(self.conn.addr)?;
        let ack = fresh.handshake(
            &self.session,
            self.epoch,
            Instant::now() + DEFAULT_READ_TIMEOUT,
        )?;
        fresh.next_seq = self.conn.next_seq;
        self.conn = fresh;
        self.shards = ack.shards;
        let now = Instant::now();
        let seqs: Vec<u64> = self.inflight.keys().copied().collect();
        for seq in seqs {
            let batch = self.inflight.get_mut(&seq).expect("own key");
            batch.sent_at = now;
            self.conn.send_bytes(&batch.bytes)?;
        }
        Ok(())
    }
}
