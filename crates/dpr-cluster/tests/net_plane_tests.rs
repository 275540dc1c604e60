//! The real network plane: fan-in server, pipelined clients, reconnect
//! dedupe, and wire-level robustness (docs/NETWORK.md).

use dpr_cluster::wire::{
    self, Frame, FrameKind, Hello, ProtoError, ProtoErrorCode, WireRequest, WireResponse,
};
use dpr_cluster::{
    Cluster, ClusterConfig, ClusterOp, NetServer, NetServerConfig, OpResult, PipelinedClient,
    TcpClient,
};
use dpr_core::{DprError, Key, SessionId, ShardId, Token, Value, Version, WorldLine};
use libdpr::{BatchHeader, DprClientSession};
use proptest::prelude::*;
use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::time::{Duration, Instant};

/// A cluster with every worker served through one fan-in NetServer.
fn net_cluster(shards: usize, dedupe_window: usize) -> (Cluster, NetServer) {
    let cluster = Cluster::start(ClusterConfig {
        shards,
        checkpoint_interval: Some(Duration::from_millis(20)),
        finder_interval: Duration::from_millis(2),
        dedupe_window,
        ..ClusterConfig::default()
    })
    .unwrap();
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let server = NetServer::start(
        cluster.workers().to_vec(),
        listener,
        NetServerConfig {
            io_threads: 2,
            ..NetServerConfig::default()
        },
    )
    .unwrap();
    (cluster, server)
}

#[test]
fn fan_in_server_routes_shards_over_one_connection() {
    let (cluster, server) = net_cluster(3, 0);
    let addr = server.local_addr();
    let addrs: HashMap<ShardId, _> = cluster
        .workers()
        .iter()
        .map(|w| (w.shard(), addr))
        .collect();
    let mut client = TcpClient::connect(DprClientSession::new(SessionId(500)), &addrs).unwrap();

    for i in 0..60u64 {
        let key = Key::from_u64(i);
        let shard = cluster.owner_of(&key).unwrap();
        let results = client
            .execute(shard, vec![ClusterOp::Upsert(key, Value::from_u64(i))])
            .unwrap();
        assert_eq!(results, vec![OpResult::Done]);
    }
    for i in 0..60u64 {
        let key = Key::from_u64(i);
        let shard = cluster.owner_of(&key).unwrap();
        let results = client.execute(shard, vec![ClusterOp::Read(key)]).unwrap();
        assert_eq!(results, vec![OpResult::Value(Some(Value::from_u64(i)))]);
    }
    // Commit tracking entirely over the wire: no side channel to the
    // metadata store.
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        match client.refresh_commit_over_wire() {
            Ok(prefix) if prefix >= 120 => break,
            Ok(_) | Err(DprError::Timeout) => {}
            Err(e) => panic!("cut fetch failed: {e}"),
        }
        assert!(Instant::now() < deadline, "commits must arrive over wire");
        std::thread::sleep(Duration::from_millis(5));
    }
    assert_eq!(client.session_mut().committed_count(), 120);

    server.shutdown();
    cluster.shutdown();
}

#[test]
fn pipelined_sessions_keep_many_batches_in_flight() {
    let (cluster, server) = net_cluster(2, 0);
    let addr = server.local_addr();
    const SESSIONS: usize = 4;
    const BATCHES: u64 = 40;

    let mut clients: Vec<PipelinedClient> = (0..SESSIONS)
        .map(|i| {
            PipelinedClient::connect(DprClientSession::new(SessionId(600 + i as u64)), addr)
                .unwrap()
        })
        .collect();
    assert_eq!(clients[0].shards().len(), 2, "handshake advertises shards");

    // Issue a full window on every session before reading anything: the
    // server must sustain many batches in flight per connection.
    let mut issued = [0u64; SESSIONS];
    let mut completed = [0u64; SESSIONS];
    let deadline = Instant::now() + Duration::from_secs(30);
    while completed.iter().any(|&c| c < BATCHES) {
        assert!(Instant::now() < deadline, "pipelined run stalled");
        for (i, client) in clients.iter_mut().enumerate() {
            while issued[i] < BATCHES && client.inflight() < 8 {
                let key = Key::from_u64(i as u64 * 1000 + issued[i]);
                let shard = cluster.owner_of(&key).unwrap();
                client
                    .issue(shard, &[ClusterOp::Upsert(key, Value::from_u64(issued[i]))])
                    .unwrap();
                issued[i] += 1;
            }
            for done in client.poll(Duration::from_millis(5)).unwrap() {
                done.result.unwrap();
                completed[i] += 1;
            }
        }
    }
    for (i, client) in clients.iter_mut().enumerate() {
        assert_eq!(completed[i], BATCHES);
        assert_eq!(client.inflight(), 0);
        assert_eq!(client.session_mut().issued(), BATCHES);
    }

    server.shutdown();
    cluster.shutdown();
}

#[test]
fn reconnect_with_epoch_bump_is_exactly_once() {
    // Dedupe window on: the server replays cached replies for batches it
    // already executed, so a retransmit after reconnect cannot double-apply.
    let (cluster, server) = net_cluster(1, 256);
    let addr = server.local_addr();
    let shard = cluster.workers()[0].shard();
    let mut client = PipelinedClient::connect(DprClientSession::new(SessionId(700)), addr).unwrap();

    let key = Key::from_u64(42);
    const INCRS: u64 = 20;
    let mut completed = 0u64;
    for _ in 0..INCRS {
        client
            .issue(shard, &[ClusterOp::Incr(key.clone())])
            .unwrap();
    }
    // Let some execute, then force a reconnect with everything unacked
    // from the client's point of view.
    let deadline = Instant::now() + Duration::from_secs(10);
    while completed < INCRS / 2 && Instant::now() < deadline {
        completed += client.poll(Duration::from_millis(5)).unwrap().len() as u64;
    }
    client.reconnect().unwrap(); // retransmits all inflight batches
    let deadline = Instant::now() + Duration::from_secs(20);
    while completed < INCRS {
        assert!(Instant::now() < deadline, "reconnected run stalled");
        completed += client.poll(Duration::from_millis(5)).unwrap().len() as u64;
        client.retransmit_stalled(Duration::from_secs(2)).unwrap();
    }

    // Every increment applied exactly once despite the retransmissions.
    let read_seq = client.issue(shard, &[ClusterOp::Read(key)]).unwrap();
    let deadline = Instant::now() + Duration::from_secs(10);
    let value = loop {
        assert!(Instant::now() < deadline, "final read stalled");
        let done = client.poll(Duration::from_millis(5)).unwrap();
        if let Some(c) = done.into_iter().find(|c| c.seq == read_seq) {
            break c.result.unwrap();
        }
    };
    assert_eq!(value, vec![OpResult::Value(Some(Value::from_u64(INCRS)))]);

    server.shutdown();
    cluster.shutdown();
}

#[test]
fn stale_epoch_connections_are_fenced() {
    let (cluster, server) = net_cluster(1, 0);
    let addr = server.local_addr();
    let session = SessionId(800);

    // Epoch 3 accepted...
    let mut s1 = TcpStream::connect(addr).unwrap();
    let hello = Hello {
        session,
        epoch: 3,
        world_line: WorldLine(1),
    };
    let mut buf = Vec::new();
    hello.to_frame().encode_into(&mut buf);
    s1.write_all(&buf).unwrap();
    let frame = read_one_frame(&mut s1);
    assert_eq!(frame.kind, FrameKind::HelloAck);

    // ...so epoch 2 for the same session is a zombie and must be rejected.
    let mut s2 = TcpStream::connect(addr).unwrap();
    let stale = Hello {
        session,
        epoch: 2,
        world_line: WorldLine(1),
    };
    let mut buf = Vec::new();
    stale.to_frame().encode_into(&mut buf);
    s2.write_all(&buf).unwrap();
    let frame = read_one_frame(&mut s2);
    assert_eq!(frame.kind, FrameKind::Error);
    let err = ProtoError::from_frame(&frame).unwrap();
    assert_eq!(err.code, ProtoErrorCode::StaleEpoch);

    server.shutdown();
    cluster.shutdown();
}

#[test]
fn malformed_frames_are_rejected_and_other_conns_survive() {
    let (cluster, server) = net_cluster(1, 0);
    let addr = server.local_addr();
    let shard = cluster.workers()[0].shard();

    // A healthy client...
    let addrs: HashMap<ShardId, _> = [(shard, addr)].into_iter().collect();
    let mut healthy = TcpClient::connect(DprClientSession::new(SessionId(900)), &addrs).unwrap();

    // ...and a vandal sending garbage magic (long enough to cover a full
    // frame header — shorter garbage just looks like a partial frame).
    let mut vandal = TcpStream::connect(addr).unwrap();
    vandal
        .write_all(b"GET / HTTP/1.1\r\nHost: example.com\r\n\r\n")
        .unwrap();
    let frame = read_one_frame(&mut vandal);
    assert_eq!(frame.kind, FrameKind::Error);
    assert_eq!(
        ProtoError::from_frame(&frame).unwrap().code,
        ProtoErrorCode::BadFrame
    );
    // The server closes the poisoned connection.
    let mut rest = Vec::new();
    vandal.read_to_end(&mut rest).unwrap();

    // Unknown frame kind is equally fatal for that connection.
    let mut vandal = TcpStream::connect(addr).unwrap();
    let mut buf = Vec::new();
    wire::control_frame(FrameKind::CutReq, 1).encode_into(&mut buf);
    buf[5] = 200; // out-of-range kind byte
    vandal.write_all(&buf).unwrap();
    let frame = read_one_frame(&mut vandal);
    assert_eq!(frame.kind, FrameKind::Error);

    // A request before Hello is a handshake violation.
    let mut early = TcpStream::connect(addr).unwrap();
    let req = WireRequest {
        header: BatchHeader {
            session: SessionId(901),
            world_line: WorldLine(1),
            version_lower_bound: Version(0),
            deps: vec![],
            first_serial: 0,
            op_count: 1,
        },
        ops: vec![ClusterOp::Read(Key::from_u64(1))],
    };
    let mut buf = Vec::new();
    req.to_frame(shard, 7).encode_into(&mut buf);
    early.write_all(&buf).unwrap();
    let frame = read_one_frame(&mut early);
    assert_eq!(frame.kind, FrameKind::Error);
    assert_eq!(
        ProtoError::from_frame(&frame).unwrap().code,
        ProtoErrorCode::HandshakeRequired
    );

    // A truncated frame (half a body, then disconnect) must not wedge the
    // server: just drop the socket mid-frame.
    let mut trunc = TcpStream::connect(addr).unwrap();
    let mut buf = Vec::new();
    req.to_frame(shard, 8).encode_into(&mut buf);
    trunc.write_all(&buf[..buf.len() / 2]).unwrap();
    drop(trunc);

    // Through all of it the healthy connection keeps working.
    let results = healthy
        .execute(
            shard,
            vec![ClusterOp::Upsert(Key::from_u64(5), Value::from_u64(55))],
        )
        .unwrap();
    assert_eq!(results, vec![OpResult::Done]);

    server.shutdown();
    cluster.shutdown();
}

#[test]
fn unknown_shard_rejection_keeps_connection_open() {
    let (cluster, server) = net_cluster(1, 0);
    let addr = server.local_addr();
    let shard = cluster.workers()[0].shard();
    let mut client = PipelinedClient::connect(DprClientSession::new(SessionId(910)), addr).unwrap();

    // Route to a shard the server does not host: per the spec this is a
    // recoverable Error frame, not a connection teardown...
    let bogus = ShardId(99);
    client
        .issue(bogus, &[ClusterOp::Read(Key::from_u64(1))])
        .unwrap();
    let deadline = Instant::now() + Duration::from_secs(10);
    let err = loop {
        assert!(Instant::now() < deadline, "rejection never arrived");
        match client.poll(Duration::from_millis(50)) {
            Ok(done) if done.is_empty() => continue,
            Ok(_) => panic!("bogus shard must not complete"),
            Err(e) => break e,
        }
    };
    assert!(matches!(err, DprError::Invalid(_)), "got {err:?}");

    // ...so the same connection still serves real traffic.
    client
        .issue(shard, &[ClusterOp::Read(Key::from_u64(1))])
        .unwrap();
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        assert!(Instant::now() < deadline);
        let done = client.poll(Duration::from_millis(10)).unwrap();
        if !done.is_empty() {
            done.into_iter().next().unwrap().result.unwrap();
            break;
        }
    }

    server.shutdown();
    cluster.shutdown();
}

#[test]
fn tcp_client_execute_times_out_against_hung_worker() {
    // End-to-end: a server that acks the handshake but never answers
    // requests. TcpClient::execute must return DprError::Timeout within
    // the configured deadline.
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let hold = std::thread::spawn(move || {
        let (mut stream, _) = listener.accept().unwrap();
        // Read the Hello, send the ack, then go silent.
        let mut buf = Vec::new();
        let mut chunk = [0u8; 1024];
        let hello = loop {
            let n = stream.read(&mut chunk).unwrap();
            buf.extend_from_slice(&chunk[..n]);
            if let Some((frame, _)) = wire::decode_frame(&buf).unwrap() {
                break Hello::from_frame(&frame).unwrap();
            }
        };
        let ack = wire::HelloAck {
            epoch: hello.epoch,
            world_line: hello.world_line,
            shards: vec![ShardId(0)],
        };
        let mut out = Vec::new();
        ack.to_frame().encode_into(&mut out);
        stream.write_all(&out).unwrap();
        std::thread::sleep(Duration::from_secs(10));
    });

    let addrs: HashMap<ShardId, _> = [(ShardId(0), addr)].into_iter().collect();
    let mut client = TcpClient::connect(DprClientSession::new(SessionId(930)), &addrs).unwrap();
    client.set_read_timeout(Duration::from_millis(300));
    let start = Instant::now();
    let err = client.execute(ShardId(0), vec![ClusterOp::Read(Key::from_u64(1))]);
    assert!(matches!(err, Err(DprError::Timeout)), "got {err:?}");
    assert!(start.elapsed() < Duration::from_secs(5));
    drop(client);
    drop(hold); // detached sleeper; the test does not wait out its nap
}

// ---------------------------------------------------------------------------
// Readiness: idle I/O threads block in ppoll and must wake for every event
// ---------------------------------------------------------------------------

/// Long enough for every idle server thread to pass its spin phase and
/// block in its readiness wait.
const IDLE: Duration = Duration::from_millis(50);

/// Connect a raw socket and complete the handshake for `session`.
fn raw_session(addr: std::net::SocketAddr, session: SessionId) -> TcpStream {
    let mut stream = TcpStream::connect(addr).unwrap();
    let hello = Hello {
        session,
        epoch: 1,
        world_line: WorldLine(1),
    };
    let mut buf = Vec::new();
    hello.to_frame().encode_into(&mut buf);
    stream.write_all(&buf).unwrap();
    assert_eq!(read_one_frame(&mut stream).kind, FrameKind::HelloAck);
    stream
}

#[test]
fn request_after_idle_period_is_answered() {
    let (cluster, server) = net_cluster(1, 0);
    let shard = cluster.workers()[0].shard();
    let addrs: HashMap<ShardId, _> = [(shard, server.local_addr())].into_iter().collect();
    let mut client = TcpClient::connect(DprClientSession::new(SessionId(940)), &addrs).unwrap();
    let waits = dpr_telemetry::global().counter(
        "dpr_net_io_waits_total",
        dpr_telemetry::Unit::Count,
        "Blocking readiness waits by network-plane I/O threads",
    );
    for i in 0..3u64 {
        let before = waits.get();
        std::thread::sleep(IDLE);
        assert!(waits.get() > before, "an idle I/O thread must block");
        let key = Key::from_u64(i);
        let results = client
            .execute(shard, vec![ClusterOp::Upsert(key, Value::from_u64(i))])
            .unwrap();
        assert_eq!(results, vec![OpResult::Done]);
    }

    server.shutdown();
    cluster.shutdown();
}

#[test]
fn connection_accepted_while_io_threads_are_parked_gets_hello_ack() {
    let (cluster, server) = net_cluster(1, 0);
    let addr = server.local_addr();
    // More connections than I/O threads, each arriving at an idle server,
    // so every thread is handed a connection while it is blocked.
    let mut peers = Vec::new();
    for i in 0..4u64 {
        std::thread::sleep(IDLE);
        peers.push(raw_session(addr, SessionId(945 + i)));
    }

    server.shutdown();
    cluster.shutdown();
}

#[test]
fn write_backlog_beyond_socket_buffers_drains() {
    let (cluster, server) = net_cluster(1, 0);
    let shard = cluster.workers()[0].shard();
    let mut client =
        PipelinedClient::connect(DprClientSession::new(SessionId(950)), server.local_addr())
            .unwrap();
    let key = Key::from_u64(7);
    let big = Value(bytes::Bytes::from(vec![0xA5u8; 32 << 10]));
    client
        .issue(shard, &[ClusterOp::Upsert(key.clone(), big.clone())])
        .unwrap();
    let deadline = Instant::now() + Duration::from_secs(10);
    while client.inflight() > 0 {
        assert!(Instant::now() < deadline, "upsert stalled");
        for done in client.poll(Duration::from_millis(10)).unwrap() {
            done.result.unwrap();
        }
    }

    // 48 responses of 16 × 32 KiB = 24 MiB, issued without reading: far
    // more than loopback socket buffers hold while the client does not
    // read (the receive buffer only grows as the application reads). The
    // server queues the rest and must resume flushing when the client
    // starts reading, long after it went idle.
    const BATCHES: usize = 48;
    let reads = vec![ClusterOp::Read(key); 16];
    for _ in 0..BATCHES {
        client.issue(shard, &reads).unwrap();
    }
    std::thread::sleep(IDLE);
    let deadline = Instant::now() + Duration::from_secs(30);
    let mut completed = 0;
    while completed < BATCHES {
        assert!(Instant::now() < deadline, "response backlog never drained");
        for done in client.poll(Duration::from_millis(10)).unwrap() {
            let results = done.result.unwrap();
            assert_eq!(results.len(), reads.len());
            assert!(results
                .iter()
                .all(|r| *r == OpResult::Value(Some(big.clone()))));
            completed += 1;
        }
    }

    server.shutdown();
    cluster.shutdown();
}

#[test]
fn shutdown_and_drop_wake_parked_threads_and_send_goodbye() {
    for (round, drop_it) in [(0u64, false), (1, true)] {
        let (cluster, server) = net_cluster(1, 0);
        let addr = server.local_addr();
        let mut peers: Vec<TcpStream> = (0..3)
            .map(|i| raw_session(addr, SessionId(960 + 10 * round + i)))
            .collect();
        std::thread::sleep(IDLE);
        let start = Instant::now();
        if drop_it {
            drop(server);
        } else {
            server.shutdown();
        }
        assert!(
            start.elapsed() < Duration::from_secs(1),
            "stop took too long"
        );
        for peer in &mut peers {
            assert_eq!(read_one_frame(peer).kind, FrameKind::Goodbye);
        }
        cluster.shutdown();
    }
}

// ---------------------------------------------------------------------------
// Frame encode/decode property tests
// ---------------------------------------------------------------------------

fn arb_key() -> impl Strategy<Value = Key> {
    (0u64..1 << 20).prop_map(Key::from_u64)
}

fn arb_op() -> impl Strategy<Value = ClusterOp> {
    prop_oneof![
        arb_key().prop_map(ClusterOp::Read),
        (arb_key(), 0u64..u64::MAX).prop_map(|(k, v)| ClusterOp::Upsert(k, Value::from_u64(v))),
        arb_key().prop_map(ClusterOp::Incr),
        arb_key().prop_map(ClusterOp::Delete),
    ]
}

fn arb_header() -> impl Strategy<Value = BatchHeader> {
    // The vendored proptest stub supports tuples up to arity 4, so nest.
    (
        (0u64..1 << 30, 1u64..1 << 16, 0u64..1 << 40),
        (
            prop::collection::vec((0u32..64, 0u64..1 << 40), 0..6),
            0u64..1 << 40,
            0u32..1 << 10,
        ),
    )
        .prop_map(|((session, wl, vlb), (deps, first, count))| BatchHeader {
            session: SessionId(session),
            world_line: WorldLine(wl),
            version_lower_bound: Version(vlb),
            deps: deps
                .into_iter()
                .map(|(s, v)| Token::new(ShardId(s), Version(v)))
                .collect(),
            first_serial: first,
            op_count: count,
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Any request round-trips bit-exactly through the wire codec, and the
    /// encoding is streamable: decoding a concatenation yields the frames
    /// in order, and every strict prefix of a frame asks for more bytes.
    #[test]
    fn request_frames_round_trip(
        header in arb_header(),
        ops in prop::collection::vec(arb_op(), 0..12),
        shard in 0u32..128,
        seq in 0u64..u64::MAX,
    ) {
        let req = WireRequest { header, ops };
        let frame = req.to_frame(ShardId(shard), seq);
        let mut buf = Vec::new();
        frame.encode_into(&mut buf);
        // Prefixes never decode, never error.
        for cut in [0, 1, wire::FRAME_HEADER_LEN - 1, buf.len().saturating_sub(1)] {
            let cut = cut.min(buf.len() - 1);
            prop_assert!(wire::decode_frame(&buf[..cut]).unwrap().is_none());
        }
        // Two frames back to back decode in order.
        let mut twice = buf.clone();
        twice.extend_from_slice(&buf);
        let (first, used) = wire::decode_frame(&twice).unwrap().unwrap();
        let (second, used2) = wire::decode_frame(&twice[used..]).unwrap().unwrap();
        prop_assert_eq!(used, used2);
        prop_assert_eq!(&first, &second);
        prop_assert_eq!(first.seq, seq);
        prop_assert_eq!(first.shard, shard);
        let decoded = WireRequest::from_frame(&first).unwrap();
        prop_assert_eq!(decoded, req);
    }

    /// Response outcomes — results of every shape and every error variant —
    /// round-trip bit-exactly.
    #[test]
    fn response_frames_round_trip(
        shard in 0u32..128,
        wl in 1u64..1 << 16,
        version in 0u64..1 << 40,
        first in 0u64..1 << 40,
        results in prop::collection::vec(prop_oneof![
            Just(OpResult::Done),
            Just(OpResult::Value(None)),
            (0u64..u64::MAX).prop_map(|v| OpResult::Value(Some(Value::from_u64(v)))),
        ], 0..12),
        err_pick in 0usize..5,
    ) {
        let reply = libdpr::BatchReply {
            shard: ShardId(shard),
            world_line: WorldLine(wl),
            version: Version(version),
            first_serial: first,
            op_count: results.len() as u32,
        };
        let ok = WireResponse { outcome: Ok((reply, results)) };
        let frame = ok.to_frame(shard, 3);
        prop_assert_eq!(WireResponse::from_frame(&frame).unwrap(), ok);

        let errs = [
            DprError::WorldLineMismatch { requested: WorldLine(wl), current: WorldLine(wl + 1) },
            DprError::NotOwner { shard: ShardId(shard) },
            DprError::Recovering,
            DprError::Timeout,
            DprError::Invalid("bad".into()),
        ];
        let e = errs[err_pick].clone();
        let resp = WireResponse { outcome: Err(e) };
        let frame = resp.to_frame(shard, 4);
        prop_assert_eq!(WireResponse::from_frame(&frame).unwrap(), resp);
    }

    /// Corrupting any single header byte of a valid frame never panics:
    /// the decoder either rejects it, asks for more bytes, or returns a
    /// (different) well-formed frame — importantly it never reads out of
    /// bounds or wraps lengths.
    #[test]
    fn corrupted_headers_never_panic(
        byte in 0usize..wire::FRAME_HEADER_LEN,
        val in 0u32..256,
    ) {
        let req = WireRequest {
            header: BatchHeader {
                session: SessionId(1),
                world_line: WorldLine(1),
                version_lower_bound: Version(0),
                deps: vec![],
                first_serial: 0,
                op_count: 1,
            },
            ops: vec![ClusterOp::Read(Key::from_u64(9))],
        };
        let mut buf = Vec::new();
        req.to_frame(ShardId(0), 1).encode_into(&mut buf);
        buf[byte] = val as u8;
        let _ = wire::decode_frame(&buf); // must not panic
    }
}

/// Read exactly one frame from a blocking socket (test helper).
fn read_one_frame(stream: &mut TcpStream) -> Frame {
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let mut buf = Vec::new();
    let mut chunk = [0u8; 4096];
    loop {
        if let Some((frame, used)) = wire::decode_frame(&buf).unwrap() {
            assert!(used <= buf.len());
            return frame;
        }
        let n = stream.read(&mut chunk).expect("peer closed before frame");
        assert!(n > 0, "peer closed before frame");
        buf.extend_from_slice(&chunk[..n]);
    }
}
