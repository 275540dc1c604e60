//! Zero-copy wire codec acceptance tests.
//!
//! Two claims are checked here:
//!
//! 1. **Allocation-freedom**: steady-state encode (request + response) and
//!    request decode perform *zero* heap allocations per frame once
//!    buffers are warm, measured by a per-thread counting allocator (so
//!    concurrently running tests cannot pollute the count).
//! 2. **Equivalence**: the direct (pooled-buffer) encoders/decoders are
//!    byte- and value-identical to the owned `Frame`/`Vec` codec tier,
//!    over randomized batches covering inline (≤ 24 B) and shared (> 24 B)
//!    key/value sizes.

use bytes::Bytes;
use dpr_cluster::wire::{
    self, Frame, FrameKind, ProtoError, ProtoErrorCode, WireRequest, WireResponse,
};
use dpr_cluster::{ClusterOp, OpResult};
use dpr_core::{BufferPool, DprError, Key, SessionId, ShardId, Token, Value, Version, WorldLine};
use libdpr::{BatchHeader, BatchReply};
use proptest::prelude::*;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::OnceLock;

// ---------------------------------------------------------------------------
// Per-thread counting allocator: the whole test binary runs under it, and
// each test thread reads only its own counter.
// ---------------------------------------------------------------------------

thread_local! {
    static THREAD_ALLOCS: Cell<u64> = const { Cell::new(0) };
}

struct CountingAlloc;

// SAFETY: delegates to `System`; the only addition is a const-initialized
// thread-local counter bump (no lazy TLS init, so no recursive allocation).
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        THREAD_ALLOCS.with(|c| c.set(c.get() + 1));
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        THREAD_ALLOCS.with(|c| c.set(c.get() + 1));
        System.realloc(ptr, layout, new_size)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        THREAD_ALLOCS.with(|c| c.set(c.get() + 1));
        System.alloc_zeroed(layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn my_allocs() -> u64 {
    THREAD_ALLOCS.with(Cell::get)
}

// ---------------------------------------------------------------------------
// Allocation-freedom
// ---------------------------------------------------------------------------

fn steady_header(session: u64, first_serial: u64) -> BatchHeader {
    BatchHeader {
        session: SessionId(session),
        world_line: WorldLine(1),
        version_lower_bound: Version(1),
        // Empty deps: `Vec::new()` never allocates. (Batches carrying
        // cross-shard deps pay one Vec per batch on decode, by design.)
        deps: Vec::new(),
        first_serial,
        op_count: 4,
    }
}

/// The pool the allocation test draws bodies from. Not the global pool:
/// its stripes are shared with the other tests in this binary, whose live
/// buffers can make this thread's acquire miss and allocate.
fn cycle_pool() -> &'static BufferPool {
    static POOL: OnceLock<&'static BufferPool> = OnceLock::new();
    POOL.get_or_init(|| BufferPool::leaked(1))
}

/// One full server-side frame cycle out of warm buffers: encode a request,
/// lift the body into a pooled shared buffer, decode it zero-copy, then
/// encode the response. Returns the decoded op count (consumed by the
/// assertion so nothing is optimised away).
fn request_response_cycle(
    enc: &mut Vec<u8>,
    resp: &mut Vec<u8>,
    ops: &[ClusterOp],
    decoded: &mut Vec<ClusterOp>,
    results: &[OpResult],
    serial: u64,
) -> usize {
    let header = steady_header(7, serial);
    enc.clear();
    wire::encode_request(enc, ShardId(3), serial, &header, ops);

    let h = wire::decode_header(enc).unwrap().expect("complete frame");
    let body_bytes = &enc[wire::FRAME_HEADER_LEN..h.frame_len()];
    let mut lease = cycle_pool().acquire_shared(body_bytes.len());
    lease.data_mut()[..body_bytes.len()].copy_from_slice(body_bytes);
    let body = lease.freeze(body_bytes.len());

    decoded.clear();
    let got = wire::decode_request_body(&body, decoded).expect("decode request");
    assert_eq!(got.first_serial, serial);

    let reply = BatchReply {
        shard: ShardId(3),
        world_line: WorldLine(1),
        version: Version(2),
        first_serial: serial,
        op_count: ops.len() as u32,
    };
    resp.clear();
    wire::encode_response(resp, 3, serial, Ok((&reply, results)));
    decoded.len()
}

#[test]
fn steady_state_frame_cycle_allocates_nothing() {
    // Small (≤ 24 B) keys and values are inlined by `Bytes`, so neither
    // encoding nor zero-copy decoding of the paper's 8-byte workload
    // should ever touch the heap once buffers are warm.
    let ops = vec![
        ClusterOp::Upsert(Key::from_u64(1), Value::from_u64(10)),
        ClusterOp::Read(Key::from_u64(2)),
        ClusterOp::Incr(Key::from_u64(3)),
        ClusterOp::Delete(Key::from_u64(4)),
    ];
    let results = vec![
        OpResult::Done,
        OpResult::Value(Some(Value::from_u64(10))),
        OpResult::Done,
        OpResult::Done,
    ];
    let mut enc: Vec<u8> = Vec::with_capacity(8 << 10);
    let mut resp: Vec<u8> = Vec::with_capacity(8 << 10);
    let mut decoded: Vec<ClusterOp> = Vec::with_capacity(16);

    // Warm-up: pool stripes, scratch growth, telemetry registration.
    for i in 0..64 {
        request_response_cycle(&mut enc, &mut resp, &ops, &mut decoded, &results, i);
    }

    const ROUNDS: u64 = 1000;
    let before = my_allocs();
    let mut total = 0usize;
    for i in 0..ROUNDS {
        total += request_response_cycle(&mut enc, &mut resp, &ops, &mut decoded, &results, 64 + i);
    }
    let allocated = my_allocs() - before;
    assert_eq!(total, ops.len() * ROUNDS as usize);
    assert_eq!(
        allocated, 0,
        "steady-state encode/decode must not allocate ({allocated} allocations in {ROUNDS} frames)"
    );
}

#[test]
fn large_values_stay_zero_copy_views_of_the_pooled_body() {
    // A value above the inline cap decodes as a slice of the pooled body:
    // no copy, no per-value allocation.
    let big = Value(Bytes::copy_from_slice(&[0xAB; 100]));
    let ops = vec![ClusterOp::Upsert(Key::from_u64(1), big)];
    let header = steady_header(9, 1);
    let mut enc = Vec::new();
    wire::encode_request(&mut enc, ShardId(0), 1, &header, &ops);

    let h = wire::decode_header(&enc).unwrap().expect("complete");
    let body_bytes = &enc[wire::FRAME_HEADER_LEN..h.frame_len()];
    let mut lease = BufferPool::global().acquire_shared(body_bytes.len());
    lease.data_mut()[..body_bytes.len()].copy_from_slice(body_bytes);
    let body = lease.freeze(body_bytes.len());

    let mut decoded = Vec::new();
    wire::decode_request_body(&body, &mut decoded).unwrap();
    let ClusterOp::Upsert(_, v) = &decoded[0] else {
        panic!("expected upsert");
    };
    let body_range = body.as_slice().as_ptr_range();
    let value_range = v.0.as_slice().as_ptr_range();
    assert!(
        body_range.contains(&value_range.start),
        "decoded value must point into the pooled frame body"
    );
}

// ---------------------------------------------------------------------------
// Equivalence with the owned codec tier
// ---------------------------------------------------------------------------

fn key_strategy() -> impl Strategy<Value = Key> {
    // Cover inline (≤ 24 B) and shared (> 24 B) representations.
    prop::collection::vec(0..255u8, 1..64).prop_map(|b| Key(Bytes::copy_from_slice(&b)))
}

fn value_strategy() -> impl Strategy<Value = Value> {
    prop::collection::vec(0..255u8, 0..64).prop_map(|b| Value(Bytes::copy_from_slice(&b)))
}

fn op_strategy() -> impl Strategy<Value = ClusterOp> {
    prop_oneof![
        key_strategy().prop_map(ClusterOp::Read),
        (key_strategy(), value_strategy()).prop_map(|(k, v)| ClusterOp::Upsert(k, v)),
        key_strategy().prop_map(ClusterOp::Incr),
        key_strategy().prop_map(ClusterOp::Delete),
    ]
}

fn header_strategy() -> impl Strategy<Value = BatchHeader> {
    (
        (0..u64::MAX, 1..10u64, 0..100u64),
        prop::collection::vec((0..16u32, 1..1000u64), 0..4),
        (0..u64::MAX, 0..256u32),
    )
        .prop_map(
            |((session, wl, lb), deps, (first_serial, op_count))| BatchHeader {
                session: SessionId(session),
                world_line: WorldLine(wl),
                version_lower_bound: Version(lb),
                deps: deps
                    .into_iter()
                    .map(|(s, v)| Token::new(ShardId(s), Version(v)))
                    .collect(),
                first_serial,
                op_count,
            },
        )
}

fn result_strategy() -> impl Strategy<Value = OpResult> {
    prop_oneof![
        Just(OpResult::Done),
        Just(OpResult::Value(None)),
        value_strategy().prop_map(|v| OpResult::Value(Some(v))),
    ]
}

fn string_strategy(max_len: usize) -> impl Strategy<Value = String> {
    prop::collection::vec(32..127u8, 0..max_len)
        .prop_map(|b| b.into_iter().map(char::from).collect())
}

fn error_strategy() -> impl Strategy<Value = DprError> {
    prop_oneof![
        (1..10u64, 1..10u64).prop_map(|(a, b)| DprError::WorldLineMismatch {
            requested: WorldLine(a),
            current: WorldLine(b),
        }),
        Just(DprError::Recovering),
        Just(DprError::Closed),
        Just(DprError::Timeout),
        string_strategy(40).prop_map(DprError::Invalid),
        string_strategy(40).prop_map(DprError::Storage),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn direct_request_encode_matches_owned_codec(
        header in header_strategy(),
        ops in prop::collection::vec(op_strategy(), 0..32),
        shard in 0..64u32,
        seq in 0..u64::MAX,
    ) {
        // Direct encoder vs owned to_frame + encode_into: identical bytes.
        let mut direct = Vec::new();
        wire::encode_request(&mut direct, ShardId(shard), seq, &header, &ops);
        let owned = WireRequest { header: header.clone(), ops: ops.clone() };
        let mut via_frame = Vec::new();
        owned.to_frame(ShardId(shard), seq).encode_into(&mut via_frame);
        prop_assert_eq!(&direct, &via_frame);

        // Owned decode vs pooled zero-copy decode: identical values.
        let (frame, used) = wire::decode_frame(&direct).unwrap().expect("complete");
        prop_assert_eq!(used, direct.len());
        let owned_decoded = WireRequest::from_frame(&frame).unwrap();

        let h = wire::decode_header(&direct).unwrap().expect("complete");
        let body_bytes = &direct[wire::FRAME_HEADER_LEN..h.frame_len()];
        let mut lease = BufferPool::global().acquire_shared(body_bytes.len().max(1));
        lease.data_mut()[..body_bytes.len()].copy_from_slice(body_bytes);
        let body = lease.freeze(body_bytes.len());
        let mut pooled_ops = Vec::new();
        let pooled_header = wire::decode_request_body(&body, &mut pooled_ops).unwrap();

        prop_assert_eq!(h.kind, FrameKind::Request);
        prop_assert_eq!(h.shard, shard);
        prop_assert_eq!(h.seq, seq);
        prop_assert_eq!(&pooled_header, &owned_decoded.header);
        prop_assert_eq!(&pooled_ops, &owned_decoded.ops);
        prop_assert_eq!(&pooled_header, &header);
        prop_assert_eq!(&pooled_ops, &ops);
    }

    #[test]
    fn direct_response_encode_matches_owned_codec(
        reply_version in 1..1000u64,
        first_serial in 0..u64::MAX,
        results in prop::collection::vec(result_strategy(), 0..32),
        shard in 0..64u32,
        seq in 0..u64::MAX,
    ) {
        let reply = BatchReply {
            shard: ShardId(shard),
            world_line: WorldLine(1),
            version: Version(reply_version),
            first_serial,
            op_count: results.len() as u32,
        };
        let mut direct = Vec::new();
        wire::encode_response(&mut direct, shard, seq, Ok((&reply, &results)));
        let owned = WireResponse { outcome: Ok((reply.clone(), results.clone())) };
        let mut via_frame = Vec::new();
        owned.to_frame(shard, seq).encode_into(&mut via_frame);
        prop_assert_eq!(&direct, &via_frame);

        // Pooled zero-copy decode round-trips the outcome.
        let h = wire::decode_header(&direct).unwrap().expect("complete");
        let body_bytes = &direct[wire::FRAME_HEADER_LEN..h.frame_len()];
        let mut lease = BufferPool::global().acquire_shared(body_bytes.len().max(1));
        lease.data_mut()[..body_bytes.len()].copy_from_slice(body_bytes);
        let body = lease.freeze(body_bytes.len());
        let decoded = WireResponse::from_body(&body).unwrap();
        let (dreply, dresults) = decoded.outcome.expect("ok outcome");
        prop_assert_eq!(&dreply, &reply);
        prop_assert_eq!(&dresults, &results);
    }

    #[test]
    fn error_response_encode_matches_owned_codec(
        err in error_strategy(),
        shard in 0..64u32,
        seq in 0..u64::MAX,
    ) {
        let mut direct = Vec::new();
        wire::encode_response(&mut direct, shard, seq, Err(&err));
        let owned = WireResponse { outcome: Err(err) };
        let mut via_frame = Vec::new();
        owned.to_frame(shard, seq).encode_into(&mut via_frame);
        prop_assert_eq!(&direct, &via_frame);

        let (frame, _) = wire::decode_frame(&direct).unwrap().expect("complete");
        let decoded = WireResponse::from_frame(&frame).unwrap();
        prop_assert!(decoded.outcome.is_err());
    }

    #[test]
    fn proto_error_and_control_frames_match_owned_codec(
        code_idx in 0..7usize,
        detail in string_strategy(60),
        seq in 0..u64::MAX,
    ) {
        let codes = [
            ProtoErrorCode::UnsupportedVersion,
            ProtoErrorCode::BadFrame,
            ProtoErrorCode::HandshakeRequired,
            ProtoErrorCode::StaleEpoch,
            ProtoErrorCode::UnknownShard,
            ProtoErrorCode::DuplicateInFlight,
            ProtoErrorCode::Shutdown,
        ];
        let err = ProtoError { code: codes[code_idx], detail };
        let mut direct = Vec::new();
        err.encode(&mut direct, seq);
        let mut via_frame = Vec::new();
        err.to_frame(seq).encode_into(&mut via_frame);
        prop_assert_eq!(&direct, &via_frame);

        let mut ctl = Vec::new();
        wire::encode_control(&mut ctl, FrameKind::CutReq, seq);
        let mut ctl_frame = Vec::new();
        Frame { kind: FrameKind::CutReq, shard: wire::NO_SHARD, seq, body: Bytes::new() }
            .encode_into(&mut ctl_frame);
        prop_assert_eq!(&ctl, &ctl_frame);
    }
}
