//! Tests for the wire protocol through its public surface: golden wire
//! bytes pinned independently of the codec, hand-picked round trips,
//! and fuzz-ish properties — seeded-random frames round-trip
//! bit-exactly, and every way of damaging a frame — truncation, byte
//! mutation, random garbage, hostile length prefixes, adversarial
//! chunking — produces a *typed* error, never a panic and never a
//! desynced stream.

use nfm_net::protocol::{
    peek_kind, salvage_request_id, AdminOp, FrameAssembler, ProtocolError, RejectReason,
    ServerFrame, WireAdmin, WireAdminOk, WirePredictorKind, WireReject, WireRequest, WireResponse,
    WireStats, DEFAULT_MAX_FRAME_BYTES, FRAME_REJECT, FRAME_REQUEST, FRAME_RESPONSE,
    PROTOCOL_VERSION,
};
use nfm_serve::{CompletionStatus, Priority};
use nfm_tensor::rng::DeterministicRng;
use nfm_tensor::Vector;
use std::time::Duration;

/// Random f32 whose bit pattern may be anything the wire must carry
/// faithfully — normals, subnormals, infinities, NaNs, both zeros.
fn any_f32(rng: &mut DeterministicRng) -> f32 {
    match rng.index(8) {
        0 => f32::NAN,
        1 => f32::INFINITY,
        2 => f32::NEG_INFINITY,
        3 => -0.0,
        4 => f32::MIN_POSITIVE / 2.0, // subnormal
        _ => rng.uniform(-1e6, 1e6),
    }
}

fn any_sequence(rng: &mut DeterministicRng) -> Vec<Vector> {
    let width = 1 + rng.index(7);
    let steps = 1 + rng.index(9);
    (0..steps)
        .map(|_| Vector::from_fn(width, |_| any_f32(rng)))
        .collect()
}

fn any_name(rng: &mut DeterministicRng) -> String {
    let len = 1 + rng.index(12);
    (0..len)
        .map(|_| char::from(b'a' + rng.index(26) as u8))
        .collect()
}

fn any_request(rng: &mut DeterministicRng) -> WireRequest {
    let mut req = WireRequest::new(rng.index(usize::MAX) as u64, any_sequence(rng));
    if rng.coin(0.5) {
        req = req.with_model(any_name(rng));
    }
    if rng.coin(0.5) {
        req = req.with_predictor(any_name(rng));
    }
    if rng.coin(0.5) {
        req = req.with_threshold(any_f32(rng));
    }
    if rng.coin(0.5) {
        req = req.with_deadline(Duration::from_micros(rng.index(5_000_000) as u64));
    }
    req.with_priority(match rng.index(3) {
        0 => Priority::High,
        1 => Priority::Normal,
        _ => Priority::Low,
    })
}

fn any_response(rng: &mut DeterministicRng) -> WireResponse {
    WireResponse {
        id: rng.index(usize::MAX) as u64,
        status: match rng.index(3) {
            0 => CompletionStatus::Done,
            1 => CompletionStatus::DeadlineExpired,
            _ => CompletionStatus::Rejected,
        },
        stats: WireStats {
            computed: rng.index(1 << 30) as u64,
            reuses: rng.index(1 << 30) as u64,
            bnn_evaluations: rng.index(1 << 30) as u64,
        },
        queue_latency_ns: rng.index(usize::MAX) as u64,
        compute_latency_ns: rng.index(usize::MAX) as u64,
        outputs: if rng.coin(0.2) {
            Vec::new() // expired requests ship empty outputs
        } else {
            any_sequence(rng)
        },
    }
}

fn any_reject(rng: &mut DeterministicRng) -> WireReject {
    WireReject::new(
        rng.index(usize::MAX) as u64,
        RejectReason::ALL[rng.index(RejectReason::ALL.len())],
        any_name(rng),
    )
}

fn encoded(encode: impl FnOnce(&mut Vec<u8>)) -> Vec<u8> {
    let mut out = Vec::new();
    encode(&mut out);
    out
}

/// Round-trips are proven on raw bytes (encode ∘ decode ∘ encode is the
/// identity), which covers NaN payloads that `PartialEq` cannot.
#[test]
fn random_requests_roundtrip_bit_exactly() {
    let mut rng = DeterministicRng::seed_from_u64(0xF0A1);
    for _ in 0..512 {
        let req = any_request(&mut rng);
        let bytes = encoded(|out| req.encode(out));
        let back = WireRequest::decode(&bytes[4..]).expect("valid frame decodes");
        let again = encoded(|out| back.encode(out));
        assert_eq!(bytes, again, "re-encode must reproduce the wire bytes");
    }
}

#[test]
fn random_server_frames_roundtrip_bit_exactly() {
    let mut rng = DeterministicRng::seed_from_u64(0xF0A2);
    for _ in 0..512 {
        let bytes = if rng.coin(0.5) {
            encoded(|out| any_response(&mut rng).encode(out))
        } else {
            encoded(|out| any_reject(&mut rng).encode(out))
        };
        let again = match ServerFrame::decode(&bytes[4..]).expect("valid frame decodes") {
            ServerFrame::Response(r) => encoded(|out| r.encode(out)),
            ServerFrame::Reject(r) => encoded(|out| r.encode(out)),
            ServerFrame::AdminOk(r) => encoded(|out| r.encode(out)),
        };
        assert_eq!(bytes, again);
    }
}

fn any_admin(rng: &mut DeterministicRng) -> WireAdmin {
    let id = rng.index(usize::MAX) as u64;
    if rng.coin(0.3) {
        return WireAdmin::evict(id, any_name(rng));
    }
    let artifact: Vec<u8> = (0..rng.index(64)).map(|_| rng.index(256) as u8).collect();
    let count = 1 + rng.index(3);
    let predictors = (0..count)
        .map(|_| match rng.index(3) {
            0 => WirePredictorKind::Exact,
            1 => WirePredictorKind::Bnn(any_f32(rng)),
            _ => WirePredictorKind::Oracle(any_f32(rng)),
        })
        .collect();
    WireAdmin::swap(id, any_name(rng), artifact)
        .predictors(predictors)
        .fraction(any_f32(rng))
        .min_requests(rng.index(usize::MAX) as u64)
        .tolerance(any_f32(rng))
}

#[test]
fn random_admin_frames_roundtrip_bit_exactly() {
    let mut rng = DeterministicRng::seed_from_u64(0xAD31);
    for _ in 0..512 {
        let admin = any_admin(&mut rng);
        let bytes = encoded(|out| admin.encode(out));
        let back = WireAdmin::decode(&bytes[4..]).expect("valid frame decodes");
        // NaN thresholds break `==` on the struct; compare the bytes.
        assert_eq!(bytes, encoded(|out| back.encode(out)));
        if let (AdminOp::Swap { artifact, .. }, AdminOp::Swap { artifact: b, .. }) =
            (&admin.op, &back.op)
        {
            assert_eq!(artifact, b, "artifact bytes carried verbatim");
        }

        let ok = WireAdminOk {
            id: rng.index(usize::MAX) as u64,
            version: rng.index(u32::MAX as usize) as u32,
        };
        let bytes = encoded(|out| ok.encode(out));
        assert_eq!(
            WireAdminOk::decode(&bytes[4..]).expect("ack decodes"),
            ok,
            "acks are tiny fixed frames"
        );
    }
}

/// Every truncation point of a random admin frame yields a typed
/// error, never a panic.
#[test]
fn truncated_admin_frames_are_typed_never_panic() {
    let mut rng = DeterministicRng::seed_from_u64(0xAD32);
    for _ in 0..64 {
        let bytes = encoded(|out| any_admin(&mut rng).encode(out));
        for cut in 0..bytes.len().saturating_sub(4) {
            assert!(
                WireAdmin::decode(&bytes[4..4 + cut]).is_err(),
                "truncation at {cut} must not decode"
            );
        }
    }
}

/// Every truncation point of every random frame yields a typed error.
#[test]
fn random_truncations_are_typed_never_panic() {
    let mut rng = DeterministicRng::seed_from_u64(0xF0A3);
    for _ in 0..64 {
        let bytes = encoded(|out| any_request(&mut rng).encode(out));
        let payload = &bytes[4..];
        for len in 0..payload.len() {
            WireRequest::decode(&payload[..len]).expect_err("truncated frame must not decode");
        }
        let bytes = encoded(|out| any_response(&mut rng).encode(out));
        let payload = &bytes[4..];
        for len in 0..payload.len() {
            ServerFrame::decode(&payload[..len]).expect_err("truncated frame must not decode");
        }
    }
}

/// Arbitrary single-byte corruption either still decodes (the byte was
/// genuinely free, e.g. an f32 payload bit) or fails with a typed
/// error; it never panics.
#[test]
fn random_mutations_never_panic() {
    let mut rng = DeterministicRng::seed_from_u64(0xF0A4);
    for _ in 0..256 {
        let mut bytes = encoded(|out| any_request(&mut rng).encode(out));
        let at = 4 + rng.index(bytes.len() - 4);
        bytes[at] ^= 1 << rng.index(8);
        let _ = WireRequest::decode(&bytes[4..]);
        let _ = ServerFrame::decode(&bytes[4..]);
        let _ = peek_kind(&bytes[4..]);
    }
}

/// Pure random garbage decodes to a typed error for every prefix
/// length.
#[test]
fn random_garbage_is_typed_never_panic() {
    let mut rng = DeterministicRng::seed_from_u64(0xF0A5);
    for _ in 0..256 {
        let len = rng.index(200);
        let garbage: Vec<u8> = (0..len).map(|_| rng.index(256) as u8).collect();
        let _ = WireRequest::decode(&garbage);
        let _ = ServerFrame::decode(&garbage);
        let _ = peek_kind(&garbage);
    }
}

/// A multi-frame stream survives arbitrary chunking: however the bytes
/// are split, the assembler yields exactly the original frames in
/// order — no desync, no loss, no invention.
#[test]
fn random_chunking_never_desyncs() {
    let mut rng = DeterministicRng::seed_from_u64(0xF0A6);
    for _ in 0..32 {
        let mut stream = Vec::new();
        let mut expected = Vec::new();
        for _ in 0..1 + rng.index(8) {
            let bytes = match rng.index(3) {
                0 => encoded(|out| any_request(&mut rng).encode(out)),
                1 => encoded(|out| any_response(&mut rng).encode(out)),
                _ => encoded(|out| any_reject(&mut rng).encode(out)),
            };
            expected.push(bytes[4..].to_vec());
            stream.extend_from_slice(&bytes);
        }
        let mut assembler = FrameAssembler::default();
        let mut got = Vec::new();
        let mut cursor = 0;
        while cursor < stream.len() {
            let chunk = 1 + rng.index(97).min(stream.len() - cursor - 1);
            assembler.push(&stream[cursor..cursor + chunk]);
            cursor += chunk;
            while let Some(frame) = assembler.next_frame().expect("well-formed stream") {
                got.push(frame);
            }
        }
        assert_eq!(got, expected);
    }
}

/// A hostile length prefix is rejected before any payload is buffered,
/// and the assembler stays poisoned afterwards: the caller must drop
/// the connection, not resynchronize on attacker-controlled bytes.
#[test]
fn hostile_length_prefix_poisons_before_buffering() {
    let mut assembler = FrameAssembler::new(1024);
    assembler.push(&u32::MAX.to_le_bytes());
    match assembler.next_frame() {
        Err(ProtocolError::Oversized { declared, max }) => {
            assert_eq!(declared, u32::MAX as usize);
            assert_eq!(max, 1024);
        }
        other => panic!("expected Oversized, got {other:?}"),
    }
    // Still poisoned, even when fed an innocent-looking valid frame.
    let innocent = encoded(|out| {
        WireReject::new(1, RejectReason::Malformed, "x").encode(out);
    });
    assembler.push(&innocent);
    assert!(matches!(
        assembler.next_frame(),
        Err(ProtocolError::Oversized { .. })
    ));
}

/// Every one-byte code table — reject reason, priority, status, admin
/// op, predictor kind — rejects every byte it does not define (no
/// silent wrap-around into a neighbouring meaning), and so does the
/// frame kind.
#[test]
fn unknown_enum_bytes_are_typed() {
    let mut rng = DeterministicRng::seed_from_u64(0xF0A7);
    // Each case: a valid frame, the offset of its code byte in the
    // payload (after version, kind and the `u64` id), the first
    // undefined code, the field the error names and the decoder.
    type Decode = fn(&[u8]) -> Result<(), ProtocolError>;
    let swap = WireAdmin::swap(9, "kws", vec![1]).predictors(vec![WirePredictorKind::Exact]);
    let cases: [(Vec<u8>, usize, u8, &str, Decode); 5] = [
        (
            encoded(|out| WireReject::new(7, RejectReason::Malformed, "m").encode(out)),
            10,
            11,
            "reason",
            |p| ServerFrame::decode(p).map(drop),
        ),
        (
            encoded(|out| WireRequest::new(7, seq(1, 1)).encode(out)),
            10,
            3,
            "priority",
            |p| WireRequest::decode(p).map(drop),
        ),
        (
            encoded(|out| any_response(&mut rng).encode(out)),
            10,
            3,
            "status",
            |p| WireResponse::decode(p).map(drop),
        ),
        (
            encoded(|out| WireAdmin::evict(7, "kws").encode(out)),
            10,
            2,
            "op",
            |p| WireAdmin::decode(p).map(drop),
        ),
        // op, the `u16`-prefixed model name, the predictor count.
        (
            encoded(|out| swap.encode(out)),
            10 + 1 + 2 + 3 + 1,
            3,
            "predictor kind",
            |p| WireAdmin::decode(p).map(drop),
        ),
    ];
    for (bytes, at, first_undefined, field, decode) in cases {
        let payload = &bytes[4..];
        assert_eq!(decode(payload), Ok(()), "{field}: the valid frame decodes");
        for bad in first_undefined..=u8::MAX {
            let mut mutated = payload.to_vec();
            mutated[at] = bad;
            assert_eq!(
                decode(&mutated),
                Err(ProtocolError::UnknownCode { field, found: bad }),
                "{field} byte {bad}"
            );
        }
    }
    // Kind bytes outside the five frame types are typed too.
    let bytes = encoded(|out| WireReject::new(7, RejectReason::Malformed, "m").encode(out));
    let mut mutated = bytes.clone();
    mutated[5] = 0x7F;
    assert!(matches!(
        peek_kind(&mutated[4..]),
        Err(ProtocolError::UnknownKind { found: 0x7F })
    ));
    assert_eq!(peek_kind(&bytes[4..]), Ok(FRAME_REJECT));
    let response = encoded(|out| any_response(&mut rng).encode(out));
    assert_eq!(peek_kind(&response[4..]), Ok(FRAME_RESPONSE));
}

fn seq(width: usize, steps: usize) -> Vec<Vector> {
    (0..steps)
        .map(|t| Vector::from_fn(width, |i| (t * width + i) as f32 * 0.25 - 1.0))
        .collect()
}

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

/// A decode outcome with `Truncated`'s field label dropped: the label
/// is for humans and may change, the variant may not.
fn outcome<T>(decoded: Result<T, ProtocolError>) -> String {
    match decoded {
        Ok(_) => "ok".to_string(),
        Err(ProtocolError::Truncated { .. }) => "Truncated".to_string(),
        Err(e) => format!("{e:?}"),
    }
}

/// The wire's counterpart of `tests/reference_f64.rs`: the bytes of one
/// frame of each kind, computed at PR 23 and written out by hand, so an
/// encoder and a decoder that change together cannot pass as a round
/// trip.  Every truncation of each payload decodes to `Truncated` and
/// one trailing byte to `TrailingBytes { extra: 1 }`, as at PR 23.
#[test]
fn golden_wire_bytes_and_damage_outcomes() {
    type Decode = fn(&[u8]) -> String;
    let request: Decode = |p| outcome(WireRequest::decode(p));
    let admin: Decode = |p| outcome(WireAdmin::decode(p));
    let mut cases: Vec<(Vec<u8>, String, Decode)> = vec![
        (
            encoded(|out| {
                WireRequest::new(77, seq(3, 2))
                    .with_model("imdb")
                    .with_predictor("bnn")
                    .with_threshold(0.25)
                    .with_priority(Priority::High)
                    .with_deadline(Duration::from_micros(1500))
                    .encode(out)
            }),
            "4300000001014d0000000000000000dc05000000000000010000803e0400696d64620300626e6e03000000\
             02000000000080bf000040bf000000bf000080be000000000000803e"
                .to_string(),
            request,
        ),
        (
            encoded(|out| {
                WireRequest::new(5, Vec::new())
                    .with_deadline(Duration::ZERO)
                    .encode(out)
            }),
            "200000000101050000000000000001000000000000000000000000000000000000000000".to_string(),
            request,
        ),
        (
            encoded(|out| {
                WireResponse {
                    id: 9,
                    status: CompletionStatus::DeadlineExpired,
                    stats: WireStats {
                        computed: 10,
                        reuses: 5,
                        bnn_evaluations: 15,
                    },
                    queue_latency_ns: 1234,
                    compute_latency_ns: 56789,
                    outputs: seq(2, 2),
                }
                .encode(out)
            }),
            "4b00000001020900000000000000010a0000000000000005000000000000000f00000000000000d2040000\
             00000000d5dd0000000000000200000002000000000080bf000040bf000000bf000080be"
                .to_string(),
            |p| outcome(WireResponse::decode(p)),
        ),
        (
            encoded(|out| {
                WireAdmin::swap(900, "kws", vec![1, 2, 3])
                    .predictors(vec![
                        WirePredictorKind::Exact,
                        WirePredictorKind::Bnn(0.5),
                        WirePredictorKind::Oracle(0.25),
                    ])
                    .fraction(0.75)
                    .min_requests(4)
                    .tolerance(0.125)
                    .encode(out)
            }),
            "33000000010484030000000000000003006b77730300010000003f020000803e0000403f04000000000000\
             000000003e03000000010203"
                .to_string(),
            admin,
        ),
        (
            encoded(|out| WireAdmin::evict(902, "asr").encode(out)),
            "1000000001048603000000000000010300617372".to_string(),
            admin,
        ),
        (
            encoded(|out| WireAdminOk { id: 900, version: 2 }.encode(out)),
            "0e0000000105840300000000000002000000".to_string(),
            |p| outcome(WireAdminOk::decode(p)),
        ),
    ];
    for (reason, code) in RejectReason::ALL.into_iter().zip(0u8..) {
        cases.push((
            encoded(|out| WireReject::new(3, reason, "no").encode(out)),
            format!("0f00000001030300000000000000{code:02x}02006e6f"),
            |p| outcome(WireReject::decode(p)),
        ));
    }
    for (bytes, golden, decode) in cases {
        assert_eq!(hex(&bytes), golden);
        let payload = &bytes[4..];
        assert_eq!(decode(payload), "ok", "{golden}");
        for len in 0..payload.len() {
            assert_eq!(
                decode(&payload[..len]),
                "Truncated",
                "{golden} cut at {len}"
            );
        }
        let mut trailing = payload.to_vec();
        trailing.push(0xAB);
        assert_eq!(decode(&trailing), "TrailingBytes { extra: 1 }", "{golden}");
    }
}

#[test]
fn request_roundtrip_all_fields() {
    let req = WireRequest::new(77, seq(3, 4))
        .with_model("imdb")
        .with_predictor("bnn")
        .with_threshold(0.25)
        .with_priority(Priority::High)
        .with_deadline(Duration::from_micros(1500));
    let out = encoded(|out| req.encode(out));
    let declared = u32::from_le_bytes([out[0], out[1], out[2], out[3]]) as usize;
    assert_eq!(declared + 4, out.len());
    let back = WireRequest::decode(&out[4..]).expect("decodes");
    assert_eq!(back, req);
}

#[test]
fn request_roundtrip_defaults_and_zero_deadline() {
    let req = WireRequest::new(0, seq(2, 1)).with_deadline(Duration::ZERO);
    let out = encoded(|out| req.encode(out));
    let back = WireRequest::decode(&out[4..]).expect("decodes");
    assert_eq!(back.deadline, Some(Duration::ZERO));
    assert_eq!(back.model, None);
    assert_eq!(back.predictor, None);
    assert_eq!(back.threshold, None);
    assert_eq!(back.priority, Priority::Normal);
}

#[test]
fn response_roundtrip() {
    let resp = WireResponse {
        id: 9,
        status: CompletionStatus::Done,
        stats: WireStats {
            computed: 10,
            reuses: 5,
            bnn_evaluations: 15,
        },
        queue_latency_ns: 1234,
        compute_latency_ns: 56789,
        outputs: seq(2, 3),
    };
    let out = encoded(|out| resp.encode(out));
    let back = WireResponse::decode(&out[4..]).expect("decodes");
    assert_eq!(back, resp);
    let stats = back.stats();
    assert_eq!(stats.evaluations(), 15);
    assert_eq!(stats.reuses(), 5);
    assert_eq!(stats.bnn_evaluations(), 15);
}

#[test]
fn reject_roundtrip_every_reason() {
    for reason in RejectReason::ALL {
        let rej = WireReject::new(3, reason, format!("because {reason}"));
        let out = encoded(|out| rej.encode(out));
        match ServerFrame::decode(&out[4..]).expect("decodes") {
            ServerFrame::Reject(back) => assert_eq!(back, rej),
            other => panic!("expected reject, got {other:?}"),
        }
    }
}

#[test]
fn bad_version_is_typed() {
    let mut out = encoded(|out| WireRequest::new(1, seq(1, 1)).encode(out));
    out[4] = 99;
    assert_eq!(
        WireRequest::decode(&out[4..]),
        Err(ProtocolError::UnsupportedVersion { found: 99 })
    );
}

#[test]
fn truncation_is_typed_at_every_length() {
    let out = encoded(|out| {
        WireRequest::new(42, seq(2, 2))
            .with_model("m")
            .with_threshold(0.5)
            .encode(out)
    });
    let payload = &out[4..];
    for len in 0..payload.len() {
        let err = WireRequest::decode(&payload[..len]).expect_err("truncated must fail");
        assert!(
            matches!(err, ProtocolError::Truncated { .. }),
            "truncation at {len} gave {err:?}"
        );
    }
}

#[test]
fn trailing_bytes_are_typed() {
    let mut out = encoded(|out| WireRequest::new(1, seq(1, 1)).encode(out));
    out.push(0xAB);
    assert_eq!(
        WireRequest::decode(&out[4..]),
        Err(ProtocolError::TrailingBytes { extra: 1 })
    );
}

/// A hand-built request payload declaring `timesteps` steps of
/// width 0 — passes the payload-length check (0 bytes wanted), so
/// only the geometry guard stands between it and the allocator.
fn zero_width_request_payload(timesteps: u32) -> Vec<u8> {
    let mut p = vec![PROTOCOL_VERSION, FRAME_REQUEST];
    p.extend_from_slice(&7u64.to_le_bytes()); // id
    p.push(1); // Normal priority
    p.extend_from_slice(&u64::MAX.to_le_bytes()); // no deadline
    p.push(0); // no θ override
    p.extend_from_slice(&0u16.to_le_bytes()); // model: default
    p.extend_from_slice(&0u16.to_le_bytes()); // predictor: default
    p.extend_from_slice(&0u32.to_le_bytes()); // width 0
    p.extend_from_slice(&timesteps.to_le_bytes());
    p
}

#[test]
fn zero_width_request_header_is_rejected_before_allocating() {
    // The hostile shape: ~30 bytes on the wire, u32::MAX timesteps
    // declared.  Must fail typed and fast, not allocate billions of
    // empty vectors.
    assert_eq!(
        WireRequest::decode(&zero_width_request_payload(u32::MAX)),
        Err(ProtocolError::InvalidDimensions {
            width: 0,
            timesteps: u32::MAX
        })
    );
    // The legitimate empty-sequence encoding (0 × 0) still decodes.
    let empty = WireRequest::decode(&zero_width_request_payload(0)).expect("decodes");
    assert!(empty.sequence.is_empty());
}

#[test]
fn zero_width_response_header_is_rejected_before_allocating() {
    let mut p = vec![PROTOCOL_VERSION, FRAME_RESPONSE];
    p.extend_from_slice(&7u64.to_le_bytes()); // id
    p.push(0); // Done
    for _ in 0..5 {
        p.extend_from_slice(&0u64.to_le_bytes()); // counters + latencies
    }
    p.extend_from_slice(&0u32.to_le_bytes()); // width 0
    p.extend_from_slice(&u32::MAX.to_le_bytes()); // timesteps
    assert_eq!(
        WireResponse::decode(&p),
        Err(ProtocolError::InvalidDimensions {
            width: 0,
            timesteps: u32::MAX
        })
    );
}

#[test]
fn salvage_reads_id_from_broken_request() {
    let out = encoded(|out| WireRequest::new(0xDEAD_BEEF, seq(1, 2)).encode(out));
    // Truncate mid-sequence: the id still salvages.
    assert_eq!(salvage_request_id(&out[4..14]), 0xDEAD_BEEF);
    assert_eq!(salvage_request_id(&[]), 0);
}

#[test]
fn assembler_reassembles_split_frames() {
    let mut bytes = Vec::new();
    let reqs: Vec<WireRequest> = (0..3).map(|i| WireRequest::new(i, seq(2, 3))).collect();
    for r in &reqs {
        r.encode(&mut bytes);
    }
    // Deliver one byte at a time: worst-case fragmentation.
    let mut asm = FrameAssembler::new(DEFAULT_MAX_FRAME_BYTES);
    let mut decoded = Vec::new();
    for b in bytes {
        asm.push(&[b]);
        while let Some(frame) = asm.next_frame().expect("no oversize") {
            decoded.push(WireRequest::decode(&frame).expect("decodes"));
        }
    }
    assert_eq!(decoded, reqs);
    assert_eq!(asm.pending_bytes(), 0);
}

#[test]
fn assembler_oversize_poisons() {
    let mut asm = FrameAssembler::new(16);
    asm.push(&1000u32.to_le_bytes());
    asm.push(&[0u8; 8]);
    let e = asm.next_frame().expect_err("oversized");
    assert_eq!(
        e,
        ProtocolError::Oversized {
            declared: 1000,
            max: 16
        }
    );
    // Poisoned: same typed error forever, no desynced frames.
    assert_eq!(asm.next_frame(), Err(e));
}
