//! Corruption suite: every byte-flip and truncation of a model container
//! or a wire frame must surface as a typed error — never a panic, and
//! never an attacker-controlled allocation.

use testkit::alloc::allocated_bytes;
use timedrl::{TimeDrl, TimeDrlConfig};
use timedrl_data::PatchConfig;
use timedrl_serve::{protocol, CompiledModel, ServeError};
use timedrl_tensor::{NdArray, Prng};

fn tiny_model() -> TimeDrl {
    let mut cfg = TimeDrlConfig::forecasting(16);
    cfg.patch = PatchConfig::non_overlapping(4);
    cfg.d_model = 8;
    cfg.n_heads = 2;
    cfg.d_ff = 8;
    cfg.n_layers = 1;
    cfg.seed = 13;
    TimeDrl::new(cfg)
}

fn export_bytes(dir: &std::path::Path) -> Vec<u8> {
    std::fs::create_dir_all(dir).unwrap();
    let path = dir.join("model.tdrl");
    tiny_model().export(&path).unwrap();
    std::fs::read(path).unwrap()
}

/// Allocation ceiling for rejecting one corrupt artifact: generous room
/// for error formatting, buffered file I/O, and concurrent test threads
/// (the byte counter is process-global), yet far below what a trusted
/// lying length prefix would have reserved.
const REJECT_BYTES_CAP: u64 = 8 << 20;

#[test]
fn every_container_byte_flip_is_a_typed_error() {
    let dir = std::env::temp_dir().join("timedrl_serve_flip");
    let pristine = export_bytes(&dir);
    let victim = dir.join("flipped.tdrl");
    for pos in 0..pristine.len() {
        let mut bad = pristine.clone();
        bad[pos] ^= 0x5A;
        std::fs::write(&victim, &bad).unwrap();
        let before = allocated_bytes();
        match CompiledModel::load(&victim) {
            Err(ServeError::BadModel(_) | ServeError::UnsupportedEncoder(_)) => {}
            Err(other) => panic!("flip at {pos}: unexpected error class {other}"),
            Ok(_) => panic!("flip at {pos}: corrupt container accepted"),
        }
        let grew = allocated_bytes() - before;
        assert!(grew < REJECT_BYTES_CAP, "flip at {pos}: rejected load allocated {grew} bytes");
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn every_container_truncation_is_a_typed_error() {
    let dir = std::env::temp_dir().join("timedrl_serve_trunc");
    let pristine = export_bytes(&dir);
    let victim = dir.join("truncated.tdrl");
    for len in 0..pristine.len() {
        std::fs::write(&victim, &pristine[..len]).unwrap();
        assert!(
            matches!(CompiledModel::load(&victim), Err(ServeError::BadModel(_))),
            "truncation to {len} bytes not rejected as BadModel"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

fn request_frame() -> Vec<u8> {
    let windows = Prng::new(2).randn(&[2, 16, 1]);
    let payload = protocol::encode_request(&windows);
    let mut frame = Vec::new();
    protocol::write_frame(&mut frame, &payload).unwrap();
    frame
}

/// Reads one frame + decodes it as a request, the way the server does.
fn try_serve_frame(bytes: &[u8]) -> Result<NdArray, ServeError> {
    let mut reader = bytes;
    let mut buf = Vec::new();
    if !protocol::read_frame_into(&mut reader, &mut buf, 1 << 20)? {
        return Err(ServeError::BadFrame("no frame".into()));
    }
    protocol::decode_request(&buf, 16, 1, 64)
}

#[test]
fn every_wire_frame_byte_flip_is_detected() {
    let pristine = request_frame();
    // Sanity: the pristine frame decodes.
    assert!(try_serve_frame(&pristine).is_ok());
    for pos in 0..pristine.len() {
        let mut bad = pristine.clone();
        bad[pos] ^= 0x5A;
        let before = allocated_bytes();
        match try_serve_frame(&bad) {
            Err(ServeError::BadFrame(_) | ServeError::BadRequest(_)) => {}
            Err(other) => panic!("flip at {pos}: unexpected error class {other}"),
            Ok(_) => panic!("flip at {pos}: corrupt frame accepted"),
        }
        let grew = allocated_bytes() - before;
        assert!(grew < REJECT_BYTES_CAP, "flip at {pos}: rejected frame allocated {grew} bytes");
    }
}

#[test]
fn every_wire_frame_truncation_is_detected() {
    let pristine = request_frame();
    for len in 1..pristine.len() {
        assert!(
            matches!(try_serve_frame(&pristine[..len]), Err(ServeError::BadFrame(_))),
            "stream cut at {len} bytes not rejected as BadFrame"
        );
    }
    // A cut at zero bytes is a clean end-of-stream, not an error.
    let mut empty: &[u8] = &[];
    let mut buf = Vec::new();
    assert!(!protocol::read_frame_into(&mut empty, &mut buf, 1 << 20).unwrap());
}

#[test]
fn lying_length_prefix_cannot_force_allocation() {
    // Header claims a 4 GiB payload; the cap must reject it before any
    // payload buffer is reserved.
    let mut frame = Vec::new();
    frame.extend_from_slice(&u32::MAX.to_le_bytes());
    frame.extend_from_slice(&0u32.to_le_bytes());
    frame.extend_from_slice(&[0u8; 64]);
    let before = allocated_bytes();
    let mut reader = frame.as_slice();
    let mut buf = Vec::new();
    let err = protocol::read_frame_into(&mut reader, &mut buf, 1 << 20).unwrap_err();
    assert!(matches!(err, ServeError::BadFrame(_)));
    assert_eq!(buf.capacity(), 0, "no payload buffer may be reserved");
    assert!(allocated_bytes() - before < REJECT_BYTES_CAP);
}

#[test]
fn oversized_declared_batch_is_rejected_before_reservation() {
    // A syntactically valid frame whose *request header* lies: batch of
    // u64::MAX windows with no sample bytes behind it.
    let mut payload = Vec::new();
    payload.extend_from_slice(&protocol::REQ_EMBED.to_le_bytes());
    payload.extend_from_slice(&u64::MAX.to_le_bytes()); // batch
    payload.extend_from_slice(&16u64.to_le_bytes()); // t
    payload.extend_from_slice(&1u64.to_le_bytes()); // c
    let mut frame = Vec::new();
    protocol::write_frame(&mut frame, &payload).unwrap();
    let before = allocated_bytes();
    let err = try_serve_frame(&frame).unwrap_err();
    assert!(matches!(err, ServeError::BadRequest(_)), "got {err}");
    assert!(allocated_bytes() - before < REJECT_BYTES_CAP);
    // Under an uncapped batch, a batch whose byte count wraps to 0 must
    // still be rejected as a bad frame.
    payload[4..12].copy_from_slice(&(1u64 << 58).to_le_bytes()); // 2^58 · 16 · 1 · 4 = 2^64
    let before = allocated_bytes();
    let err = protocol::decode_request(&payload, 16, 1, usize::MAX).unwrap_err();
    assert!(matches!(err, ServeError::BadFrame(_)), "got {err}");
    assert!(allocated_bytes() - before < REJECT_BYTES_CAP);
}

#[test]
fn response_dims_whose_byte_count_overflows_are_rejected() {
    // A `RESP_OK` header with no float bytes behind it whose element
    // counts each fit in a usize but whose byte count `(zi + zt) · 4`
    // does not: unchecked, it wraps to 0, passes the length check and
    // asks `zeros` for 2^62 floats.
    let hostile: [[u64; 4]; 3] = [
        [1, 1 << 62, 0, 0],       // zi bytes overflow
        [1, 0, 1 << 62, 1],       // zt bytes overflow
        [1, 1 << 63, 1, 1 << 63], // zi + zt overflows
    ];
    for dims in hostile {
        let mut payload = Vec::new();
        payload.extend_from_slice(&protocol::RESP_OK.to_le_bytes());
        payload.extend_from_slice(&0u32.to_le_bytes()); // precision tag: exact
        for dim in dims {
            payload.extend_from_slice(&dim.to_le_bytes());
        }
        let mut frame = Vec::new();
        protocol::write_frame(&mut frame, &payload).unwrap();
        let mut reader = frame.as_slice();
        let mut buf = Vec::new();
        assert!(protocol::read_frame_into(&mut reader, &mut buf, 1 << 20).unwrap());
        let before = allocated_bytes();
        match protocol::decode_response(&buf) {
            Err(ServeError::BadFrame(_)) => {}
            Err(other) => panic!("dims {dims:?}: unexpected error class {other}"),
            Ok(_) => panic!("dims {dims:?}: hostile response accepted"),
        }
        assert!(allocated_bytes() - before < REJECT_BYTES_CAP);
    }
}
