//! Malformed-frame fuzz of the byte-level dispatch, plus the nesting cap
//! on recursive requests.
//!
//! Every golden request (`golden/wire.txt`) is truncated, byte-flipped,
//! or spliced with another and fed to [`dispatch_bytes`]. It must never
//! panic, must always answer with a decodable [`Response`], and must
//! answer [`Response::Error`] exactly when the frame is not a valid
//! [`Request`].

use ocp_mesh::{Coord, Topology};
use ocp_serve::{dispatch_bytes, MeshService, Request, Response, ServeConfig, ServiceHandle};
use proptest::prelude::*;
use std::cell::RefCell;

const FIXTURE: &str = include_str!("golden/wire.txt");

/// The encoded request frames of the golden fixture.
fn golden_requests() -> Vec<Vec<u8>> {
    let mut frames = Vec::new();
    let mut lines = FIXTURE.lines();
    while let Some(line) = lines.next() {
        if line.starts_with("== request/") {
            frames.push(lines.next().expect("case body").as_bytes().to_vec());
        }
    }
    assert!(
        frames.len() >= 13,
        "every Request variant has a golden frame"
    );
    frames
}

thread_local! {
    /// One small live service per test thread, shared by every case.
    static SERVICE: (MeshService, RefCell<ServiceHandle>) = {
        let service = MeshService::start(
            Topology::mesh(8, 8),
            [Coord::new(3, 3), Coord::new(4, 3)],
            ServeConfig::default(),
        )
        .expect("service starts");
        let handle = RefCell::new(service.handle());
        (service, handle)
    };
}

fn dispatch(frame: &[u8]) -> Vec<u8> {
    SERVICE.with(|(_, handle)| dispatch_bytes(&mut handle.borrow_mut(), frame))
}

/// `frame` with one of three mutations applied at the positions drawn
/// from `a` and `b`: truncation, one byte XOR-ed with `flip`, or the head
/// of `frame` joined to the tail of `other`.
fn mutate(frame: &[u8], other: &[u8], kind: u8, a: usize, b: usize, flip: u8) -> Vec<u8> {
    let cut = a % (frame.len() + 1);
    match kind {
        0 => frame[..cut].to_vec(),
        1 => {
            let mut out = frame.to_vec();
            if !out.is_empty() {
                out[a % frame.len()] ^= flip.max(1);
            }
            out
        }
        _ => {
            let mut out = frame[..cut].to_vec();
            out.extend_from_slice(&other[b % (other.len() + 1)..]);
            out
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2000))]

    #[test]
    fn mutated_frames_get_a_decodable_reply(
        pick in (0usize..64, 0usize..64),
        kind in 0u8..3,
        a in any::<u64>(),
        b in any::<u64>(),
        flip in any::<u8>(),
    ) {
        let frames = golden_requests();
        let frame = &frames[pick.0 % frames.len()];
        let other = &frames[pick.1 % frames.len()];
        let input = mutate(frame, other, kind, a as usize, b as usize, flip);
        let reply = dispatch(&input);
        let decoded = serde_json::from_slice::<Response>(&reply);
        prop_assert!(decoded.is_ok(), "undecodable reply {:?}", String::from_utf8_lossy(&reply));
        let is_error = matches!(decoded.unwrap(), Response::Error { .. });
        let valid = serde_json::from_slice::<Request>(&input).is_ok();
        prop_assert_eq!(is_error, !valid, "frame {:?}", String::from_utf8_lossy(&input));
    }
}

#[test]
fn every_golden_request_dispatches_cleanly() {
    for frame in golden_requests() {
        let reply: Response = serde_json::from_slice(&dispatch(&frame)).unwrap();
        assert!(!matches!(reply, Response::Error { .. }), "{reply:?}");
    }
}

/// `depth` nested `Request::Batch`es around one `Epoch` request: three
/// JSON nesting levels each (variant object, field object, array).
fn nested_batches(depth: usize) -> String {
    format!(
        "{}\"Epoch\"{}",
        r#"{"Batch":{"requests":["#.repeat(depth),
        "]}}".repeat(depth)
    )
}

#[test]
fn nested_batch_recursion_is_capped_at_128_levels() {
    // 42 batches are 126 levels: decoded and answered positionally.
    let reply: Response = serde_json::from_slice(&dispatch(nested_batches(42).as_bytes())).unwrap();
    let mut depth = 0;
    let mut current = &reply;
    while let Response::Batch { replies } = current {
        assert_eq!(replies.len(), 1);
        current = &replies[0];
        depth += 1;
    }
    assert_eq!(depth, 42);
    assert!(matches!(current, Response::Epoch { .. }), "{current:?}");
    // 43 are 129: refused with the nesting error, not a stack overflow.
    let reply: Response = serde_json::from_slice(&dispatch(nested_batches(43).as_bytes())).unwrap();
    match reply {
        Response::Error { message } => assert!(message.contains("nesting"), "{message}"),
        other => panic!("unexpected response: {other:?}"),
    }
}
