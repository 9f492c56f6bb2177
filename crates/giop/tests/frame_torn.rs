//! Torn-read suite for the in-place frame path: however a TCP stream
//! is torn — split at every byte boundary, dribbled in tiny chunks,
//! headers corrupted — [`FrameBuf`] / [`Frame`] must yield exactly what
//! [`GiopMessage::decode`] makes of each whole message.

use ftd_giop::{
    ByteOrder, Frame, FrameBuf, FrameHeader, GiopError, GiopMessage, Reply, Request,
    ServiceContext, FT_CLIENT_ID_SERVICE_CONTEXT, GIOP_HEADER_LEN,
};

fn sample_request(order_tag: u8) -> Request {
    Request {
        service_contexts: vec![
            ServiceContext::new(FT_CLIENT_ID_SERVICE_CONTEXT, vec![0, 0, 0, order_tag]),
            ServiceContext::new(0x0042, vec![1, 2, 3]),
        ],
        request_id: 0x0102_0304,
        response_expected: true,
        object_key: vec![0, 0, 0, 3, 0, 0, 0, 7],
        operation: "buy_shares".into(),
        requesting_principal: vec![0xEE],
        body: (0..29u8).collect(),
    }
}

fn sample_messages() -> Vec<GiopMessage> {
    vec![
        GiopMessage::Request(sample_request(1)),
        GiopMessage::Reply(Reply::success(7, vec![9; 11])),
        GiopMessage::CancelRequest { request_id: 3 },
        GiopMessage::LocateRequest {
            request_id: 4,
            object_key: vec![5, 6],
        },
        GiopMessage::CloseConnection,
        GiopMessage::Request(sample_request(2)),
    ]
}

fn sample_stream(order: ByteOrder) -> Vec<u8> {
    sample_messages()
        .iter()
        .flat_map(|m| m.encode(order))
        .collect()
}

/// Drains a stream through the frame path in `chunk`-byte reads,
/// decoding each frame to an owned message, until exhaustion or the
/// first error.
fn frame_parse(stream: &[u8], chunk: usize) -> (Vec<GiopMessage>, Option<GiopError>) {
    let mut fbuf = FrameBuf::new();
    let mut out = Vec::new();
    for piece in stream.chunks(chunk.max(1)) {
        fbuf.push(piece);
        loop {
            match fbuf.next_span() {
                Ok(Some(span)) => {
                    let frame = match Frame::parse(&fbuf.bytes()[span]) {
                        Ok(f) => f,
                        Err(e) => return (out, Some(e)),
                    };
                    match frame.to_message() {
                        Ok(m) => out.push(m),
                        Err(e) => return (out, Some(e)),
                    }
                }
                Ok(None) => break,
                Err(e) => return (out, Some(e)),
            }
        }
    }
    (out, None)
}

#[test]
fn every_split_boundary_yields_identical_messages() {
    for order in [ByteOrder::Big, ByteOrder::Little] {
        let stream = sample_stream(order);
        // The reference: each message decoded whole, never torn.
        let want: Vec<GiopMessage> = sample_messages()
            .iter()
            .map(|m| GiopMessage::decode(&m.encode(order)).unwrap())
            .collect();
        // Split the stream at every byte boundary: feed [..i] then [i..].
        for i in 0..=stream.len() {
            let mut fbuf = FrameBuf::new();
            let mut got = Vec::new();
            for piece in [&stream[..i], &stream[i..]] {
                fbuf.push(piece);
                while let Some(span) = fbuf.next_span().unwrap() {
                    let frame = Frame::parse(&fbuf.bytes()[span]).unwrap();
                    got.push(frame.to_message().unwrap());
                }
            }
            assert_eq!(got, want, "split at byte {i} ({order:?})");
            assert_eq!(fbuf.buffered(), 0);
        }
        // And dribble in every fixed chunk size 1..=17.
        for chunk in 1..=17 {
            let (got, err) = frame_parse(&stream, chunk);
            assert!(err.is_none(), "chunk {chunk}: {err:?}");
            assert_eq!(got, want, "chunk size {chunk} ({order:?})");
        }
    }
}

#[test]
fn request_views_match_owned_decode_at_every_split() {
    for order in [ByteOrder::Big, ByteOrder::Little] {
        let req = sample_request(3);
        let wire = GiopMessage::Request(req.clone()).encode(order);
        for i in 0..=wire.len() {
            let mut fbuf = FrameBuf::new();
            fbuf.push(&wire[..i]);
            if i < wire.len() {
                assert!(
                    fbuf.next_span().unwrap().is_none(),
                    "no frame before byte {i}"
                );
                fbuf.push(&wire[i..]);
            }
            let span = fbuf.next_span().unwrap().expect("complete frame");
            let frame = Frame::parse(&fbuf.bytes()[span]).unwrap();
            let view = frame.request().unwrap().expect("request frame");
            assert_eq!(view.to_owned_request(), req, "split at {i} ({order:?})");
            assert_eq!(
                view.service_context(FT_CLIENT_ID_SERVICE_CONTEXT),
                Some(&[0, 0, 0, 3][..])
            );
            assert_eq!(frame.wire(), &wire[..], "raw wire bytes are borrowed");
        }
    }
}

#[test]
fn bit_flipped_headers_agree_with_whole_message_decode() {
    let stream = sample_stream(ByteOrder::Big);
    // Flip every bit of the first message's 12-byte header in turn.
    // Tearing must not change the outcome (same messages, same error),
    // and the outcome for the corrupted message must be what
    // `FrameHeader::peek` / `GiopMessage::decode` say of it whole.
    for byte in 0..GIOP_HEADER_LEN {
        for bit in 0..8 {
            let at = format!("flip byte {byte} bit {bit}");
            let mut corrupt = stream.clone();
            corrupt[byte] ^= 1 << bit;
            let (got, err) = frame_parse(&corrupt, 5);
            for chunk in [1, corrupt.len()] {
                assert_eq!(
                    frame_parse(&corrupt, chunk),
                    (got.clone(), err.clone()),
                    "{at}"
                );
            }
            match FrameHeader::peek(&corrupt) {
                Err(e) => assert_eq!((got, err), (Vec::new(), Some(e)), "{at}"),
                Ok(Some(h)) if h.wire_len() <= corrupt.len() => {
                    match GiopMessage::decode(&corrupt[..h.wire_len()]) {
                        Ok(m) => assert_eq!(got.first(), Some(&m), "{at}"),
                        Err(e) => assert_eq!((got, err), (Vec::new(), Some(e)), "{at}"),
                    }
                }
                // The declared body never completes: pending forever,
                // or rejected by the body cap before it is awaited.
                Ok(_) => {
                    assert!(got.is_empty(), "{at}");
                    assert!(
                        matches!(err, None | Some(GiopError::LengthOverrun { .. })),
                        "{at}"
                    );
                }
            }
        }
    }
}
