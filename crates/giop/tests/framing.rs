//! Incremental GIOP framing: `FrameBuf` against every unkind way a
//! TCP stream can slice, concatenate, truncate, or corrupt messages.

use ftd_check::{check, Gen};
use ftd_giop::{
    ByteOrder, FrameBuf, GiopError, GiopMessage, Reply, Request, ServiceContext,
    DEFAULT_MAX_BODY_LEN, FT_CLIENT_ID_SERVICE_CONTEXT, GIOP_HEADER_LEN,
};

fn sample_messages() -> Vec<GiopMessage> {
    vec![
        GiopMessage::Request(Request {
            service_contexts: vec![ServiceContext::new(
                FT_CLIENT_ID_SERVICE_CONTEXT,
                vec![0, 0, 0, 7],
            )],
            request_id: 1,
            response_expected: true,
            object_key: vec![0xF7, 0xD0, 1, 2, 3, 4, 5, 6, 7, 8],
            operation: "add".into(),
            requesting_principal: Vec::new(),
            body: 5u64.to_be_bytes().to_vec(),
        }),
        GiopMessage::Reply(Reply::success(1, 5u64.to_be_bytes().to_vec())),
        GiopMessage::CancelRequest { request_id: 9 },
        GiopMessage::LocateRequest {
            request_id: 3,
            object_key: vec![1, 2, 3],
        },
        GiopMessage::CloseConnection,
    ]
}

fn wire(msgs: &[GiopMessage], order: ByteOrder) -> Vec<u8> {
    msgs.iter().flat_map(|m| m.encode(order)).collect()
}

#[test]
fn one_byte_drip_reassembles_every_message() {
    let msgs = sample_messages();
    for order in [ByteOrder::Big, ByteOrder::Little] {
        let stream = wire(&msgs, order);
        let mut reader = FrameBuf::new();
        let mut out = Vec::new();
        for &b in &stream {
            reader.push(&[b]);
            while let Some(msg) = reader.next_message().expect("valid stream") {
                out.push(msg);
            }
        }
        assert_eq!(out, msgs);
        assert_eq!(reader.buffered(), 0);
    }
}

#[test]
fn splits_straddling_the_header_boundary_are_harmless() {
    let msgs = sample_messages();
    let stream = wire(&msgs, ByteOrder::Big);
    // Split at every offset around each 12-byte header edge.
    for split in (0..stream.len()).filter(|&i| i % GIOP_HEADER_LEN <= 2) {
        let mut reader = FrameBuf::new();
        let mut out = Vec::new();
        for chunk in [&stream[..split], &stream[split..]] {
            reader.push(chunk);
            while let Some(msg) = reader.next_message().expect("valid stream") {
                out.push(msg);
            }
        }
        assert_eq!(out, msgs, "split at {split}");
    }
}

#[test]
fn concatenated_messages_in_one_push_all_come_out() {
    let msgs = sample_messages();
    let mut reader = FrameBuf::new();
    reader.push(&wire(&msgs, ByteOrder::Big));
    let mut out = Vec::new();
    while let Some(msg) = reader.next_message().expect("valid stream") {
        out.push(msg);
    }
    assert_eq!(out, msgs);
}

#[test]
fn truncated_tail_stays_pending_not_an_error() {
    let msg = GiopMessage::Request(Request {
        request_id: 4,
        operation: "get".into(),
        object_key: vec![1],
        response_expected: true,
        ..Request::default()
    });
    let stream = msg.encode(ByteOrder::Big);
    for cut in 1..stream.len() {
        let mut reader = FrameBuf::new();
        reader.push(&stream[..cut]);
        // An incomplete message is "not yet", never "broken".
        assert_eq!(
            reader.next_message().expect("pending, not error"),
            None,
            "cut {cut}"
        );
        assert_eq!(reader.buffered(), cut);
    }
}

#[test]
fn hostile_length_field_is_rejected_before_buffering_the_body() {
    // A header declaring a ~4 GiB body: reject instantly instead of
    // waiting for bytes that will never come.
    let mut reader = FrameBuf::new();
    let mut hostile = b"GIOP".to_vec();
    hostile.extend_from_slice(&[1, 0, 0, 5]); // version 1.0, big-endian, CloseConnection
    hostile.extend_from_slice(&0xFFFF_FFF0u32.to_be_bytes());
    reader.push(&hostile);
    match reader.next_message() {
        Err(GiopError::LengthOverrun {
            declared,
            available,
            ..
        }) => {
            assert_eq!(declared, 0xFFFF_FFF0);
            assert_eq!(available, DEFAULT_MAX_BODY_LEN);
        }
        other => panic!("expected LengthOverrun, got {other:?}"),
    }
}

#[test]
fn custom_cap_bounds_legitimate_messages_too() {
    let big = GiopMessage::Reply(Reply::success(1, vec![0xAB; 64]));
    let stream = big.encode(ByteOrder::Big);
    let mut tight = FrameBuf::with_max_body(16);
    tight.push(&stream);
    assert!(matches!(
        tight.next_message(),
        Err(GiopError::LengthOverrun { .. })
    ));
    let mut roomy = FrameBuf::with_max_body(1024);
    roomy.push(&stream);
    assert_eq!(roomy.next_message().expect("fits"), Some(big));
}

#[test]
fn random_chunking_never_loses_or_reorders_messages() {
    check("framing::random_chunking", 256, |g: &mut Gen| {
        let msgs = sample_messages();
        let order = if g.bool() {
            ByteOrder::Big
        } else {
            ByteOrder::Little
        };
        let stream = wire(&msgs, order);
        let mut reader = FrameBuf::new();
        let mut out = Vec::new();
        let mut off = 0;
        while off < stream.len() {
            let take = (g.range(1, 41) as usize).min(stream.len() - off);
            reader.push(&stream[off..off + take]);
            off += take;
            while let Some(msg) = reader.next_message().expect("valid stream") {
                out.push(msg);
            }
        }
        assert_eq!(out, msgs);
    });
}

#[test]
fn garbage_after_a_valid_message_errors_without_corrupting_it() {
    let good = GiopMessage::Reply(Reply::success(8, vec![1]));
    let mut stream = good.encode(ByteOrder::Big);
    stream.extend_from_slice(b"HTTP/1.1 200 OK\r\n");
    let mut reader = FrameBuf::new();
    reader.push(&stream);
    assert_eq!(reader.next_message().expect("good first"), Some(good));
    assert!(
        reader.next_message().is_err(),
        "trailing garbage must error"
    );
}
