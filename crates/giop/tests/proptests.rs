//! Property-based tests: CDR, GIOP messages and IORs must round-trip for
//! arbitrary well-formed inputs, and the decoder must never panic on
//! arbitrary bytes.

use ftd_check::{check, Gen};
use ftd_giop::*;

fn arb_order(g: &mut Gen) -> ByteOrder {
    if g.bool() {
        ByteOrder::Big
    } else {
        ByteOrder::Little
    }
}

fn arb_service_contexts(g: &mut Gen) -> Vec<ServiceContext> {
    g.vec(3, |g| ServiceContext::new(g.u32(), g.bytes(31)))
}

fn arb_request(g: &mut Gen) -> Request {
    Request {
        service_contexts: arb_service_contexts(g),
        request_id: g.u32(),
        response_expected: g.bool(),
        object_key: g.bytes(23),
        operation: g.ident(25),
        requesting_principal: Vec::new(),
        body: g.bytes(63),
    }
}

#[test]
fn cdr_primitive_sequences_round_trip() {
    check("cdr primitive sequences round-trip", 256, |g| {
        let order = arb_order(g);
        let octets = g.bytes(15);
        let ushorts = g.vec(7, Gen::u16);
        let ulongs = g.vec(7, Gen::u32);
        let ulonglongs = g.vec(7, Gen::u64);
        let s = g.string(40);

        let mut enc = CdrEncoder::new(order);
        for &v in &octets {
            enc.write_octet(v);
        }
        for &v in &ushorts {
            enc.write_ushort(v);
        }
        enc.write_string(&s);
        for &v in &ulongs {
            enc.write_ulong(v);
        }
        for &v in &ulonglongs {
            enc.write_ulonglong(v);
        }
        let bytes = enc.into_bytes();

        let mut dec = CdrDecoder::new(&bytes, order);
        for &v in &octets {
            assert_eq!(dec.read_octet().unwrap(), v);
        }
        for &v in &ushorts {
            assert_eq!(dec.read_ushort().unwrap(), v);
        }
        assert_eq!(dec.read_string().unwrap(), s);
        for &v in &ulongs {
            assert_eq!(dec.read_ulong().unwrap(), v);
        }
        for &v in &ulonglongs {
            assert_eq!(dec.read_ulonglong().unwrap(), v);
        }
        assert_eq!(dec.remaining(), 0);
    });
}

#[test]
fn request_messages_round_trip() {
    check("request messages round-trip", 256, |g| {
        let msg = GiopMessage::Request(arb_request(g));
        let order = arb_order(g);
        let wire = msg.encode(order);
        assert_eq!(GiopMessage::decode(&wire).unwrap(), msg);
    });
}

#[test]
fn reply_messages_round_trip() {
    check("reply messages round-trip", 256, |g| {
        let msg = GiopMessage::Reply(Reply::success(g.u32(), g.bytes(63)));
        let order = arb_order(g);
        let wire = msg.encode(order);
        assert_eq!(GiopMessage::decode(&wire).unwrap(), msg);
    });
}

#[test]
fn decoder_never_panics_on_garbage() {
    check("decoder never panics on garbage", 512, |g| {
        let bytes = g.bytes(127);
        let _ = GiopMessage::decode(&bytes); // must not panic
        let _ = Ior::decode(&bytes);
        let _ = ObjectKey::parse(&bytes);
    });
}

#[test]
fn reader_reassembles_any_chunking() {
    check("reader reassembles any chunking", 128, |g| {
        let reqs: Vec<Request> = (0..g.range(1, 3)).map(|_| arb_request(g)).collect();
        let chunk = g.range(1, 39) as usize;
        let mut stream = Vec::new();
        for r in &reqs {
            stream.extend(GiopMessage::Request(r.clone()).encode(ByteOrder::Big));
        }
        let mut reader = FrameBuf::new();
        let mut seen = Vec::new();
        for c in stream.chunks(chunk) {
            reader.push(c);
            while let Some(m) = reader.next_message().unwrap() {
                seen.push(m);
            }
        }
        assert_eq!(seen.len(), reqs.len());
        for (m, r) in seen.into_iter().zip(reqs) {
            assert_eq!(m, GiopMessage::Request(r));
        }
    });
}

#[test]
fn iors_round_trip_through_stringification() {
    check("iors round-trip through stringification", 128, |g| {
        let type_id = format!("IDL:{}:1.0", g.ident(16));
        let hosts: Vec<(String, u16)> = (0..g.range(1, 4)).map(|_| (g.ident(8), g.u16())).collect();
        let key = g.bytes(15);
        let ior = Ior::with_iiop_profiles(
            type_id,
            hosts
                .iter()
                .map(|(h, p)| IiopProfile::new(h.clone(), *p, key.clone())),
        );
        let back = Ior::from_stringified(&ior.to_stringified()).unwrap();
        assert_eq!(&back, &ior);
        assert_eq!(back.iiop_profiles().unwrap().len(), hosts.len());
    });
}

#[test]
fn object_keys_round_trip() {
    check("object keys round-trip", 256, |g| {
        let key = ObjectKey::new(g.u32(), g.u32());
        assert_eq!(ObjectKey::parse(&key.to_bytes()).unwrap(), key);
    });
}
