//! GIOP message types: header, Request, Reply, and the control messages,
//! together with byte-stream framing.
//!
//! These are the IIOP messages of the paper's Figs. 3–5: what the
//! unreplicated client's ORB sends over TCP, what the gateway parses to
//! identify the target server group (from the object key), and what it
//! re-emits toward the client when a reply comes back out of the domain.

use crate::{ByteOrder, CdrDecoder, CdrEncoder, GiopError};

/// The fixed 12-byte GIOP header length.
pub const GIOP_HEADER_LEN: usize = 12;

/// GIOP protocol version spoken by this implementation.
pub const GIOP_VERSION: (u8, u8) = (1, 0);

/// Service context id used by the enhanced thin client layer (§3.5) to
/// carry its unique client identifier. A receiving ORB that does not
/// understand this id ignores it, exactly as the paper requires.
pub const FT_CLIENT_ID_SERVICE_CONTEXT: u32 = 0x4654_4349; // "FTCI"

/// GIOP message types (GIOP 1.0 set).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MsgType {
    /// Client request.
    Request,
    /// Server reply.
    Reply,
    /// Client cancels an outstanding request.
    CancelRequest,
    /// Object location query.
    LocateRequest,
    /// Object location answer.
    LocateReply,
    /// Orderly connection shutdown notice.
    CloseConnection,
    /// Protocol error notice.
    MessageError,
}

impl MsgType {
    fn to_octet(self) -> u8 {
        match self {
            MsgType::Request => 0,
            MsgType::Reply => 1,
            MsgType::CancelRequest => 2,
            MsgType::LocateRequest => 3,
            MsgType::LocateReply => 4,
            MsgType::CloseConnection => 5,
            MsgType::MessageError => 6,
        }
    }

    pub(crate) fn from_octet(v: u8) -> Result<Self, GiopError> {
        Ok(match v {
            0 => MsgType::Request,
            1 => MsgType::Reply,
            2 => MsgType::CancelRequest,
            3 => MsgType::LocateRequest,
            4 => MsgType::LocateReply,
            5 => MsgType::CloseConnection,
            6 => MsgType::MessageError,
            other => return Err(GiopError::UnknownMessageType(other)),
        })
    }
}

/// One entry of a service context list: a tagged blob that intermediaries
/// may read and unknowing parties must ignore.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ServiceContext {
    /// The context id (e.g. [`FT_CLIENT_ID_SERVICE_CONTEXT`]).
    pub context_id: u32,
    /// Raw context data.
    pub context_data: Vec<u8>,
}

impl ServiceContext {
    /// Creates a context entry.
    pub fn new(context_id: u32, context_data: Vec<u8>) -> Self {
        ServiceContext {
            context_id,
            context_data,
        }
    }
}

fn write_service_contexts(enc: &mut CdrEncoder, list: &[ServiceContext]) {
    enc.write_ulong(list.len() as u32);
    for sc in list {
        enc.write_ulong(sc.context_id);
        enc.write_octets(&sc.context_data);
    }
}

fn read_service_contexts(dec: &mut CdrDecoder<'_>) -> Result<Vec<ServiceContext>, GiopError> {
    let n = dec.read_ulong()? as usize;
    if n > dec.remaining() / 8 + 1 {
        return Err(GiopError::LengthOverrun {
            what: "service context list",
            declared: n,
            available: dec.remaining(),
        });
    }
    let mut list = Vec::with_capacity(n);
    for _ in 0..n {
        let context_id = dec.read_ulong()?;
        let context_data = dec.read_octets()?;
        list.push(ServiceContext {
            context_id,
            context_data,
        });
    }
    Ok(list)
}

/// Outcome discriminant of a [`Reply`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ReplyStatus {
    /// Normal completion; the body holds the results.
    NoException,
    /// The operation raised a declared (user) exception.
    UserException,
    /// The ORB or infrastructure raised a system exception.
    SystemException,
    /// The client should retry at the address in the body.
    LocationForward,
}

impl ReplyStatus {
    fn to_ulong(self) -> u32 {
        match self {
            ReplyStatus::NoException => 0,
            ReplyStatus::UserException => 1,
            ReplyStatus::SystemException => 2,
            ReplyStatus::LocationForward => 3,
        }
    }

    fn from_ulong(v: u32) -> Result<Self, GiopError> {
        Ok(match v {
            0 => ReplyStatus::NoException,
            1 => ReplyStatus::UserException,
            2 => ReplyStatus::SystemException,
            3 => ReplyStatus::LocationForward,
            other => {
                return Err(GiopError::BadEnumValue {
                    what: "ReplyStatus",
                    value: other,
                })
            }
        })
    }
}

/// A GIOP Request message (header fields plus opaque body).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Request {
    /// Service context list (carries the §3.5 client id when present).
    pub service_contexts: Vec<ServiceContext>,
    /// Request id, unique per connection, chosen by the client ORB.
    pub request_id: u32,
    /// Whether the client expects a Reply.
    pub response_expected: bool,
    /// The target object key — the gateway reads the server group id out of
    /// this (§3.1: "by extracting the server's object key ... the gateway
    /// identifies the target server").
    pub object_key: Vec<u8>,
    /// Operation name.
    pub operation: String,
    /// Principal (deprecated in CORBA; carried for wire fidelity).
    pub requesting_principal: Vec<u8>,
    /// Marshalled in/inout arguments.
    pub body: Vec<u8>,
}

impl Request {
    /// Looks up a service context by id.
    pub fn service_context(&self, id: u32) -> Option<&ServiceContext> {
        self.service_contexts.iter().find(|sc| sc.context_id == id)
    }
}

/// A GIOP Reply message (header fields plus opaque body).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Reply {
    /// Service context list.
    pub service_contexts: Vec<ServiceContext>,
    /// Echoes the request id.
    pub request_id: u32,
    /// Outcome discriminant.
    pub reply_status: ReplyStatus,
    /// Marshalled results or exception.
    pub body: Vec<u8>,
}

impl Reply {
    /// A successful reply with the given id and body.
    pub fn success(request_id: u32, body: Vec<u8>) -> Self {
        Reply {
            service_contexts: Vec::new(),
            request_id,
            reply_status: ReplyStatus::NoException,
            body,
        }
    }

    /// A system-exception reply with a text body.
    pub fn system_exception(request_id: u32, what: &str) -> Self {
        Reply {
            service_contexts: Vec::new(),
            request_id,
            reply_status: ReplyStatus::SystemException,
            body: what.as_bytes().to_vec(),
        }
    }
}

/// Any GIOP message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GiopMessage {
    /// A client request.
    Request(Request),
    /// A server reply.
    Reply(Reply),
    /// Cancel an outstanding request by id.
    CancelRequest {
        /// The request to cancel.
        request_id: u32,
    },
    /// Locate query for an object key.
    LocateRequest {
        /// Query id.
        request_id: u32,
        /// Key being located.
        object_key: Vec<u8>,
    },
    /// Locate answer (status only; forwarding bodies unsupported).
    LocateReply {
        /// Echoed query id.
        request_id: u32,
        /// 0 = unknown, 1 = here, 2 = forward.
        locate_status: u32,
    },
    /// Orderly close notice.
    CloseConnection,
    /// Protocol error notice.
    MessageError,
}

impl GiopMessage {
    /// The GIOP message type octet for this message.
    pub fn msg_type(&self) -> MsgType {
        match self {
            GiopMessage::Request(_) => MsgType::Request,
            GiopMessage::Reply(_) => MsgType::Reply,
            GiopMessage::CancelRequest { .. } => MsgType::CancelRequest,
            GiopMessage::LocateRequest { .. } => MsgType::LocateRequest,
            GiopMessage::LocateReply { .. } => MsgType::LocateReply,
            GiopMessage::CloseConnection => MsgType::CloseConnection,
            GiopMessage::MessageError => MsgType::MessageError,
        }
    }

    /// Encodes the message (header + body) as wire bytes in `order`.
    pub fn encode(&self, order: ByteOrder) -> Vec<u8> {
        // The header goes first with a zero length, patched once the body
        // behind it is written: one buffer, sized for the common case.
        let mut out = Vec::with_capacity(GIOP_HEADER_LEN + self.body_hint());
        out.extend(*b"GIOP");
        out.push(GIOP_VERSION.0);
        out.push(GIOP_VERSION.1);
        out.push(order.flag());
        out.push(self.msg_type().to_octet());
        out.extend([0; 4]);
        let mut body = CdrEncoder::after(out, order);
        match self {
            GiopMessage::Request(r) => {
                write_service_contexts(&mut body, &r.service_contexts);
                body.write_ulong(r.request_id);
                body.write_bool(r.response_expected);
                body.write_octets(&r.object_key);
                body.write_string(&r.operation);
                body.write_octets(&r.requesting_principal);
                body.write_raw(&r.body);
            }
            GiopMessage::Reply(r) => {
                write_service_contexts(&mut body, &r.service_contexts);
                body.write_ulong(r.request_id);
                body.write_ulong(r.reply_status.to_ulong());
                body.write_raw(&r.body);
            }
            GiopMessage::CancelRequest { request_id } => body.write_ulong(*request_id),
            GiopMessage::LocateRequest {
                request_id,
                object_key,
            } => {
                body.write_ulong(*request_id);
                body.write_octets(object_key);
            }
            GiopMessage::LocateReply {
                request_id,
                locate_status,
            } => {
                body.write_ulong(*request_id);
                body.write_ulong(*locate_status);
            }
            GiopMessage::CloseConnection | GiopMessage::MessageError => {}
        }
        let mut out = body.into_bytes();
        let body_len = (out.len() - GIOP_HEADER_LEN) as u32;
        out[8..GIOP_HEADER_LEN].copy_from_slice(&match order {
            ByteOrder::Big => body_len.to_be_bytes(),
            ByteOrder::Little => body_len.to_le_bytes(),
        });
        out
    }

    /// Roughly the body length [`GiopMessage::encode`] writes: the
    /// variable-length fields plus room for the fixed ones and padding.
    fn body_hint(&self) -> usize {
        let contexts = |list: &[ServiceContext]| -> usize {
            list.iter().map(|c| 12 + c.context_data.len()).sum()
        };
        match self {
            GiopMessage::Request(r) => {
                contexts(&r.service_contexts)
                    + r.object_key.len()
                    + r.operation.len()
                    + r.requesting_principal.len()
                    + r.body.len()
                    + 40
            }
            GiopMessage::Reply(r) => contexts(&r.service_contexts) + r.body.len() + 16,
            GiopMessage::LocateRequest { object_key, .. } => object_key.len() + 16,
            _ => 8,
        }
    }

    /// Decodes one complete GIOP message from `bytes`.
    ///
    /// # Errors
    ///
    /// Returns a [`GiopError`] describing any framing, version, or CDR
    /// problem.
    pub fn decode(bytes: &[u8]) -> Result<GiopMessage, GiopError> {
        let (header, rest) = split_header(bytes)?;
        if rest.len() < header.body_len {
            return Err(GiopError::Truncated {
                what: "GIOP body",
                needed: header.body_len - rest.len(),
                remaining: rest.len(),
            });
        }
        let body = &rest[..header.body_len];
        let mut dec = CdrDecoder::with_offset(body, header.order, GIOP_HEADER_LEN);
        Ok(match header.msg_type {
            MsgType::Request => {
                let service_contexts = read_service_contexts(&mut dec)?;
                let request_id = dec.read_ulong()?;
                let response_expected = dec.read_bool()?;
                crate::frame::skip_reserved(&mut dec, header.minor)?;
                let object_key = dec.read_octets()?;
                let operation = dec.read_string()?;
                let requesting_principal = dec.read_octets()?;
                let body = dec.rest().to_vec();
                GiopMessage::Request(Request {
                    service_contexts,
                    request_id,
                    response_expected,
                    object_key,
                    operation,
                    requesting_principal,
                    body,
                })
            }
            MsgType::Reply => {
                let service_contexts = read_service_contexts(&mut dec)?;
                let request_id = dec.read_ulong()?;
                let reply_status = ReplyStatus::from_ulong(dec.read_ulong()?)?;
                let body = dec.rest().to_vec();
                GiopMessage::Reply(Reply {
                    service_contexts,
                    request_id,
                    reply_status,
                    body,
                })
            }
            MsgType::CancelRequest => GiopMessage::CancelRequest {
                request_id: dec.read_ulong()?,
            },
            MsgType::LocateRequest => GiopMessage::LocateRequest {
                request_id: dec.read_ulong()?,
                object_key: dec.read_octets()?,
            },
            MsgType::LocateReply => GiopMessage::LocateReply {
                request_id: dec.read_ulong()?,
                locate_status: dec.read_ulong()?,
            },
            MsgType::CloseConnection => GiopMessage::CloseConnection,
            MsgType::MessageError => GiopMessage::MessageError,
        })
    }
}

fn split_header(bytes: &[u8]) -> Result<(crate::FrameHeader, &[u8]), GiopError> {
    match crate::FrameHeader::peek(bytes)? {
        Some(header) => Ok((header, &bytes[GIOP_HEADER_LEN..])),
        None => Err(GiopError::Truncated {
            what: "GIOP header",
            needed: GIOP_HEADER_LEN - bytes.len(),
            remaining: bytes.len(),
        }),
    }
}

/// Default cap on a single GIOP message's declared body length. A peer
/// declaring more than this is corrupt or hostile (e.g. a 4 GiB length
/// field that would make a naive reader buffer forever) and is rejected
/// before any body bytes are awaited.
pub const DEFAULT_MAX_BODY_LEN: usize = 16 * 1024 * 1024;

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_request() -> Request {
        Request {
            service_contexts: vec![ServiceContext::new(
                FT_CLIENT_ID_SERVICE_CONTEXT,
                vec![9, 9, 9],
            )],
            request_id: 77,
            response_expected: true,
            object_key: vec![1, 2, 3, 4],
            operation: "buy_shares".into(),
            requesting_principal: Vec::new(),
            body: vec![0xCA, 0xFE],
        }
    }

    #[test]
    fn request_round_trip_both_orders() {
        for order in [ByteOrder::Big, ByteOrder::Little] {
            let msg = GiopMessage::Request(sample_request());
            let wire = msg.encode(order);
            assert_eq!(&wire[0..4], b"GIOP");
            let back = GiopMessage::decode(&wire).unwrap();
            assert_eq!(back, msg);
        }
    }

    #[test]
    fn reply_round_trip() {
        let msg = GiopMessage::Reply(Reply::success(77, vec![1, 2, 3]));
        let back = GiopMessage::decode(&msg.encode(ByteOrder::Big)).unwrap();
        assert_eq!(back, msg);
    }

    #[test]
    fn control_messages_round_trip() {
        for msg in [
            GiopMessage::CancelRequest { request_id: 5 },
            GiopMessage::LocateRequest {
                request_id: 6,
                object_key: vec![7],
            },
            GiopMessage::LocateReply {
                request_id: 6,
                locate_status: 1,
            },
            GiopMessage::CloseConnection,
            GiopMessage::MessageError,
        ] {
            let back = GiopMessage::decode(&msg.encode(ByteOrder::Big)).unwrap();
            assert_eq!(back, msg);
        }
    }

    #[test]
    fn bad_magic_rejected() {
        let mut wire = GiopMessage::CloseConnection.encode(ByteOrder::Big);
        wire[0] = b'X';
        assert!(matches!(
            GiopMessage::decode(&wire),
            Err(GiopError::BadMagic(_))
        ));
    }

    #[test]
    fn wrong_major_version_rejected() {
        let mut wire = GiopMessage::CloseConnection.encode(ByteOrder::Big);
        wire[4] = 2;
        assert!(matches!(
            GiopMessage::decode(&wire),
            Err(GiopError::UnsupportedVersion { major: 2, .. })
        ));
    }

    #[test]
    fn truncated_body_rejected() {
        let wire = GiopMessage::Request(sample_request()).encode(ByteOrder::Big);
        assert!(matches!(
            GiopMessage::decode(&wire[..wire.len() - 1]),
            Err(GiopError::Truncated { .. })
        ));
    }

    #[test]
    fn service_context_lookup() {
        let req = sample_request();
        assert!(req.service_context(FT_CLIENT_ID_SERVICE_CONTEXT).is_some());
        assert!(req.service_context(0xDEAD).is_none());
    }

    #[test]
    fn absurd_service_context_count_rejected() {
        // Craft a request whose service context count is enormous.
        let mut enc = CdrEncoder::with_offset(ByteOrder::Big, GIOP_HEADER_LEN);
        enc.write_ulong(u32::MAX);
        let body = enc.into_bytes();
        let mut wire = Vec::new();
        wire.extend(*b"GIOP");
        wire.extend([1, 0, 0, 0]);
        wire.extend((body.len() as u32).to_be_bytes());
        wire.extend(body);
        assert!(matches!(
            GiopMessage::decode(&wire),
            Err(GiopError::LengthOverrun { .. })
        ));
    }

    #[test]
    fn reply_constructors() {
        let ok = Reply::success(3, vec![1]);
        assert_eq!(ok.reply_status, ReplyStatus::NoException);
        let ex = Reply::system_exception(3, "COMM_FAILURE");
        assert_eq!(ex.reply_status, ReplyStatus::SystemException);
        assert_eq!(ex.body, b"COMM_FAILURE");
    }
}
