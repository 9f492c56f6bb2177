//! # ftd-giop — GIOP/IIOP wire protocol
//!
//! A from-scratch implementation of the CORBA wire formats the paper's
//! gateway must speak on its TCP side: CDR marshalling ([`CdrEncoder`],
//! [`CdrDecoder`]), GIOP 1.0 messages ([`GiopMessage`], [`Request`],
//! [`Reply`]), in-place byte-stream framing ([`FrameBuf`], [`Frame`]),
//! and Interoperable Object References with multi-profile support
//! ([`Ior`], [`IiopProfile`]).
//!
//! The paper's mechanisms that live at this layer:
//!
//! * the **object key** embedded in each request, from which the gateway
//!   determines the target server group (§3.1–3.2) — [`ObjectKey`];
//! * the **service context** field in which the §3.5 enhanced client layer
//!   carries its unique client identifier — [`ServiceContext`],
//!   [`FT_CLIENT_ID_SERVICE_CONTEXT`];
//! * the **multi-profile IOR** listing redundant gateways (§3.5) —
//!   [`Ior::with_iiop_profiles`].
//!
//! # Examples
//!
//! ```
//! use ftd_giop::*;
//!
//! // The client ORB marshals a request...
//! let req = Request {
//!     request_id: 1,
//!     response_expected: true,
//!     object_key: ObjectKey::new(0, 7).to_bytes(),
//!     operation: "get_quote".into(),
//!     ..Request::default()
//! };
//! let wire = GiopMessage::Request(req).encode(ByteOrder::Big);
//!
//! // ...and the gateway, framing those bytes off the TCP stream, reads
//! // the target group in place — the frame's wire bytes are what it
//! // multicasts into the domain.
//! let mut buf = FrameBuf::new();
//! buf.push(&wire);
//! let span = buf.next_span()?.expect("one complete frame");
//! let frame = Frame::parse(&buf.bytes()[span])?;
//! let req = frame.request()?.expect("a Request");
//! assert_eq!(ObjectKey::parse(req.object_key)?.group, 7);
//! assert_eq!(frame.wire(), &wire[..]);
//! # Ok::<(), GiopError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cdr;
mod error;
mod frame;
mod ior;
mod msg;

pub use cdr::{ByteOrder, CdrDecoder, CdrEncoder};
pub use error::GiopError;
pub use frame::{Frame, FrameBuf, FrameHeader, RequestView, FRAME_BUF_READ_CHUNK};
pub use ior::{IiopProfile, Ior, ObjectKey, TaggedProfile, TAG_INTERNET_IOP};
pub use msg::{
    GiopMessage, MsgType, Reply, ReplyStatus, Request, ServiceContext, DEFAULT_MAX_BODY_LEN,
    FT_CLIENT_ID_SERVICE_CONTEXT, GIOP_HEADER_LEN, GIOP_VERSION,
};
