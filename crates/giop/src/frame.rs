//! GIOP framing: parse headers in place, borrow bodies.
//!
//! The gateway *encapsulates* a client's request (§3.2): the canonical
//! big-endian wire bytes are what gets multicast into the domain, so
//! the complete wire frame — not a decoded message — is what travels
//! from the socket to the engine. This module is the one framer every
//! byte-stream reader in the workspace uses:
//!
//! - [`FrameHeader::peek`] parses the fixed 12-byte header in place,
//! - [`Frame`] is a validated view over one complete wire message,
//! - [`RequestView`] lazily decodes a Request's fields as borrowed
//!   slices (object key, operation, body) without copying, and
//! - [`FrameBuf`] is a reusable per-connection accumulation buffer that
//!   carves complete frames out of a TCP byte stream without
//!   reallocating per message ([`FrameBuf::next_message`] is the owned
//!   convenience for readers that want a decoded [`GiopMessage`]).
//!
//! Ownership rule: a [`Frame`] borrows from the connection's
//! [`FrameBuf`] and is only valid until the next fill. Anything that
//! must outlive the read cycle (cross-shard forwards, replay records,
//! domain multicasts) copies exactly once, at the point of escape.

use crate::cdr::{ByteOrder, CdrDecoder};
use crate::msg::{GiopMessage, MsgType, Request, ServiceContext, GIOP_HEADER_LEN};
use crate::GiopError;
use std::ops::Range;

/// The more-fragments bit of the GIOP 1.1 header flags octet.
const MORE_FRAGMENTS: u8 = 0x02;

/// Skips the three reserved octets a GIOP 1.1 request header carries
/// after `response_expected`. (In 1.0 the same three bytes are alignment
/// padding before the object key, which the key's read skips.)
pub(crate) fn skip_reserved(dec: &mut CdrDecoder<'_>, minor: u8) -> Result<(), GiopError> {
    if minor == 1 {
        for _ in 0..3 {
            dec.read_octet()?;
        }
    }
    Ok(())
}

/// The parsed fixed-size GIOP header, borrowed in place from the wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrameHeader {
    /// GIOP minor version: 0 or 1 (major is always 1).
    pub minor: u8,
    /// Byte order of the message body (header flag octet).
    pub order: ByteOrder,
    /// The message type octet, decoded.
    pub msg_type: MsgType,
    /// Declared body length in bytes (excludes the 12-byte header).
    pub body_len: usize,
}

impl FrameHeader {
    /// Parses the 12-byte GIOP header at the front of `bytes` without
    /// touching the body. Returns `Ok(None)` when fewer than
    /// [`GIOP_HEADER_LEN`] bytes are available yet (torn read).
    ///
    /// # Errors
    ///
    /// Returns [`GiopError::BadMagic`], [`GiopError::UnsupportedVersion`],
    /// [`GiopError::Fragmented`] or [`GiopError::UnknownMessageType`] for
    /// streams that can never become a valid message, so callers can fail
    /// fast before the body arrives.
    ///
    /// GIOP 1.0 and 1.1 are accepted: their headers share one layout,
    /// and a 1.1 request differs only in three reserved octets that the
    /// request decoders skip explicitly. GIOP 1.2 moves the request id to
    /// the front of the request header, so reading it with the 1.0
    /// layout would execute the wrong operation or argument: it is
    /// refused, as is a 1.1 message continued in fragments.
    pub fn peek(bytes: &[u8]) -> Result<Option<FrameHeader>, GiopError> {
        if bytes.len() < GIOP_HEADER_LEN {
            return Ok(None);
        }
        let magic: [u8; 4] = bytes[0..4].try_into().expect("len 4");
        if &magic != b"GIOP" {
            return Err(GiopError::BadMagic(magic));
        }
        let (major, minor) = (bytes[4], bytes[5]);
        if major != 1 || minor > 1 {
            return Err(GiopError::UnsupportedVersion { major, minor });
        }
        if bytes[6] & MORE_FRAGMENTS != 0 {
            return Err(GiopError::Fragmented);
        }
        let order = ByteOrder::from_flag(bytes[6]);
        let msg_type = MsgType::from_octet(bytes[7])?;
        let len_bytes: [u8; 4] = bytes[8..12].try_into().expect("len 4");
        let body_len = match order {
            ByteOrder::Big => u32::from_be_bytes(len_bytes),
            ByteOrder::Little => u32::from_le_bytes(len_bytes),
        } as usize;
        Ok(Some(FrameHeader {
            minor,
            order,
            msg_type,
            body_len,
        }))
    }

    /// Total wire length of the message this header describes.
    pub fn wire_len(&self) -> usize {
        GIOP_HEADER_LEN + self.body_len
    }
}

/// A validated view over exactly one complete GIOP message on the wire.
///
/// Construction proves the header parses and the byte slice is exactly
/// `header.wire_len()` long; accessors then borrow straight out of the
/// underlying buffer.
#[derive(Debug, Clone, Copy)]
pub struct Frame<'a> {
    header: FrameHeader,
    wire: &'a [u8],
}

impl<'a> Frame<'a> {
    /// Parses `wire` as exactly one complete message.
    ///
    /// # Errors
    ///
    /// Returns a header [`GiopError`] for an unparseable header,
    /// [`GiopError::Truncated`] when bytes are missing, and
    /// [`GiopError::LengthOverrun`] when `wire` holds trailing bytes
    /// beyond the declared length (the caller sliced wrong).
    pub fn parse(wire: &'a [u8]) -> Result<Frame<'a>, GiopError> {
        let header = FrameHeader::peek(wire)?.ok_or(GiopError::Truncated {
            what: "GIOP header",
            needed: GIOP_HEADER_LEN.saturating_sub(wire.len()),
            remaining: wire.len(),
        })?;
        if wire.len() < header.wire_len() {
            return Err(GiopError::Truncated {
                what: "GIOP body",
                needed: header.wire_len() - wire.len(),
                remaining: wire.len() - GIOP_HEADER_LEN,
            });
        }
        if wire.len() > header.wire_len() {
            return Err(GiopError::LengthOverrun {
                what: "GIOP frame slice",
                declared: header.wire_len(),
                available: wire.len(),
            });
        }
        Ok(Frame { header, wire })
    }

    /// The parsed header.
    pub fn header(&self) -> FrameHeader {
        self.header
    }

    /// Byte order of the body.
    pub fn order(&self) -> ByteOrder {
        self.header.order
    }

    /// The message type.
    pub fn msg_type(&self) -> MsgType {
        self.header.msg_type
    }

    /// The complete wire bytes (header + body), borrowed.
    pub fn wire(&self) -> &'a [u8] {
        self.wire
    }

    /// The body bytes (after the 12-byte header), borrowed.
    pub fn body(&self) -> &'a [u8] {
        &self.wire[GIOP_HEADER_LEN..]
    }

    /// Decodes the frame into an owned [`GiopMessage`] — the copying
    /// fallback for paths that need the fields (control messages,
    /// little-endian canonicalisation, reply readers).
    ///
    /// # Errors
    ///
    /// Returns a [`GiopError`] describing any CDR problem in the body.
    pub fn to_message(&self) -> Result<GiopMessage, GiopError> {
        GiopMessage::decode(self.wire)
    }

    /// Borrowed decode of a Request body. Returns `Ok(None)` when this
    /// frame is not a Request.
    ///
    /// # Errors
    ///
    /// Returns a [`GiopError`] describing any CDR problem in the body.
    pub fn request(&self) -> Result<Option<RequestView<'a>>, GiopError> {
        if self.header.msg_type != MsgType::Request {
            return Ok(None);
        }
        let mut dec = CdrDecoder::with_offset(self.body(), self.header.order, GIOP_HEADER_LEN);
        let contexts_start = dec.position();
        let n_contexts = dec.read_ulong()? as usize;
        if n_contexts > dec.remaining() / 8 + 1 {
            return Err(GiopError::LengthOverrun {
                what: "service context list",
                declared: n_contexts,
                available: dec.remaining(),
            });
        }
        for _ in 0..n_contexts {
            let _id = dec.read_ulong()?;
            let _data = dec.read_octets_ref()?;
        }
        let request_id = dec.read_ulong()?;
        let response_expected = dec.read_bool()?;
        skip_reserved(&mut dec, self.header.minor)?;
        let object_key = dec.read_octets_ref()?;
        let operation = dec.read_str()?;
        let requesting_principal = dec.read_octets_ref()?;
        let body = dec.rest();
        Ok(Some(RequestView {
            order: self.header.order,
            contexts: &self.body()[contexts_start..],
            contexts_origin: GIOP_HEADER_LEN + contexts_start,
            n_contexts,
            request_id,
            response_expected,
            object_key,
            operation,
            requesting_principal,
            body,
        }))
    }
}

/// A GIOP Request decoded as borrowed slices. Service contexts stay raw
/// and are scanned on demand.
#[derive(Debug, Clone, Copy)]
pub struct RequestView<'a> {
    order: ByteOrder,
    contexts: &'a [u8],
    contexts_origin: usize,
    n_contexts: usize,
    /// Request id, unique per connection, chosen by the client ORB.
    pub request_id: u32,
    /// Whether the client expects a Reply.
    pub response_expected: bool,
    /// The target object key, borrowed from the wire.
    pub object_key: &'a [u8],
    /// Operation name, borrowed from the wire.
    pub operation: &'a str,
    /// Principal bytes, borrowed from the wire.
    pub requesting_principal: &'a [u8],
    /// Marshalled arguments, borrowed from the wire.
    pub body: &'a [u8],
}

impl<'a> RequestView<'a> {
    /// Scans the raw service context list for `id`, returning its data
    /// bytes. Zero-copy and zero-alloc; the list was validated during
    /// [`Frame::request`].
    pub fn service_context(&self, id: u32) -> Option<&'a [u8]> {
        let mut dec = CdrDecoder::with_offset(self.contexts, self.order, self.contexts_origin);
        let n = dec.read_ulong().ok()? as usize;
        debug_assert_eq!(n, self.n_contexts);
        for _ in 0..n {
            let context_id = dec.read_ulong().ok()?;
            let data = dec.read_octets_ref().ok()?;
            if context_id == id {
                return Some(data);
            }
        }
        None
    }

    /// Copies this view into an owned [`Request`] (escape hatch for
    /// paths that must outlive the read buffer).
    pub fn to_owned_request(&self) -> Request {
        let mut service_contexts = Vec::with_capacity(self.n_contexts);
        let mut dec = CdrDecoder::with_offset(self.contexts, self.order, self.contexts_origin);
        if let Ok(n) = dec.read_ulong() {
            for _ in 0..n {
                let Ok(context_id) = dec.read_ulong() else {
                    break;
                };
                let Ok(data) = dec.read_octets_ref() else {
                    break;
                };
                service_contexts.push(ServiceContext::new(context_id, data.to_vec()));
            }
        }
        Request {
            service_contexts,
            request_id: self.request_id,
            response_expected: self.response_expected,
            object_key: self.object_key.to_vec(),
            operation: self.operation.to_owned(),
            requesting_principal: self.requesting_principal.to_vec(),
            body: self.body.to_vec(),
        }
    }
}

/// How much spare room [`FrameBuf::spare`] guarantees by default — one
/// typical socket read's worth.
pub const FRAME_BUF_READ_CHUNK: usize = 16 * 1024;

/// A reusable per-connection receive buffer that carves complete GIOP
/// frames out of a TCP byte stream without per-message allocation.
///
/// `FrameBuf` hands out *spans* rather than draining its buffer per
/// message: [`FrameBuf::next_span`] advances an internal cursor and
/// returns the range of the next complete frame, which stays valid
/// (borrowable via [`FrameBuf::bytes`]) until the next
/// [`FrameBuf::spare`] / [`FrameBuf::push`] call compacts the buffer.
///
/// # Examples
///
/// ```
/// use ftd_giop::{ByteOrder, Frame, FrameBuf, GiopMessage};
///
/// let wire = GiopMessage::CloseConnection.encode(ByteOrder::Big);
/// let mut buf = FrameBuf::new();
/// buf.push(&wire[..5]); // torn read
/// assert!(buf.next_span().unwrap().is_none());
/// buf.push(&wire[5..]);
/// let span = buf.next_span().unwrap().unwrap();
/// let frame = Frame::parse(&buf.bytes()[span]).unwrap();
/// assert_eq!(frame.to_message().unwrap(), GiopMessage::CloseConnection);
/// ```
#[derive(Debug)]
pub struct FrameBuf {
    buf: Vec<u8>,
    /// Start of unconsumed data (frames before this were yielded).
    start: usize,
    /// End of valid data; `buf[start..end]` is the live window.
    end: usize,
    max_body: usize,
}

impl Default for FrameBuf {
    fn default() -> Self {
        FrameBuf::new()
    }
}

impl FrameBuf {
    /// An empty buffer with the default body-length cap. No allocation
    /// happens until the first fill — cheap enough to hold per
    /// connection at C50K.
    pub fn new() -> Self {
        FrameBuf::with_max_body(crate::msg::DEFAULT_MAX_BODY_LEN)
    }

    /// An empty buffer with a custom body-length cap.
    pub fn with_max_body(max_body: usize) -> Self {
        FrameBuf {
            buf: Vec::new(),
            start: 0,
            end: 0,
            max_body,
        }
    }

    /// Bytes buffered but not yet yielded as frames.
    pub fn buffered(&self) -> usize {
        self.end - self.start
    }

    /// The underlying buffer; index with a span from
    /// [`FrameBuf::next_span`].
    pub fn bytes(&self) -> &[u8] {
        &self.buf[..self.end]
    }

    /// Compacts consumed bytes to the front and returns a spare slice of
    /// at least `min` bytes to read into; follow with
    /// [`FrameBuf::advance`]. Invalidates previously returned spans.
    pub fn spare(&mut self, min: usize) -> &mut [u8] {
        self.compact();
        let min = min.max(1);
        if self.buf.len() - self.end < min {
            // Zeroing only happens on growth; steady-state reads reuse
            // the same allocation.
            self.buf.resize(self.end + min.max(FRAME_BUF_READ_CHUNK), 0);
        }
        &mut self.buf[self.end..]
    }

    /// Marks `n` bytes of the last [`FrameBuf::spare`] slice as filled.
    pub fn advance(&mut self, n: usize) {
        debug_assert!(self.end + n <= self.buf.len());
        self.end = (self.end + n).min(self.buf.len());
    }

    /// Appends bytes by copy — for readers that already hold the bytes
    /// (clients, the simulator); the gateway's reactor reads straight
    /// into [`FrameBuf::spare`]. Grows by what is pushed, not by a read
    /// chunk, so a reader of small replies stays small. Invalidates
    /// previous spans.
    pub fn push(&mut self, bytes: &[u8]) {
        self.compact();
        self.buf.truncate(self.end);
        self.buf.extend_from_slice(bytes);
        self.end = self.buf.len();
    }

    fn compact(&mut self) {
        if self.start == 0 {
            return;
        }
        self.buf.copy_within(self.start..self.end, 0);
        self.end -= self.start;
        self.start = 0;
    }

    /// Frees the backing storage when no bytes are buffered (no-op
    /// otherwise). An idle connection then costs no buffer memory —
    /// what makes tens of thousands of mostly-quiet connections
    /// affordable — at the price of one allocation when its next burst
    /// arrives. Invalidates previously returned spans.
    pub fn release_if_empty(&mut self) {
        if self.buffered() == 0 {
            self.buf = Vec::new();
            self.start = 0;
            self.end = 0;
        }
    }

    /// Yields the span of the next complete frame and marks it consumed.
    /// The span indexes [`FrameBuf::bytes`] and stays valid until the
    /// next fill. Returns `Ok(None)` when no complete frame is buffered.
    ///
    /// # Errors
    ///
    /// Returns a [`GiopError`] when the stream can never become a valid
    /// message (bad magic, unknown type, body over the cap); the
    /// connection should be closed, as with a real ORB sending
    /// `MessageError`.
    pub fn next_span(&mut self) -> Result<Option<Range<usize>>, GiopError> {
        let window = &self.buf[self.start..self.end];
        let Some(header) = FrameHeader::peek(window)? else {
            return Ok(None);
        };
        if header.body_len > self.max_body {
            return Err(GiopError::LengthOverrun {
                what: "GIOP message body",
                declared: header.body_len,
                available: self.max_body,
            });
        }
        let total = header.wire_len();
        if window.len() < total {
            return Ok(None);
        }
        let span = self.start..self.start + total;
        self.start += total;
        Ok(Some(span))
    }

    /// Decodes the next complete frame into an owned [`GiopMessage`] —
    /// the convenience for readers that want the fields rather than the
    /// wire bytes (clients reading replies, the bridge link). Returns
    /// `Ok(None)` when no complete frame is buffered.
    ///
    /// # Errors
    ///
    /// Everything [`FrameBuf::next_span`] rejects, plus any CDR problem
    /// in the body; the frame is consumed either way and the stream
    /// should be closed.
    pub fn next_message(&mut self) -> Result<Option<GiopMessage>, GiopError> {
        match self.next_span()? {
            Some(span) => Frame::parse(&self.buf[span])?.to_message().map(Some),
            None => Ok(None),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::msg::FT_CLIENT_ID_SERVICE_CONTEXT;

    fn sample_request() -> Request {
        Request {
            service_contexts: vec![ServiceContext::new(
                FT_CLIENT_ID_SERVICE_CONTEXT,
                vec![0, 0, 0, 9],
            )],
            request_id: 41,
            response_expected: true,
            object_key: vec![9, 8, 7],
            operation: "observe".into(),
            requesting_principal: vec![1],
            body: vec![0xAB; 13],
        }
    }

    #[test]
    fn header_peek_matches_wire() {
        for order in [ByteOrder::Big, ByteOrder::Little] {
            let wire = GiopMessage::Request(sample_request()).encode(order);
            let h = FrameHeader::peek(&wire).unwrap().unwrap();
            assert_eq!(h.order, order);
            assert_eq!(h.msg_type, MsgType::Request);
            assert_eq!(h.wire_len(), wire.len());
        }
        assert!(FrameHeader::peek(&[0; 5]).unwrap().is_none());
    }

    #[test]
    fn header_peek_accepts_1_0_and_1_1_and_refuses_the_rest() {
        let wire = GiopMessage::Request(sample_request()).encode(ByteOrder::Big);
        let with = |at: usize, v: u8| {
            let mut w = wire.clone();
            w[at] = v;
            w
        };
        assert_eq!(FrameHeader::peek(&wire).unwrap().unwrap().minor, 0);
        assert_eq!(FrameHeader::peek(&with(5, 1)).unwrap().unwrap().minor, 1);
        for minor in [2, 3, 0xFF] {
            assert_eq!(
                FrameHeader::peek(&with(5, minor)),
                Err(GiopError::UnsupportedVersion { major: 1, minor })
            );
        }
        let fragmented = with(6, 0x02);
        assert_eq!(FrameHeader::peek(&fragmented), Err(GiopError::Fragmented));
        assert_eq!(
            FrameHeader::peek(&with(7, 7)),
            Err(GiopError::UnknownMessageType(7))
        );
    }

    #[test]
    fn a_1_1_request_reads_like_its_1_0_twin() {
        let req = sample_request();
        for order in [ByteOrder::Big, ByteOrder::Little] {
            let mut wire = GiopMessage::Request(req.clone()).encode(order);
            wire[5] = 1;
            let frame = Frame::parse(&wire).unwrap();
            let view = frame.request().unwrap().expect("is a request");
            assert_eq!(view.to_owned_request(), req);
            assert_eq!(
                GiopMessage::decode(&wire).unwrap(),
                GiopMessage::Request(req.clone())
            );
        }
    }

    #[test]
    fn request_view_borrows_the_same_fields_decode_copies() {
        let req = sample_request();
        let wire = GiopMessage::Request(req.clone()).encode(ByteOrder::Big);
        let frame = Frame::parse(&wire).unwrap();
        let view = frame.request().unwrap().expect("is a request");
        assert_eq!(view.request_id, req.request_id);
        assert_eq!(view.response_expected, req.response_expected);
        assert_eq!(view.object_key, &req.object_key[..]);
        assert_eq!(view.operation, req.operation);
        assert_eq!(view.requesting_principal, &req.requesting_principal[..]);
        assert_eq!(view.body, &req.body[..]);
        assert_eq!(
            view.service_context(FT_CLIENT_ID_SERVICE_CONTEXT),
            Some(&[0, 0, 0, 9][..])
        );
        assert_eq!(view.service_context(0xDEAD), None);
        assert_eq!(view.to_owned_request(), req);
    }

    #[test]
    fn frame_rejects_trailing_and_missing_bytes() {
        let wire = GiopMessage::CloseConnection.encode(ByteOrder::Big);
        let mut long = wire.clone();
        long.push(0);
        assert!(matches!(
            Frame::parse(&long),
            Err(GiopError::LengthOverrun { .. })
        ));
        assert!(matches!(
            Frame::parse(&wire[..wire.len() - 1]),
            Err(GiopError::Truncated { .. })
        ));
    }

    #[test]
    fn frame_buf_reassembles_and_reuses_storage() {
        let m1 = GiopMessage::Request(sample_request()).encode(ByteOrder::Big);
        let m2 = GiopMessage::CloseConnection.encode(ByteOrder::Big);
        let mut stream = m1.clone();
        stream.extend(&m2);

        let mut fbuf = FrameBuf::new();
        let mut seen = Vec::new();
        for chunk in stream.chunks(3) {
            fbuf.push(chunk);
            while let Some(span) = fbuf.next_span().unwrap() {
                seen.push(fbuf.bytes()[span].to_vec());
            }
        }
        assert_eq!(seen, vec![m1, m2]);
        assert_eq!(fbuf.buffered(), 0);
    }

    #[test]
    fn next_message_decodes_across_chunks_and_surfaces_garbage() {
        let msgs = [
            GiopMessage::Request(sample_request()),
            GiopMessage::CloseConnection,
        ];
        let stream: Vec<u8> = msgs.iter().flat_map(|m| m.encode(ByteOrder::Big)).collect();
        let mut fbuf = FrameBuf::new();
        let mut seen = Vec::new();
        for chunk in stream.chunks(7) {
            fbuf.push(chunk);
            while let Some(msg) = fbuf.next_message().unwrap() {
                seen.push(msg);
            }
        }
        assert_eq!(seen, msgs);
        assert_eq!(fbuf.buffered(), 0);
        fbuf.push(b"HTTP/1.1 200 OK\r\n");
        assert!(fbuf.next_message().is_err());
    }

    #[test]
    fn frame_buf_enforces_body_cap_before_body_arrives() {
        let mut fbuf = FrameBuf::with_max_body(64);
        let mut wire = GiopMessage::CloseConnection.encode(ByteOrder::Big);
        wire[8..12].copy_from_slice(&1_000_000u32.to_be_bytes());
        fbuf.push(&wire);
        assert!(matches!(
            fbuf.next_span(),
            Err(GiopError::LengthOverrun { .. })
        ));
    }
}
