//! Common Data Representation (CDR) encoding, as used by GIOP.
//!
//! CDR aligns every primitive on its natural boundary *relative to the start
//! of the enclosing message (or encapsulation)*, and supports both byte
//! orders, with the receiver converting if necessary ("receiver makes
//! right"). Encapsulations are `sequence<octet>` values whose content is
//! itself CDR with its own alignment origin and a leading endianness octet.

use crate::GiopError;

/// Byte order of a CDR stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ByteOrder {
    /// Big-endian (network order); the default for this implementation.
    #[default]
    Big,
    /// Little-endian.
    Little,
}

impl ByteOrder {
    /// The endianness flag octet used in encapsulations and GIOP headers
    /// (`0` = big-endian, `1` = little-endian).
    pub fn flag(self) -> u8 {
        match self {
            ByteOrder::Big => 0,
            ByteOrder::Little => 1,
        }
    }

    /// Parses the endianness flag octet.
    pub fn from_flag(flag: u8) -> ByteOrder {
        if flag & 1 == 0 {
            ByteOrder::Big
        } else {
            ByteOrder::Little
        }
    }
}

/// A CDR encoder writing into an owned buffer.
///
/// # Examples
///
/// ```
/// use ftd_giop::{CdrEncoder, CdrDecoder, ByteOrder};
///
/// let mut enc = CdrEncoder::new(ByteOrder::Big);
/// enc.write_octet(1);
/// enc.write_ulong(0xDEAD_BEEF); // aligned to 4: three pad bytes inserted
/// let bytes = enc.into_bytes();
/// assert_eq!(bytes.len(), 8);
///
/// let mut dec = CdrDecoder::new(&bytes, ByteOrder::Big);
/// assert_eq!(dec.read_octet().unwrap(), 1);
/// assert_eq!(dec.read_ulong().unwrap(), 0xDEAD_BEEF);
/// ```
#[derive(Debug, Clone, Default)]
pub struct CdrEncoder {
    buf: Vec<u8>,
    order: ByteOrder,
    origin: usize,
}

impl CdrEncoder {
    /// Creates an encoder producing the given byte order.
    pub fn new(order: ByteOrder) -> Self {
        CdrEncoder {
            buf: Vec::new(),
            order,
            origin: 0,
        }
    }

    /// Creates a big-endian encoder whose alignment origin accounts for
    /// `offset` bytes already written upstream (used when a header was
    /// encoded separately). The produced bytes exclude those `offset` bytes.
    pub fn with_offset(order: ByteOrder, offset: usize) -> Self {
        // Alignment is computed as (origin + buf.len()) % n.
        CdrEncoder {
            buf: Vec::new(),
            order,
            origin: offset,
        }
    }

    /// An encoder that appends to `buf`, aligning relative to its start:
    /// a message header already written there is part of the alignment
    /// origin, and the body lands behind it without a second copy.
    pub(crate) fn after(buf: Vec<u8>, order: ByteOrder) -> Self {
        CdrEncoder {
            buf,
            order,
            origin: 0,
        }
    }

    /// Bytes written so far (excluding any origin offset).
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// `true` if nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Consumes the encoder, returning the encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// The bytes written so far.
    pub fn as_bytes(&self) -> &[u8] {
        &self.buf
    }

    fn align(&mut self, n: usize) {
        let pos = self.origin + self.buf.len();
        let pad = (n - pos % n) % n;
        self.buf.extend(std::iter::repeat_n(0u8, pad));
    }

    /// Writes a single octet (no alignment).
    pub fn write_octet(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Writes a boolean as one octet (1 = true).
    pub fn write_bool(&mut self, v: bool) {
        self.write_octet(v as u8);
    }

    /// Writes a 16-bit unsigned integer, 2-aligned.
    pub fn write_ushort(&mut self, v: u16) {
        self.align(2);
        match self.order {
            ByteOrder::Big => self.buf.extend(v.to_be_bytes()),
            ByteOrder::Little => self.buf.extend(v.to_le_bytes()),
        }
    }

    /// Writes a 16-bit signed integer, 2-aligned.
    pub fn write_short(&mut self, v: i16) {
        self.write_ushort(v as u16);
    }

    /// Writes a 32-bit unsigned integer, 4-aligned.
    pub fn write_ulong(&mut self, v: u32) {
        self.align(4);
        match self.order {
            ByteOrder::Big => self.buf.extend(v.to_be_bytes()),
            ByteOrder::Little => self.buf.extend(v.to_le_bytes()),
        }
    }

    /// Writes a 32-bit signed integer, 4-aligned.
    pub fn write_long(&mut self, v: i32) {
        self.write_ulong(v as u32);
    }

    /// Writes a 64-bit unsigned integer, 8-aligned.
    pub fn write_ulonglong(&mut self, v: u64) {
        self.align(8);
        match self.order {
            ByteOrder::Big => self.buf.extend(v.to_be_bytes()),
            ByteOrder::Little => self.buf.extend(v.to_le_bytes()),
        }
    }

    /// Writes a 64-bit signed integer, 8-aligned.
    pub fn write_longlong(&mut self, v: i64) {
        self.write_ulonglong(v as u64);
    }

    /// Writes an IEEE-754 double, 8-aligned.
    pub fn write_double(&mut self, v: f64) {
        self.write_ulonglong(v.to_bits());
    }

    /// Writes a CDR string: ulong length (including the terminating NUL),
    /// the UTF-8 bytes, then the NUL.
    pub fn write_string(&mut self, s: &str) {
        self.write_ulong(s.len() as u32 + 1);
        self.buf.extend(s.as_bytes());
        self.buf.push(0);
    }

    /// Writes a `sequence<octet>`: ulong length then the raw bytes.
    pub fn write_octets(&mut self, bytes: &[u8]) {
        self.write_ulong(bytes.len() as u32);
        self.buf.extend(bytes);
    }

    /// Writes raw bytes with no length prefix and no alignment (for values
    /// whose framing is external, e.g. a message body).
    pub fn write_raw(&mut self, bytes: &[u8]) {
        self.buf.extend(bytes);
    }

    /// Writes an encapsulation: a `sequence<octet>` whose content begins
    /// with an endianness flag octet and uses its own alignment origin.
    /// `fill` receives a fresh encoder for the interior.
    pub fn write_encapsulation(&mut self, fill: impl FnOnce(&mut CdrEncoder)) {
        let mut inner = CdrEncoder::new(self.order);
        inner.write_octet(self.order.flag());
        fill(&mut inner);
        self.write_octets(&inner.into_bytes());
    }
}

/// A CDR decoder over a borrowed buffer.
#[derive(Debug, Clone)]
pub struct CdrDecoder<'a> {
    buf: &'a [u8],
    pos: usize,
    origin: usize,
    order: ByteOrder,
}

impl<'a> CdrDecoder<'a> {
    /// Creates a decoder with alignment origin at the start of `buf`.
    pub fn new(buf: &'a [u8], order: ByteOrder) -> Self {
        CdrDecoder {
            buf,
            pos: 0,
            origin: 0,
            order,
        }
    }

    /// Creates a decoder whose alignment origin accounts for `offset` bytes
    /// consumed upstream (e.g. a separately-parsed header).
    pub fn with_offset(buf: &'a [u8], order: ByteOrder, offset: usize) -> Self {
        CdrDecoder {
            buf,
            pos: 0,
            origin: offset,
            order,
        }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// The unconsumed tail of the buffer.
    pub fn rest(&self) -> &'a [u8] {
        &self.buf[self.pos..]
    }

    /// Current read position.
    pub fn position(&self) -> usize {
        self.pos
    }

    fn align(&mut self, n: usize) -> Result<(), GiopError> {
        let pos = self.origin + self.pos;
        let pad = (n - pos % n) % n;
        self.take(pad, "alignment padding")?;
        Ok(())
    }

    fn take(&mut self, n: usize, what: &'static str) -> Result<&'a [u8], GiopError> {
        if self.remaining() < n {
            return Err(GiopError::Truncated {
                what,
                needed: n - self.remaining(),
                remaining: self.remaining(),
            });
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Reads one octet.
    ///
    /// # Errors
    ///
    /// Returns [`GiopError::Truncated`] if the buffer is exhausted.
    pub fn read_octet(&mut self) -> Result<u8, GiopError> {
        Ok(self.take(1, "octet")?[0])
    }

    /// Reads a boolean octet.
    ///
    /// # Errors
    ///
    /// Returns [`GiopError::Truncated`] if the buffer is exhausted.
    pub fn read_bool(&mut self) -> Result<bool, GiopError> {
        Ok(self.read_octet()? != 0)
    }

    /// Reads a 2-aligned 16-bit unsigned integer.
    ///
    /// # Errors
    ///
    /// Returns [`GiopError::Truncated`] if the buffer is exhausted.
    pub fn read_ushort(&mut self) -> Result<u16, GiopError> {
        self.align(2)?;
        let b: [u8; 2] = self.take(2, "ushort")?.try_into().expect("len 2");
        Ok(match self.order {
            ByteOrder::Big => u16::from_be_bytes(b),
            ByteOrder::Little => u16::from_le_bytes(b),
        })
    }

    /// Reads a 2-aligned 16-bit signed integer.
    ///
    /// # Errors
    ///
    /// Returns [`GiopError::Truncated`] if the buffer is exhausted.
    pub fn read_short(&mut self) -> Result<i16, GiopError> {
        Ok(self.read_ushort()? as i16)
    }

    /// Reads a 4-aligned 32-bit unsigned integer.
    ///
    /// # Errors
    ///
    /// Returns [`GiopError::Truncated`] if the buffer is exhausted.
    pub fn read_ulong(&mut self) -> Result<u32, GiopError> {
        self.align(4)?;
        let b: [u8; 4] = self.take(4, "ulong")?.try_into().expect("len 4");
        Ok(match self.order {
            ByteOrder::Big => u32::from_be_bytes(b),
            ByteOrder::Little => u32::from_le_bytes(b),
        })
    }

    /// Reads a 4-aligned 32-bit signed integer.
    ///
    /// # Errors
    ///
    /// Returns [`GiopError::Truncated`] if the buffer is exhausted.
    pub fn read_long(&mut self) -> Result<i32, GiopError> {
        Ok(self.read_ulong()? as i32)
    }

    /// Reads an 8-aligned 64-bit unsigned integer.
    ///
    /// # Errors
    ///
    /// Returns [`GiopError::Truncated`] if the buffer is exhausted.
    pub fn read_ulonglong(&mut self) -> Result<u64, GiopError> {
        self.align(8)?;
        let b: [u8; 8] = self.take(8, "ulonglong")?.try_into().expect("len 8");
        Ok(match self.order {
            ByteOrder::Big => u64::from_be_bytes(b),
            ByteOrder::Little => u64::from_le_bytes(b),
        })
    }

    /// Reads an 8-aligned 64-bit signed integer.
    ///
    /// # Errors
    ///
    /// Returns [`GiopError::Truncated`] if the buffer is exhausted.
    pub fn read_longlong(&mut self) -> Result<i64, GiopError> {
        Ok(self.read_ulonglong()? as i64)
    }

    /// Reads an 8-aligned IEEE-754 double.
    ///
    /// # Errors
    ///
    /// Returns [`GiopError::Truncated`] if the buffer is exhausted.
    pub fn read_double(&mut self) -> Result<f64, GiopError> {
        Ok(f64::from_bits(self.read_ulonglong()?))
    }

    /// Reads a CDR string.
    ///
    /// # Errors
    ///
    /// Returns [`GiopError::Truncated`] on exhaustion,
    /// [`GiopError::LengthOverrun`] if the declared length exceeds the
    /// buffer, and [`GiopError::BadString`] on a missing NUL or bad UTF-8.
    pub fn read_string(&mut self) -> Result<String, GiopError> {
        let len = self.read_ulong()? as usize;
        if len == 0 {
            return Err(GiopError::BadString);
        }
        if len > self.remaining() {
            return Err(GiopError::LengthOverrun {
                what: "string",
                declared: len,
                available: self.remaining(),
            });
        }
        let bytes = self.take(len, "string body")?;
        let (nul, content) = bytes.split_last().expect("len >= 1");
        if *nul != 0 {
            return Err(GiopError::BadString);
        }
        String::from_utf8(content.to_vec()).map_err(|_| GiopError::BadString)
    }

    /// Reads a CDR string as a borrowed `&str` (zero-copy sibling of
    /// [`CdrDecoder::read_string`]).
    ///
    /// # Errors
    ///
    /// Returns [`GiopError::Truncated`] on exhaustion,
    /// [`GiopError::LengthOverrun`] if the declared length exceeds the
    /// buffer, and [`GiopError::BadString`] on a missing NUL or bad UTF-8.
    pub fn read_str(&mut self) -> Result<&'a str, GiopError> {
        let len = self.read_ulong()? as usize;
        if len == 0 {
            return Err(GiopError::BadString);
        }
        if len > self.remaining() {
            return Err(GiopError::LengthOverrun {
                what: "string",
                declared: len,
                available: self.remaining(),
            });
        }
        let bytes = self.take(len, "string body")?;
        let (nul, content) = bytes.split_last().expect("len >= 1");
        if *nul != 0 {
            return Err(GiopError::BadString);
        }
        std::str::from_utf8(content).map_err(|_| GiopError::BadString)
    }

    /// Reads a `sequence<octet>` as a borrowed slice (zero-copy sibling of
    /// [`CdrDecoder::read_octets`]).
    ///
    /// # Errors
    ///
    /// Returns [`GiopError::Truncated`] on exhaustion or
    /// [`GiopError::LengthOverrun`] if the declared length exceeds the
    /// buffer.
    pub fn read_octets_ref(&mut self) -> Result<&'a [u8], GiopError> {
        let len = self.read_ulong()? as usize;
        if len > self.remaining() {
            return Err(GiopError::LengthOverrun {
                what: "sequence<octet>",
                declared: len,
                available: self.remaining(),
            });
        }
        self.take(len, "sequence<octet> body")
    }

    /// Reads a `sequence<octet>`.
    ///
    /// # Errors
    ///
    /// Returns [`GiopError::Truncated`] on exhaustion or
    /// [`GiopError::LengthOverrun`] if the declared length exceeds the
    /// buffer.
    pub fn read_octets(&mut self) -> Result<Vec<u8>, GiopError> {
        let len = self.read_ulong()? as usize;
        if len > self.remaining() {
            return Err(GiopError::LengthOverrun {
                what: "sequence<octet>",
                declared: len,
                available: self.remaining(),
            });
        }
        Ok(self.take(len, "sequence<octet> body")?.to_vec())
    }

    /// Reads an encapsulation and hands a fresh decoder over its interior
    /// (after the endianness flag octet) to `parse`.
    ///
    /// # Errors
    ///
    /// Propagates decoding errors from the outer sequence and from `parse`.
    pub fn read_encapsulation<T>(
        &mut self,
        parse: impl FnOnce(&mut CdrDecoder<'_>) -> Result<T, GiopError>,
    ) -> Result<T, GiopError> {
        let bytes = self.read_octets()?;
        if bytes.is_empty() {
            return Err(GiopError::Truncated {
                what: "encapsulation endian flag",
                needed: 1,
                remaining: 0,
            });
        }
        let order = ByteOrder::from_flag(bytes[0]);
        let mut inner = CdrDecoder::with_offset(&bytes[1..], order, 1);
        parse(&mut inner)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alignment_pads_relative_to_origin() {
        let mut enc = CdrEncoder::new(ByteOrder::Big);
        enc.write_octet(0xAA);
        enc.write_ulong(1); // pads 3
        enc.write_octet(0xBB);
        enc.write_ulonglong(2); // at pos 9, pads 7
        let b = enc.into_bytes();
        assert_eq!(b.len(), 1 + 3 + 4 + 1 + 7 + 8);

        let mut dec = CdrDecoder::new(&b, ByteOrder::Big);
        assert_eq!(dec.read_octet().unwrap(), 0xAA);
        assert_eq!(dec.read_ulong().unwrap(), 1);
        assert_eq!(dec.read_octet().unwrap(), 0xBB);
        assert_eq!(dec.read_ulonglong().unwrap(), 2);
        assert_eq!(dec.remaining(), 0);
    }

    #[test]
    fn little_endian_round_trip() {
        let mut enc = CdrEncoder::new(ByteOrder::Little);
        enc.write_ushort(0x1234);
        enc.write_ulong(0x5678_9ABC);
        enc.write_longlong(-42);
        enc.write_double(2.5);
        let b = enc.into_bytes();
        let mut dec = CdrDecoder::new(&b, ByteOrder::Little);
        assert_eq!(dec.read_ushort().unwrap(), 0x1234);
        assert_eq!(dec.read_ulong().unwrap(), 0x5678_9ABC);
        assert_eq!(dec.read_longlong().unwrap(), -42);
        assert_eq!(dec.read_double().unwrap(), 2.5);
    }

    #[test]
    fn wrong_order_scrambles() {
        let mut enc = CdrEncoder::new(ByteOrder::Big);
        enc.write_ulong(1);
        let b = enc.into_bytes();
        let mut dec = CdrDecoder::new(&b, ByteOrder::Little);
        assert_eq!(dec.read_ulong().unwrap(), 0x0100_0000);
    }

    #[test]
    fn string_round_trip_and_nul() {
        let mut enc = CdrEncoder::new(ByteOrder::Big);
        enc.write_string("push");
        enc.write_string("");
        let b = enc.into_bytes();
        let mut dec = CdrDecoder::new(&b, ByteOrder::Big);
        assert_eq!(dec.read_string().unwrap(), "push");
        assert_eq!(dec.read_string().unwrap(), "");
        assert_eq!(dec.remaining(), 0);
    }

    #[test]
    fn string_missing_nul_is_rejected() {
        let mut enc = CdrEncoder::new(ByteOrder::Big);
        enc.write_ulong(2);
        enc.write_raw(b"ab"); // declared len 2, last byte not NUL
        let b = enc.into_bytes();
        let mut dec = CdrDecoder::new(&b, ByteOrder::Big);
        assert_eq!(dec.read_string(), Err(GiopError::BadString));
    }

    #[test]
    fn octets_length_overrun_is_rejected() {
        let mut enc = CdrEncoder::new(ByteOrder::Big);
        enc.write_ulong(1000);
        enc.write_raw(b"short");
        let b = enc.into_bytes();
        let mut dec = CdrDecoder::new(&b, ByteOrder::Big);
        assert!(matches!(
            dec.read_octets(),
            Err(GiopError::LengthOverrun { .. })
        ));
    }

    #[test]
    fn truncated_primitive_reports_need() {
        let mut dec = CdrDecoder::new(&[0, 0], ByteOrder::Big);
        match dec.read_ulong() {
            Err(GiopError::Truncated { needed, .. }) => assert_eq!(needed, 2),
            other => panic!("expected truncation, got {other:?}"),
        }
    }

    #[test]
    fn encapsulation_restarts_alignment_and_carries_order() {
        let mut enc = CdrEncoder::new(ByteOrder::Big);
        enc.write_octet(0xFF); // misalign the outer stream
        enc.write_encapsulation(|inner| {
            inner.write_ulong(7);
            inner.write_string("x");
        });
        let b = enc.into_bytes();
        let mut dec = CdrDecoder::new(&b, ByteOrder::Big);
        assert_eq!(dec.read_octet().unwrap(), 0xFF);
        let (v, s) = dec
            .read_encapsulation(|inner| Ok((inner.read_ulong()?, inner.read_string()?)))
            .unwrap();
        assert_eq!(v, 7);
        assert_eq!(s, "x");
    }

    #[test]
    fn with_offset_matches_contiguous_encoding() {
        // Encoding with a 12-byte origin offset must equal the tail of a
        // contiguous encoding that starts with 12 header bytes.
        let mut whole = CdrEncoder::new(ByteOrder::Big);
        whole.write_raw(&[0u8; 12]);
        whole.write_octet(1);
        whole.write_ulonglong(9);
        let whole = whole.into_bytes();

        let mut tail = CdrEncoder::with_offset(ByteOrder::Big, 12);
        tail.write_octet(1);
        tail.write_ulonglong(9);
        assert_eq!(&whole[12..], tail.as_bytes());
    }

    #[test]
    fn bool_round_trip() {
        let mut enc = CdrEncoder::new(ByteOrder::Big);
        enc.write_bool(true);
        enc.write_bool(false);
        let b = enc.into_bytes();
        let mut dec = CdrDecoder::new(&b, ByteOrder::Big);
        assert!(dec.read_bool().unwrap());
        assert!(!dec.read_bool().unwrap());
    }
}
