//! Wire encoding of Totem protocol messages.
//!
//! Totem runs directly over best-effort LAN datagrams, so it has its own
//! compact binary format (distinct from the CDR used at the IIOP layer):
//! a 4-byte magic, a kind octet, then big-endian fields.
//!
//! Encoders size each datagram exactly, so a frame shared by its
//! receivers carries no growth slack. [`TotemMsg::decode_frame`] decodes
//! a received datagram in place: every payload it yields is a slice of
//! the datagram's one buffer, shared by every receiver and retained by
//! each receive window without a copy.

use crate::{GroupId, RingEpoch};
use ftd_sim::{Bytes, ProcessorId};
use std::error::Error;
use std::fmt;

/// Magic prefix distinguishing Totem datagrams from any other LAN traffic.
pub const TOTEM_MAGIC: &[u8; 4] = b"TOTM";

/// Decoding errors for Totem datagrams.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireError {
    /// Missing or wrong magic: the datagram is not Totem traffic.
    NotTotem,
    /// The datagram ended early.
    Truncated,
    /// Unknown message kind octet.
    UnknownKind(u8),
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::NotTotem => write!(f, "not a totem datagram"),
            WireError::Truncated => write!(f, "truncated totem datagram"),
            WireError::UnknownKind(k) => write!(f, "unknown totem message kind {k}"),
        }
    }
}

impl Error for WireError {}

/// A regular (sequenced) message broadcast on the ring.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Regular {
    /// Ring incarnation under which this copy was (re)broadcast. Nodes
    /// only accept regulars stamped with their installed epoch, so traffic
    /// from a concurrent sibling ring can never contaminate the store.
    pub epoch: RingEpoch,
    /// Totally ordered sequence number, assigned from the token.
    pub seq: u64,
    /// Original sender.
    pub sender: ProcessorId,
    /// Destination process group.
    pub group: GroupId,
    /// `true` for the directory control messages (group join/leave).
    pub control: bool,
    /// Application payload.
    pub payload: Bytes,
}

/// The rotating token (Totem single-ring protocol).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Token {
    /// Ring incarnation this token belongs to.
    pub epoch: RingEpoch,
    /// Monotonic hop counter; receivers drop tokens they have already
    /// processed (duplicates from retransmission).
    pub token_id: u64,
    /// Highest sequence number assigned so far.
    pub seq: u64,
    /// All-received-up-to: the lowest contiguous receipt point across the
    /// ring, as currently known.
    pub aru: u64,
    /// The member that last lowered `aru`, if any.
    pub aru_id: Option<ProcessorId>,
    /// Ring membership, sorted ascending.
    pub members: Vec<ProcessorId>,
    /// Retransmission requests: sequence numbers some member is missing.
    pub rtr: Vec<u64>,
}

impl Token {
    /// The member after `me` in ring order.
    ///
    /// # Panics
    ///
    /// Panics if `me` is not a ring member.
    pub fn successor_of(&self, me: ProcessorId) -> ProcessorId {
        let idx = self
            .members
            .iter()
            .position(|&p| p == me)
            .expect("successor_of: not a ring member");
        self.members[(idx + 1) % self.members.len()]
    }
}

/// A membership (re)formation request, multicast when the token is lost,
/// when a processor boots, or when a foreign join is observed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Join {
    /// The processor asking to (re)form.
    pub sender: ProcessorId,
    /// Highest ring epoch the sender has seen.
    pub epoch: RingEpoch,
    /// The sender's contiguous receipt point (its aru).
    pub aru: u64,
    /// The highest sequence number the sender has seen at all.
    pub high_seq: u64,
    /// The sender retains all messages in `(retained_from, high_seq]` and
    /// can rebroadcast them during recovery.
    pub retained_from: u64,
    /// `true` if the sender has never been part of an operational ring
    /// (fresh boot or post-crash recovery); fresh nodes do not constrain
    /// the recovery range.
    pub fresh: bool,
}

/// Ring commit, sent by the representative (lowest-id member of the gather
/// consensus): installs the new ring on every listed member.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Commit {
    /// The new ring's epoch.
    pub epoch: RingEpoch,
    /// The representative that formed the ring.
    pub representative: ProcessorId,
    /// New ring membership, sorted ascending.
    pub members: Vec<ProcessorId>,
    /// Sequence numbering resumes above this value.
    pub start_seq: u64,
    /// Lowest aru among surviving members; messages in
    /// `(recovery_floor, start_seq]` are rebroadcast after installation.
    pub recovery_floor: u64,
    /// Snapshot of the group directory as of the representative's
    /// delivery point, so fresh members learn historical joins/leaves.
    pub directory: Vec<(GroupId, Vec<ProcessorId>)>,
}

/// One sequenced message inside a [`Pack`] frame: the per-message fields
/// of a [`Regular`] minus the epoch and sender shared by the whole frame.
/// The entry's `seq` is its own slot in the total order — packing changes
/// how messages share a datagram, never how they are sequenced.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PackEntry {
    /// Totally ordered sequence number, assigned from the token.
    pub seq: u64,
    /// Destination process group.
    pub group: GroupId,
    /// `true` for the directory control messages (group join/leave).
    pub control: bool,
    /// Application payload.
    pub payload: Bytes,
}

/// Several sequenced messages from one sender coalesced into a single
/// LAN datagram — the ring-frame packing that amortizes per-datagram
/// cost when a token visit broadcasts a burst. Receivers unpack the
/// frame into individual [`Regular`]s, so the store, delivery, aru and
/// retransmission machinery are oblivious to packing (retransmissions
/// are always served as plain regulars, one per requested seq).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Pack {
    /// Ring incarnation under which this frame was broadcast.
    pub epoch: RingEpoch,
    /// Original sender of every entry in the frame.
    pub sender: ProcessorId,
    /// The packed messages, in ascending `seq` order as assigned at the
    /// sender's token visit (the per-frame local key is the entry index).
    pub entries: Vec<PackEntry>,
}

impl Pack {
    /// Expands the frame into the individual [`Regular`]s it carries.
    pub fn into_regulars(self) -> impl Iterator<Item = Regular> {
        let epoch = self.epoch;
        let sender = self.sender;
        self.entries.into_iter().map(move |e| Regular {
            epoch,
            seq: e.seq,
            sender,
            group: e.group,
            control: e.control,
            payload: e.payload,
        })
    }
}

/// A periodic presence announcement multicast by the ring representative,
/// so that sibling rings (formed during a partition) discover each other
/// after the network heals and merge.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Beacon {
    /// The announcing ring's epoch.
    pub epoch: RingEpoch,
    /// The representative sending the beacon.
    pub sender: ProcessorId,
}

/// Any Totem datagram.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TotemMsg {
    /// Sequenced broadcast (possibly a retransmission).
    Regular(Regular),
    /// The rotating token (unicast to the successor).
    Token(Token),
    /// Membership formation request.
    Join(Join),
    /// Ring installation by the representative.
    Commit(Commit),
    /// Representative presence announcement.
    Beacon(Beacon),
    /// Several sequenced broadcasts coalesced into one datagram.
    Pack(Pack),
}

/// Bytes before the first field: magic and kind octet.
const PREFIX: usize = TOTEM_MAGIC.len() + 1;

struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    /// A writer for a datagram of exactly `len` bytes, prefix included.
    fn new(kind: u8, len: usize) -> Self {
        let mut buf = Vec::with_capacity(len);
        buf.extend(TOTEM_MAGIC);
        buf.push(kind);
        Writer { buf }
    }
    fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }
    fn u32(&mut self, v: u32) {
        self.buf.extend(v.to_be_bytes());
    }
    fn u64(&mut self, v: u64) {
        self.buf.extend(v.to_be_bytes());
    }
    fn bytes(&mut self, v: &[u8]) {
        self.u32(v.len() as u32);
        self.buf.extend(v);
    }
    fn procs(&mut self, v: &[ProcessorId]) {
        self.u32(v.len() as u32);
        for p in v {
            self.u32(p.0);
        }
    }
}

/// Reads fields from `frame`; byte fields come out as shared slices of it.
struct Reader<'a> {
    frame: &'a Bytes,
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        if self.buf.len() - self.pos < n {
            return Err(WireError::Truncated);
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }
    fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }
    fn u32(&mut self) -> Result<u32, WireError> {
        Ok(u32::from_be_bytes(self.take(4)?.try_into().expect("len 4")))
    }
    fn u64(&mut self) -> Result<u64, WireError> {
        Ok(u64::from_be_bytes(self.take(8)?.try_into().expect("len 8")))
    }
    fn bytes(&mut self) -> Result<Bytes, WireError> {
        let n = self.u32()? as usize;
        if n > self.buf.len() - self.pos {
            return Err(WireError::Truncated);
        }
        let at = self.pos;
        self.take(n)?;
        Ok(self.frame.slice(at..at + n))
    }
    fn procs(&mut self) -> Result<Vec<ProcessorId>, WireError> {
        let n = self.u32()? as usize;
        if n > self.buf.len() - self.pos {
            return Err(WireError::Truncated);
        }
        (0..n).map(|_| Ok(ProcessorId(self.u32()?))).collect()
    }
}

impl TotemMsg {
    /// Length of the encoded datagram, in bytes.
    fn encoded_len(&self) -> usize {
        // The u32 element count in front of every list.
        const COUNT: usize = 4;
        PREFIX
            + match self {
                TotemMsg::Regular(m) => 8 + 8 + 4 + 4 + 1 + 4 + m.payload.len(),
                TotemMsg::Token(t) => {
                    8 * 4 + 4 + COUNT + 4 * t.members.len() + COUNT + 8 * t.rtr.len()
                }
                TotemMsg::Join(_) => 4 + 8 * 4 + 1,
                TotemMsg::Beacon(_) => 8 + 4,
                TotemMsg::Pack(p) => {
                    8 + 4
                        + COUNT
                        + p.entries
                            .iter()
                            .map(|e| 8 + 4 + 1 + 4 + e.payload.len())
                            .sum::<usize>()
                }
                TotemMsg::Commit(c) => {
                    8 + 4
                        + COUNT
                        + 4 * c.members.len()
                        + 8
                        + 8
                        + COUNT
                        + c.directory
                            .iter()
                            .map(|(_, procs)| 4 + COUNT + 4 * procs.len())
                            .sum::<usize>()
                }
            }
    }

    /// Encodes the message for transmission, into a buffer of exactly
    /// its length.
    pub fn encode(&self) -> Vec<u8> {
        let len = self.encoded_len();
        let buf = match self {
            TotemMsg::Regular(m) => {
                let mut w = Writer::new(1, len);
                w.u64(m.epoch.0);
                w.u64(m.seq);
                w.u32(m.sender.0);
                w.u32(m.group.0);
                w.u8(m.control as u8);
                w.bytes(&m.payload);
                w.buf
            }
            TotemMsg::Token(t) => {
                let mut w = Writer::new(2, len);
                w.u64(t.epoch.0);
                w.u64(t.token_id);
                w.u64(t.seq);
                w.u64(t.aru);
                w.u32(t.aru_id.map_or(u32::MAX, |p| p.0));
                w.procs(&t.members);
                w.u32(t.rtr.len() as u32);
                for &s in &t.rtr {
                    w.u64(s);
                }
                w.buf
            }
            TotemMsg::Join(j) => {
                let mut w = Writer::new(3, len);
                w.u32(j.sender.0);
                w.u64(j.epoch.0);
                w.u64(j.aru);
                w.u64(j.high_seq);
                w.u64(j.retained_from);
                w.u8(j.fresh as u8);
                w.buf
            }
            TotemMsg::Beacon(b) => {
                let mut w = Writer::new(5, len);
                w.u64(b.epoch.0);
                w.u32(b.sender.0);
                w.buf
            }
            TotemMsg::Pack(p) => {
                let mut w = Writer::new(6, len);
                w.u64(p.epoch.0);
                w.u32(p.sender.0);
                w.u32(p.entries.len() as u32);
                for e in &p.entries {
                    w.u64(e.seq);
                    w.u32(e.group.0);
                    w.u8(e.control as u8);
                    w.bytes(&e.payload);
                }
                w.buf
            }
            TotemMsg::Commit(c) => {
                let mut w = Writer::new(4, len);
                w.u64(c.epoch.0);
                w.u32(c.representative.0);
                w.procs(&c.members);
                w.u64(c.start_seq);
                w.u64(c.recovery_floor);
                w.u32(c.directory.len() as u32);
                for (g, procs) in &c.directory {
                    w.u32(g.0);
                    w.procs(procs);
                }
                w.buf
            }
        };
        debug_assert_eq!(buf.len(), len, "encoded_len disagrees with encode");
        buf
    }

    /// Decodes a datagram from borrowed bytes; payloads are copied out.
    /// Returns [`WireError::NotTotem`] for non-Totem traffic so hosts can
    /// route datagrams among protocol components.
    ///
    /// # Errors
    ///
    /// Returns a [`WireError`] for foreign, truncated or unknown datagrams.
    pub fn decode(bytes: &[u8]) -> Result<TotemMsg, WireError> {
        if bytes.len() < PREFIX || &bytes[0..4] != TOTEM_MAGIC {
            return Err(WireError::NotTotem);
        }
        Self::decode_frame(&Bytes::from(bytes))
    }

    /// Decodes a received datagram in place: every payload is a shared
    /// slice of `frame`, so a frame packing several messages stays one
    /// buffer however many receivers and windows retain its messages.
    ///
    /// # Errors
    ///
    /// As [`TotemMsg::decode`].
    pub fn decode_frame(frame: &Bytes) -> Result<TotemMsg, WireError> {
        let bytes: &[u8] = frame;
        if bytes.len() < PREFIX || &bytes[0..4] != TOTEM_MAGIC {
            return Err(WireError::NotTotem);
        }
        let kind = bytes[4];
        let mut r = Reader {
            frame,
            buf: bytes,
            pos: PREFIX,
        };
        Ok(match kind {
            1 => TotemMsg::Regular(Regular {
                epoch: RingEpoch(r.u64()?),
                seq: r.u64()?,
                sender: ProcessorId(r.u32()?),
                group: GroupId(r.u32()?),
                control: r.u8()? != 0,
                payload: r.bytes()?,
            }),
            2 => {
                let epoch = RingEpoch(r.u64()?);
                let token_id = r.u64()?;
                let seq = r.u64()?;
                let aru = r.u64()?;
                let aru_raw = r.u32()?;
                let members = r.procs()?;
                let n = r.u32()? as usize;
                if n > bytes.len() {
                    return Err(WireError::Truncated);
                }
                let mut rtr = Vec::with_capacity(n);
                for _ in 0..n {
                    rtr.push(r.u64()?);
                }
                TotemMsg::Token(Token {
                    epoch,
                    token_id,
                    seq,
                    aru,
                    aru_id: (aru_raw != u32::MAX).then_some(ProcessorId(aru_raw)),
                    members,
                    rtr,
                })
            }
            3 => TotemMsg::Join(Join {
                sender: ProcessorId(r.u32()?),
                epoch: RingEpoch(r.u64()?),
                aru: r.u64()?,
                high_seq: r.u64()?,
                retained_from: r.u64()?,
                fresh: r.u8()? != 0,
            }),
            4 => {
                let epoch = RingEpoch(r.u64()?);
                let representative = ProcessorId(r.u32()?);
                let members = r.procs()?;
                let start_seq = r.u64()?;
                let recovery_floor = r.u64()?;
                let n = r.u32()? as usize;
                if n > bytes.len() {
                    return Err(WireError::Truncated);
                }
                let mut directory = Vec::with_capacity(n);
                for _ in 0..n {
                    let g = GroupId(r.u32()?);
                    directory.push((g, r.procs()?));
                }
                TotemMsg::Commit(Commit {
                    epoch,
                    representative,
                    members,
                    start_seq,
                    recovery_floor,
                    directory,
                })
            }
            5 => TotemMsg::Beacon(Beacon {
                epoch: RingEpoch(r.u64()?),
                sender: ProcessorId(r.u32()?),
            }),
            6 => {
                let epoch = RingEpoch(r.u64()?);
                let sender = ProcessorId(r.u32()?);
                let n = r.u32()? as usize;
                if n > bytes.len() {
                    return Err(WireError::Truncated);
                }
                let mut entries = Vec::with_capacity(n);
                for _ in 0..n {
                    entries.push(PackEntry {
                        seq: r.u64()?,
                        group: GroupId(r.u32()?),
                        control: r.u8()? != 0,
                        payload: r.bytes()?,
                    });
                }
                TotemMsg::Pack(Pack {
                    epoch,
                    sender,
                    entries,
                })
            }
            other => return Err(WireError::UnknownKind(other)),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_token() -> Token {
        Token {
            epoch: RingEpoch(3),
            token_id: 17,
            seq: 120,
            aru: 100,
            aru_id: Some(ProcessorId(2)),
            members: vec![ProcessorId(0), ProcessorId(2), ProcessorId(5)],
            rtr: vec![101, 117],
        }
    }

    #[test]
    fn regular_round_trip() {
        let m = TotemMsg::Regular(Regular {
            epoch: RingEpoch(7),
            seq: 42,
            sender: ProcessorId(3),
            group: GroupId(9),
            control: true,
            payload: vec![1, 2, 3].into(),
        });
        assert_eq!(TotemMsg::decode(&m.encode()).unwrap(), m);
    }

    #[test]
    fn token_round_trip() {
        let m = TotemMsg::Token(sample_token());
        assert_eq!(TotemMsg::decode(&m.encode()).unwrap(), m);
    }

    #[test]
    fn token_without_aru_id_round_trips() {
        let mut t = sample_token();
        t.aru_id = None;
        let m = TotemMsg::Token(t);
        assert_eq!(TotemMsg::decode(&m.encode()).unwrap(), m);
    }

    #[test]
    fn join_and_commit_round_trip() {
        let j = TotemMsg::Join(Join {
            sender: ProcessorId(7),
            epoch: RingEpoch(2),
            aru: 55,
            high_seq: 60,
            retained_from: 40,
            fresh: true,
        });
        assert_eq!(TotemMsg::decode(&j.encode()).unwrap(), j);

        let c = TotemMsg::Commit(Commit {
            epoch: RingEpoch(4),
            representative: ProcessorId(0),
            members: vec![ProcessorId(0), ProcessorId(1)],
            start_seq: 60,
            recovery_floor: 55,
            directory: vec![
                (GroupId(1), vec![ProcessorId(0)]),
                (GroupId(2), vec![ProcessorId(0), ProcessorId(1)]),
            ],
        });
        assert_eq!(TotemMsg::decode(&c.encode()).unwrap(), c);
    }

    fn sample_pack() -> Pack {
        Pack {
            epoch: RingEpoch(11),
            sender: ProcessorId(2),
            entries: vec![
                PackEntry {
                    seq: 43,
                    group: GroupId(9),
                    control: false,
                    payload: vec![1, 2, 3].into(),
                },
                PackEntry {
                    seq: 44,
                    group: GroupId(10),
                    control: true,
                    payload: Vec::new().into(),
                },
                PackEntry {
                    seq: 45,
                    group: GroupId(9),
                    control: false,
                    payload: vec![0xFF; 300].into(),
                },
            ],
        }
    }

    #[test]
    fn pack_round_trip() {
        let m = TotemMsg::Pack(sample_pack());
        assert_eq!(TotemMsg::decode(&m.encode()).unwrap(), m);
    }

    #[test]
    fn empty_pack_round_trips() {
        let m = TotemMsg::Pack(Pack {
            epoch: RingEpoch(1),
            sender: ProcessorId(0),
            entries: Vec::new(),
        });
        assert_eq!(TotemMsg::decode(&m.encode()).unwrap(), m);
    }

    #[test]
    fn pack_truncation_detected() {
        let m = TotemMsg::Pack(sample_pack()).encode();
        for cut in 5..m.len() {
            assert_eq!(
                TotemMsg::decode(&m[..cut]),
                Err(WireError::Truncated),
                "cut at {cut}"
            );
        }
    }

    #[test]
    fn encoders_size_every_datagram_exactly() {
        let msgs = [
            TotemMsg::Pack(sample_pack()),
            TotemMsg::Token(sample_token()),
            TotemMsg::Beacon(Beacon {
                epoch: RingEpoch(1),
                sender: ProcessorId(2),
            }),
        ];
        for m in msgs {
            let wire = m.encode();
            assert_eq!(wire.len(), m.encoded_len());
            assert_eq!(wire.capacity(), wire.len(), "slack in {m:?}");
        }
    }

    #[test]
    fn decode_frame_slices_payloads_out_of_the_datagram() {
        let frame = Bytes::from(TotemMsg::Pack(sample_pack()).encode());
        let Ok(TotemMsg::Pack(p)) = TotemMsg::decode_frame(&frame) else {
            panic!("not a pack");
        };
        let base = frame.as_ptr() as usize;
        for e in &p.entries {
            let at = e.payload.as_ptr() as usize - base;
            assert!(
                at + e.payload.len() <= frame.len(),
                "payload outside the frame"
            );
            assert_eq!(e.payload.frame_len(), frame.len());
        }
        assert_eq!(TotemMsg::Pack(p), TotemMsg::Pack(sample_pack()));
    }

    #[test]
    fn pack_expands_to_regulars_in_order() {
        let p = sample_pack();
        let regulars: Vec<Regular> = p.clone().into_regulars().collect();
        assert_eq!(regulars.len(), 3);
        for (entry, r) in p.entries.iter().zip(&regulars) {
            assert_eq!(r.epoch, p.epoch);
            assert_eq!(r.sender, p.sender);
            assert_eq!(r.seq, entry.seq);
            assert_eq!(r.group, entry.group);
            assert_eq!(r.control, entry.control);
            assert_eq!(r.payload, entry.payload);
        }
    }

    #[test]
    fn beacon_round_trip() {
        let b = TotemMsg::Beacon(Beacon {
            epoch: RingEpoch(9),
            sender: ProcessorId(4),
        });
        assert_eq!(TotemMsg::decode(&b.encode()).unwrap(), b);
    }

    #[test]
    fn foreign_datagrams_are_not_totem() {
        assert_eq!(TotemMsg::decode(b"GIOP....."), Err(WireError::NotTotem));
        assert_eq!(TotemMsg::decode(b""), Err(WireError::NotTotem));
    }

    #[test]
    fn truncation_detected() {
        let m = TotemMsg::Token(sample_token()).encode();
        for cut in 5..m.len() {
            assert_eq!(
                TotemMsg::decode(&m[..cut]),
                Err(WireError::Truncated),
                "cut at {cut}"
            );
        }
    }

    #[test]
    fn unknown_kind_detected() {
        let mut m = TotemMsg::Join(Join {
            sender: ProcessorId(1),
            epoch: RingEpoch(0),
            aru: 0,
            high_seq: 0,
            retained_from: 0,
            fresh: false,
        })
        .encode();
        m[4] = 200;
        assert_eq!(TotemMsg::decode(&m), Err(WireError::UnknownKind(200)));
    }

    #[test]
    fn successor_wraps_around() {
        let t = sample_token();
        assert_eq!(t.successor_of(ProcessorId(0)), ProcessorId(2));
        assert_eq!(t.successor_of(ProcessorId(5)), ProcessorId(0));
    }
}
