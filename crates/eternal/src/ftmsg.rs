//! The fault-tolerance-infrastructure message formats: the header of
//! Fig. 4 and the operation identifiers of Fig. 6, plus the control
//! messages of the replication/logging mechanisms.
//!
//! Every multicast inside the fault tolerance domain carries (after the
//! Totem framing) one [`DomainMsg`]. The message class the paper draws in
//! Fig. 4 is [`DomainMsg::Iiop`]: an [`FtHeader`] followed by a complete
//! IIOP Request or Reply, exactly as Eternal encapsulates IIOP for
//! multicast transmission.

use crate::{FtProperties, ReplicationStyle};
use ftd_sim::ProcessorId;
use ftd_totem::GroupId;
use std::error::Error;
use std::fmt;

/// The "TCP client id" value used for messages exchanged between
/// replicated objects *within* the fault tolerance domain: "for every
/// multicast message exchanged between replicated objects within the fault
/// tolerance domain, the TCP/IP client identification is set to some
/// unused value" (§3.2, Fig. 4c).
pub const UNUSED_CLIENT_ID: u32 = u32::MAX;

/// Whether a message carries an invocation or a response.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OperationKind {
    /// A client→server request.
    Invocation,
    /// A server→client reply.
    Response,
}

/// The *operation identifier*: the pair `(T_Ainv, S_Ainv)` of Fig. 6 that
/// "completely and uniquely identifies the operation consisting of the
/// invocation-response pair", scoped by the issuing group and the TCP
/// client id of Fig. 4.
///
/// * For a nested invocation, `parent_ts` is the totally ordered delivery
///   timestamp of the parent invocation at the issuing replicas and
///   `child_seq` is the index of this child operation within the parent
///   (1st, 2nd, 3rd child in Fig. 6) — "identically determined at every
///   server replica".
/// * For a root operation (a replicated client acting spontaneously, or a
///   gateway forwarding an external client's request), `parent_ts` is 0 and
///   `child_seq` is the issuer's per-source counter (the gateway uses the
///   client's IIOP request id).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct OperationId {
    /// Issuing object group (group A in Fig. 6).
    pub source: GroupId,
    /// Target object group (group B in Fig. 6). Part of the key because
    /// "the gateway (as well as the fault tolerance infrastructure) uses
    /// the destination group identifier, the source group identifier and
    /// the TCP/IP client identifier collectively to route every message"
    /// (§3.2) — per-destination-group client counters alone would collide
    /// across server groups.
    pub target: GroupId,
    /// TCP client id ([`UNUSED_CLIENT_ID`] intra-domain).
    pub client: u32,
    /// `T_Ainv`: delivery timestamp of the parent invocation (0 for roots).
    pub parent_ts: u64,
    /// `S_Ainv`: child-operation sequence number within the parent.
    pub child_seq: u32,
}

impl fmt::Display for OperationId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "op({}->{},c{},({},{}))",
            self.source, self.target, self.client, self.parent_ts, self.child_seq
        )
    }
}

/// An *invocation identifier* `(T_Binv, (T_Ainv, S_Ainv))` or *response
/// identifier* `(T_Bres, (T_Ainv, S_Ainv))` of Fig. 6: the operation
/// identifier plus this message's own totally ordered delivery timestamp.
/// The timestamp is "filled in by the fault tolerance infrastructure at
/// the receiving end, when the message is delivered" — from Totem's
/// sequence numbers — so it is NOT part of the wire header.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MessageId {
    /// `T_Binv` / `T_Bres`: this message's delivery timestamp.
    pub ts: u64,
    /// The operation this message belongs to.
    pub operation: OperationId,
}

/// The fault tolerance infrastructure and gateway header of Fig. 4:
/// prepended to every IIOP message multicast within the domain.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FtHeader {
    /// TCP client id (a gateway-assigned counter, the enhanced client's
    /// own id, or [`UNUSED_CLIENT_ID`] intra-domain).
    pub client: u32,
    /// Source group id.
    pub source: GroupId,
    /// Target group id.
    pub target: GroupId,
    /// Invocation or response.
    pub kind: OperationKind,
    /// `T_Ainv` of the operation identifier.
    pub parent_ts: u64,
    /// `S_Ainv` of the operation identifier.
    pub child_seq: u32,
}

impl FtHeader {
    /// The operation identifier carried by this header.
    pub fn operation_id(&self) -> OperationId {
        // A response's operation id is keyed by the *invoking* group
        // (group A of Fig. 6), which for a response is the target.
        let (source, target) = match self.kind {
            OperationKind::Invocation => (self.source, self.target),
            OperationKind::Response => (self.target, self.source),
        };
        OperationId {
            source,
            target,
            client: self.client,
            parent_ts: self.parent_ts,
            child_seq: self.child_seq,
        }
    }
}

/// Group metadata replicated to every daemon in the domain.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GroupMeta {
    /// The group being described.
    pub group: GroupId,
    /// Object type name (resolved via the
    /// [`ObjectRegistry`](crate::ObjectRegistry)).
    pub type_name: String,
    /// Fault tolerance properties.
    pub properties: FtProperties,
    /// Initial placement decided at creation.
    pub placement: Vec<ProcessorId>,
}

/// Decoding errors for domain messages.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FtMsgError {
    /// The payload ended early.
    Truncated,
    /// Unknown message kind octet (foreign payloads on a shared group).
    UnknownKind(u8),
    /// A field held an invalid value.
    BadField(&'static str),
}

impl fmt::Display for FtMsgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FtMsgError::Truncated => write!(f, "truncated domain message"),
            FtMsgError::UnknownKind(k) => write!(f, "unknown domain message kind {k}"),
            FtMsgError::BadField(what) => write!(f, "invalid field: {what}"),
        }
    }
}

impl Error for FtMsgError {}

/// Every message multicast inside a fault tolerance domain.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DomainMsg {
    /// Fig. 4: FT header + a complete IIOP message (Request or Reply).
    Iiop {
        /// The fault tolerance / gateway header.
        header: FtHeader,
        /// Raw IIOP bytes.
        iiop: Vec<u8>,
    },
    /// Replication Manager control: create an object group.
    CreateGroup(GroupMeta),
    /// A processor asks to host a replica (recovery or scale-up). Ordered
    /// delivery arbitrates concurrent claims.
    StateRequest {
        /// Group needing a replica.
        group: GroupId,
        /// The volunteering processor.
        applicant: ProcessorId,
        /// `true` when an existing host re-requests state after a delivery
        /// gap: always accepted (and re-adds the applicant to the host set
        /// if peers had pruned it during the separation).
        refresh: bool,
    },
    /// State transfer from the donor to a new/recovering replica, with the
    /// retained-responses snapshot so duplicate suppression survives too.
    StateTransfer {
        /// Group whose state this is.
        group: GroupId,
        /// The donating processor.
        donor: ProcessorId,
        /// Serialized application state.
        state: Vec<u8>,
        /// Logged (operation id → response IIOP bytes) pairs.
        responses: Vec<(OperationId, Vec<u8>)>,
    },
    /// Warm passive: primary pushes post-operation state and the response
    /// it produced, so backups stay hot and can answer duplicates.
    StateUpdate {
        /// Group.
        group: GroupId,
        /// The operation that produced this state.
        operation: OperationId,
        /// New application state.
        state: Vec<u8>,
        /// Response IIOP bytes for the operation.
        response: Vec<u8>,
    },
    /// Cold passive: primary replicates one executed operation record into
    /// the backups' logs (not applied until failover).
    LogOp {
        /// Group.
        group: GroupId,
        /// The executed operation.
        operation: OperationId,
        /// Response IIOP bytes.
        response: Vec<u8>,
        /// The invocation's IIOP bytes (replayable).
        invocation: Vec<u8>,
    },
    /// Cold passive: periodic checkpoint truncating the log.
    Checkpoint {
        /// Group.
        group: GroupId,
        /// Application state at the checkpoint.
        state: Vec<u8>,
    },
    /// Evolution Manager: upgrade the group to a new object type.
    Upgrade {
        /// Group to upgrade.
        group: GroupId,
        /// New type name (must be registered everywhere).
        new_type: String,
    },
    /// A (re)joining daemon asks for the replicated management state it
    /// missed (its delivery history is gone): answered by the lowest live
    /// peer with a [`DomainMsg::DirectorySync`].
    DirectoryRequest {
        /// The daemon asking.
        requester: ProcessorId,
    },
    /// Wholesale management-state snapshot for one requester.
    DirectorySync {
        /// The daemon this snapshot is for (only it applies the sync).
        requester: ProcessorId,
        /// Every group's metadata plus its current host set.
        entries: Vec<(GroupMeta, Vec<ProcessorId>)>,
    },
}

/// A [`DomainMsg::Iiop`] read in place: the FT header parsed, the IIOP
/// bytes borrowed from the payload rather than copied out of it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IiopView<'a> {
    /// The fault tolerance / gateway header.
    pub header: FtHeader,
    /// Raw IIOP bytes, borrowed from the payload.
    pub iiop: &'a [u8],
}

/// Encoded length of an [`FtHeader`].
const HEADER_LEN: usize = 4 + 4 + 4 + 1 + 8 + 4;

struct W(Vec<u8>);
impl W {
    /// A writer expecting `len` bytes, kind octet included: exact for
    /// the messages every operation multicasts (IIOP, and a passive
    /// group's state update, log record and checkpoint), so their
    /// payloads need no reallocation. Rare control messages start at 64
    /// and grow.
    fn new(kind: u8, len: usize) -> Self {
        let mut buf = Vec::with_capacity(len);
        buf.push(kind);
        W(buf)
    }
    fn u8(&mut self, v: u8) {
        self.0.push(v);
    }
    fn u32(&mut self, v: u32) {
        self.0.extend(v.to_be_bytes());
    }
    fn u64(&mut self, v: u64) {
        self.0.extend(v.to_be_bytes());
    }
    fn bytes(&mut self, v: &[u8]) {
        self.u32(v.len() as u32);
        self.0.extend(v);
    }
    fn string(&mut self, v: &str) {
        self.bytes(v.as_bytes());
    }
}

struct R<'a> {
    buf: &'a [u8],
    pos: usize,
}
impl<'a> R<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], FtMsgError> {
        if self.buf.len() - self.pos < n {
            return Err(FtMsgError::Truncated);
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }
    fn u8(&mut self) -> Result<u8, FtMsgError> {
        Ok(self.take(1)?[0])
    }
    fn u32(&mut self) -> Result<u32, FtMsgError> {
        Ok(u32::from_be_bytes(self.take(4)?.try_into().expect("4")))
    }
    fn u64(&mut self) -> Result<u64, FtMsgError> {
        Ok(u64::from_be_bytes(self.take(8)?.try_into().expect("8")))
    }
    fn slice(&mut self) -> Result<&'a [u8], FtMsgError> {
        let n = self.u32()? as usize;
        if n > self.buf.len() - self.pos {
            return Err(FtMsgError::Truncated);
        }
        self.take(n)
    }
    fn bytes(&mut self) -> Result<Vec<u8>, FtMsgError> {
        Ok(self.slice()?.to_vec())
    }
    fn string(&mut self) -> Result<String, FtMsgError> {
        String::from_utf8(self.bytes()?).map_err(|_| FtMsgError::BadField("utf8 string"))
    }
}

fn write_header(w: &mut W, h: &FtHeader) {
    w.u32(h.client);
    w.u32(h.source.0);
    w.u32(h.target.0);
    w.u8(match h.kind {
        OperationKind::Invocation => 1,
        OperationKind::Response => 2,
    });
    w.u64(h.parent_ts);
    w.u32(h.child_seq);
}

fn read_header(r: &mut R<'_>) -> Result<FtHeader, FtMsgError> {
    let client = r.u32()?;
    let source = GroupId(r.u32()?);
    let target = GroupId(r.u32()?);
    let kind = match r.u8()? {
        1 => OperationKind::Invocation,
        2 => OperationKind::Response,
        _ => return Err(FtMsgError::BadField("operation kind")),
    };
    let parent_ts = r.u64()?;
    let child_seq = r.u32()?;
    Ok(FtHeader {
        client,
        source,
        target,
        kind,
        parent_ts,
        child_seq,
    })
}

fn write_opid(w: &mut W, id: &OperationId) {
    w.u32(id.source.0);
    w.u32(id.target.0);
    w.u32(id.client);
    w.u64(id.parent_ts);
    w.u32(id.child_seq);
}

fn read_opid(r: &mut R<'_>) -> Result<OperationId, FtMsgError> {
    Ok(OperationId {
        source: GroupId(r.u32()?),
        target: GroupId(r.u32()?),
        client: r.u32()?,
        parent_ts: r.u64()?,
        child_seq: r.u32()?,
    })
}

/// Encoded length of an [`OperationId`].
const OPID_LEN: usize = 4 + 4 + 4 + 8 + 4;

impl DomainMsg {
    /// Encodes a [`DomainMsg::Iiop`] from borrowed parts: the one copy of
    /// `iiop` is into the multicast payload.
    pub fn encode_iiop(header: &FtHeader, iiop: &[u8]) -> Vec<u8> {
        let mut w = W::new(1, 1 + HEADER_LEN + 4 + iiop.len());
        write_header(&mut w, header);
        w.bytes(iiop);
        w.0
    }

    /// Encodes the message for multicast.
    pub fn encode(&self) -> Vec<u8> {
        match self {
            DomainMsg::Iiop { header, iiop } => Self::encode_iiop(header, iiop),
            DomainMsg::CreateGroup(meta) => {
                let mut w = W::new(2, 64);
                w.u32(meta.group.0);
                w.string(&meta.type_name);
                w.u8(meta.properties.style.to_u8());
                w.u32(meta.properties.initial_replicas);
                w.u32(meta.properties.min_replicas);
                w.u32(meta.placement.len() as u32);
                for p in &meta.placement {
                    w.u32(p.0);
                }
                w.0
            }
            DomainMsg::StateRequest {
                group,
                applicant,
                refresh,
            } => {
                let mut w = W::new(3, 64);
                w.u32(group.0);
                w.u32(applicant.0);
                w.u8(*refresh as u8);
                w.0
            }
            DomainMsg::StateTransfer {
                group,
                donor,
                state,
                responses,
            } => {
                let mut w = W::new(4, 64);
                w.u32(group.0);
                w.u32(donor.0);
                w.bytes(state);
                w.u32(responses.len() as u32);
                for (id, resp) in responses {
                    write_opid(&mut w, id);
                    w.bytes(resp);
                }
                w.0
            }
            DomainMsg::StateUpdate {
                group,
                operation,
                state,
                response,
            } => {
                let mut w = W::new(5, 1 + 4 + OPID_LEN + 4 + state.len() + 4 + response.len());
                w.u32(group.0);
                write_opid(&mut w, operation);
                w.bytes(state);
                w.bytes(response);
                w.0
            }
            DomainMsg::LogOp {
                group,
                operation,
                response,
                invocation,
            } => {
                let mut w = W::new(
                    6,
                    1 + 4 + OPID_LEN + 4 + response.len() + 4 + invocation.len(),
                );
                w.u32(group.0);
                write_opid(&mut w, operation);
                w.bytes(response);
                w.bytes(invocation);
                w.0
            }
            DomainMsg::Checkpoint { group, state } => {
                let mut w = W::new(7, 1 + 4 + 4 + state.len());
                w.u32(group.0);
                w.bytes(state);
                w.0
            }
            DomainMsg::Upgrade { group, new_type } => {
                let mut w = W::new(8, 64);
                w.u32(group.0);
                w.string(new_type);
                w.0
            }
            DomainMsg::DirectoryRequest { requester } => {
                let mut w = W::new(9, 64);
                w.u32(requester.0);
                w.0
            }
            DomainMsg::DirectorySync { requester, entries } => {
                let mut w = W::new(10, 64);
                w.u32(requester.0);
                w.u32(entries.len() as u32);
                for (meta, hosts) in entries {
                    w.u32(meta.group.0);
                    w.string(&meta.type_name);
                    w.u8(meta.properties.style.to_u8());
                    w.u32(meta.properties.initial_replicas);
                    w.u32(meta.properties.min_replicas);
                    w.u32(meta.placement.len() as u32);
                    for p in &meta.placement {
                        w.u32(p.0);
                    }
                    w.u32(hosts.len() as u32);
                    for p in hosts {
                        w.u32(p.0);
                    }
                }
                w.0
            }
        }
    }

    /// Reads an IIOP message in place: the FT header parsed, the IIOP
    /// bytes borrowed. Returns `Ok(None)` for every other message kind,
    /// which [`DomainMsg::decode`] reads. Accepts and refuses exactly the
    /// IIOP payloads [`DomainMsg::decode`] does.
    ///
    /// # Errors
    ///
    /// Returns an [`FtMsgError`] for an empty payload or a truncated or
    /// malformed IIOP message.
    pub fn peek_iiop(bytes: &[u8]) -> Result<Option<IiopView<'_>>, FtMsgError> {
        match bytes.first() {
            None => Err(FtMsgError::Truncated),
            Some(1) => {
                let mut r = R { buf: bytes, pos: 1 };
                Ok(Some(IiopView {
                    header: read_header(&mut r)?,
                    iiop: r.slice()?,
                }))
            }
            Some(_) => Ok(None),
        }
    }

    /// Decodes a multicast payload.
    ///
    /// # Errors
    ///
    /// Returns an [`FtMsgError`] for truncated, unknown or malformed
    /// payloads.
    pub fn decode(bytes: &[u8]) -> Result<DomainMsg, FtMsgError> {
        if bytes.is_empty() {
            return Err(FtMsgError::Truncated);
        }
        let kind = bytes[0];
        let mut r = R { buf: bytes, pos: 1 };
        Ok(match kind {
            1 => {
                let view = Self::peek_iiop(bytes)?.expect("kind 1");
                DomainMsg::Iiop {
                    header: view.header,
                    iiop: view.iiop.to_vec(),
                }
            }
            2 => {
                let group = GroupId(r.u32()?);
                let type_name = r.string()?;
                let style = ReplicationStyle::from_u8(r.u8()?)
                    .ok_or(FtMsgError::BadField("replication style"))?;
                let initial = r.u32()?;
                let min = r.u32()?;
                let n = r.u32()? as usize;
                if n > bytes.len() {
                    return Err(FtMsgError::Truncated);
                }
                let mut placement = Vec::with_capacity(n);
                for _ in 0..n {
                    placement.push(ProcessorId(r.u32()?));
                }
                DomainMsg::CreateGroup(GroupMeta {
                    group,
                    type_name,
                    properties: FtProperties {
                        style,
                        initial_replicas: initial,
                        min_replicas: min,
                    },
                    placement,
                })
            }
            3 => DomainMsg::StateRequest {
                group: GroupId(r.u32()?),
                applicant: ProcessorId(r.u32()?),
                refresh: r.u8()? != 0,
            },
            4 => {
                let group = GroupId(r.u32()?);
                let donor = ProcessorId(r.u32()?);
                let state = r.bytes()?;
                let n = r.u32()? as usize;
                if n > bytes.len() {
                    return Err(FtMsgError::Truncated);
                }
                let mut responses = Vec::with_capacity(n);
                for _ in 0..n {
                    let id = read_opid(&mut r)?;
                    responses.push((id, r.bytes()?));
                }
                DomainMsg::StateTransfer {
                    group,
                    donor,
                    state,
                    responses,
                }
            }
            5 => DomainMsg::StateUpdate {
                group: GroupId(r.u32()?),
                operation: read_opid(&mut r)?,
                state: r.bytes()?,
                response: r.bytes()?,
            },
            6 => DomainMsg::LogOp {
                group: GroupId(r.u32()?),
                operation: read_opid(&mut r)?,
                response: r.bytes()?,
                invocation: r.bytes()?,
            },
            7 => DomainMsg::Checkpoint {
                group: GroupId(r.u32()?),
                state: r.bytes()?,
            },
            8 => DomainMsg::Upgrade {
                group: GroupId(r.u32()?),
                new_type: r.string()?,
            },
            9 => DomainMsg::DirectoryRequest {
                requester: ProcessorId(r.u32()?),
            },
            10 => {
                let requester = ProcessorId(r.u32()?);
                let n = r.u32()? as usize;
                if n > bytes.len() {
                    return Err(FtMsgError::Truncated);
                }
                let mut entries = Vec::with_capacity(n);
                for _ in 0..n {
                    let group = GroupId(r.u32()?);
                    let type_name = r.string()?;
                    let style = ReplicationStyle::from_u8(r.u8()?)
                        .ok_or(FtMsgError::BadField("replication style"))?;
                    let initial = r.u32()?;
                    let min = r.u32()?;
                    let np = r.u32()? as usize;
                    if np > bytes.len() {
                        return Err(FtMsgError::Truncated);
                    }
                    let mut placement = Vec::with_capacity(np);
                    for _ in 0..np {
                        placement.push(ProcessorId(r.u32()?));
                    }
                    let nh = r.u32()? as usize;
                    if nh > bytes.len() {
                        return Err(FtMsgError::Truncated);
                    }
                    let mut hosts = Vec::with_capacity(nh);
                    for _ in 0..nh {
                        hosts.push(ProcessorId(r.u32()?));
                    }
                    entries.push((
                        GroupMeta {
                            group,
                            type_name,
                            properties: FtProperties {
                                style,
                                initial_replicas: initial,
                                min_replicas: min,
                            },
                            placement,
                        },
                        hosts,
                    ));
                }
                DomainMsg::DirectorySync { requester, entries }
            }
            other => return Err(FtMsgError::UnknownKind(other)),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn header() -> FtHeader {
        FtHeader {
            client: 7,
            source: GroupId(1),
            target: GroupId(2),
            kind: OperationKind::Invocation,
            parent_ts: 100,
            child_seq: 3,
        }
    }

    #[test]
    fn iiop_msg_round_trip() {
        let m = DomainMsg::Iiop {
            header: header(),
            iiop: vec![0xCA, 0xFE],
        };
        assert_eq!(DomainMsg::decode(&m.encode()).unwrap(), m);
    }

    #[test]
    fn peek_iiop_reads_the_header_in_place() {
        let m = DomainMsg::Iiop {
            header: header(),
            iiop: vec![0xCA, 0xFE],
        };
        let wire = m.encode();
        assert_eq!(wire.capacity(), wire.len(), "exact-size encode");
        let view = DomainMsg::peek_iiop(&wire).unwrap().unwrap();
        assert_eq!(view.header, header());
        assert_eq!(view.iiop, &[0xCA, 0xFE]);
        assert_eq!(view.iiop.as_ptr(), wire[wire.len() - 2..].as_ptr());
        let other = DomainMsg::DirectoryRequest {
            requester: ProcessorId(1),
        };
        assert_eq!(DomainMsg::peek_iiop(&other.encode()), Ok(None));
        assert_eq!(DomainMsg::peek_iiop(&[]), Err(FtMsgError::Truncated));
        for cut in 1..wire.len() {
            assert_eq!(
                DomainMsg::peek_iiop(&wire[..cut]).is_err(),
                DomainMsg::decode(&wire[..cut]).is_err(),
                "cut {cut}"
            );
        }
    }

    #[test]
    fn all_control_messages_round_trip() {
        let op = OperationId {
            source: GroupId(1),
            target: GroupId(2),
            client: UNUSED_CLIENT_ID,
            parent_ts: 100,
            child_seq: 3,
        };
        let msgs = vec![
            DomainMsg::CreateGroup(GroupMeta {
                group: GroupId(9),
                type_name: "Counter".into(),
                properties: FtProperties::new(ReplicationStyle::WarmPassive),
                placement: vec![ProcessorId(0), ProcessorId(2)],
            }),
            DomainMsg::StateRequest {
                group: GroupId(9),
                applicant: ProcessorId(4),
                refresh: true,
            },
            DomainMsg::StateTransfer {
                group: GroupId(9),
                donor: ProcessorId(0),
                state: vec![1, 2, 3],
                responses: vec![(op, vec![4, 5])],
            },
            DomainMsg::StateUpdate {
                group: GroupId(9),
                operation: op,
                state: vec![6],
                response: vec![7],
            },
            DomainMsg::LogOp {
                group: GroupId(9),
                operation: op,
                response: vec![8],
                invocation: vec![9],
            },
            DomainMsg::Checkpoint {
                group: GroupId(9),
                state: vec![10],
            },
            DomainMsg::Upgrade {
                group: GroupId(9),
                new_type: "CounterV2".into(),
            },
            DomainMsg::DirectoryRequest {
                requester: ProcessorId(3),
            },
            DomainMsg::DirectorySync {
                requester: ProcessorId(3),
                entries: vec![(
                    GroupMeta {
                        group: GroupId(9),
                        type_name: "Counter".into(),
                        properties: FtProperties::new(ReplicationStyle::Active),
                        placement: vec![ProcessorId(0)],
                    },
                    vec![ProcessorId(0), ProcessorId(2)],
                )],
            },
        ];
        for m in msgs {
            assert_eq!(DomainMsg::decode(&m.encode()).unwrap(), m, "{m:?}");
        }
    }

    #[test]
    fn response_opid_keys_by_invoking_group() {
        // Fig. 6: invocation A->B and its response B->A share the same
        // operation identifier (keyed by A).
        let inv = header();
        let resp = FtHeader {
            client: 7,
            source: GroupId(2),
            target: GroupId(1),
            kind: OperationKind::Response,
            parent_ts: 100,
            child_seq: 3,
        };
        assert_eq!(inv.operation_id(), resp.operation_id());
        assert_eq!(inv.operation_id().source, GroupId(1));
    }

    #[test]
    fn decode_rejects_garbage() {
        assert!(DomainMsg::decode(&[]).is_err());
        assert!(matches!(
            DomainMsg::decode(&[200, 1, 2]),
            Err(FtMsgError::UnknownKind(200))
        ));
        let m = DomainMsg::Checkpoint {
            group: GroupId(1),
            state: vec![1, 2, 3, 4],
        }
        .encode();
        for cut in 1..m.len() {
            assert!(DomainMsg::decode(&m[..cut]).is_err(), "cut {cut}");
        }
    }

    #[test]
    fn display_of_operation_id() {
        let op = OperationId {
            source: GroupId(1),
            target: GroupId(4),
            client: 2,
            parent_ts: 100,
            child_seq: 3,
        };
        assert_eq!(op.to_string(), "op(g1->g4,c2,(100,3))");
    }
}
