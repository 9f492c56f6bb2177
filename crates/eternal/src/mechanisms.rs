//! The Replication Mechanisms: the per-processor engine that turns totally
//! ordered deliveries into deterministic replica execution (Fig. 2).
//!
//! One [`Mechanisms`] instance runs on every processor of a fault
//! tolerance domain, embedded (together with a
//! [`TotemNode`](ftd_totem::TotemNode)) in that processor's daemon actor.
//! It executes invocations on local replicas at their delivery points,
//! suppresses duplicate invocations and responses, suspends/resumes nested
//! invocations, replicates state per the group's
//! [`ReplicationStyle`](crate::ReplicationStyle), performs state transfer
//! to new and recovering replicas, and replays unanswered invocations when
//! a passive primary fails over — including the paper's §3 scenario where
//! the failed primary died awaiting nested responses.
//!
//! A delivery's payload is a shared slice of the frame Totem received
//! (see [`ftd_sim::Bytes`]). The FT header is parsed in place and the
//! IIOP bytes of an invocation stay a slice of that frame while it waits
//! in a replica's queue or runs; the request is read from them without a
//! copy. What may be kept longer than Totem's window keeps the frame
//! alive — a passive backup's unanswered invocations, deliveries
//! buffered while awaiting state, voting ballots — so it is copied out.

use crate::manager::DomainDirectory;
use crate::{
    AppObject, DomainMsg, FtHeader, FtMsgError, GroupLog, GroupMeta, InvocationCheck,
    InvocationTable, ObjectRegistry, OpRecord, OperationId, OperationKind, Outcome,
    ReplicationStyle, ResponseFilter, Voter, UNUSED_CLIENT_ID,
};
use ftd_giop::{
    ByteOrder, Frame, FrameHeader, GiopMessage, ObjectKey, Reply, Request, RequestView,
};
use ftd_sim::{Bytes, Context, ProcessorId};
use ftd_totem::{GroupId, GroupMessage, MembershipView, TotemNode};
use std::collections::{BTreeMap, VecDeque};

/// Totem group every daemon joins; carries domain-wide control messages
/// (group creation, host claims, upgrades).
pub const ALL_DAEMONS_GROUP: GroupId = GroupId(0xF000_0000);

/// Mask identifying gateway groups in the group-id namespace. The Resource
/// Manager biases replica placement away from processors subscribed to
/// such groups — gateway hosts are infrastructure, not spare capacity.
pub const GATEWAY_GROUP_MASK: u32 = 0x4000_0000;

/// Processors hosting a gateway (subscribed to a gateway-mask group),
/// per the converged Totem directory.
fn gateway_hosts(totem: &TotemNode) -> Vec<ProcessorId> {
    let mut out: Vec<ProcessorId> = totem
        .directory_groups()
        .into_iter()
        .filter(|g| g.0 & 0xF000_0000 == GATEWAY_GROUP_MASK)
        .flat_map(|g| totem.group_members(g))
        .collect();
    out.sort();
    out.dedup();
    out
}

/// The stub group a daemon uses as the source of root invocations it
/// issues on behalf of local drivers (tests, benches). Gateways use their
/// own gateway groups instead.
pub fn stub_group(p: ProcessorId) -> GroupId {
    GroupId(0x8000_0000 | p.0)
}

/// Configuration of the per-processor mechanisms.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MechConfig {
    /// Fault tolerance domain id (embedded in object keys).
    pub domain: u32,
    /// Capacity of duplicate-detection tables per replica.
    pub response_cache: usize,
    /// Enforce deterministic execution for "multithreaded" objects (§2.2).
    /// When `false`, object entropy comes from the world RNG and active
    /// replicas of nondeterministic objects will diverge — measurably.
    pub enforce_determinism: bool,
    /// Cold passive: checkpoint after this many logged operations.
    pub checkpoint_every_ops: u32,
}

impl Default for MechConfig {
    fn default() -> Self {
        MechConfig {
            domain: 0,
            response_cache: 4096,
            enforce_determinism: true,
            checkpoint_every_ops: 16,
        }
    }
}

/// A root invocation's completion, surfaced to the local driver.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RootReply {
    /// The call id returned by [`Mechanisms::invoke_root`].
    pub call: u32,
    /// Reply body bytes (unmarshalled GIOP reply body).
    pub body: Vec<u8>,
}

#[derive(Debug)]
struct ActiveOp {
    op: OperationId,
    /// Delivery timestamp of the invocation (T of Fig. 6 child ids).
    inv_ts: u64,
    client: u32,
    reply_to: GroupId,
    request_id: u32,
    child_count: u32,
    /// The invocation's IIOP bytes, which a cold-passive primary logs.
    invocation_iiop: Bytes,
}

#[derive(Debug, Clone)]
struct QueuedInvocation {
    ts: u64,
    header: FtHeader,
    iiop: Bytes,
}

impl QueuedInvocation {
    /// The same invocation holding its own copy of the IIOP bytes, so
    /// keeping it does not keep the delivered frame alive.
    fn detached(self) -> Self {
        QueuedInvocation {
            iiop: Bytes::from(self.iiop.to_vec()),
            ..self
        }
    }
}

struct ReplicaRuntime {
    object: Box<dyn AppObject>,
    table: InvocationTable,
    log: GroupLog,
    busy: Option<ActiveOp>,
    queue: VecDeque<QueuedInvocation>,
    /// Invocations delivered but not executed here (passive backup),
    /// pending evidence that the primary answered them. Detached copies:
    /// a failed primary can leave them here indefinitely.
    unanswered: BTreeMap<OperationId, QueuedInvocation>,
    awaiting_state: bool,
    /// Group messages buffered while awaiting state, replayed after;
    /// payloads copied out of their frames.
    buffered: Vec<GroupMessage>,
    /// Cold passive: has this replica replayed its log into the object?
    promoted: bool,
    ops_since_checkpoint: u32,
}

impl std::fmt::Debug for ReplicaRuntime {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ReplicaRuntime")
            .field("busy", &self.busy.is_some())
            .field("queued", &self.queue.len())
            .field("awaiting_state", &self.awaiting_state)
            .finish()
    }
}

#[derive(Debug, Clone, Copy)]
struct PendingChild {
    /// Local group whose replica is suspended on this child operation.
    parent_group: GroupId,
    cont: u32,
}

/// The per-processor replication engine. See the module docs.
#[derive(Debug)]
pub struct Mechanisms {
    me: ProcessorId,
    config: MechConfig,
    registry: ObjectRegistry,
    dir: DomainDirectory,
    replicas: BTreeMap<GroupId, ReplicaRuntime>,
    response_filter: ResponseFilter,
    voter: Voter,
    pending_children: BTreeMap<OperationId, PendingChild>,
    membership: Vec<ProcessorId>,
    root_next: u32,
    root_replies: Vec<RootReply>,
    /// Set once this daemon has asked peers for the management state it
    /// missed (fresh boot into an established domain, or post-gap).
    dir_requested: bool,
}

impl Mechanisms {
    /// Creates the engine for processor `me`.
    pub fn new(me: ProcessorId, config: MechConfig, registry: ObjectRegistry) -> Self {
        Mechanisms {
            me,
            config,
            registry,
            dir: DomainDirectory::new(),
            replicas: BTreeMap::new(),
            response_filter: ResponseFilter::new(config.response_cache),
            voter: Voter::new(),
            pending_children: BTreeMap::new(),
            membership: Vec::new(),
            root_next: 0,
            root_replies: Vec::new(),
            dir_requested: false,
        }
    }

    /// Joins the domain-wide control group and this daemon's stub group.
    /// Call from the host's `on_start` after starting Totem.
    pub fn on_start(&mut self, totem: &mut TotemNode) {
        totem.join_group(ALL_DAEMONS_GROUP);
        totem.join_group(stub_group(self.me));
    }

    /// The replicated management directory (read-only).
    pub fn directory(&self) -> &DomainDirectory {
        &self.dir
    }

    /// `true` if this processor currently hosts a replica of `group`.
    pub fn is_host(&self, group: GroupId) -> bool {
        self.replicas.contains_key(&group)
    }

    /// Serialized state of the local replica of `group`, if hosted.
    pub fn replica_state(&self, group: GroupId) -> Option<Vec<u8>> {
        self.replicas.get(&group).map(|r| r.object.state())
    }

    /// The completed `(operation, reply)` pairs of the local replica of
    /// `group`, if hosted — what a donor streams alongside
    /// [`Mechanisms::replica_state`] so the receiver's duplicate
    /// detection suppresses (and re-answers) operations the snapshot
    /// already covers instead of re-executing them.
    pub fn completed_responses(&self, group: GroupId) -> Option<Vec<(OperationId, Vec<u8>)>> {
        self.replicas.get(&group).map(|r| r.table.completed())
    }

    /// Drains completed root invocations.
    pub fn take_root_replies(&mut self) -> Vec<RootReply> {
        std::mem::take(&mut self.root_replies)
    }

    /// Fault injection for experiments: overwrites the local replica's
    /// state, modelling a value fault (memory corruption, bit flip) at
    /// this replica only. Returns `false` if the group is not hosted here.
    pub fn inject_state_fault(&mut self, group: GroupId, state: &[u8]) -> bool {
        match self.replicas.get_mut(&group) {
            Some(rt) => {
                rt.object.set_state(state);
                true
            }
            None => false,
        }
    }

    /// Duplicate responses suppressed at this daemon so far.
    pub fn duplicates_suppressed(&self) -> u64 {
        self.response_filter.suppressed()
    }

    // ------------------------------------------------------------------
    // Driver API
    // ------------------------------------------------------------------

    /// Creates an object group: places `properties.initial_replicas`
    /// replicas on the least-loaded live processors and announces the
    /// group to every daemon. Any daemon may call this; daemons hosting a
    /// placement instantiate the object when the announcement is
    /// delivered.
    pub fn create_group(
        &mut self,
        totem: &mut TotemNode,
        group: GroupId,
        type_name: &str,
        properties: crate::FtProperties,
    ) {
        let placement = self.dir.place(
            properties.initial_replicas as usize,
            &self.membership,
            &gateway_hosts(totem),
        );
        let meta = GroupMeta {
            group,
            type_name: type_name.to_owned(),
            properties,
            placement,
        };
        totem.multicast(ALL_DAEMONS_GROUP, DomainMsg::CreateGroup(meta).encode());
    }

    /// Requests a live upgrade of `group` to `new_type` (Evolution
    /// Manager). Replicas swap implementation at the delivery point,
    /// carrying state across via `state`/`set_state`.
    pub fn upgrade_group(&mut self, totem: &mut TotemNode, group: GroupId, new_type: &str) {
        totem.multicast(
            ALL_DAEMONS_GROUP,
            DomainMsg::Upgrade {
                group,
                new_type: new_type.to_owned(),
            }
            .encode(),
        );
    }

    /// Issues a root invocation on `target` from this daemon's stub group.
    /// The reply arrives later via [`Mechanisms::take_root_replies`].
    pub fn invoke_root(
        &mut self,
        totem: &mut TotemNode,
        target: GroupId,
        operation: &str,
        args: &[u8],
    ) -> u32 {
        self.root_next += 1;
        let call = self.root_next;
        let request = Request {
            request_id: call,
            response_expected: true,
            object_key: ObjectKey::new(self.config.domain, target.0).to_bytes(),
            operation: operation.to_owned(),
            body: args.to_vec(),
            ..Request::default()
        };
        let iiop = GiopMessage::Request(request).encode(ByteOrder::Big);
        let header = FtHeader {
            client: UNUSED_CLIENT_ID,
            source: stub_group(self.me),
            target,
            kind: OperationKind::Invocation,
            parent_ts: 0,
            child_seq: call,
        };
        totem.multicast(target, DomainMsg::Iiop { header, iiop }.encode());
        call
    }

    // ------------------------------------------------------------------
    // Event entry points (called by the host daemon)
    // ------------------------------------------------------------------

    /// Handles one totally ordered delivery.
    pub fn on_deliver(&mut self, ctx: &mut Context<'_>, totem: &mut TotemNode, msg: &GroupMessage) {
        // Buffer group traffic for replicas awaiting state (except the
        // transfer itself, which releases the buffer). Only then is the
        // message's group worth decoding.
        if self.replicas.values().any(|rt| rt.awaiting_state) {
            if let Some(group) = message_group(msg) {
                if let Some(rt) = self.replicas.get_mut(&group) {
                    if rt.awaiting_state && !is_state_transfer(msg) {
                        rt.buffered.push(GroupMessage {
                            payload: Bytes::from(msg.payload.to_vec()),
                            ..msg.clone()
                        });
                        return;
                    }
                }
            }
        }
        self.dispatch(ctx, totem, msg);
    }

    fn dispatch(&mut self, ctx: &mut Context<'_>, totem: &mut TotemNode, msg: &GroupMessage) {
        // Fig. 4 traffic: the header parsed in place, the IIOP bytes a
        // slice of the delivered frame.
        match DomainMsg::peek_iiop(&msg.payload) {
            Ok(Some(view)) => {
                let iiop = msg.payload.slice_ref(view.iiop);
                let header = view.header;
                match header.kind {
                    OperationKind::Invocation => {
                        self.on_invocation(ctx, totem, msg.seq, header, iiop)
                    }
                    OperationKind::Response => self.on_response(ctx, totem, msg.seq, header, iiop),
                }
                return;
            }
            Ok(None) => {}
            Err(_) => {
                ctx.stats().inc("eternal.bad_payloads");
                return;
            }
        }
        let decoded = match DomainMsg::decode(&msg.payload) {
            Ok(d) => d,
            Err(FtMsgError::UnknownKind(_)) => return, // gateway-layer payloads
            Err(_) => {
                ctx.stats().inc("eternal.bad_payloads");
                return;
            }
        };
        match decoded {
            DomainMsg::Iiop { .. } => unreachable!("read in place above"),
            DomainMsg::CreateGroup(meta) => self.on_create_group(ctx, totem, meta),
            DomainMsg::StateRequest {
                group,
                applicant,
                refresh,
            } => self.on_state_request(ctx, totem, group, applicant, refresh),
            DomainMsg::StateTransfer {
                group,
                state,
                responses,
                ..
            } => self.on_state_transfer(ctx, totem, group, state, responses),
            DomainMsg::StateUpdate {
                group,
                operation,
                state,
                response,
            } => self.on_state_update(ctx, group, operation, state, response),
            DomainMsg::LogOp {
                group,
                operation,
                response,
                invocation,
            } => self.on_log_op(ctx, group, operation, response, invocation),
            DomainMsg::Checkpoint { group, state } => {
                if let Some(rt) = self.replicas.get_mut(&group) {
                    rt.log.checkpoint(state);
                }
            }
            DomainMsg::Upgrade { group, new_type } => self.on_upgrade(ctx, group, &new_type),
            DomainMsg::DirectoryRequest { requester } => {
                // The lowest live peer with knowledge answers.
                let responder = self
                    .membership
                    .iter()
                    .copied()
                    .filter(|&p| p != requester)
                    .min();
                if responder == Some(self.me) && !self.dir.is_empty() {
                    ctx.stats().inc("eternal.directory_syncs_sent");
                    totem.multicast(
                        ALL_DAEMONS_GROUP,
                        DomainMsg::DirectorySync {
                            requester,
                            entries: self.dir.snapshot(),
                        }
                        .encode(),
                    );
                }
            }
            DomainMsg::DirectorySync { requester, entries } => {
                if requester == self.me {
                    ctx.stats().inc("eternal.directory_syncs_applied");
                    self.dir.replace_with(entries);
                    // With knowledge restored, volunteer wherever the
                    // minimum is broken.
                    self.check_replacements(ctx, totem);
                }
            }
        }
    }

    /// Handles a Totem membership change: prunes dead hosts, promotes new
    /// passive primaries (replaying unanswered invocations), and
    /// volunteers replacement replicas to restore the minimum.
    pub fn on_membership(
        &mut self,
        ctx: &mut Context<'_>,
        totem: &mut TotemNode,
        view: &MembershipView,
    ) {
        self.membership = view.members.clone();
        let alive = view.members.clone();
        self.dir.prune_dead(&alive);

        // Promotion: for each locally hosted passive group where this
        // processor just became primary, recover state (cold) and replay
        // unanswered invocations.
        let local_groups: Vec<GroupId> = self.replicas.keys().copied().collect();
        for group in local_groups {
            let Some(meta) = self.dir.meta(group) else {
                continue;
            };
            let style = meta.properties.style;
            if style.primary_only() && self.dir.primary(group, &alive) == Some(self.me) {
                self.promote(ctx, totem, group, style);
            }
        }

        // Replacement: volunteer a new replica where the minimum is broken
        // and this processor is the Resource Manager's choice.
        self.check_replacements(ctx, totem);

        // A daemon that knows no groups while peers are around has missed
        // the domain's history (fresh boot into an established domain, or
        // recovery): pull the management state.
        if self.dir.is_empty() && view.members.len() > 1 && !self.dir_requested {
            self.dir_requested = true;
            ctx.stats().inc("eternal.directory_requests");
            totem.multicast(
                ALL_DAEMONS_GROUP,
                DomainMsg::DirectoryRequest { requester: self.me }.encode(),
            );
        }
    }

    fn check_replacements(&mut self, ctx: &mut Context<'_>, totem: &mut TotemNode) {
        let alive = self.membership.clone();
        let needing: Vec<GroupId> = self
            .dir
            .groups()
            .map(|m| m.group)
            .filter(|&g| self.dir.needs_replacement(g, &alive))
            .collect();
        let penalized = gateway_hosts(totem);
        for group in needing {
            if self.dir.choose_replacement(group, &alive, &penalized) == Some(self.me)
                && !self.is_host(group)
            {
                self.volunteer(ctx, totem, group);
            }
        }
    }

    /// Handles a Totem delivery gap (this daemon missed messages that are
    /// gone ring-wide): every local stateful replica's state is suspect,
    /// so re-request state from the survivors.
    pub fn on_gap(&mut self, ctx: &mut Context<'_>, totem: &mut TotemNode) {
        ctx.stats().inc("eternal.gaps");
        // Our management state may have diverged while we were cut off:
        // adopt a surviving peer's view.
        totem.multicast(
            ALL_DAEMONS_GROUP,
            DomainMsg::DirectoryRequest { requester: self.me }.encode(),
        );
        let groups: Vec<GroupId> = self.replicas.keys().copied().collect();
        for group in groups {
            let stateful = self
                .dir
                .meta(group)
                .map(|m| m.properties.style.stateful())
                .unwrap_or(false);
            if stateful {
                if let Some(rt) = self.replicas.get_mut(&group) {
                    rt.awaiting_state = true;
                }
                totem.multicast(
                    ALL_DAEMONS_GROUP,
                    DomainMsg::StateRequest {
                        group,
                        applicant: self.me,
                        refresh: true,
                    }
                    .encode(),
                );
            }
        }
    }

    // ------------------------------------------------------------------
    // Group lifecycle
    // ------------------------------------------------------------------

    fn on_create_group(&mut self, ctx: &mut Context<'_>, totem: &mut TotemNode, meta: GroupMeta) {
        let group = meta.group;
        let mine = meta.placement.contains(&self.me);
        let type_name = meta.type_name.clone();
        self.dir.apply_create(meta);
        if mine && !self.replicas.contains_key(&group) {
            let Some(object) = self.registry.instantiate(&type_name) else {
                ctx.stats().inc("eternal.unknown_types");
                return;
            };
            ctx.stats().inc("eternal.replicas_created");
            self.replicas.insert(group, self.fresh_runtime(object));
            totem.join_group(group);
        }
    }

    fn fresh_runtime(&self, object: Box<dyn AppObject>) -> ReplicaRuntime {
        ReplicaRuntime {
            object,
            table: InvocationTable::new(self.config.response_cache),
            log: GroupLog::with_capacity(self.config.response_cache),
            busy: None,
            queue: VecDeque::new(),
            unanswered: BTreeMap::new(),
            awaiting_state: false,
            buffered: Vec::new(),
            promoted: false,
            ops_since_checkpoint: 0,
        }
    }

    fn volunteer(&mut self, ctx: &mut Context<'_>, totem: &mut TotemNode, group: GroupId) {
        let Some(meta) = self.dir.meta(group) else {
            return;
        };
        let Some(object) = self.registry.instantiate(&meta.type_name) else {
            ctx.stats().inc("eternal.unknown_types");
            return;
        };
        ctx.stats().inc("eternal.replacements_volunteered");
        let mut rt = self.fresh_runtime(object);
        rt.awaiting_state = meta.properties.style.stateful();
        self.replicas.insert(group, rt);
        totem.join_group(group);
        totem.multicast(
            ALL_DAEMONS_GROUP,
            DomainMsg::StateRequest {
                group,
                applicant: self.me,
                refresh: false,
            }
            .encode(),
        );
    }

    fn on_state_request(
        &mut self,
        ctx: &mut Context<'_>,
        totem: &mut TotemNode,
        group: GroupId,
        applicant: ProcessorId,
        refresh: bool,
    ) {
        let accepted = self
            .dir
            .apply_state_request(group, applicant, &self.membership, refresh);
        if !accepted {
            if applicant == self.me {
                // Our claim lost the race: withdraw.
                ctx.stats().inc("eternal.claims_rejected");
                self.replicas.remove(&group);
                totem.leave_group(group);
            }
            return;
        }
        // Donor: the lowest live host other than the applicant donates a
        // snapshot taken exactly at this delivery point.
        let donor = self
            .dir
            .live_hosts(group, &self.membership)
            .into_iter()
            .filter(|&p| p != applicant)
            .min();
        if donor == Some(self.me) {
            let stateful = self
                .dir
                .meta(group)
                .map(|m| m.properties.style.stateful())
                .unwrap_or(false);
            if let Some(state) = self.donated_state(group) {
                let responses = self
                    .replicas
                    .get(&group)
                    .map(|rt| rt.table.completed())
                    .unwrap_or_default();
                ctx.stats().inc("eternal.state_transfers");
                totem.multicast(
                    group,
                    DomainMsg::StateTransfer {
                        group,
                        donor: self.me,
                        state: if stateful { state } else { Vec::new() },
                        responses,
                    }
                    .encode(),
                );
            }
        }
        if applicant == self.me {
            // Stateless groups have nothing to wait for.
            let stateful = self
                .dir
                .meta(group)
                .map(|m| m.properties.style.stateful())
                .unwrap_or(false);
            if !stateful {
                if let Some(rt) = self.replicas.get_mut(&group) {
                    rt.awaiting_state = false;
                }
            }
        }
    }

    /// The state a donor sends: live object state, or for a cold-passive
    /// backup the reconstruction (checkpoint + log replay) of what the
    /// primary's state was.
    fn donated_state(&self, group: GroupId) -> Option<Vec<u8>> {
        let rt = self.replicas.get(&group)?;
        let style = self.dir.meta(group)?.properties.style;
        if style == ReplicationStyle::ColdPassive && !rt.promoted {
            // Reconstruct without disturbing the backup.
            let meta = self.dir.meta(group)?;
            let mut scratch = self.registry.instantiate(&meta.type_name)?;
            if let Some(cp) = rt.log.last_checkpoint() {
                scratch.set_state(cp);
            }
            for rec in rt.log.ops_since_checkpoint() {
                if let Ok(GiopMessage::Request(req)) = GiopMessage::decode(&rec.invocation) {
                    let entropy = derive_entropy(&rec.operation);
                    let _ = scratch.invoke(&req.operation, &req.body, entropy);
                }
            }
            Some(scratch.state())
        } else {
            Some(rt.object.state())
        }
    }

    fn on_state_transfer(
        &mut self,
        ctx: &mut Context<'_>,
        totem: &mut TotemNode,
        group: GroupId,
        state: Vec<u8>,
        responses: Vec<(OperationId, Vec<u8>)>,
    ) {
        let Some(rt) = self.replicas.get_mut(&group) else {
            return;
        };
        if !rt.awaiting_state {
            return;
        }
        ctx.stats().inc("eternal.states_installed");
        rt.object.set_state(&state);
        for (id, resp) in responses {
            rt.table.install(id, resp);
        }
        rt.awaiting_state = false;
        rt.promoted = true; // state is live now
        let buffered = std::mem::take(&mut rt.buffered);
        for msg in buffered {
            self.dispatch(ctx, totem, &msg);
        }
    }

    /// Installs recovered durable state into a local replica — the restart
    /// analogue of [`Mechanisms::on_state_transfer`], fed from stable
    /// storage instead of a live donor. `state` (when present) overwrites
    /// the object; `responses` prime the duplicate-detection table so
    /// operations answered before the crash are suppressed rather than
    /// re-executed. Returns `false` when no replica of `group` lives here.
    pub fn restore_replica(
        &mut self,
        group: GroupId,
        state: Option<&[u8]>,
        responses: &[(OperationId, Vec<u8>)],
    ) -> bool {
        let Some(rt) = self.replicas.get_mut(&group) else {
            return false;
        };
        if let Some(state) = state {
            rt.object.set_state(state);
        }
        for (id, resp) in responses {
            rt.table.install(*id, resp.clone());
            rt.log.record_response(*id, resp.clone());
        }
        rt.awaiting_state = false;
        rt.promoted = true;
        true
    }

    fn on_upgrade(&mut self, ctx: &mut Context<'_>, group: GroupId, new_type: &str) {
        self.dir.apply_upgrade(group, new_type);
        if let Some(rt) = self.replicas.get_mut(&group) {
            let Some(mut fresh) = self.registry.instantiate(new_type) else {
                ctx.stats().inc("eternal.unknown_types");
                return;
            };
            fresh.set_state(&rt.object.state());
            rt.object = fresh;
            ctx.stats().inc("eternal.replicas_upgraded");
        }
    }

    // ------------------------------------------------------------------
    // Invocation / response processing
    // ------------------------------------------------------------------

    fn on_invocation(
        &mut self,
        ctx: &mut Context<'_>,
        totem: &mut TotemNode,
        ts: u64,
        header: FtHeader,
        iiop: Bytes,
    ) {
        let group = header.target;
        let Some(meta) = self.dir.meta(group) else {
            return;
        };
        let style = meta.properties.style;
        let op = header.operation_id();
        let i_execute =
            style.all_execute() || self.dir.primary(group, &self.membership) == Some(self.me);
        let Some(rt) = self.replicas.get_mut(&group) else {
            return;
        };
        match rt.table.check(op) {
            InvocationCheck::Duplicate(response_iiop) => {
                ctx.stats().inc("eternal.duplicate_invocations");
                // Re-send the logged response so a reissuing gateway or a
                // reconnecting client still gets its answer (§3.5).
                if i_execute {
                    let response_header = FtHeader {
                        client: header.client,
                        source: group,
                        target: header.source,
                        kind: OperationKind::Response,
                        parent_ts: header.parent_ts,
                        child_seq: header.child_seq,
                    };
                    totem.multicast(
                        header.source,
                        DomainMsg::encode_iiop(&response_header, &response_iiop),
                    );
                }
            }
            InvocationCheck::InProgress => {
                ctx.stats().inc("eternal.duplicate_invocations");
            }
            InvocationCheck::Fresh => {
                let q = QueuedInvocation { ts, header, iiop };
                if i_execute {
                    rt.queue.push_back(q);
                    self.pump(ctx, totem, group);
                } else {
                    // Passive backup: remember it until the primary's
                    // answer is evidenced, for failover replay.
                    rt.unanswered.insert(op, q.detached());
                }
            }
        }
    }

    /// Starts queued invocations while the replica is idle.
    fn pump(&mut self, ctx: &mut Context<'_>, totem: &mut TotemNode, group: GroupId) {
        loop {
            let Some(rt) = self.replicas.get_mut(&group) else {
                return;
            };
            if rt.busy.is_some() {
                return;
            }
            let Some(q) = rt.queue.pop_front() else {
                return;
            };
            let Some(request) = request_view(&q.iiop) else {
                ctx.stats().inc("eternal.bad_iiop");
                continue;
            };
            let op = q.header.operation_id();
            rt.busy = Some(ActiveOp {
                op,
                inv_ts: q.ts,
                client: q.header.client,
                reply_to: q.header.source,
                request_id: request.request_id,
                child_count: 0,
                invocation_iiop: q.iiop.clone(),
            });
            let entropy = self.entropy(ctx, &op);
            let rt = self.replicas.get_mut(&group).expect("still hosted");
            let outcome = rt.object.invoke(request.operation, request.body, entropy);
            self.settle(ctx, totem, group, outcome);
        }
    }

    /// Applies an execution outcome: either replies (completing the
    /// operation) or suspends on a nested invocation.
    fn settle(
        &mut self,
        ctx: &mut Context<'_>,
        totem: &mut TotemNode,
        group: GroupId,
        outcome: Outcome,
    ) {
        match outcome {
            Outcome::Reply(body) => self.complete_op(ctx, totem, group, body),
            Outcome::Call {
                target,
                operation,
                args,
                cont,
            } => {
                let rt = self.replicas.get_mut(&group).expect("busy replica");
                let active = rt.busy.as_mut().expect("settling requires active op");
                active.child_count += 1;
                let child_seq = active.child_count;
                let parent_ts = active.inv_ts;
                let child_op = OperationId {
                    source: group,
                    target: GroupId(target),
                    client: UNUSED_CLIENT_ID,
                    parent_ts,
                    child_seq,
                };
                self.pending_children.insert(
                    child_op,
                    PendingChild {
                        parent_group: group,
                        cont,
                    },
                );
                let request = Request {
                    request_id: child_seq,
                    response_expected: true,
                    object_key: ObjectKey::new(self.config.domain, target).to_bytes(),
                    operation,
                    body: args,
                    ..Request::default()
                };
                let header = FtHeader {
                    client: UNUSED_CLIENT_ID,
                    source: group,
                    target: GroupId(target),
                    kind: OperationKind::Invocation,
                    parent_ts,
                    child_seq,
                };
                ctx.stats().inc("eternal.nested_invocations");
                totem.multicast(
                    GroupId(target),
                    DomainMsg::Iiop {
                        header,
                        iiop: GiopMessage::Request(request).encode(ByteOrder::Big),
                    }
                    .encode(),
                );
            }
        }
    }

    fn complete_op(
        &mut self,
        ctx: &mut Context<'_>,
        totem: &mut TotemNode,
        group: GroupId,
        body: Vec<u8>,
    ) {
        let style = self
            .dir
            .meta(group)
            .map(|m| m.properties.style)
            .expect("hosted group has meta");
        let rt = self.replicas.get_mut(&group).expect("busy replica");
        let active = rt.busy.take().expect("completing requires active op");
        let reply = Reply::success(active.request_id, body);
        let reply_iiop = GiopMessage::Reply(reply).encode(ByteOrder::Big);
        rt.table.complete(active.op, reply_iiop.clone());
        rt.unanswered.remove(&active.op);
        ctx.stats().inc("eternal.operations_executed");

        // 1. The response itself (first, so a primary that dies mid-way
        //    leaves the operation visibly unanswered rather than silently
        //    acknowledged — see the failover replay logic).
        let response_header = FtHeader {
            client: active.client,
            source: group,
            target: active.reply_to,
            kind: OperationKind::Response,
            parent_ts: active.op.parent_ts,
            child_seq: active.op.child_seq,
        };
        totem.multicast(
            active.reply_to,
            DomainMsg::encode_iiop(&response_header, &reply_iiop),
        );

        // 2. Style-specific state replication.
        match style {
            ReplicationStyle::WarmPassive => {
                let state = rt.object.state();
                totem.multicast(
                    group,
                    DomainMsg::StateUpdate {
                        group,
                        operation: active.op,
                        state,
                        response: reply_iiop,
                    }
                    .encode(),
                );
            }
            ReplicationStyle::ColdPassive => {
                rt.ops_since_checkpoint += 1;
                let checkpoint_due = rt.ops_since_checkpoint >= self.config.checkpoint_every_ops;
                totem.multicast(
                    group,
                    DomainMsg::LogOp {
                        group,
                        operation: active.op,
                        response: reply_iiop,
                        invocation: active.invocation_iiop.to_vec(),
                    }
                    .encode(),
                );
                if checkpoint_due {
                    rt.ops_since_checkpoint = 0;
                    let state = rt.object.state();
                    totem.multicast(group, DomainMsg::Checkpoint { group, state }.encode());
                }
            }
            _ => {}
        }
        self.pump(ctx, totem, group);
    }

    fn on_response(
        &mut self,
        ctx: &mut Context<'_>,
        totem: &mut TotemNode,
        _ts: u64,
        header: FtHeader,
        iiop: Bytes,
    ) {
        let op = header.operation_id();
        // Voting applies to responses from active-with-voting groups.
        let votes = self
            .dir
            .meta(header.source)
            .map(|m| m.properties.style.votes())
            .unwrap_or(false);
        let accepted_iiop = if votes {
            let group_size = self
                .dir
                .live_hosts(header.source, &self.membership)
                .len()
                .max(1);
            // A ballot can wait on a replica that never answers: it
            // holds a copy, not the frame.
            match self.voter.vote(op, iiop.to_vec(), group_size) {
                Some(winner) if self.response_filter.accept(op) => Bytes::from(winner),
                _ => {
                    ctx.stats().inc("eternal.votes_pending_or_dup");
                    return;
                }
            }
        } else {
            if !self.response_filter.accept(op) {
                ctx.stats().inc("eternal.duplicate_responses");
                return;
            }
            iiop
        };

        // Only a root call or a suspended replica here reads the reply;
        // everywhere else (every other gateway-group processor, say) the
        // accepted response needs no decoding.
        let root = header.target == stub_group(self.me);
        if !root && !self.pending_children.contains_key(&op) {
            return;
        }
        let Ok(GiopMessage::Reply(reply)) = GiopMessage::decode(&accepted_iiop) else {
            ctx.stats().inc("eternal.bad_iiop");
            return;
        };

        if root {
            self.root_replies.push(RootReply {
                call: op.child_seq,
                body: reply.body,
            });
            return;
        }

        // A nested response resuming a suspended replica.
        if let Some(pending) = self.pending_children.remove(&op) {
            let group = pending.parent_group;
            let Some(rt) = self.replicas.get_mut(&group) else {
                return;
            };
            if rt.busy.is_none() {
                return; // replica was rebuilt meanwhile
            }
            let entropy = self.entropy(ctx, &op);
            let rt = self.replicas.get_mut(&group).expect("just checked");
            let outcome = rt.object.resume(pending.cont, &reply.body, entropy);
            self.settle(ctx, totem, group, outcome);
        }
    }

    // ------------------------------------------------------------------
    // Failover
    // ------------------------------------------------------------------

    /// This processor has become the primary of a passive group: recover
    /// state (cold) and execute every invocation the old primary is not
    /// known to have answered — including ones it died on while awaiting
    /// nested responses (the §3 scenario).
    fn promote(
        &mut self,
        ctx: &mut Context<'_>,
        totem: &mut TotemNode,
        group: GroupId,
        style: ReplicationStyle,
    ) {
        let Some(rt) = self.replicas.get_mut(&group) else {
            return;
        };
        if style == ReplicationStyle::ColdPassive && !rt.promoted {
            ctx.stats().inc("eternal.cold_promotions");
            if let Some(cp) = rt.log.last_checkpoint().map(<[u8]>::to_vec) {
                rt.object.set_state(&cp);
            }
            let ops: Vec<OpRecord> = rt.log.ops_since_checkpoint().to_vec();
            for rec in &ops {
                if let Ok(GiopMessage::Request(req)) = GiopMessage::decode(&rec.invocation) {
                    let entropy = derive_entropy(&rec.operation);
                    let _ = rt.object.invoke(&req.operation, &req.body, entropy);
                }
            }
        }
        rt.promoted = true;
        // Replay unanswered invocations in delivery order.
        let mut pending: Vec<QueuedInvocation> = rt.unanswered.values().cloned().collect();
        pending.sort_by_key(|q| q.ts);
        rt.unanswered.clear();
        if !pending.is_empty() {
            ctx.stats()
                .add("eternal.failover_replays", pending.len() as u64);
        }
        for q in pending {
            self.replicas
                .get_mut(&group)
                .expect("still hosted")
                .queue
                .push_back(q);
        }
        self.pump(ctx, totem, group);
    }

    fn on_state_update(
        &mut self,
        ctx: &mut Context<'_>,
        group: GroupId,
        operation: OperationId,
        state: Vec<u8>,
        response: Vec<u8>,
    ) {
        let primary = self.dir.primary(group, &self.membership);
        let Some(rt) = self.replicas.get_mut(&group) else {
            return;
        };
        if primary == Some(self.me) {
            return; // our own update
        }
        ctx.stats().inc("eternal.state_updates_applied");
        rt.object.set_state(&state);
        rt.promoted = true; // warm backups stay hot
        rt.table.install(operation, response.clone());
        let evicted = rt.log.record_response(operation, response);
        if evicted > 0 {
            ctx.stats().add("eternal.responses_evicted", evicted);
        }
        rt.unanswered.remove(&operation);
    }

    fn on_log_op(
        &mut self,
        ctx: &mut Context<'_>,
        group: GroupId,
        operation: OperationId,
        response: Vec<u8>,
        invocation: Vec<u8>,
    ) {
        let primary = self.dir.primary(group, &self.membership);
        let Some(rt) = self.replicas.get_mut(&group) else {
            return;
        };
        if primary == Some(self.me) {
            return;
        }
        ctx.stats().inc("eternal.log_ops_applied");
        let evicted = rt.log.append(OpRecord {
            operation,
            invocation,
            response: response.clone(),
        });
        if evicted > 0 {
            ctx.stats().add("eternal.responses_evicted", evicted);
        }
        rt.table.install(operation, response);
        rt.unanswered.remove(&operation);
    }

    // ------------------------------------------------------------------
    // Determinism enforcement (§2.2)
    // ------------------------------------------------------------------

    /// The entropy handed to application objects. With enforcement on it
    /// is a pure function of the operation identifier — identical at every
    /// replica, which is how the Interceptor-level mechanisms "enforce
    /// determinism for multithreaded CORBA applications". With enforcement
    /// off it is genuinely random, modelling free-running threads.
    fn entropy(&self, ctx: &mut Context<'_>, op: &OperationId) -> u64 {
        if self.config.enforce_determinism {
            derive_entropy(op)
        } else {
            ctx.rand_u64()
        }
    }
}

/// Deterministic entropy derivation (splitmix64 over the operation id).
pub fn derive_entropy(op: &OperationId) -> u64 {
    let mut z = (op.source.0 as u64)
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add((op.target.0 as u64) << 17)
        .wrapping_add(op.client as u64)
        .wrapping_add(op.parent_ts.wrapping_mul(0xBF58_476D_1CE4_E5B9))
        .wrapping_add(op.child_seq as u64);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Borrowed decode of the Request in `iiop`, reading exactly what
/// `GiopMessage::decode` reads (the declared frame; trailing bytes
/// ignored). `None` for anything that is not a well-formed Request.
fn request_view(iiop: &[u8]) -> Option<RequestView<'_>> {
    let header = FrameHeader::peek(iiop).ok()??;
    Frame::parse(iiop.get(..header.wire_len())?)
        .ok()?
        .request()
        .ok()?
}

/// The group whose replicas care about this message, if group-scoped.
fn message_group(msg: &GroupMessage) -> Option<GroupId> {
    if msg.payload.first() == Some(&1) {
        // Iiop: target group is the totem group it was sent on.
        Some(msg.group)
    } else {
        match DomainMsg::decode(&msg.payload) {
            Ok(DomainMsg::StateUpdate { group, .. })
            | Ok(DomainMsg::LogOp { group, .. })
            | Ok(DomainMsg::Checkpoint { group, .. })
            | Ok(DomainMsg::StateTransfer { group, .. }) => Some(group),
            _ => None,
        }
    }
}

fn is_state_transfer(msg: &GroupMessage) -> bool {
    msg.payload.first() == Some(&4)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn entropy_is_deterministic_and_spread() {
        let op = OperationId {
            source: GroupId(1),
            target: GroupId(9),
            client: 2,
            parent_ts: 3,
            child_seq: 4,
        };
        assert_eq!(derive_entropy(&op), derive_entropy(&op));
        let other = OperationId { child_seq: 5, ..op };
        assert_ne!(derive_entropy(&op), derive_entropy(&other));
    }

    #[test]
    fn stub_groups_are_distinct() {
        assert_ne!(stub_group(ProcessorId(0)), stub_group(ProcessorId(1)));
        assert_ne!(stub_group(ProcessorId(0)), ALL_DAEMONS_GROUP);
    }

    #[test]
    fn config_default_enforces_determinism() {
        let c = MechConfig::default();
        assert!(c.enforce_determinism);
        assert!(c.response_cache > 0);
    }
}
