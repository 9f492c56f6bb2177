//! The Totem single-ring protocol state machine.
//!
//! A [`TotemNode`] is a protocol component embedded in a host
//! [`Actor`](ftd_sim::Actor) (in this system: the per-processor Eternal
//! daemon). The host forwards datagrams and timers to the node and drains
//! [`TotemEvent`]s after each call.
//!
//! The implementation follows the Totem single-ring protocol in its
//! essentials: a token rotates around the ring carrying the highest
//! assigned sequence number (`seq`), the all-received-up-to point (`aru`)
//! with its claimant, and a retransmission-request list; messages are
//! broadcast with token-assigned sequence numbers and delivered in
//! sequence order (agreed delivery) or once known received everywhere
//! (safe delivery); loss of the token triggers a gather/commit membership
//! reformation led by the lowest-id survivor. Sequence numbers never
//! regress across reformations, which is what makes them usable as the
//! globally unique operation-identifier timestamps of the paper's §3.3.
//!
//! An idle ring does not spin: the ring leader holds a token that found
//! nothing to do for a whole rotation (Totem's token-retention timer),
//! for a span bounded by `token_retransmit`. A send queued at the leader
//! ends the hold at once (see [`TotemNode::release_hold`] and
//! [`TotemNode::release_tag`]); one queued at another member waits for
//! the hold to end.
//!
//! Received messages are retained in a dense receive window indexed by
//! sequence number ([`Window`]), so receipt, delivery, retransmission and
//! garbage collection cost O(1) per message. The window spans only what
//! the node retains: `retention_slack` below the stability point plus
//! what is in flight. A fresh install at a high recovery floor and a
//! skip-forward past a [`TotemEvent::Gap`] rebase it, so it never spans
//! a sequence-number distance the node does not hold.

use crate::store::Window;
use crate::wire::{Beacon, Commit, Join, Pack, PackEntry, Regular, Token, TotemMsg};
use crate::{
    DeliveryMode, GroupId, GroupMessage, MembershipView, RingEpoch, TotemConfig, TotemEvent,
};
use ftd_sim::{Bytes, Context, Datagram, ProcessorId, SimDuration, SimTime};
use std::collections::{BTreeMap, BTreeSet, VecDeque};

/// Width of the timer-tag namespace a [`TotemNode`] claims from its host,
/// starting at the `tag_base` passed to [`TotemNode::new`].
pub const TOTEM_TAG_SPAN: u64 = 1 << 40;

const KIND_TOKEN_LOSS: u64 = 0;
const KIND_GATHER_END: u64 = 1;
const KIND_TOKEN_RETRANSMIT: u64 = 2;
const KIND_COMMIT_WAIT: u64 = 3;
const KIND_JOIN_RESEND: u64 = 4;
const KIND_COMMIT_RESEND: u64 = 5;
const KIND_BEACON: u64 = 6;
const KIND_HOLD_RELEASE: u64 = 7;
const KIND_COUNT: usize = 8;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum State {
    /// Collecting `Join` messages.
    Gather,
    /// Sent our `Join`; waiting for the representative's `Commit`.
    AwaitCommit,
    /// On an installed ring; token circulating.
    Operational,
}

/// One Totem protocol endpoint.
///
/// # Examples
///
/// See the crate-level documentation for a complete host actor; the
/// essential shape is:
///
/// ```ignore
/// fn on_datagram(&mut self, ctx: &mut Context<'_>, dgram: Datagram) {
///     self.totem.on_datagram(ctx, &dgram);
///     for ev in self.totem.take_events() { /* handle */ }
/// }
/// ```
#[derive(Debug)]
pub struct TotemNode {
    me: ProcessorId,
    config: TotemConfig,
    tag_base: u64,

    state: State,
    /// Highest ring epoch seen anywhere (drives commit epoch selection).
    seen_epoch: RingEpoch,
    /// Epoch of the currently installed ring.
    installed_epoch: RingEpoch,
    ring: Vec<ProcessorId>,
    /// `true` until the first ring installation after boot/recovery.
    fresh: bool,

    /// Retained messages, indexed by sequence number. GC drops its stable
    /// prefix; an install that moves the receipt point past what we hold
    /// rebases it.
    store: Window,
    /// Contiguous receipt point (this node's aru).
    received_up_to: u64,
    /// Delivery point handed to the host (lags `received_up_to` in safe mode).
    delivered_up_to: u64,
    /// Highest aru ever observed on a token (everyone has ≤ this).
    stable_aru: u64,
    /// Highest sequence number seen anywhere.
    high_seq: u64,
    /// Everything at or below this has been garbage-collected locally.
    gc_floor: u64,

    send_queue: VecDeque<(GroupId, Bytes, bool)>,
    last_token_processed: u64,
    /// `token.seq` as this node forwarded it at its previous token visit:
    /// every sequence number at or below it was assigned a full rotation
    /// ago, so one still missing now is lost rather than in flight.
    seq_at_last_visit: u64,
    saved_token: Option<Token>,
    /// When this node last forwarded the token; the ring leader measures
    /// a rotation from it.
    forwarded_at: SimTime,
    /// The idle token the ring leader holds instead of forwarding (see
    /// `idle_hold`), until its release timer or a local send.
    held: Option<Token>,

    joins: BTreeMap<ProcessorId, Join>,
    /// Arm counters per timer kind; stale timer firings are ignored.
    armed: [u64; KIND_COUNT],
    /// Commit we are re-multicasting for robustness, with sends remaining.
    commit_resend: Option<(Commit, u32)>,

    subscriptions: BTreeSet<GroupId>,
    directory: BTreeMap<GroupId, BTreeSet<ProcessorId>>,
    outputs: VecDeque<TotemEvent>,
}

impl TotemNode {
    /// Creates a node for processor `me`. `tag_base` is the start of the
    /// timer-tag namespace this node may use; the host must route tags in
    /// `[tag_base, tag_base + TOTEM_TAG_SPAN)` to [`TotemNode::on_timer`].
    pub fn new(me: ProcessorId, config: TotemConfig, tag_base: u64) -> Self {
        TotemNode {
            me,
            config,
            tag_base,
            state: State::Gather,
            seen_epoch: RingEpoch(0),
            installed_epoch: RingEpoch(0),
            ring: Vec::new(),
            fresh: true,
            store: Window::new(),
            received_up_to: 0,
            delivered_up_to: 0,
            stable_aru: 0,
            high_seq: 0,
            gc_floor: 0,
            send_queue: VecDeque::new(),
            last_token_processed: 0,
            seq_at_last_visit: 0,
            saved_token: None,
            forwarded_at: SimTime::ZERO,
            held: None,
            joins: BTreeMap::new(),
            armed: [0; KIND_COUNT],
            commit_resend: None,
            subscriptions: BTreeSet::new(),
            directory: BTreeMap::new(),
            outputs: VecDeque::new(),
        }
    }

    /// Starts the protocol (call from the host's `on_start`).
    pub fn start(&mut self, ctx: &mut Context<'_>) {
        self.enter_gather(ctx);
    }

    /// `true` once a ring is installed and the token is circulating.
    pub fn is_operational(&self) -> bool {
        self.state == State::Operational
    }

    /// Members of the installed ring (empty before the first install).
    pub fn ring(&self) -> &[ProcessorId] {
        &self.ring
    }

    /// The installed ring epoch.
    pub fn epoch(&self) -> RingEpoch {
        self.installed_epoch
    }

    /// This node's contiguous receipt point — its view of the total order.
    pub fn received_up_to(&self) -> u64 {
        self.received_up_to
    }

    /// Queues `payload` for totally ordered multicast to `group`. The
    /// message is broadcast at the next token visit (subject to flow
    /// control) and delivered to every subscriber of `group` in total
    /// order — including this node, if subscribed. The payload buffer
    /// itself is what this node retains and delivers to itself.
    pub fn multicast(&mut self, group: GroupId, payload: impl Into<Bytes>) {
        self.send_queue.push_back((group, payload.into(), false));
    }

    /// Subscribes this node to `group` and announces the membership to the
    /// ring via an ordered control message, so every node's directory
    /// converges on the same view at the same point in the total order.
    pub fn join_group(&mut self, group: GroupId) {
        self.subscriptions.insert(group);
        self.send_queue
            .push_back((group, control_payload(1, self.me).into(), true));
    }

    /// Unsubscribes from `group` and announces the departure.
    pub fn leave_group(&mut self, group: GroupId) {
        self.subscriptions.remove(&group);
        self.send_queue
            .push_back((group, control_payload(2, self.me).into(), true));
    }

    /// All groups present in the converged directory.
    pub fn directory_groups(&self) -> Vec<GroupId> {
        self.directory.keys().copied().collect()
    }

    /// The processors currently in `group`, per the converged directory.
    pub fn group_members(&self, group: GroupId) -> Vec<ProcessorId> {
        self.directory
            .get(&group)
            .map(|s| s.iter().copied().collect())
            .unwrap_or_default()
    }

    /// Groups this node subscribes to.
    pub fn subscriptions(&self) -> impl Iterator<Item = GroupId> + '_ {
        self.subscriptions.iter().copied()
    }

    /// Drains pending deliveries and membership events, in order.
    pub fn take_events(&mut self) -> Vec<TotemEvent> {
        self.outputs.drain(..).collect()
    }

    /// `true` while this node, as ring leader, holds the idle token
    /// instead of forwarding it. A send queued now waits for the hold to
    /// end unless the host calls [`TotemNode::release_hold`] or posts
    /// [`TotemNode::release_tag`].
    pub fn holds_token(&self) -> bool {
        self.held.is_some()
    }

    /// Ends an idle-token hold at once if sends are queued, so they are
    /// broadcast at this instant rather than when the hold expires.
    /// Hosts call it after queuing multicasts from inside an actor
    /// callback; it does nothing unless this node holds the token.
    pub fn release_hold(&mut self, ctx: &mut Context<'_>) {
        if !self.send_queue.is_empty() {
            self.end_hold(ctx);
        }
    }

    /// The timer tag that runs [`TotemNode::release_hold`] when it reaches
    /// [`TotemNode::on_timer`]. A host that queues sends from outside the
    /// world, with no [`Context`] at hand, posts it to this node's
    /// processor as a zero-delay event. It lies in this node's tag range,
    /// and no armed timer ever carries it.
    pub fn release_tag(&self) -> u64 {
        self.tag_base + KIND_HOLD_RELEASE
    }

    /// Messages queued but not yet broadcast (flow-control backlog).
    pub fn backlog(&self) -> usize {
        self.send_queue.len()
    }

    /// Messages currently retained for retransmission and recovery
    /// rebroadcast: bounded by `retention_slack` plus what is in flight.
    pub fn retained(&self) -> usize {
        self.store.len()
    }

    /// Slots the receive window spans, filled or not: from its base to
    /// the highest sequence number it holds. Bounded like
    /// [`TotemNode::retained`], never by how far the receipt point moved.
    pub fn window_slots(&self) -> usize {
        self.store.slots()
    }

    /// Everything at or below this sequence number has been
    /// garbage-collected locally.
    pub fn gc_floor(&self) -> u64 {
        self.gc_floor
    }

    // ------------------------------------------------------------------
    // Host event entry points
    // ------------------------------------------------------------------

    /// Handles a datagram. Returns `true` if it was Totem traffic (whether
    /// or not it was useful); `false` lets the host route it elsewhere.
    /// Retained and delivered messages share the datagram's buffer.
    pub fn on_datagram(&mut self, ctx: &mut Context<'_>, dgram: &Datagram) -> bool {
        let msg = match TotemMsg::decode_frame(&dgram.payload) {
            Ok(m) => m,
            Err(crate::WireError::NotTotem) => return false,
            Err(_) => {
                ctx.stats().inc("totem.bad_datagrams");
                return true;
            }
        };
        match msg {
            TotemMsg::Regular(m) => self.handle_regular(ctx, m),
            TotemMsg::Pack(p) => {
                ctx.stats().inc("totem.pack_frames_received");
                for m in p.into_regulars() {
                    self.handle_regular(ctx, m);
                }
            }
            TotemMsg::Token(t) => self.handle_token(ctx, t),
            TotemMsg::Join(j) => self.handle_join(ctx, j),
            TotemMsg::Commit(c) => self.handle_commit(ctx, c),
            TotemMsg::Beacon(b) => self.handle_beacon(ctx, b),
        }
        true
    }

    /// Handles a timer tag. Returns `true` if the tag belongs to this node.
    pub fn on_timer(&mut self, ctx: &mut Context<'_>, tag: u64) -> bool {
        if tag < self.tag_base || tag >= self.tag_base + TOTEM_TAG_SPAN {
            return false;
        }
        let local = tag - self.tag_base;
        if local == KIND_HOLD_RELEASE {
            // Arm count 0: the posted release, never an armed timer.
            self.release_hold(ctx);
            return true;
        }
        let kind = local & 0b111;
        let arm = local >> 3;
        if self.armed[kind as usize] != arm {
            return true; // stale arming
        }
        match kind {
            KIND_TOKEN_LOSS => {
                ctx.stats().inc("totem.token_loss_timeouts");
                self.enter_gather(ctx);
            }
            KIND_GATHER_END => self.gather_end(ctx),
            KIND_TOKEN_RETRANSMIT => self.maybe_retransmit_token(ctx),
            KIND_HOLD_RELEASE => self.end_hold(ctx),
            KIND_COMMIT_WAIT => {
                if self.state == State::AwaitCommit {
                    ctx.stats().inc("totem.commit_timeouts");
                    self.enter_gather(ctx);
                }
            }
            KIND_JOIN_RESEND => {
                if self.state == State::Gather {
                    self.multicast_my_join(ctx);
                    self.arm(ctx, KIND_JOIN_RESEND, self.config.gather_timeout / 4);
                }
            }
            KIND_BEACON => {
                if self.state == State::Operational {
                    if self.ring.first() == Some(&self.me) {
                        ctx.lan_multicast(
                            TotemMsg::Beacon(Beacon {
                                epoch: self.installed_epoch,
                                sender: self.me,
                            })
                            .encode(),
                        );
                    }
                    self.arm(ctx, KIND_BEACON, self.config.token_loss_timeout / 2);
                }
            }
            KIND_COMMIT_RESEND => {
                if let Some((commit, left)) = self.commit_resend.take() {
                    if self.state == State::Operational && self.installed_epoch == commit.epoch {
                        ctx.lan_multicast(TotemMsg::Commit(commit.clone()).encode());
                        if left > 1 {
                            self.commit_resend = Some((commit, left - 1));
                            self.arm(ctx, KIND_COMMIT_RESEND, self.config.commit_timeout / 4);
                        }
                    }
                }
            }
            _ => unreachable!("three-bit kind"),
        }
        true
    }

    // ------------------------------------------------------------------
    // Timers
    // ------------------------------------------------------------------

    fn arm(&mut self, ctx: &mut Context<'_>, kind: u64, delay: ftd_sim::SimDuration) {
        self.armed[kind as usize] += 1;
        let tag = self.tag_base + ((self.armed[kind as usize] << 3) | kind);
        ctx.set_timer(delay, tag);
    }

    fn disarm(&mut self, kind: u64) {
        // Invalidate any pending firing by bumping the arm counter.
        self.armed[kind as usize] += 1;
    }

    // ------------------------------------------------------------------
    // Membership: gather / commit
    // ------------------------------------------------------------------

    fn enter_gather(&mut self, ctx: &mut Context<'_>) {
        ctx.stats().inc("totem.gathers");
        self.state = State::Gather;
        self.saved_token = None;
        self.held = None;
        self.disarm(KIND_HOLD_RELEASE);
        self.disarm(KIND_TOKEN_LOSS);
        self.disarm(KIND_TOKEN_RETRANSMIT);
        self.disarm(KIND_COMMIT_WAIT);
        self.joins.clear();
        self.multicast_my_join(ctx);
        self.arm(ctx, KIND_GATHER_END, self.config.gather_timeout);
        self.arm(ctx, KIND_JOIN_RESEND, self.config.gather_timeout / 4);
    }

    fn multicast_my_join(&mut self, ctx: &mut Context<'_>) {
        let my_join = Join {
            sender: self.me,
            epoch: self.seen_epoch,
            aru: self.received_up_to,
            high_seq: self.high_seq,
            retained_from: self.gc_floor,
            fresh: self.fresh,
        };
        self.joins.insert(self.me, my_join.clone());
        ctx.lan_multicast(TotemMsg::Join(my_join).encode());
    }

    fn handle_join(&mut self, ctx: &mut Context<'_>, join: Join) {
        if join.epoch > self.seen_epoch {
            self.seen_epoch = join.epoch;
        }
        match self.state {
            State::Gather => {
                self.joins.insert(join.sender, join);
            }
            State::Operational => {
                // A processor outside the ring wants in, or a ring member
                // lost the token: reform.
                ctx.stats().inc("totem.joins_while_operational");
                self.enter_gather(ctx);
                // enter_gather cleared joins and inserted ours; record theirs.
                self.joins.insert(join.sender, join);
            }
            State::AwaitCommit => {
                // Collect it in case we become the representative next round.
                self.joins.insert(join.sender, join);
            }
        }
    }

    fn gather_end(&mut self, ctx: &mut Context<'_>) {
        if self.state != State::Gather {
            return;
        }
        let members: Vec<ProcessorId> = self.joins.keys().copied().collect();
        let representative = members[0]; // BTreeMap keys are sorted
        if representative != self.me {
            self.state = State::AwaitCommit;
            self.arm(ctx, KIND_COMMIT_WAIT, self.config.commit_timeout);
            return;
        }
        let max_epoch = self
            .joins
            .values()
            .map(|j| j.epoch)
            .max()
            .unwrap_or(self.seen_epoch)
            .max(self.seen_epoch);
        let epoch = RingEpoch::next_round(max_epoch, representative.0);
        let start_seq = self.joins.values().map(|j| j.high_seq).max().unwrap_or(0);
        // The floor is the lowest survivor aru, clamped up to the highest
        // retained-from: below that, some needed message may already be
        // garbage-collected somewhere, so recovery cannot be promised.
        // (Coverage argument: every member retains (retained_from_i,
        // high_seq_i]; with floor >= every retained_from, the union of
        // (floor, high_seq_i] is exactly (floor, start_seq].)
        let min_survivor_aru = self
            .joins
            .values()
            .filter(|j| !j.fresh)
            .map(|j| j.aru)
            .min()
            .unwrap_or(start_seq);
        let max_retained_from = self
            .joins
            .values()
            .map(|j| j.retained_from)
            .max()
            .unwrap_or(0);
        let recovery_floor = min_survivor_aru.max(max_retained_from).min(start_seq);
        let commit = Commit {
            epoch,
            representative,
            members,
            start_seq,
            recovery_floor,
            directory: self
                .directory
                .iter()
                .map(|(g, s)| (*g, s.iter().copied().collect()))
                .collect(),
        };
        ctx.stats().inc("totem.commits_sent");
        ctx.lan_multicast(TotemMsg::Commit(commit.clone()).encode());
        self.commit_resend = Some((commit.clone(), 2));
        self.install(ctx, commit);
        self.arm(ctx, KIND_COMMIT_RESEND, self.config.commit_timeout / 4);
    }

    fn handle_commit(&mut self, ctx: &mut Context<'_>, commit: Commit) {
        if commit.epoch <= self.installed_epoch {
            return; // stale
        }
        if commit.epoch > self.seen_epoch {
            self.seen_epoch = commit.epoch;
        }
        if commit.members.contains(&self.me) {
            self.install(ctx, commit);
        } else {
            // Excluded (our join was lost, or a sibling ring formed without
            // us): rejoin so the rings merge.
            self.enter_gather(ctx);
        }
    }

    fn install(&mut self, ctx: &mut Context<'_>, commit: Commit) {
        self.state = State::Operational;
        self.installed_epoch = commit.epoch;
        self.seen_epoch = self.seen_epoch.max(commit.epoch);
        self.ring = commit.members.clone();
        self.high_seq = self.high_seq.max(commit.start_seq);
        self.last_token_processed = 0;
        self.held = None;
        self.disarm(KIND_HOLD_RELEASE);
        self.disarm(KIND_GATHER_END);
        self.disarm(KIND_COMMIT_WAIT);

        if self.fresh {
            // Skip history we can never recover; app-level state transfer
            // (the Eternal logging-recovery mechanisms) covers the gap.
            self.received_up_to = self.received_up_to.max(commit.recovery_floor);
            self.delivered_up_to = self.delivered_up_to.max(commit.recovery_floor);
            // Nothing is retained yet: start the window at the floor.
            self.store.drop_through(self.received_up_to);
            for (g, procs) in &commit.directory {
                let entry = self.directory.entry(*g).or_default();
                for p in procs {
                    entry.insert(*p);
                }
            }
            self.fresh = false;
        } else {
            // Everything up to the floor is stable ring-wide. First deliver
            // whatever of it we already hold (safe-mode delivery may lag
            // receipt); only a true receipt hole is a gap.
            self.stable_aru = self.stable_aru.max(commit.recovery_floor);
            self.try_deliver(ctx);
            if self.received_up_to < commit.recovery_floor {
                // Excluded long enough that the ring garbage-collected
                // messages we never saw: skip forward and tell the host.
                self.outputs.push_back(TotemEvent::Gap {
                    missed_from: self.delivered_up_to,
                    missed_to: commit.recovery_floor,
                });
                self.received_up_to = commit.recovery_floor;
                self.delivered_up_to = commit.recovery_floor;
                // What we hold at or below the floor is never needed
                // again (no member's receipt point is below it), and
                // keeping it would make the window span the gap.
                self.store.drop_through(commit.recovery_floor);
                self.advance_receipt();
            }
        }
        self.stable_aru = self.stable_aru.max(commit.recovery_floor);

        // Recovery rebroadcast: everything we hold above the floor, so
        // members that missed messages from the old ring can catch up.
        let to_rebroadcast: Vec<Regular> = if commit.recovery_floor < commit.start_seq {
            self.store
                .range(commit.recovery_floor + 1, commit.start_seq)
                .cloned()
                .collect()
        } else {
            Vec::new()
        };
        for mut m in to_rebroadcast {
            ctx.stats().inc("totem.recovery_rebroadcasts");
            m.epoch = commit.epoch; // re-stamp under the new ring
            ctx.lan_multicast(TotemMsg::Regular(m).encode());
        }

        self.outputs
            .push_back(TotemEvent::Membership(MembershipView {
                epoch: commit.epoch,
                members: commit.members.clone(),
            }));
        ctx.stats().inc("totem.rings_installed");

        self.arm(ctx, KIND_TOKEN_LOSS, self.config.token_loss_timeout);
        self.arm(ctx, KIND_BEACON, self.config.token_loss_timeout / 2);
        if commit.representative == self.me {
            let token = Token {
                epoch: commit.epoch,
                token_id: 1,
                seq: commit.start_seq,
                aru: commit.recovery_floor,
                aru_id: None,
                members: commit.members,
                rtr: Vec::new(),
            };
            self.process_token(ctx, token, true);
        }
    }

    // ------------------------------------------------------------------
    // Regular messages and delivery
    // ------------------------------------------------------------------

    fn handle_regular(&mut self, ctx: &mut Context<'_>, m: Regular) {
        // Deliberately does NOT reset the token-loss timer: regular traffic
        // can come from a ring this node is no longer part of, and only the
        // token proves that *our* ring is alive. A node whose ring died
        // while a sibling ring chatters must still time out and re-gather.
        if self.state != State::Operational || m.epoch != self.installed_epoch {
            // Traffic from another incarnation (a sibling ring, or a ring
            // we have not installed yet) must not enter the store: its
            // sequence numbers may conflict with ours. Anything we truly
            // need comes back via rtr retransmission on our own ring.
            ctx.stats().inc("totem.foreign_epoch_regulars");
            if self.state == State::Operational && m.epoch > self.installed_epoch {
                // A strictly newer ring is alive on this LAN (e.g. after a
                // partition healed): rejoin so the rings merge.
                self.enter_gather(ctx);
            }
            return;
        }
        if m.seq <= self.received_up_to || self.store.contains(m.seq) {
            ctx.stats().inc("totem.duplicate_regulars");
            return;
        }
        self.high_seq = self.high_seq.max(m.seq);
        self.store.insert(m);
        self.advance_receipt();
        self.try_deliver(ctx);
    }

    fn advance_receipt(&mut self) {
        while self.store.contains(self.received_up_to + 1) {
            self.received_up_to += 1;
        }
    }

    fn try_deliver(&mut self, ctx: &mut Context<'_>) {
        let limit = match self.config.delivery {
            DeliveryMode::Agreed => self.received_up_to,
            DeliveryMode::Safe => self.received_up_to.min(self.stable_aru),
        };
        while self.delivered_up_to < limit {
            let s = self.delivered_up_to + 1;
            self.delivered_up_to = s;
            let m = self.store.get(s).expect("contiguity below received_up_to");
            if m.control {
                apply_control(&mut self.directory, m);
            } else if self.subscriptions.contains(&m.group) {
                ctx.stats().inc("totem.delivered");
                self.outputs.push_back(TotemEvent::Deliver(GroupMessage {
                    seq: m.seq,
                    sender: m.sender,
                    group: m.group,
                    payload: m.payload.clone(),
                }));
            }
        }
    }

    // ------------------------------------------------------------------
    // Token handling
    // ------------------------------------------------------------------

    fn handle_token(&mut self, ctx: &mut Context<'_>, token: Token) {
        if self.state != State::Operational || token.epoch != self.installed_epoch {
            if token.epoch > self.installed_epoch {
                // We missed a commit for a newer ring.
                self.enter_gather(ctx);
            }
            return;
        }
        if token.token_id <= self.last_token_processed {
            ctx.stats().inc("totem.duplicate_tokens");
            return;
        }
        if !token.members.contains(&self.me) {
            return;
        }
        self.process_token(ctx, token, true);
    }

    /// One token visit. `may_hold` is `false` when the visit ends a
    /// hold: a released token is always forwarded.
    fn process_token(&mut self, ctx: &mut Context<'_>, mut token: Token, may_hold: bool) {
        self.last_token_processed = token.token_id;
        self.arm(ctx, KIND_TOKEN_LOSS, self.config.token_loss_timeout);

        // 1. Serve retransmission requests we can satisfy.
        let mut unserved = Vec::with_capacity(token.rtr.len());
        for &s in &token.rtr {
            if let Some(m) = self.store.get(s) {
                ctx.stats().inc("totem.retransmissions");
                let mut copy = m.clone();
                copy.epoch = self.installed_epoch; // re-stamp for this ring
                ctx.lan_multicast(TotemMsg::Regular(copy).encode());
            } else {
                unserved.push(s);
            }
        }
        token.rtr = unserved;

        // 2. Request what we are missing — but only sequence numbers
        // that were already assigned at our previous visit. The token
        // (unicast) and the broadcasts it follows (multicast) draw their
        // latency from the same distribution, so anything newer is as
        // likely still in flight as lost; asking for it makes the next
        // holder re-multicast a message that is about to arrive. A real
        // loss is requested one rotation later.
        let request_up_to = token.seq.min(self.seq_at_last_visit);
        let mut s = self.received_up_to + 1;
        while s <= request_up_to && token.rtr.len() < self.config.max_rtr {
            if !self.store.contains(s) && !token.rtr.contains(&s) {
                token.rtr.push(s);
            }
            s += 1;
        }

        // 3. Broadcast queued messages with fresh sequence numbers. A
        // burst is packed into shared ring frames (bounded by count and
        // bytes) so a token visit pays one datagram per frame rather
        // than per message; every message still gets its own sequence
        // number and store slot, so delivery, aru accounting and rtr
        // retransmission are oblivious to the packing.
        let mut sent = 0;
        let mut frame: Vec<Regular> = Vec::new();
        let mut frame_bytes = 0usize;
        while sent < self.config.max_messages_per_token {
            let Some((group, payload, control)) = self.send_queue.pop_front() else {
                break;
            };
            token.seq += 1;
            let m = Regular {
                epoch: self.installed_epoch,
                seq: token.seq,
                sender: self.me,
                group,
                control,
                payload,
            };
            self.high_seq = self.high_seq.max(m.seq);
            self.store.insert(m.clone());
            ctx.stats().inc("totem.broadcasts");
            if !frame.is_empty()
                && (frame.len() >= self.config.max_pack_count
                    || frame_bytes + m.payload.len() > self.config.max_pack_bytes)
            {
                frame_bytes = 0;
                self.flush_frame(ctx, &mut frame);
            }
            frame_bytes += m.payload.len();
            frame.push(m);
            sent += 1;
        }
        self.flush_frame(ctx, &mut frame);
        if sent > 0 {
            self.advance_receipt();
        }

        // 4. Update the aru (all-received-up-to) per the Totem rule: lower
        // and claim if behind; raise if we are the claimant or none exists.
        let my_aru = self.received_up_to;
        if my_aru < token.aru {
            token.aru = my_aru;
            token.aru_id = Some(self.me);
        } else if token.aru_id.is_none() || token.aru_id == Some(self.me) {
            token.aru = my_aru.min(token.seq);
            token.aru_id = None;
        }

        // 5. Stability advances: deliver (safe mode) before GC.
        self.stable_aru = self.stable_aru.max(token.aru);
        self.try_deliver(ctx);
        // Keep a slack window below stability so that briefly-excluded
        // processors can still be caught up by rebroadcast.
        let gc_below = token.aru.saturating_sub(self.config.retention_slack);
        if gc_below > self.gc_floor {
            self.gc_floor = gc_below;
            // What falls below the floor is the window's front, so this
            // costs the messages dropped, not the ones kept.
            self.store.drop_through(gc_below);
        }

        // 6. Hold the token if the ring is idle (ring leader only), else
        // forward it to the successor.
        if may_hold {
            if let Some(hold) = self.idle_hold(ctx.now(), &token) {
                ctx.stats().inc("totem.token_holds");
                self.held = Some(token);
                // Resending the token this visit superseded is pointless.
                self.disarm(KIND_TOKEN_RETRANSMIT);
                self.arm(ctx, KIND_HOLD_RELEASE, hold);
                return;
            }
        }
        self.seq_at_last_visit = token.seq;
        token.token_id += 1;
        let successor = token.successor_of(self.me);
        ctx.stats().inc("totem.token_hops");
        // The ring leader (lowest member) sees the token once per full
        // circuit: count rotations there so the rate is per-ring, not
        // per-member.
        if self.ring.first() == Some(&self.me) {
            ctx.stats().inc("totem.token_rotations");
        }
        ctx.datagram_to(successor, TotemMsg::Token(token.clone()).encode());
        self.saved_token = Some(token);
        self.forwarded_at = ctx.now();
        self.arm(ctx, KIND_TOKEN_RETRANSMIT, self.config.token_retransmit);
    }

    /// How long the ring leader may hold `token` instead of forwarding it
    /// — Totem's token-retention timer — or `None` to forward it now.
    ///
    /// The leader holds only an idle ring: the full rotation since its
    /// previous visit assigned no new sequence number (so it sends
    /// nothing itself either), nothing is requested for retransmission,
    /// and the aru shows every member, this one included, holding
    /// everything up to `token.seq`. The hold is what is left of
    /// `token_retransmit` after one and a half times the rotation just
    /// measured: one rotation for the token's next circuit after the
    /// release, half of one as headroom for jitter. So no member's
    /// retransmit timer (nor the much longer token-loss timer) fires
    /// while the leader holds. Under safe delivery, a member the token
    /// reached before the aru settled learns of stability one hold later.
    fn idle_hold(&self, now: SimTime, token: &Token) -> Option<SimDuration> {
        let previous = self.saved_token.as_ref()?;
        let idle = self.ring.first() == Some(&self.me)
            && previous.epoch == token.epoch
            && previous.seq == token.seq
            && token.aru == token.seq
            && token.rtr.is_empty();
        let rotation = now.saturating_since(self.forwarded_at);
        let hold = self
            .config
            .token_retransmit
            .saturating_sub(rotation * 3 / 2);
        (idle && !hold.is_zero()).then_some(hold)
    }

    /// Forwards a held token, after broadcasting whatever was queued
    /// meanwhile: the visit runs again, with holding disallowed.
    fn end_hold(&mut self, ctx: &mut Context<'_>) {
        if let Some(token) = self.held.take() {
            self.disarm(KIND_HOLD_RELEASE);
            self.process_token(ctx, token, false);
        }
    }

    /// Broadcasts the frame accumulated at a token visit: a lone message
    /// travels as a plain `Regular` (wire-identical to the unpacked
    /// protocol), a burst as one `Pack` datagram.
    fn flush_frame(&mut self, ctx: &mut Context<'_>, frame: &mut Vec<Regular>) {
        match frame.len() {
            0 => {}
            1 => {
                let m = frame.pop().expect("len 1");
                ctx.lan_multicast(TotemMsg::Regular(m).encode());
            }
            n => {
                ctx.stats().inc("totem.pack_frames");
                ctx.stats().add("totem.pack_messages", n as u64);
                let pack = Pack {
                    epoch: self.installed_epoch,
                    sender: self.me,
                    entries: frame
                        .drain(..)
                        .map(|m| PackEntry {
                            seq: m.seq,
                            group: m.group,
                            control: m.control,
                            payload: m.payload,
                        })
                        .collect(),
                };
                ctx.lan_multicast(TotemMsg::Pack(pack).encode());
            }
        }
    }

    fn handle_beacon(&mut self, ctx: &mut Context<'_>, beacon: Beacon) {
        if beacon.epoch > self.seen_epoch {
            self.seen_epoch = beacon.epoch;
        }
        if self.state == State::Operational
            && !self.ring.contains(&beacon.sender)
            && beacon.epoch >= self.installed_epoch
        {
            // A sibling ring with a higher (or tied) epoch exists on this
            // LAN: rejoin so the rings merge. The other side merges toward
            // us symmetrically when our beacon reaches it.
            ctx.stats().inc("totem.beacon_merges");
            self.enter_gather(ctx);
        }
    }

    fn maybe_retransmit_token(&mut self, ctx: &mut Context<'_>) {
        // Keep resending the forwarded token until we process a newer one
        // (processing re-saves and re-arms). Duplicates are cheap: the
        // successor filters them by `token_id`. Suppressing retransmission
        // on unrelated traffic would let a lost token go unnoticed until
        // the full token-loss timeout and thrash the membership protocol.
        if self.state != State::Operational {
            return;
        }
        let Some(token) = self.saved_token.clone() else {
            return;
        };
        ctx.stats().inc("totem.token_retransmits");
        let successor = token.successor_of(self.me);
        ctx.datagram_to(successor, TotemMsg::Token(token).encode());
        self.arm(ctx, KIND_TOKEN_RETRANSMIT, self.config.token_retransmit);
    }
}

fn apply_control(directory: &mut BTreeMap<GroupId, BTreeSet<ProcessorId>>, m: &Regular) {
    let Some((op, proc)) = parse_control(&m.payload) else {
        return;
    };
    let entry = directory.entry(m.group).or_default();
    match op {
        1 => {
            entry.insert(proc);
        }
        2 => {
            entry.remove(&proc);
        }
        _ => {}
    }
}

fn control_payload(op: u8, proc: ProcessorId) -> Vec<u8> {
    let mut v = Vec::with_capacity(5);
    v.push(op);
    v.extend(proc.0.to_be_bytes());
    v
}

fn parse_control(payload: &[u8]) -> Option<(u8, ProcessorId)> {
    if payload.len() != 5 {
        return None;
    }
    let op = payload[0];
    let proc = u32::from_be_bytes(payload[1..5].try_into().ok()?);
    Some((op, ProcessorId(proc)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn control_payload_round_trip() {
        let p = control_payload(1, ProcessorId(9));
        assert_eq!(parse_control(&p), Some((1, ProcessorId(9))));
        assert_eq!(parse_control(&[1, 2]), None);
    }

    /// A one-member ring: the node holds the token every hop and delivers
    /// its own broadcasts to itself.
    struct Solo(TotemNode);

    impl ftd_sim::Actor for Solo {
        fn on_start(&mut self, ctx: &mut Context<'_>) {
            self.0.start(ctx);
        }
        fn on_timer(&mut self, ctx: &mut Context<'_>, tag: u64) {
            self.0.on_timer(ctx, tag);
        }
        fn on_datagram(&mut self, ctx: &mut Context<'_>, dgram: Datagram) {
            self.0.on_datagram(ctx, &dgram);
        }
    }

    #[test]
    fn gc_keeps_exactly_the_window_above_the_floor() {
        let config = TotemConfig {
            retention_slack: 8,
            ..TotemConfig::default()
        };
        let mut world = ftd_sim::World::new(5);
        let lan = world.add_lan(ftd_sim::LanConfig::default());
        let p = world.add_processor("solo", lan, move |me| {
            Box::new(Solo(TotemNode::new(me, config, 0)))
        });
        world.run_for(ftd_sim::SimDuration::from_millis(20));
        let node = &mut world.actor_mut::<Solo>(p).unwrap().0;
        assert!(node.is_operational());
        for i in 0..100u8 {
            node.multicast(GroupId(1), vec![i]);
        }
        world.run_for(ftd_sim::SimDuration::from_millis(20));
        let node = &world.actor::<Solo>(p).unwrap().0;
        assert_eq!(node.received_up_to, 100);
        assert_eq!(node.gc_floor, node.stable_aru - 8);
        assert!(node.gc_floor >= 80, "floor stuck at {}", node.gc_floor);
        assert_eq!(
            node.store.seqs(),
            (node.gc_floor + 1..=100).collect::<Vec<_>>()
        );
        assert_eq!(node.window_slots(), node.retained());
    }

    #[test]
    fn a_retained_message_pins_no_more_than_its_own_frame() {
        let config = TotemConfig::default();
        let mut world = ftd_sim::World::new(8);
        let lan = world.add_lan(ftd_sim::LanConfig::default());
        let add = |world: &mut ftd_sim::World, name| {
            world.add_processor(name, lan, move |me| {
                Box::new(Solo(TotemNode::new(me, config, 0)))
            })
        };
        let sender = add(&mut world, "sender");
        let receiver = add(&mut world, "receiver");
        world.run_for(SimDuration::from_millis(30));
        // Bursts of mixed sizes: packs of many small messages, packs cut
        // by bytes, and messages too large to share a frame.
        let sizes = [10usize, 700, 3000, 9000];
        let node = &mut world.actor_mut::<Solo>(sender).unwrap().0;
        assert!(node.is_operational());
        for i in 0..64 {
            node.multicast(GroupId(1), vec![i as u8; sizes[i % sizes.len()]]);
        }
        world.run_for(SimDuration::from_millis(30));
        let node = &world.actor::<Solo>(receiver).unwrap().0;
        let retained: Vec<&Regular> = node.store.range(0, u64::MAX).collect();
        assert!(retained.len() >= 64, "the receiver holds the burst");
        let overhead = 5 + 8 + 4 + 4 + config.max_pack_count * (8 + 4 + 1 + 4);
        let mut shared = 0;
        for m in retained {
            let own = m.payload.len() + 5 + 8 + 8 + 4 + 4 + 1 + 4;
            let bound = own.max(config.max_pack_bytes + overhead);
            assert!(
                m.payload.frame_len() <= bound,
                "seq {} ({} bytes) pins a {}-byte frame",
                m.seq,
                m.payload.len(),
                m.payload.frame_len()
            );
            shared += usize::from(m.payload.frame_len() > own);
        }
        assert!(shared > 0, "some messages arrived packed");
    }

    /// Multicasts one prepared `Commit` at 1.2 ms: after the fresh node's
    /// join resends have landed, before its own gather would end.
    struct Committer(Commit);

    impl ftd_sim::Actor for Committer {
        fn on_start(&mut self, ctx: &mut Context<'_>) {
            ctx.set_timer(SimDuration::from_micros(1_200), 0);
        }
        fn on_timer(&mut self, ctx: &mut Context<'_>, _tag: u64) {
            ctx.lan_multicast(TotemMsg::Commit(self.0.clone()).encode());
        }
    }

    #[test]
    fn a_fresh_install_at_a_high_floor_allocates_no_window_below_it() {
        const FLOOR: u64 = 1_000_000;
        let mut world = ftd_sim::World::new(6);
        let lan = world.add_lan(ftd_sim::LanConfig::default());
        let p = world.add_processor("fresh", lan, |me| {
            Box::new(Solo(TotemNode::new(me, TotemConfig::default(), 0)))
        });
        world.add_processor("committer", lan, move |_| {
            Box::new(Committer(Commit {
                epoch: RingEpoch(1 << 8),
                representative: p,
                members: vec![p],
                start_seq: FLOOR,
                recovery_floor: FLOOR,
                directory: Vec::new(),
            }))
        });
        world.run_for(SimDuration::from_millis(20));
        let node = &mut world.actor_mut::<Solo>(p).unwrap().0;
        assert!(node.is_operational());
        assert_eq!(node.epoch(), RingEpoch(1 << 8), "installed the commit");
        assert_eq!(node.received_up_to, FLOOR);
        for i in 0..10u8 {
            node.multicast(GroupId(1), vec![i]);
        }
        world.run_for(SimDuration::from_millis(20));
        let node = &world.actor::<Solo>(p).unwrap().0;
        assert_eq!(node.received_up_to, FLOOR + 10);
        assert_eq!(
            node.store.seqs(),
            (FLOOR + 1..=FLOOR + 10).collect::<Vec<_>>()
        );
        assert_eq!(node.window_slots(), 10);
        assert!(
            node.store.capacity() < 1_024,
            "window capacity {} for 10 messages",
            node.store.capacity()
        );
    }

    #[test]
    fn new_node_is_fresh_and_not_operational() {
        let n = TotemNode::new(ProcessorId(0), TotemConfig::default(), 0);
        assert!(!n.is_operational());
        assert!(n.ring().is_empty());
        assert_eq!(n.backlog(), 0);
        assert_eq!(n.received_up_to(), 0);
    }
}
