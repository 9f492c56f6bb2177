//! The in-process fault tolerance domain behind a real-socket gateway.
//!
//! `ftd-net` runs the gateway *front end* over the operating system's TCP
//! stack, but the domain behind it — Totem ring, replication mechanisms,
//! replicated application objects — is the deterministic simulated
//! substrate, hosted in-process and advanced in virtual time by the
//! gateway's engine thread. [`DomainHost`] wraps that world: it owns the
//! processors, relays multicasts from the engine into the ring, drains
//! ordered deliveries back out, and answers the engine's [`DomainView`]
//! questions from the live group directory.
//!
//! The relay processor (`h0`) stands in for the gateway *inside* the
//! domain: it joins the gateway group (so directory queries and §3.5
//! peer-counting see the gateway as a member) and its daemon's Totem node
//! is the injection point for [`DomainHost::multicast`].

use ftd_core::DomainView;
use ftd_eternal::{
    DaemonExtension, EternalDaemon, FtProperties, MechConfig, Mechanisms, ObjectRegistry,
};
use ftd_sim::{Context, ProcessorId, SimDuration, World};
use ftd_totem::{GroupId, GroupMessage, TotemConfig, TotemNode};
use std::collections::BTreeMap;

/// The daemon extension run on every host processor: buffers every ordered
/// delivery (the engine sorts out which it cares about) and, on the relay
/// processor, represents the gateway in the gateway group.
#[derive(Debug, Default)]
struct Relay {
    /// The gateway group to join (relay processor only).
    join: Option<GroupId>,
    /// Ordered deliveries not yet drained by the engine thread.
    deliveries: Vec<(GroupId, Vec<u8>)>,
}

impl DaemonExtension for Relay {
    fn on_start(&mut self, _ctx: &mut Context<'_>, totem: &mut TotemNode, _mech: &mut Mechanisms) {
        if let Some(group) = self.join {
            totem.join_group(group);
        }
    }

    fn on_deliver(
        &mut self,
        _ctx: &mut Context<'_>,
        _totem: &mut TotemNode,
        _mech: &mut Mechanisms,
        msg: &GroupMessage,
    ) {
        if self.join.is_some() {
            // The one copy out of the domain: the shard threads get owned
            // bytes, the world's shared buffers stay on this thread.
            self.deliveries.push((msg.group, msg.payload.to_vec()));
        }
    }
}

type HostDaemon = EternalDaemon<Relay>;

/// Why a [`DomainHost`] could not be brought up. Now defined in
/// [`ftd_core::error`] (re-exported here for compatibility) so the whole
/// workspace shares one bring-up vocabulary; [`DomainHost::try_start`]
/// surfaces it wrapped in the workspace-wide [`ftd_core::Error`].
pub use ftd_core::HostError;

/// A [`DomainView`] snapshot taken from the relay daemon's directory;
/// handed to the engine for one batch of events.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct HostView {
    peers: usize,
    votes: BTreeMap<u32, bool>,
    replicas: BTreeMap<u32, usize>,
}

/// The exported facts of a [`HostView`]: gateway peer count, sorted
/// per-group voting flags, sorted per-group live-replica counts.
pub type ViewParts = (usize, Vec<(u32, bool)>, Vec<(u32, usize)>);

impl HostView {
    /// Exports the view's facts — gateway peer count, per-group voting
    /// flags, per-group live-replica counts — for recording (the replay
    /// log stores each view inline with the event that consulted it).
    pub fn parts(&self) -> ViewParts {
        (
            self.peers,
            self.votes.iter().map(|(&g, &v)| (g, v)).collect(),
            self.replicas.iter().map(|(&g, &n)| (g, n)).collect(),
        )
    }
}

impl DomainView for HostView {
    fn live_gateway_peers(&self) -> usize {
        self.peers
    }

    fn votes(&self, group: GroupId) -> bool {
        self.votes.get(&group.0).copied().unwrap_or(false)
    }

    fn live_replicas(&self, group: GroupId) -> usize {
        self.replicas.get(&group.0).copied().unwrap_or(0)
    }
}

/// An in-process fault tolerance domain: a deterministic world whose
/// virtual clock the caller advances explicitly. See the module docs.
pub struct DomainHost {
    world: World,
    domain: u32,
    processors: Vec<ProcessorId>,
    relay: ProcessorId,
    gateway_group: GroupId,
}

impl std::fmt::Debug for DomainHost {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DomainHost")
            .field("domain", &self.domain)
            .field("processors", &self.processors.len())
            .finish()
    }
}

impl DomainHost {
    /// Builds a domain of `processors` daemons (each with an identical
    /// object registry from `registry`) and runs it until the Totem ring
    /// is operational.
    ///
    /// # Panics
    ///
    /// Panics if `processors == 0` or the ring fails to form; use
    /// [`DomainHost::try_start`] to get a [`HostError`] instead.
    pub fn new(
        domain: u32,
        processors: u32,
        seed: u64,
        registry: impl Fn() -> ObjectRegistry + Clone + 'static,
    ) -> Self {
        Self::try_start(domain, processors, seed, registry).unwrap_or_else(|e| panic!("{e}"))
    }

    /// [`DomainHost::new`] without the panics: brings the domain up and
    /// reports ring-formation failure as [`ftd_core::Error::Host`] the
    /// caller can print or turn into a degraded-start decision.
    pub fn try_start(
        domain: u32,
        processors: u32,
        seed: u64,
        registry: impl Fn() -> ObjectRegistry + Clone + 'static,
    ) -> ftd_core::Result<Self> {
        if processors == 0 {
            return Err(HostError::NoProcessors.into());
        }
        let mut world = World::new(seed);
        let lan = world.add_lan(Default::default());
        let gateway_group = GroupId(0x4000_0000 | domain);
        let mut procs = Vec::new();
        for i in 0..processors {
            let registry_cl = registry.clone();
            let join = (i == 0).then_some(gateway_group);
            let p = world.add_processor(&format!("d{domain}h{i}"), lan, move |me| {
                Box::new(EternalDaemon::with_extension(
                    me,
                    TotemConfig::default(),
                    MechConfig {
                        domain,
                        ..MechConfig::default()
                    },
                    registry_cl(),
                    Relay {
                        join,
                        deliveries: Vec::new(),
                    },
                ))
            });
            procs.push(p);
        }
        let relay = procs[0];
        let mut host = DomainHost {
            world,
            domain,
            processors: procs,
            relay,
            gateway_group,
        };
        let mut waited_ms = 0u64;
        for _ in 0..400 {
            if host.is_operational() {
                break;
            }
            host.world.run_for(SimDuration::from_millis(5));
            waited_ms += 5;
        }
        if !host.is_operational() {
            return Err(HostError::RingFormation { waited_ms }.into());
        }
        Ok(host)
    }

    /// The domain id.
    pub fn domain(&self) -> u32 {
        self.domain
    }

    /// Bridges the world's deterministic [`ftd_sim::Stats`] sink into
    /// `registry`, flushing everything recorded so far (e.g. the ring
    /// formation that happened in [`DomainHost::new`]) and mirroring all
    /// future counters and samples. See [`ftd_sim::Stats::bind_registry`].
    pub fn bind_stats(&mut self, registry: std::sync::Arc<ftd_obs::Registry>) {
        self.world.stats_mut().bind_registry(registry);
    }

    /// The gateway group the relay represents the gateway in.
    pub fn gateway_group(&self) -> GroupId {
        self.gateway_group
    }

    /// `true` once every daemon's ring is operational.
    pub fn is_operational(&self) -> bool {
        self.processors.iter().all(|&p| {
            self.world
                .actor::<HostDaemon>(p)
                .is_some_and(|d| d.totem().is_operational())
        })
    }

    fn relay_daemon(&self) -> Option<&HostDaemon> {
        self.world.actor::<HostDaemon>(self.relay)
    }

    fn relay_daemon_mut(&mut self) -> Option<&mut HostDaemon> {
        self.world.actor_mut::<HostDaemon>(self.relay)
    }

    /// Creates a replicated object group and runs the domain until the
    /// placement settles.
    ///
    /// # Panics
    ///
    /// Panics if the relay processor is crashed (groups are created at
    /// bring-up, before fault injection starts).
    pub fn create_group(&mut self, group: GroupId, type_name: &str, properties: FtProperties) {
        self.relay_daemon_mut()
            .expect("create_group before fault injection")
            .create_group(group, type_name, properties);
        self.world.run_for(SimDuration::from_millis(30));
    }

    /// Crashes processor `index` of the domain — the live-wire analogue
    /// of pulling a replica host's power (§3.5 fault model). Processor 0
    /// hosts the relay that stands in for the gateway inside the domain,
    /// so it cannot be crashed here (kill the gateway process to model
    /// that). Returns `false` for the relay, out-of-range indices, and
    /// already-crashed processors.
    pub fn crash_processor(&mut self, index: usize) -> bool {
        if index == 0 || index >= self.processors.len() {
            return false;
        }
        let p = self.processors[index];
        if self.world.is_crashed(p) {
            return false;
        }
        self.world.crash(p);
        true
    }

    /// Recovers a previously crashed processor: its daemon reincarnates
    /// from the registered factory and rejoins the ring. Returns `false`
    /// if the processor is not currently crashed.
    pub fn recover_processor(&mut self, index: usize) -> bool {
        if index >= self.processors.len() {
            return false;
        }
        let p = self.processors[index];
        if !self.world.is_crashed(p) {
            return false;
        }
        self.world.recover(p);
        true
    }

    /// Queues a totally ordered multicast from the gateway into the
    /// domain; it is sent as virtual time advances in [`DomainHost::pump`].
    /// Silently dropped while the relay processor is crashed — the caller
    /// sees the domain as unreachable through [`DomainHost::is_operational`].
    ///
    /// The relay is the ring leader. When it holds the idle token, this
    /// call runs outside the world and cannot end the hold itself, so it
    /// posts Totem's release tag to the relay as a zero-delay event: the
    /// send then goes at the first instant of the next pump, not when the
    /// hold expires.
    pub fn multicast(&mut self, group: GroupId, payload: Vec<u8>) {
        let Some(daemon) = self.relay_daemon_mut() else {
            return;
        };
        let totem = daemon.parts_mut().0;
        totem.multicast(group, payload);
        if totem.holds_token() {
            let release = totem.release_tag();
            self.world.post(self.relay, release);
        }
    }

    /// Advances the domain by `d` of virtual time and drains the ordered
    /// deliveries the gateway should see (none while the relay is down).
    pub fn pump(&mut self, d: SimDuration) -> Vec<(GroupId, Vec<u8>)> {
        self.world.run_for(d);
        match self.relay_daemon_mut() {
            Some(daemon) => std::mem::take(&mut daemon.ext_mut().deliveries),
            None => Vec::new(),
        }
    }

    /// The replicated object groups currently placed in the domain, per
    /// the relay's converged directory (empty while the relay is down).
    pub fn groups(&self) -> Vec<GroupId> {
        self.relay_daemon()
            .map(|d| d.mech().directory().groups().map(|m| m.group).collect())
            .unwrap_or_default()
    }

    /// The current application state of `group`, read from the first live
    /// replica. This is the checkpointable state of §2's Logging-Recovery
    /// Mechanisms; `None` when no live processor hosts a replica.
    pub fn replica_state(&self, group: GroupId) -> Option<Vec<u8>> {
        self.processors.iter().find_map(|&p| {
            self.world
                .actor::<HostDaemon>(p)
                .and_then(|d| d.mech().replica_state(group))
        })
    }

    /// The completed `(operation, reply)` pairs of `group`, read from
    /// the first live replica — the response half of a peer state
    /// transfer ([`DomainBackend::export_groups`]); duplicate detection
    /// at the receiver is primed with exactly these. Empty when no live
    /// processor hosts a replica.
    ///
    /// [`DomainBackend::export_groups`]: crate::backend::DomainBackend::export_groups
    pub fn replica_responses(&self, group: GroupId) -> Vec<(ftd_eternal::OperationId, Vec<u8>)> {
        self.processors
            .iter()
            .find_map(|&p| {
                self.world
                    .actor::<HostDaemon>(p)
                    .and_then(|d| d.mech().completed_responses(group))
            })
            .unwrap_or_default()
    }

    /// Installs recovered durable state into every live replica of
    /// `group` (see [`Mechanisms::restore_replica`]): `state` overwrites
    /// the objects, `responses` prime duplicate detection so operations
    /// answered before the crash are suppressed, not re-executed. Returns
    /// how many replicas accepted the restore.
    pub fn restore_group(
        &mut self,
        group: GroupId,
        state: Option<&[u8]>,
        responses: &[(ftd_eternal::OperationId, Vec<u8>)],
    ) -> usize {
        let procs = self.processors.clone();
        procs
            .into_iter()
            .filter(|&p| {
                self.world
                    .actor_mut::<HostDaemon>(p)
                    .is_some_and(|d| d.mech_mut().restore_replica(group, state, responses))
            })
            .count()
    }

    /// Canonical per-group replica state, sorted by group id: each
    /// placed group paired with its first live replica's checkpointable
    /// state (crashed-out groups contribute an empty state so record and
    /// replay agree on group membership). This is the domain half of a
    /// replay `StateDigest`.
    pub fn state_bytes(&self) -> Vec<(u32, Vec<u8>)> {
        let mut groups = self.groups();
        groups.sort();
        groups
            .into_iter()
            .map(|g| (g.0, self.replica_state(g).unwrap_or_default()))
            .collect()
    }

    /// Snapshots the [`DomainView`] facts for the engine. With the relay
    /// down the view is empty (no peers, no groups): the engine then
    /// treats every group as absent, which is the §3.5 "domain
    /// unreachable" degraded mode.
    pub fn view(&self) -> HostView {
        let Some(daemon) = self.relay_daemon() else {
            return HostView::default();
        };
        let totem = daemon.totem();
        let ring = totem.ring().to_vec();
        let peers = totem
            .group_members(self.gateway_group)
            .into_iter()
            .filter(|p| ring.contains(p))
            .count();
        let directory = daemon.mech().directory();
        let mut votes = BTreeMap::new();
        let mut replicas = BTreeMap::new();
        for meta in directory.groups() {
            votes.insert(meta.group.0, meta.properties.style.votes());
            replicas.insert(meta.group.0, directory.live_hosts(meta.group, &ring).len());
        }
        HostView {
            peers,
            votes,
            replicas,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftd_eternal::{Counter, ReplicationStyle};

    fn registry() -> ObjectRegistry {
        let mut reg = ObjectRegistry::new();
        reg.register("Counter", Box::new(|| Box::new(Counter::new())));
        reg
    }

    #[test]
    fn host_forms_a_ring_and_places_groups() {
        let mut host = DomainHost::new(3, 4, 11, registry);
        assert!(host.is_operational());
        host.create_group(
            GroupId(10),
            "Counter",
            FtProperties::new(ReplicationStyle::Active).with_initial(3),
        );
        let view = host.view();
        assert_eq!(view.live_gateway_peers(), 1);
        assert_eq!(view.live_replicas(GroupId(10)), 3);
        assert!(!view.votes(GroupId(10)));
    }

    #[test]
    fn try_start_reports_errors_instead_of_panicking() {
        assert!(matches!(
            DomainHost::try_start(1, 0, 7, registry),
            Err(ftd_core::Error::Host(HostError::NoProcessors))
        ));
        assert!(DomainHost::try_start(1, 2, 7, registry).is_ok());
    }

    #[test]
    fn crashing_a_processor_degrades_and_recovery_heals() {
        let mut host = DomainHost::new(5, 4, 21, registry);
        assert!(host.is_operational());

        assert!(!host.crash_processor(0), "the relay cannot be crashed");
        assert!(!host.crash_processor(99), "out of range");
        assert!(host.crash_processor(2));
        assert!(!host.crash_processor(2), "already crashed");
        assert!(
            !host.is_operational(),
            "a crashed processor makes the domain degraded"
        );
        // Degraded-mode calls must not panic.
        host.multicast(GroupId(10), vec![1, 2, 3]);
        let _ = host.pump(SimDuration::from_millis(5));
        let _ = host.view();

        assert!(host.recover_processor(2));
        assert!(!host.recover_processor(2), "not crashed anymore");
        for _ in 0..400 {
            if host.is_operational() {
                break;
            }
            let _ = host.pump(SimDuration::from_millis(5));
        }
        assert!(
            host.is_operational(),
            "recovered processor rejoins the ring"
        );
    }

    #[test]
    fn a_multicast_while_the_relay_holds_the_token_goes_at_once() {
        let mut host = DomainHost::new(3, 4, 13, registry);
        let holds = |host: &DomainHost| host.relay_daemon().unwrap().totem().holds_token();
        let mut steps = 0;
        while !holds(&host) {
            assert!(steps < 100_000, "the relay never held the idle token");
            host.world.step();
            steps += 1;
        }
        let broadcasts = host.world.stats().counter("totem.broadcasts");
        let at = host.world.now();
        host.multicast(GroupId(10), vec![1, 2, 3]);
        host.world.run_for(SimDuration::ZERO);
        assert_eq!(host.world.now(), at);
        assert_eq!(
            host.world.stats().counter("totem.broadcasts"),
            broadcasts + 1
        );
        assert!(!holds(&host));
    }

    #[test]
    fn voting_groups_are_visible_in_the_view() {
        let mut host = DomainHost::new(3, 4, 12, registry);
        host.create_group(
            GroupId(11),
            "Counter",
            FtProperties::new(ReplicationStyle::ActiveWithVoting).with_initial(3),
        );
        assert!(host.view().votes(GroupId(11)));
    }
}
