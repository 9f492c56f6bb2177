//! The trait boundary between the gateway front end and whatever fault
//! tolerance domain stands behind it.
//!
//! The paper's gateway is deliberately ignorant of the domain's insides:
//! it multicasts invocations into an ordered transport and reads ordered
//! deliveries back (§3.1). [`DomainBackend`] captures exactly that
//! surface — plus the operational controls the harnesses need (fault
//! injection, health, stats binding) — so
//! [`GatewayBuilder::host`](crate::GatewayBuilder::host), the gateway's
//! domain thread, and the test suites accept *any* backend: the plain
//! in-process [`DomainHost`], the durability-wrapping
//! [`DurableHost`](crate::DurableHost), or a test double.
//!
//! [`DomainHost`]: crate::DomainHost

use crate::host::{DomainHost, HostView};
use ftd_eternal::OperationId;
use ftd_obs::Registry;
use ftd_sim::SimDuration;
use ftd_totem::GroupId;
use std::sync::Arc;

/// One replicated object group's transferable state: the checkpoint
/// bytes plus the completed `(operation, reply)` pairs that prime the
/// receiver's duplicate detection. What a gateway-group donor streams
/// per group in a §3.5 rejoin-by-state-transfer, produced by
/// [`DomainBackend::export_groups`] and consumed by
/// [`DomainBackend::install_groups`].
#[derive(Debug, Clone, Default)]
pub struct GroupSnapshot {
    /// The object group id.
    pub group: u32,
    /// The replica's serialized application state.
    pub state: Vec<u8>,
    /// Completed operations and their reply bytes.
    pub responses: Vec<(OperationId, Vec<u8>)>,
}

/// A fault tolerance domain as seen from the gateway's domain thread.
/// See the module docs; [`DomainHost`] is the canonical implementation.
///
/// Backends are constructed *on* the domain thread (the builder factories
/// run there), so the trait does not require `Send` — the simulated world
/// never crosses threads.
pub trait DomainBackend: 'static {
    /// The domain id.
    fn domain(&self) -> u32;

    /// The gateway group the domain's relay represents the gateway in.
    fn gateway_group(&self) -> GroupId;

    /// `true` while the domain is reachable and its ring operational.
    fn is_operational(&self) -> bool;

    /// Queues a totally ordered multicast from the gateway into the
    /// domain (sent as time advances in [`DomainBackend::pump`]).
    fn multicast(&mut self, group: GroupId, payload: Vec<u8>);

    /// Advances the domain by `d` and drains the ordered deliveries the
    /// gateway should see.
    fn pump(&mut self, d: SimDuration) -> Vec<(GroupId, Vec<u8>)>;

    /// Snapshots the [`DomainView`](ftd_core::DomainView) facts for the
    /// engine.
    fn view(&self) -> HostView;

    /// Crashes processor `index` (fault injection). Returns `false` when
    /// the processor cannot be crashed.
    fn crash_processor(&mut self, index: usize) -> bool;

    /// Recovers a previously crashed processor. Returns `false` when it
    /// was not crashed.
    fn recover_processor(&mut self, index: usize) -> bool;

    /// Bridges the domain's stats into `registry`.
    fn bind_stats(&mut self, registry: Arc<Registry>);

    /// Periodic housekeeping, called after every domain-thread pump.
    /// Durable backends checkpoint here; the default does nothing.
    fn maintain(&mut self) {}

    /// Canonical per-group replica state, sorted by group id — the
    /// domain half of a replay [`StateDigest`](ftd_replay::StateDigest).
    /// Backends without replicated application state (test doubles)
    /// return the default empty vector.
    fn state_bytes(&self) -> Vec<(u32, Vec<u8>)> {
        Vec::new()
    }

    /// Exports every placed group's [`GroupSnapshot`] (state plus
    /// completed responses), sorted by group id — the donor side of a
    /// gateway-group state transfer. Backends without replicated state
    /// export nothing.
    fn export_groups(&self) -> Vec<GroupSnapshot> {
        Vec::new()
    }

    /// Installs transferred [`GroupSnapshot`]s into the local replicas —
    /// the receiver side of a gateway-group state transfer. Returns how
    /// many replicas accepted state. Backends without replicated state
    /// install nothing.
    fn install_groups(&mut self, _groups: &[GroupSnapshot]) -> usize {
        0
    }
}

impl DomainBackend for DomainHost {
    fn domain(&self) -> u32 {
        DomainHost::domain(self)
    }

    fn gateway_group(&self) -> GroupId {
        DomainHost::gateway_group(self)
    }

    fn is_operational(&self) -> bool {
        DomainHost::is_operational(self)
    }

    fn multicast(&mut self, group: GroupId, payload: Vec<u8>) {
        DomainHost::multicast(self, group, payload)
    }

    fn pump(&mut self, d: SimDuration) -> Vec<(GroupId, Vec<u8>)> {
        DomainHost::pump(self, d)
    }

    fn view(&self) -> HostView {
        DomainHost::view(self)
    }

    fn crash_processor(&mut self, index: usize) -> bool {
        DomainHost::crash_processor(self, index)
    }

    fn recover_processor(&mut self, index: usize) -> bool {
        DomainHost::recover_processor(self, index)
    }

    fn bind_stats(&mut self, registry: Arc<Registry>) {
        DomainHost::bind_stats(self, registry)
    }

    fn state_bytes(&self) -> Vec<(u32, Vec<u8>)> {
        DomainHost::state_bytes(self)
    }

    fn export_groups(&self) -> Vec<GroupSnapshot> {
        let mut groups = DomainHost::groups(self);
        groups.sort();
        groups
            .into_iter()
            .map(|g| GroupSnapshot {
                group: g.0,
                state: DomainHost::replica_state(self, g).unwrap_or_default(),
                responses: DomainHost::replica_responses(self, g),
            })
            .collect()
    }

    fn install_groups(&mut self, groups: &[GroupSnapshot]) -> usize {
        groups
            .iter()
            .map(|snap| {
                let state = (!snap.state.is_empty()).then_some(snap.state.as_slice());
                DomainHost::restore_group(self, GroupId(snap.group), state, &snap.responses)
            })
            .sum()
    }
}

/// Boxed backends are backends: factories can hand `Box<dyn
/// DomainBackend>` straight to the builders. Every method — including
/// [`DomainBackend::maintain`], which has a default body — delegates to
/// the boxed implementation.
impl DomainBackend for Box<dyn DomainBackend> {
    fn domain(&self) -> u32 {
        (**self).domain()
    }

    fn gateway_group(&self) -> GroupId {
        (**self).gateway_group()
    }

    fn is_operational(&self) -> bool {
        (**self).is_operational()
    }

    fn multicast(&mut self, group: GroupId, payload: Vec<u8>) {
        (**self).multicast(group, payload)
    }

    fn pump(&mut self, d: SimDuration) -> Vec<(GroupId, Vec<u8>)> {
        (**self).pump(d)
    }

    fn view(&self) -> HostView {
        (**self).view()
    }

    fn crash_processor(&mut self, index: usize) -> bool {
        (**self).crash_processor(index)
    }

    fn recover_processor(&mut self, index: usize) -> bool {
        (**self).recover_processor(index)
    }

    fn bind_stats(&mut self, registry: Arc<Registry>) {
        (**self).bind_stats(registry)
    }

    fn maintain(&mut self) {
        (**self).maintain()
    }

    fn state_bytes(&self) -> Vec<(u32, Vec<u8>)> {
        (**self).state_bytes()
    }

    fn export_groups(&self) -> Vec<GroupSnapshot> {
        (**self).export_groups()
    }

    fn install_groups(&mut self, groups: &[GroupSnapshot]) -> usize {
        (**self).install_groups(groups)
    }
}
