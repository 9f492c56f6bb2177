//! The per-processor Eternal daemon: the [`Actor`] that hosts a
//! [`TotemNode`] and the [`Mechanisms`] on every processor of a fault
//! tolerance domain, and routes events between them.
//!
//! A daemon can carry one [`DaemonExtension`] — the hook `ftd-core` uses
//! to mount a gateway on selected processors. The extension sees every
//! totally ordered delivery, membership change, TCP event, and any timer
//! tag the Totem node did not claim.

use crate::{MechConfig, Mechanisms, ObjectRegistry};
use ftd_sim::{Actor, Context, Datagram, TcpEvent};
use ftd_totem::{GroupMessage, MembershipView, TotemConfig, TotemEvent, TotemNode};

/// Timer-tag base reserved for the daemon's Totem node.
pub const TOTEM_TAG_BASE: u64 = 1 << 48;

/// Extension point for components co-hosted with the daemon (gateways).
///
/// All methods have empty defaults; implement what you need. The unit type
/// `()` is the no-op extension for plain domain processors.
pub trait DaemonExtension: 'static {
    /// Called once at daemon start (after Totem and mechanisms start).
    fn on_start(&mut self, ctx: &mut Context<'_>, totem: &mut TotemNode, mech: &mut Mechanisms) {
        let _ = (ctx, totem, mech);
    }

    /// Called for every totally ordered delivery (after the mechanisms).
    fn on_deliver(
        &mut self,
        ctx: &mut Context<'_>,
        totem: &mut TotemNode,
        mech: &mut Mechanisms,
        msg: &GroupMessage,
    ) {
        let _ = (ctx, totem, mech, msg);
    }

    /// Called on every installed membership view (after the mechanisms).
    fn on_membership(
        &mut self,
        ctx: &mut Context<'_>,
        totem: &mut TotemNode,
        mech: &mut Mechanisms,
        view: &MembershipView,
    ) {
        let _ = (ctx, totem, mech, view);
    }

    /// Called for TCP events (the daemon itself uses none).
    fn on_tcp(
        &mut self,
        ctx: &mut Context<'_>,
        totem: &mut TotemNode,
        mech: &mut Mechanisms,
        ev: TcpEvent,
    ) {
        let _ = (ctx, totem, mech, ev);
    }

    /// Called for timer tags the Totem node did not claim.
    fn on_timer(
        &mut self,
        ctx: &mut Context<'_>,
        totem: &mut TotemNode,
        mech: &mut Mechanisms,
        tag: u64,
    ) {
        let _ = (ctx, totem, mech, tag);
    }
}

impl DaemonExtension for () {}

/// `Option<E>` lets a fleet of daemons share one actor type while only
/// some of them mount the extension (e.g. gateways on selected
/// processors).
impl<E: DaemonExtension> DaemonExtension for Option<E> {
    fn on_start(&mut self, ctx: &mut Context<'_>, totem: &mut TotemNode, mech: &mut Mechanisms) {
        if let Some(e) = self {
            e.on_start(ctx, totem, mech);
        }
    }
    fn on_deliver(
        &mut self,
        ctx: &mut Context<'_>,
        totem: &mut TotemNode,
        mech: &mut Mechanisms,
        msg: &GroupMessage,
    ) {
        if let Some(e) = self {
            e.on_deliver(ctx, totem, mech, msg);
        }
    }
    fn on_membership(
        &mut self,
        ctx: &mut Context<'_>,
        totem: &mut TotemNode,
        mech: &mut Mechanisms,
        view: &MembershipView,
    ) {
        if let Some(e) = self {
            e.on_membership(ctx, totem, mech, view);
        }
    }
    fn on_tcp(
        &mut self,
        ctx: &mut Context<'_>,
        totem: &mut TotemNode,
        mech: &mut Mechanisms,
        ev: TcpEvent,
    ) {
        if let Some(e) = self {
            e.on_tcp(ctx, totem, mech, ev);
        }
    }
    fn on_timer(
        &mut self,
        ctx: &mut Context<'_>,
        totem: &mut TotemNode,
        mech: &mut Mechanisms,
        tag: u64,
    ) {
        if let Some(e) = self {
            e.on_timer(ctx, totem, mech, tag);
        }
    }
}

/// The per-processor daemon actor. See the module docs.
pub struct EternalDaemon<E: DaemonExtension = ()> {
    totem: TotemNode,
    mech: Mechanisms,
    ext: E,
}

impl<E: DaemonExtension> EternalDaemon<E> {
    /// Creates a daemon with an extension.
    pub fn with_extension(
        me: ftd_sim::ProcessorId,
        totem_config: TotemConfig,
        mech_config: MechConfig,
        registry: ObjectRegistry,
        ext: E,
    ) -> Self {
        EternalDaemon {
            totem: TotemNode::new(me, totem_config, TOTEM_TAG_BASE),
            mech: Mechanisms::new(me, mech_config, registry),
            ext,
        }
    }

    /// The Totem protocol endpoint.
    pub fn totem(&self) -> &TotemNode {
        &self.totem
    }

    /// The replication mechanisms.
    pub fn mech(&self) -> &Mechanisms {
        &self.mech
    }

    /// Mutable access to the replication mechanisms (driver API: group
    /// creation, root invocations, reply draining).
    pub fn mech_mut(&mut self) -> &mut Mechanisms {
        &mut self.mech
    }

    /// Both mutable halves at once, for driver calls that need the Totem
    /// node (e.g. `mech_mut().invoke_root(totem, ...)`).
    pub fn parts_mut(&mut self) -> (&mut TotemNode, &mut Mechanisms) {
        (&mut self.totem, &mut self.mech)
    }

    /// The extension.
    pub fn ext(&self) -> &E {
        &self.ext
    }

    /// Mutable access to the extension.
    pub fn ext_mut(&mut self) -> &mut E {
        &mut self.ext
    }

    /// Driver shorthand: create a group (see [`Mechanisms::create_group`]).
    pub fn create_group(
        &mut self,
        group: ftd_totem::GroupId,
        type_name: &str,
        properties: crate::FtProperties,
    ) {
        self.mech
            .create_group(&mut self.totem, group, type_name, properties);
    }

    /// Driver shorthand: issue a root invocation.
    pub fn invoke_root(&mut self, target: ftd_totem::GroupId, operation: &str, args: &[u8]) -> u32 {
        self.mech
            .invoke_root(&mut self.totem, target, operation, args)
    }

    /// Driver shorthand: request a live upgrade.
    pub fn upgrade_group(&mut self, group: ftd_totem::GroupId, new_type: &str) {
        self.mech.upgrade_group(&mut self.totem, group, new_type);
    }

    fn drain(&mut self, ctx: &mut Context<'_>) {
        loop {
            // Whatever this callback (or a delivery below) queued goes
            // out now if this daemon holds the idle token.
            self.totem.release_hold(ctx);
            let events = self.totem.take_events();
            if events.is_empty() {
                return;
            }
            for ev in events {
                match ev {
                    TotemEvent::Deliver(msg) => {
                        self.mech.on_deliver(ctx, &mut self.totem, &msg);
                        self.ext
                            .on_deliver(ctx, &mut self.totem, &mut self.mech, &msg);
                    }
                    TotemEvent::Membership(view) => {
                        self.mech.on_membership(ctx, &mut self.totem, &view);
                        self.ext
                            .on_membership(ctx, &mut self.totem, &mut self.mech, &view);
                    }
                    TotemEvent::Gap { .. } => {
                        self.mech.on_gap(ctx, &mut self.totem);
                    }
                }
            }
        }
    }
}

impl EternalDaemon<()> {
    /// Creates a plain daemon with no extension.
    pub fn new(
        me: ftd_sim::ProcessorId,
        totem_config: TotemConfig,
        mech_config: MechConfig,
        registry: ObjectRegistry,
    ) -> Self {
        Self::with_extension(me, totem_config, mech_config, registry, ())
    }
}

impl<E: DaemonExtension> Actor for EternalDaemon<E> {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        self.totem.start(ctx);
        self.mech.on_start(&mut self.totem);
        self.ext.on_start(ctx, &mut self.totem, &mut self.mech);
        self.drain(ctx);
    }

    fn on_timer(&mut self, ctx: &mut Context<'_>, tag: u64) {
        if !self.totem.on_timer(ctx, tag) {
            self.ext.on_timer(ctx, &mut self.totem, &mut self.mech, tag);
        }
        self.drain(ctx);
    }

    fn on_datagram(&mut self, ctx: &mut Context<'_>, dgram: Datagram) {
        self.totem.on_datagram(ctx, &dgram);
        self.drain(ctx);
    }

    fn on_tcp(&mut self, ctx: &mut Context<'_>, ev: TcpEvent) {
        self.ext.on_tcp(ctx, &mut self.totem, &mut self.mech, ev);
        self.drain(ctx);
    }
}

impl<E: DaemonExtension> std::fmt::Debug for EternalDaemon<E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EternalDaemon")
            .field("operational", &self.totem.is_operational())
            .finish()
    }
}
