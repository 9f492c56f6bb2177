//! # ftd-eternal — the fault tolerance infrastructure (Eternal)
//!
//! The infrastructure *inside* a fault tolerance domain, per §2 and Fig. 2
//! of the paper:
//!
//! * **Replication styles** — stateless, cold passive, warm passive,
//!   active, active with voting ([`ReplicationStyle`], [`FtProperties`]);
//! * **Replication Mechanisms** ([`Mechanisms`]) — execute invocations on
//!   local replicas at their totally ordered delivery points, detect and
//!   suppress duplicate invocations and responses, suspend/resume nested
//!   invocations, and keep replicas strongly consistent;
//! * **Logging-Recovery Mechanisms** ([`GroupLog`]) — checkpoints,
//!   operation logs, state transfer to new and recovering replicas, and
//!   failover replay of unanswered invocations (the §3 primary-failure
//!   scenario);
//! * **Replication / Resource / Evolution Managers**
//!   ([`DomainDirectory`], [`Mechanisms::create_group`],
//!   [`Mechanisms::upgrade_group`]) — placement, minimum-replica
//!   maintenance, live upgrade;
//! * **Interceptor** ([`IorPublisher`], [`MechConfig::enforce_determinism`])
//!   — IOR publication rewriting toward the gateways and determinism
//!   enforcement for multithreaded objects;
//! * **Message formats** — the Fig. 4 header ([`FtHeader`]) and the Fig. 6
//!   operation identifiers ([`OperationId`], [`MessageId`]) built from
//!   Totem's totally ordered sequence numbers.
//!
//! Application objects implement [`AppObject`]; see [`Counter`] for a
//! minimal example. The engine is sans-I/O with respect to the network: a
//! host actor owns both a [`TotemNode`](ftd_totem::TotemNode) and a
//! [`Mechanisms`] and routes deliveries between them (the `ftd-core` crate
//! provides that host).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod app;
mod daemon;
mod dedup;
mod ftmsg;
mod interceptor;
mod logging;
mod manager;
mod mechanisms;
mod style;

pub use app::{AppObject, Counter, ObjectFactory, ObjectRegistry, Outcome};
pub use daemon::{DaemonExtension, EternalDaemon, TOTEM_TAG_BASE};
pub use dedup::{InvocationCheck, InvocationTable, ResponseFilter, Voter};
pub use ftmsg::{
    DomainMsg, FtHeader, FtMsgError, GroupMeta, IiopView, MessageId, OperationId, OperationKind,
    UNUSED_CLIENT_ID,
};
pub use interceptor::{GatewayEndpoint, IorPublisher};
pub use logging::{GroupLog, LogSink, OpRecord};
pub use manager::{make_meta, DomainDirectory};
pub use mechanisms::{
    derive_entropy, stub_group, MechConfig, Mechanisms, RootReply, ALL_DAEMONS_GROUP,
};
pub use style::{FtProperties, ReplicationStyle};
