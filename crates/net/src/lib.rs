//! # ftd-net — the gateway over real sockets
//!
//! The paper's gateway (§3) mediates between unreplicated IIOP clients on
//! ordinary TCP connections and a fault tolerance domain's totally
//! ordered multicast. `ftd-core` factors that state machine into the
//! transport-agnostic `GatewayEngine`; this crate is its second host —
//! the first being the deterministic simulation — and runs the *same*
//! engine over `std::net` sockets:
//!
//! * [`GatewayServer`] — a listening gateway, built with
//!   [`GatewayServer::builder`]: N engine shard threads, each a
//!   `poll(2)` reactor over the connections it owns, frame GIOP in place
//!   and dispatch each wire frame through a lock-free group→shard
//!   routing table to the shard owning its slice of the engine state
//!   (see `server` module docs for the thread layout).
//! * [`DomainHost`] — the fault tolerance domain behind a gateway: the
//!   simulated substrate (Totem ring, replication mechanisms, replicated
//!   objects) hosted in-process on the gateway's own domain thread and
//!   advanced in virtual time. Each gateway owns exactly one domain.
//! * [`NetClient`] — a blocking GIOP/IIOP client for real sockets, plain
//!   (§3.4) or enhanced with the client-id service context (§3.5).
//! * [`GroupOptions`] — **gateway groups** (§3.5's redundant gateways),
//!   the one way to run more than one gateway: independent gateways
//!   (separate processes, or several in one test process), each with its
//!   own deterministic domain replica, discover each other over UDP
//!   (`ftd-group`), relay every admitted request and delivered reply
//!   over a TCP mesh, and publish a multi-profile IOR
//!   ([`GatewayServer::group_ior`]) so an enhanced client fails over to
//!   a survivor whose relayed-response cache answers its reissues
//!   byte-identically.
//! * [`DurableHost`] + [`GatewayStore`] — restart durability: a
//!   [`DomainBackend`] wrapper that write-ahead logs every group's
//!   operations (and checkpoints object state) via `ftd-store`, and the
//!   gateway-side store that makes the §3.5 response cache survive a
//!   crash. `GatewayServer::builder().data_dir(..)` turns both on.
//! * Record/replay (`ftd-replay` integration): `.record_dir(..)` logs
//!   every nondeterministic input the gateway consumes; the [`replay`]
//!   module rebuilds the recorded domain and re-drives the whole run
//!   offline to a bitwise-identical state digest
//!   ([`replay_recording`]).
//!
//! Fallible surfaces return the workspace-wide [`ftd_core::Error`].
//!
//! The `ftd-gatewayd` binary serves a domain and prints a stringified
//! IOR whose profile carries the gateway's real host and port; the
//! `ftd-client` binary invokes through such an IOR from another process.
//! No external crates are used.

// `deny`, not `forbid`: the reactor's `sys` module carries the two
// audited `unsafe` blocks that wrap `poll(2)`/`setrlimit(2)` without
// external crates. Everything else stays unsafe-free.
#![deny(unsafe_code)]
#![warn(missing_docs)]

mod backend;
mod client;
mod domain;
mod durable;
mod group;
mod host;
mod reactor;
mod relay;
pub mod replay;
mod server;
mod store;

pub use backend::{DomainBackend, GroupSnapshot};
pub use client::{
    NetClient, NetClientBuilder, PendingReply, Pipeline, RetryPolicy, DEFAULT_MAX_CLIENT_INFLIGHT,
};
pub use domain::DomainFault;
pub use durable::{DomainRecovery, DurableHost};
pub use ftd_group::{GroupMember, PROTO_VERSION};
pub use group::GroupOptions;
pub use host::{DomainHost, HostError, HostView};
pub use reactor::{raise_nofile_limit, raw_fd, Event, Interest, Poller, RawSocket, Waker};
pub use replay::{rebuild_domain, replay_recording, HostReplayDomain};
pub use server::{
    AdmissionPolicy, EngineSnapshot, GatewayBuilder, GatewayServer, ServerOptions,
    ServerOptionsBuilder, ShutdownReport, CONN_INBOUND_BUDGET, DEFAULT_MAX_INFLIGHT,
};
pub use store::{GatewayStore, RecoveredGateway};
