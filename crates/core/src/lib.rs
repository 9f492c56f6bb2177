//! # ftd-core — gateways for accessing fault tolerance domains
//!
//! The paper's primary contribution: the gateway that lets unreplicated
//! IIOP clients (and other fault tolerance domains) invoke replicated
//! objects without compromising replica consistency.
//!
//! * [`Gateway`] — the §3 gateway: TCP↔multicast translation (Figs. 3–5),
//!   client identification (§3.2), duplicate response suppression (§3.3),
//!   redundant gateway groups with response caching and client-gone
//!   cleanup (§3.5), cold-passive counter persistence (§3.4), and
//!   wide-area bridging to peer domains (Fig. 1).
//! * [`PlainClient`] / [`EnhancedClient`] — the §3.4 plain-ORB client and
//!   the §3.5 thin client-side interception layer with multi-profile
//!   failover.
//! * [`DomainSpec`] / [`build_domain`] / [`connect_domains`] — assembling
//!   single- and multi-domain topologies over the simulated substrate.
//!
//! The underlying layers are re-exported: `ftd_sim` (deterministic world),
//! `ftd_giop` (IIOP wire formats), `ftd_totem` (totally ordered
//! multicast), `ftd_eternal` (replication infrastructure).
//!
//! # Examples
//!
//! ```
//! use ftd_core::*;
//! use ftd_eternal::{Counter, FtProperties, ObjectRegistry, ReplicationStyle};
//! use ftd_sim::{SimDuration, World};
//! use ftd_totem::GroupId;
//!
//! // One domain: 4 processors, 1 gateway, a 3-replica active counter.
//! let mut world = World::new(7);
//! let spec = DomainSpec::new(1, 4, 1);
//! let handle = build_domain(&mut world, &spec, || {
//!     let mut reg = ObjectRegistry::new();
//!     reg.register("Counter", Box::new(|| Box::new(Counter::new())));
//!     reg
//! });
//! world.run_for(SimDuration::from_millis(20));
//! let group = GroupId(10);
//! handle.create_group(&mut world, 0, group, "Counter",
//!     FtProperties::new(ReplicationStyle::Active).with_initial(3));
//! world.run_for(SimDuration::from_millis(10));
//!
//! // An unreplicated client reaches it through the gateway's IOR.
//! let ior = handle.ior("IDL:Counter:1.0", group);
//! let client = world.add_processor("client", handle.lan, move |_| {
//!     Box::new(PlainClient::new(&ior, false))
//! });
//! world.actor_mut::<PlainClient>(client).unwrap().enqueue("add", &5u64.to_be_bytes());
//! world.post(client, TAG_FLUSH);
//! world.run_for(SimDuration::from_millis(20));
//! let replies = &world.actor::<PlainClient>(client).unwrap().replies;
//! assert_eq!(replies.len(), 1);
//! assert_eq!(replies[0].body, 5u64.to_be_bytes());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod client;
mod domain;
pub mod engine;
pub mod error;
mod gateway;
mod gwmsg;
pub mod shard;

pub use client::{ClientReply, EnhancedClient, PlainClient, TAG_FLUSH};
pub use domain::{
    build_domain, build_domain_on, connect_domains, DomainDaemon, DomainHandle, DomainSpec,
};
pub use engine::{
    Action, DomainView, EngineConfig, EngineConfigBuilder, GatewayEngine, GwConn, SoloView,
    ENGINE_COUNTERS, ENGINE_LATENCY_SERIES,
};
pub use error::{Error, HostError, Result, ShardError};
pub use gateway::{Gateway, GatewayConfig, StableCounters};
pub use gwmsg::{GwMsg, GwMsgError};
pub use shard::{
    classify_client_frame, classify_delivery, shard_of, DeliveryRoute, EngineCall, EngineTap,
    MsgRoute, RecordedView, Shard, ShardOutput, ShardRouter, ShardSink, TickReport,
    CONN_INBOUND_BUDGET, DEFAULT_ROUTER_SLOTS,
};
