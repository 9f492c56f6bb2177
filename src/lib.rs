//! # ftdomains — Gateways for Accessing Fault Tolerance Domains
//!
//! A comprehensive reproduction of P. Narasimhan, L. E. Moser and
//! P. M. Melliar-Smith, *"Gateways for Accessing Fault Tolerance
//! Domains"*, Middleware 2000 — the gateway mechanism of the Eternal
//! FT-CORBA system — together with every substrate it depends on, built
//! from scratch over a deterministic discrete-event simulation:
//!
//! | layer | crate | contents |
//! |---|---|---|
//! | simulation | [`sim`] | virtual time, processors, TCP streams, lossy LAN multicast, fault injection |
//! | wire protocol | [`giop`] | CDR, GIOP/IIOP messages, multi-profile IORs, object keys |
//! | group communication | [`totem`] | Totem-style single-ring totally ordered multicast with membership |
//! | FT infrastructure | [`eternal`] | replication styles/mechanisms/managers, logging-recovery, interceptor |
//! | **the paper** | [`core`] | gateways, client identification, duplicate suppression, redundant gateway groups, enhanced clients, domain bridging |
//! | real sockets | [`net`] | the same gateway engine over `std::net` TCP: `GatewayServer`, `NetClient`, `ftd-gatewayd`/`ftd-client` binaries |
//! | observability | [`obs`] | thread-safe metrics registry, real/virtual clocks, latency spans, Prometheus/JSON exposition |
//! | fault injection | [`chaos`] | seeded byte-level TCP chaos proxy (drop/delay/truncate/reset/duplicate, blackout windows) and the shared fault-plan vocabulary |
//!
//! Start with [`prelude`] and the `examples/` directory:
//! `cargo run --example quickstart` (simulated) or
//! `cargo run --example live_gateway` (real loopback sockets).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use ftd_chaos as chaos;
pub use ftd_core as core;
pub use ftd_eternal as eternal;
pub use ftd_giop as giop;
pub use ftd_net as net;
pub use ftd_obs as obs;
pub use ftd_sim as sim;
pub use ftd_totem as totem;

/// The most common imports for building and driving a fault tolerance
/// domain.
pub mod prelude {
    pub use ftd_chaos::{Blackout, ChaosProxy, DirPlan, Direction, Fault, FaultPlan};
    pub use ftd_core::{
        build_domain, build_domain_on, connect_domains, DomainDaemon, DomainHandle, DomainSpec,
        EngineConfig, EnhancedClient, Gateway, GatewayConfig, GatewayEngine, PlainClient,
        TAG_FLUSH,
    };
    pub use ftd_eternal::{
        AppObject, Counter, EternalDaemon, FtProperties, MechConfig, ObjectRegistry, Outcome,
        ReplicationStyle,
    };
    pub use ftd_giop::{GiopMessage, IiopProfile, Ior, ObjectKey, Reply, Request};
    pub use ftd_net::{
        DomainFault, DomainHost, GatewayServer, HostError, NetClient, RetryPolicy, ServerOptions,
    };
    pub use ftd_obs::{Clock, Histogram, ManualClock, RealClock, Registry};
    pub use ftd_sim::{
        Actor, Context, LanConfig, NetAddr, ProcessorId, SimDuration, SimTime, World,
    };
    pub use ftd_totem::{DeliveryMode, GroupId, TotemConfig};
}
