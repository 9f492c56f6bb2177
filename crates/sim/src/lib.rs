//! # ftd-sim — deterministic discrete-event simulation substrate
//!
//! This crate is the bottom layer of the reproduction of *"Gateways for
//! Accessing Fault Tolerance Domains"* (Narasimhan, Moser, Melliar-Smith,
//! Middleware 2000). The paper's systems ran on real LANs, real TCP/IP and
//! commercial ORBs; here the transports are simulated so that every run is
//! deterministic, every fault is injectable, and replica-consistency
//! violations become assertable facts instead of race-dependent accidents.
//!
//! Two transports are modelled, matching the two worlds the paper's gateway
//! bridges:
//!
//! * lossy best-effort **LAN multicast** datagrams ([`Context::lan_multicast`])
//!   on which `ftd-totem` builds its reliable totally-ordered multicast, and
//! * reliable ordered **TCP-like byte streams** ([`Context::tcp_connect`])
//!   on which `ftd-giop` IIOP runs, including across LAN segments (the
//!   wide-area links of the paper's Fig. 1).
//!
//! Fault injection covers processor crash/recovery ([`World::crash`],
//! [`World::recover`]), network partitions ([`World::partition`]), and
//! probabilistic datagram loss ([`LanConfig::loss_probability`]).
//!
//! # Examples
//!
//! A two-processor ping over TCP:
//!
//! ```
//! use ftd_sim::*;
//!
//! struct Server;
//! impl Actor for Server {
//!     fn on_start(&mut self, ctx: &mut Context<'_>) {
//!         ctx.tcp_listen(9000).expect("fresh port");
//!     }
//!     fn on_tcp(&mut self, ctx: &mut Context<'_>, ev: TcpEvent) {
//!         if let TcpEvent::Data { conn, bytes } = ev {
//!             let _ = ctx.tcp_send(conn, bytes); // echo
//!         }
//!     }
//! }
//!
//! struct Client { server: ProcessorId, echoed: bool }
//! impl Actor for Client {
//!     fn on_start(&mut self, ctx: &mut Context<'_>) {
//!         ctx.tcp_connect(NetAddr::new(self.server, 9000)).expect("distinct hosts");
//!     }
//!     fn on_tcp(&mut self, ctx: &mut Context<'_>, ev: TcpEvent) {
//!         match ev {
//!             TcpEvent::Connected { conn } => {
//!                 let _ = ctx.tcp_send(conn, b"ping".to_vec());
//!             }
//!             TcpEvent::Data { .. } => self.echoed = true,
//!             _ => {}
//!         }
//!     }
//! }
//!
//! let mut world = World::new(7);
//! let lan = world.add_lan(LanConfig::default());
//! let server = world.add_processor("server", lan, |_| Box::new(Server));
//! world.add_processor("client", lan, move |_| Box::new(Client { server, echoed: false }));
//! world.run_for(SimDuration::from_millis(10));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bytes;
mod fault;
mod ids;
mod net;
mod rng;
mod stats;
mod time;
mod trace;
mod world;

pub use bytes::Bytes;
pub use fault::{Blackout, DirPlan, Direction, Fault, FaultPlan, FaultSchedule, FaultWeights};
pub use ids::{ConnId, LanId, NetAddr, ProcessorId, TimerId};
pub use net::{Datagram, LanConfig, NetConfig, TcpError, TcpEvent};
pub use rng::{splitmix64, SimRng};
pub use stats::{Stats, Summary};
pub use time::{SimDuration, SimTime};
pub use trace::{TraceEvent, TraceLog};
pub use world::{Actor, ActorFactory, Context, World};
