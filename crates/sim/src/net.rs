//! The simulated network: lossy LAN multicast datagrams and reliable
//! TCP-like byte-stream connections.
//!
//! Two transports are modelled, matching the two worlds the paper's gateway
//! bridges:
//!
//! * **LAN datagrams** — best-effort multicast within one [`LanId`] segment,
//!   with configurable latency, jitter and loss. Totem builds its reliable
//!   totally-ordered multicast on top of this.
//! * **TCP streams** — connection-oriented, ordered, reliable byte streams
//!   between any two processors (including across LAN segments — the
//!   wide-area links of Fig. 1). IIOP runs on top of this. Connections break
//!   when an endpoint crashes or a partition separates the endpoints, and
//!   the survivor observes a [`TcpEvent::Closed`] after a detection delay.

use crate::{Bytes, ConnId, NetAddr, ProcessorId, SimDuration, SimTime};
use std::collections::BTreeMap;
use std::error::Error;
use std::fmt;

/// Configuration of one LAN segment.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LanConfig {
    /// Base one-way latency for datagrams and intra-LAN TCP.
    pub latency: SimDuration,
    /// Uniform jitter added on top of `latency` (0..jitter).
    pub jitter: SimDuration,
    /// Probability that a datagram is dropped on its way to one receiver.
    /// Loss is sampled independently per receiver. TCP is unaffected
    /// (reliability is part of the TCP model).
    pub loss_probability: f64,
}

impl Default for LanConfig {
    fn default() -> Self {
        LanConfig {
            latency: SimDuration::from_micros(50),
            jitter: SimDuration::from_micros(10),
            loss_probability: 0.0,
        }
    }
}

/// Network-wide configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NetConfig {
    /// One-way latency between processors on *different* LAN segments
    /// (the wide-area links of Fig. 1).
    pub wan_latency: SimDuration,
    /// Jitter added to `wan_latency`.
    pub wan_jitter: SimDuration,
    /// Extra delay for TCP connection establishment (the SYN/ACK handshake).
    pub tcp_connect_overhead: SimDuration,
    /// How long it takes the surviving endpoint of a broken connection to
    /// observe the break (keep-alive / RST detection).
    pub tcp_break_detection: SimDuration,
    /// Whether a LAN multicast is also delivered back to its sender.
    /// Self-delivery is lossless and uses the LAN base latency. Totem
    /// requires self-delivery to order a sender's own messages.
    pub multicast_loopback: bool,
}

impl Default for NetConfig {
    fn default() -> Self {
        NetConfig {
            wan_latency: SimDuration::from_millis(20),
            wan_jitter: SimDuration::from_millis(2),
            tcp_connect_overhead: SimDuration::from_micros(100),
            tcp_break_detection: SimDuration::from_millis(5),
            multicast_loopback: true,
        }
    }
}

/// A best-effort datagram delivered to an actor via
/// [`Actor::on_datagram`](crate::Actor::on_datagram).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Datagram {
    /// The sending processor.
    pub from: ProcessorId,
    /// Raw payload bytes, shared with every other receiver of the same
    /// multicast.
    pub payload: Bytes,
}

/// TCP lifecycle and data events delivered to an actor via
/// [`Actor::on_tcp`](crate::Actor::on_tcp).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TcpEvent {
    /// A listening socket accepted a new inbound connection.
    /// (The "gateway spawns a new TCP/IP socket to communicate solely with
    /// that client" step of §3.1.)
    Accepted {
        /// The new connection.
        conn: ConnId,
        /// The local port that was listening.
        local_port: u16,
        /// The connecting processor.
        peer: ProcessorId,
    },
    /// An outbound connect completed successfully.
    Connected {
        /// The connection previously returned by `tcp_connect`.
        conn: ConnId,
    },
    /// An outbound connect failed (no listener, peer crashed/unreachable).
    ConnectFailed {
        /// The connection previously returned by `tcp_connect`.
        conn: ConnId,
        /// The address that could not be reached.
        addr: NetAddr,
    },
    /// Bytes arrived on an established connection. Ordering is preserved;
    /// chunk boundaries are NOT (receivers must reframe, as with real TCP).
    Data {
        /// The connection carrying the data.
        conn: ConnId,
        /// The received bytes.
        bytes: Vec<u8>,
    },
    /// The connection closed (peer close, peer crash, or partition).
    Closed {
        /// The connection that is gone.
        conn: ConnId,
    },
}

impl TcpEvent {
    /// The connection this event concerns.
    pub fn conn(&self) -> ConnId {
        match self {
            TcpEvent::Accepted { conn, .. }
            | TcpEvent::Connected { conn }
            | TcpEvent::ConnectFailed { conn, .. }
            | TcpEvent::Data { conn, .. }
            | TcpEvent::Closed { conn } => *conn,
        }
    }
}

/// Errors from TCP operations on the [`Context`](crate::Context).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TcpError {
    /// The port is already being listened on by this processor.
    PortInUse(u16),
    /// Connecting a processor to itself is not supported by the simulator.
    SelfConnect,
    /// The connection id is unknown or already fully closed.
    NotConnected(ConnId),
    /// The caller's processor is not an endpoint of this connection.
    NotAnEndpoint(ConnId),
}

impl fmt::Display for TcpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TcpError::PortInUse(p) => write!(f, "port {p} already in use"),
            TcpError::SelfConnect => write!(f, "self-connections are not supported"),
            TcpError::NotConnected(c) => write!(f, "{c} is not open"),
            TcpError::NotAnEndpoint(c) => write!(f, "caller is not an endpoint of {c}"),
        }
    }
}

impl Error for TcpError {}

/// State of one simulated TCP connection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ConnState {
    /// SYN in flight.
    Connecting,
    /// Both sides may send.
    Established,
    /// Fully closed / broken; retained briefly only to absorb stale events.
    Closed,
}

/// One side of a connection (processor plus its incarnation generation,
/// so that a crash+recover invalidates old connections).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct ConnSide {
    pub processor: ProcessorId,
    pub generation: u32,
}

#[derive(Debug, Clone)]
pub(crate) struct TcpConn {
    pub initiator: ConnSide,
    pub target: NetAddr,
    pub acceptor: Option<ConnSide>,
    pub state: ConnState,
    /// The initiator called close: it may not send any more, but data it
    /// sent before closing still drains to the acceptor (TCP half-close).
    pub shutdown_initiator: bool,
    /// The acceptor called close (see `shutdown_initiator`).
    pub shutdown_acceptor: bool,
    /// FIFO enforcement: earliest time the next event may be delivered to
    /// the acceptor side (TCP preserves ordering; datagram jitter must not
    /// reorder stream events).
    pub fifo_to_acceptor: SimTime,
    /// FIFO enforcement toward the initiator side.
    pub fifo_to_initiator: SimTime,
}

impl TcpConn {
    /// The processor on the other side from `me`, if established.
    pub fn peer_of(&self, me: ProcessorId) -> Option<ProcessorId> {
        if self.initiator.processor == me {
            self.acceptor.map(|s| s.processor)
        } else {
            Some(self.initiator.processor)
        }
    }
}

/// Table of live connections and listeners.
///
/// `BTreeMap` keeps iteration deterministic, which the whole simulation
/// depends on (event sequence numbers are assigned in iteration order when
/// a crash breaks many connections at once).
#[derive(Debug, Default)]
pub(crate) struct NetState {
    pub conns: BTreeMap<ConnId, TcpConn>,
    pub listeners: BTreeMap<NetAddr, ()>,
    pub next_conn: u64,
}

impl NetState {
    pub fn alloc_conn(&mut self) -> ConnId {
        let id = ConnId(self.next_conn);
        self.next_conn += 1;
        id
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tcp_event_conn_accessor() {
        let ev = TcpEvent::Data {
            conn: ConnId(4),
            bytes: vec![1, 2],
        };
        assert_eq!(ev.conn(), ConnId(4));
        let ev = TcpEvent::ConnectFailed {
            conn: ConnId(9),
            addr: NetAddr::new(ProcessorId(1), 80),
        };
        assert_eq!(ev.conn(), ConnId(9));
    }

    #[test]
    fn conn_peer_lookup() {
        let conn = TcpConn {
            initiator: ConnSide {
                processor: ProcessorId(1),
                generation: 0,
            },
            target: NetAddr::new(ProcessorId(2), 80),
            acceptor: Some(ConnSide {
                processor: ProcessorId(2),
                generation: 0,
            }),
            state: ConnState::Established,
            shutdown_initiator: false,
            shutdown_acceptor: false,
            fifo_to_acceptor: SimTime::ZERO,
            fifo_to_initiator: SimTime::ZERO,
        };
        assert_eq!(conn.peer_of(ProcessorId(1)), Some(ProcessorId(2)));
        assert_eq!(conn.peer_of(ProcessorId(2)), Some(ProcessorId(1)));
    }

    #[test]
    fn default_configs_are_sane() {
        let lan = LanConfig::default();
        assert!(lan.loss_probability == 0.0);
        let net = NetConfig::default();
        assert!(net.multicast_loopback);
        assert!(net.wan_latency > lan.latency);
    }

    #[test]
    fn error_display() {
        assert_eq!(
            TcpError::PortInUse(80).to_string(),
            "port 80 already in use"
        );
        assert_eq!(
            TcpError::NotConnected(ConnId(3)).to_string(),
            "conn3 is not open"
        );
    }
}
