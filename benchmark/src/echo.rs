//! An echo [`DomainBackend`]: the gateway-only baseline (`echo_small`).
//!
//! Every invocation the gateway multicasts is answered, in the same
//! `pump`, by one Response whose body is the request's argument bytes.
//! No ring, no replicas, no duplicates: what is left is the `ftd-net`
//! reactor and shard threads, `ftd-giop` framing and the `ftd-core`
//! engine — the ceiling of everything in front of the domain.

use ftd_eternal::{DomainMsg, FtHeader, OperationKind};
use ftd_giop::{ByteOrder, Frame, GiopMessage, Reply};
use ftd_net::{DomainBackend, HostView};
use ftd_obs::Registry;
use ftd_sim::SimDuration;
use ftd_totem::GroupId;
use std::sync::Arc;

/// See the module docs.
#[derive(Debug)]
pub struct EchoBackend {
    domain: u32,
    /// Responses produced since the last `pump`.
    ready: Vec<(GroupId, Vec<u8>)>,
}

impl EchoBackend {
    /// An echo domain with the given id.
    pub fn new(domain: u32) -> Self {
        EchoBackend {
            domain,
            ready: Vec::new(),
        }
    }
}

impl DomainBackend for EchoBackend {
    fn domain(&self) -> u32 {
        self.domain
    }

    fn gateway_group(&self) -> GroupId {
        // The same numbering `DomainHost` uses.
        GroupId(0x4000_0000 | self.domain)
    }

    fn is_operational(&self) -> bool {
        true
    }

    fn multicast(&mut self, _group: GroupId, payload: Vec<u8>) {
        // Anything but a well-formed invocation is dropped, as a domain
        // without a matching replica would drop it; the benchmark's
        // reply check then reports the request as missing.
        let Ok(DomainMsg::Iiop { header, iiop }) = DomainMsg::decode(&payload) else {
            return;
        };
        if header.kind != OperationKind::Invocation {
            return;
        }
        let Ok(Some(request)) = Frame::parse(&iiop).and_then(|f| f.request()) else {
            return;
        };
        let reply = Reply::success(request.request_id, request.body.to_vec());
        let response = DomainMsg::Iiop {
            header: FtHeader {
                client: header.client,
                source: header.target,
                target: header.source,
                kind: OperationKind::Response,
                parent_ts: header.parent_ts,
                child_seq: header.child_seq,
            },
            iiop: GiopMessage::Reply(reply).encode(ByteOrder::Big),
        };
        self.ready.push((header.source, response.encode()));
    }

    fn pump(&mut self, _d: SimDuration) -> Vec<(GroupId, Vec<u8>)> {
        std::mem::take(&mut self.ready)
    }

    fn view(&self) -> HostView {
        HostView::default()
    }

    fn crash_processor(&mut self, _index: usize) -> bool {
        false
    }

    fn recover_processor(&mut self, _index: usize) -> bool {
        false
    }

    fn bind_stats(&mut self, _registry: Arc<Registry>) {}
}

#[cfg(test)]
mod tests {
    use crate::loadgen::WireConn;
    use crate::server::{self, Backend};
    use std::time::Duration;

    /// A pipelined window through a real `GatewayServer` over loopback:
    /// every reply carries its own request's argument bytes.
    #[test]
    fn echo_round_trips_a_pipelined_window_byte_identically() {
        let gateway = server::build(Backend::Echo, 7).expect("gateway starts");
        let group = server::COUNTER_GROUPS[0];
        let mut conn = WireConn::connect(gateway.local_addr(), group, 0xEC40).expect("connect");
        conn.set_read_timeout(Duration::from_secs(10)).unwrap();

        let args: Vec<Vec<u8>> = (0u32..64)
            .map(|i| {
                (0..(i as usize * 37) % 900)
                    .map(|b| (b as u32 ^ i) as u8)
                    .collect()
            })
            .collect();
        let mut window = Vec::new();
        for (i, a) in args.iter().enumerate() {
            window.extend(conn.encode_request(i as u32 + 1, "add", a));
        }
        conn.send(&window).expect("send window");

        let mut seen = vec![false; args.len()];
        while seen.iter().any(|s| !s) {
            conn.fill().expect("read replies");
            while let Some(reply) = conn.next_reply().expect("well-formed reply") {
                let i = reply.request_id as usize - 1;
                assert!(reply.ok, "request {i} raised an exception");
                assert_eq!(reply.body, args[i], "request {i} echoed other bytes");
                assert!(
                    !std::mem::replace(&mut seen[i], true),
                    "duplicate reply {i}"
                );
            }
        }
        gateway.shutdown();
    }
}
