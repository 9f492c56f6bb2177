//! Multi-gateway scale-out: M gateways in front of one fault tolerance
//! domain.
//!
//! The paper's Fig. 1 shows a domain fronted by *gateways*, plural: the
//! ordered multicast substrate is one, the TCP edge scales out.
//! [`GatewayPool`] builds that shape in-process — one
//! [`DomainService`](crate::DomainService) thread owns the
//! [`DomainBackend`], and M [`GatewayServer`]s (each with its own listener,
//! shard set, client-id namespace `EngineConfig::index = g`, and §3.5
//! response cache) register delivery sinks with it.
//!
//! Clients are partitioned **deterministically**:
//! [`GatewayPool::gateway_for_client`] hashes a stable client id to an
//! owning gateway, and [`GatewayPool::ior_for_client`] publishes an IOR
//! whose IIOP profile carries that gateway's real host and port — the
//! client-side failover logic never needs to know the pool exists. Since
//! every gateway's relay shares the gateway group, replies for one
//! gateway's clients are cached by its peers
//! (`gateway.replies_cached_for_peer_clients`), exactly the §3.5
//! redundant-gateway behaviour the loopback tests assert in miniature.

use crate::backend::DomainBackend;
use crate::domain::{DomainFault, DomainLink, DomainService};
use crate::server::{
    stats_from_registry, AdmissionPolicy, EngineSnapshot, GatewayServer, HostFactory, ServerOptions,
};
use ftd_core::{EngineConfig, Error};
use ftd_giop::Ior;
use ftd_obs::Registry;
use ftd_sim::Stats;
use ftd_store::FsyncPolicy;
use ftd_totem::GroupId;
use std::net::SocketAddr;
use std::path::PathBuf;
use std::sync::Arc;

/// Deterministic client→gateway placement: a splitmix-style avalanche of
/// the stable client id, reduced modulo the pool size. Pure function —
/// any layer (a name service, a smart client) can recompute it.
pub fn gateway_for_client(client_id: u64, gateways: usize) -> usize {
    debug_assert!(gateways > 0);
    if gateways <= 1 {
        return 0;
    }
    let mut x = client_id.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^= x >> 31;
    (x % gateways as u64) as usize
}

/// Builder for [`GatewayPool`]; see [`GatewayPool::builder`].
pub struct GatewayPoolBuilder {
    gateways: usize,
    addr: String,
    config: Option<EngineConfig>,
    options: ServerOptions,
    registry: Option<Arc<Registry>>,
    shards: Option<usize>,
    admission: AdmissionPolicy,
    pins: Vec<(GroupId, usize)>,
    host: Option<HostFactory>,
    domain: Option<DomainLink>,
    data_dir: Option<PathBuf>,
    fsync: FsyncPolicy,
}

impl std::fmt::Debug for GatewayPoolBuilder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("GatewayPoolBuilder")
            .field("gateways", &self.gateways)
            .field("shards", &self.shards)
            .finish()
    }
}

impl GatewayPoolBuilder {
    /// How many gateways to run (default 2; 0 is rejected at build).
    pub fn gateways(mut self, gateways: usize) -> Self {
        self.gateways = gateways;
        self
    }

    /// The address template every gateway binds (default `"127.0.0.1:0"`;
    /// keep an ephemeral port so the M listeners do not collide).
    pub fn addr(mut self, addr: impl Into<String>) -> Self {
        self.addr = addr.into();
        self
    }

    /// The engine configuration template (required). Each gateway `g`
    /// serves a copy with `index = g` — the §3.2 client-id namespace that
    /// keeps counter-assigned ids distinct across the pool.
    pub fn config(mut self, config: EngineConfig) -> Self {
        self.config = Some(config);
        self
    }

    /// Serving knobs applied to every gateway. An explicit
    /// `metrics_addr` only makes sense for a single-gateway pool (the
    /// listeners would collide); leave it off and scrape
    /// [`GatewayPool::registry`] instead.
    pub fn options(mut self, options: ServerOptions) -> Self {
        self.options = options;
        self
    }

    /// One registry shared by the domain thread and every gateway
    /// (default: fresh). Pool-wide counters aggregate here.
    pub fn registry(mut self, registry: Arc<Registry>) -> Self {
        self.registry = Some(registry);
        self
    }

    /// Engine shards per gateway (default: `available_parallelism`).
    pub fn shards(mut self, shards: usize) -> Self {
        self.shards = Some(shards);
        self
    }

    /// Per-shard admission policy for every gateway (default
    /// [`AdmissionPolicy::default`]).
    pub fn admission(mut self, policy: AdmissionPolicy) -> Self {
        self.admission = policy;
        self
    }

    /// Pins `group` to `shard` on **every** gateway (dense benchmark
    /// placement; pins override the hash — see
    /// [`crate::GatewayBuilder::pin_group`]).
    pub fn pin_group(mut self, group: GroupId, shard: usize) -> Self {
        self.pins.push((group, shard));
        self
    }

    /// The one domain the whole pool serves, produced by `factory` on
    /// the pool's domain thread. Accepts any [`DomainBackend`] — see
    /// [`crate::GatewayBuilder::host`]. Mutually exclusive with
    /// [`GatewayPoolBuilder::domain`].
    pub fn host<B, E>(mut self, factory: impl FnOnce() -> Result<B, E> + Send + 'static) -> Self
    where
        B: DomainBackend,
        E: Into<Error>,
    {
        self.host = Some(Box::new(move || {
            factory()
                .map(|b| Box::new(b) as Box<dyn DomainBackend>)
                .map_err(Into::into)
        }));
        self
    }

    /// Front an already-running shared domain instead of starting one.
    pub fn domain(mut self, link: DomainLink) -> Self {
        self.domain = Some(link);
        self
    }

    /// Enables stable storage for every gateway's §3.5 response cache
    /// and §3.2 client-id counters: gateway `g` of the pool stores under
    /// `dir/gw-<g>` (so the M write-ahead logs never collide), and a
    /// restarted pool recovers each member's cache from its own
    /// subdirectory. See [`crate::GatewayBuilder::data_dir`].
    pub fn data_dir(mut self, dir: impl Into<PathBuf>) -> Self {
        self.data_dir = Some(dir.into());
        self
    }

    /// The fsync policy for every gateway's write-ahead log (default
    /// [`FsyncPolicy::Always`]). Only meaningful with
    /// [`GatewayPoolBuilder::data_dir`].
    pub fn fsync(mut self, fsync: FsyncPolicy) -> Self {
        self.fsync = fsync;
        self
    }

    /// Starts the domain thread (unless given a [`DomainLink`]) and the
    /// M gateways in front of it.
    pub fn build(self) -> ftd_core::Result<GatewayPool> {
        if self.gateways == 0 {
            return Err(Error::config("a gateway pool needs at least one gateway"));
        }
        let config = self
            .config
            .ok_or_else(|| Error::config("GatewayPool::builder() requires .config(..)"))?;
        let registry = self.registry.unwrap_or_else(|| Arc::new(Registry::new()));
        let (link, owned_domain) = match (self.domain, self.host) {
            (Some(_), Some(_)) => {
                return Err(Error::config(
                    "GatewayPool::builder() takes .host(..) or .domain(..), not both",
                ))
            }
            (Some(link), None) => (link, None),
            (None, Some(factory)) => {
                let service = DomainService::start(registry.clone(), factory)?;
                (service.link(), Some(service))
            }
            (None, None) => {
                return Err(Error::config(
                    "GatewayPool::builder() requires .host(..) or .domain(..)",
                ))
            }
        };

        let mut gateways = Vec::with_capacity(self.gateways);
        for g in 0..self.gateways {
            let mut gw_config = config.clone();
            gw_config.index = g as u32;
            let mut builder = GatewayServer::builder()
                .addr(self.addr.clone())
                .config(gw_config)
                .options(self.options.clone())
                .registry(registry.clone())
                .admission(self.admission.clone())
                .domain(link.clone());
            if let Some(shards) = self.shards {
                builder = builder.shards(shards);
            }
            if let Some(dir) = &self.data_dir {
                builder = builder
                    .data_dir(dir.join(format!("gw-{g}")))
                    .fsync(self.fsync);
            }
            for &(group, shard) in &self.pins {
                builder = builder.pin_group(group, shard);
            }
            gateways.push(builder.build()?);
        }
        Ok(GatewayPool {
            gateways,
            link,
            registry,
            domain: owned_domain,
        })
    }
}

/// M gateways serving one fault tolerance domain; see the module docs.
pub struct GatewayPool {
    // Field order matters for Drop: gateways stop (and quiesce the
    // domain) before the domain thread itself goes away.
    gateways: Vec<GatewayServer>,
    link: DomainLink,
    registry: Arc<Registry>,
    domain: Option<DomainService>,
}

impl std::fmt::Debug for GatewayPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("GatewayPool")
            .field("gateways", &self.gateways.len())
            .field("healthy", &self.healthy())
            .finish()
    }
}

impl GatewayPool {
    /// Starts building a pool; see [`GatewayPoolBuilder`].
    pub fn builder() -> GatewayPoolBuilder {
        GatewayPoolBuilder {
            gateways: 2,
            addr: "127.0.0.1:0".to_owned(),
            config: None,
            options: ServerOptions::default(),
            registry: None,
            shards: None,
            admission: AdmissionPolicy::default(),
            pins: Vec::new(),
            host: None,
            domain: None,
            data_dir: None,
            fsync: FsyncPolicy::Always,
        }
    }

    /// How many gateways the pool runs.
    pub fn len(&self) -> usize {
        self.gateways.len()
    }

    /// `true` when the pool runs no gateways (never, after a successful
    /// build — required by the `len`/`is_empty` convention).
    pub fn is_empty(&self) -> bool {
        self.gateways.is_empty()
    }

    /// Gateway `g` of the pool.
    pub fn gateway(&self, g: usize) -> &GatewayServer {
        &self.gateways[g]
    }

    /// The owning gateway for a stable client id — see
    /// [`gateway_for_client`].
    pub fn gateway_for_client(&self, client_id: u64) -> usize {
        gateway_for_client(client_id, self.gateways.len())
    }

    /// Publishes an IOR for `group` whose IIOP profile advertises the
    /// gateway *owning* `client_id`: clients land on their partition
    /// without any pool-aware logic of their own.
    pub fn ior_for_client(&self, client_id: u64, type_id: &str, group: GroupId) -> Ior {
        self.gateways[self.gateway_for_client(client_id)].ior(type_id, group)
    }

    /// The listening addresses, indexed by gateway.
    pub fn addrs(&self) -> Vec<SocketAddr> {
        self.gateways.iter().map(|g| g.local_addr()).collect()
    }

    /// A handle to the shared domain.
    pub fn domain_link(&self) -> DomainLink {
        self.link.clone()
    }

    /// Whether the shared domain is currently operational.
    pub fn healthy(&self) -> bool {
        self.link.healthy()
    }

    /// Injects a live fault into the shared domain — every gateway in
    /// the pool degrades and recovers together.
    pub fn inject(&self, fault: DomainFault) {
        self.link.inject(fault);
    }

    /// The pool-wide metrics registry.
    pub fn registry(&self) -> Arc<Registry> {
        self.registry.clone()
    }

    /// Engine gauges summed across every gateway's shards.
    pub fn snapshot(&self) -> EngineSnapshot {
        let mut total = EngineSnapshot::default();
        for g in &self.gateways {
            let s = g.snapshot();
            total.connected_clients += s.connected_clients;
            total.duplicates_suppressed += s.duplicates_suppressed;
            total.cached_responses += s.cached_responses;
        }
        total
    }

    /// Stops every gateway (each drains its shards and flushes its
    /// response cache), then the domain thread, and returns the pooled
    /// final statistics.
    pub fn shutdown(mut self) -> Stats {
        for gateway in self.gateways.drain(..) {
            let _ = gateway.shutdown();
        }
        if let Some(domain) = self.domain.take() {
            domain.shutdown();
        }
        stats_from_registry(&self.registry)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn client_partitioning_is_deterministic_and_covers_every_gateway() {
        for m in 1..=4usize {
            let mut hit = vec![false; m];
            for client in 0..256u64 {
                let g = gateway_for_client(client, m);
                assert!(g < m);
                assert_eq!(g, gateway_for_client(client, m), "stable placement");
                hit[g] = true;
            }
            assert!(hit.iter().all(|&h| h), "{m} gateways all receive clients");
        }
    }
}
