//! Totem protocol tuning knobs.

use ftd_sim::SimDuration;

/// Delivery guarantee requested from the ring.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DeliveryMode {
    /// *Agreed* delivery: a message is delivered once all messages with
    /// lower sequence numbers have been received — total order at every
    /// member, the guarantee Eternal's replica consistency relies on.
    #[default]
    Agreed,
    /// *Safe* delivery: additionally hold a message until the token's aru
    /// shows that every ring member has received it.
    Safe,
}

/// Configuration of one Totem node.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TotemConfig {
    /// How long without any Totem traffic before the node declares the
    /// token lost and starts membership formation. Must comfortably exceed
    /// one full token rotation.
    pub token_loss_timeout: SimDuration,
    /// How long a node collects `Join` messages before the representative
    /// commits the new ring.
    pub gather_timeout: SimDuration,
    /// How long a non-representative waits for a `Commit` before starting
    /// a fresh gather round.
    pub commit_timeout: SimDuration,
    /// How quickly the last token holder retransmits an apparently
    /// swallowed token. It also bounds the ring leader's idle-token
    /// hold: the hold plus one rotation stays under this, so no
    /// member's retransmit timer fires while the leader holds.
    pub token_retransmit: SimDuration,
    /// Maximum new messages broadcast per token visit (flow control).
    pub max_messages_per_token: usize,
    /// Maximum messages coalesced into one packed ring frame (`Pack`
    /// datagram) at a token visit. `1` disables packing: every message
    /// travels as its own `Regular` datagram.
    pub max_pack_count: usize,
    /// Byte budget for the payloads of one packed ring frame. A message
    /// whose payload would overflow the budget starts a new frame; a
    /// single oversized message still travels (alone).
    pub max_pack_bytes: usize,
    /// Cap on the retransmission-request list carried by the token.
    pub max_rtr: usize,
    /// How many messages below the stability point each node keeps for
    /// recovery rebroadcasts. A processor excluded from the ring for less
    /// than this many messages rejoins without an application-level gap.
    pub retention_slack: u64,
    /// Delivery guarantee.
    pub delivery: DeliveryMode,
}

impl Default for TotemConfig {
    fn default() -> Self {
        TotemConfig {
            token_loss_timeout: SimDuration::from_millis(8),
            gather_timeout: SimDuration::from_millis(2),
            commit_timeout: SimDuration::from_millis(4),
            token_retransmit: SimDuration::from_millis(1),
            max_messages_per_token: 16,
            max_pack_count: 16,
            max_pack_bytes: 8 * 1024,
            max_rtr: 64,
            retention_slack: 4096,
            delivery: DeliveryMode::Agreed,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_consistent() {
        let c = TotemConfig::default();
        assert!(c.token_loss_timeout > c.token_retransmit);
        assert!(c.token_loss_timeout > c.gather_timeout);
        assert!(c.max_messages_per_token > 0);
        assert!(c.max_pack_count > 0);
        assert!(c.max_pack_bytes > 0);
        assert_eq!(c.delivery, DeliveryMode::Agreed);
    }
}
