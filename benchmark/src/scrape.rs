//! Scrapes the gateway's `GET /metrics.json` admin endpoint and turns
//! two scrapes into per-period counts and latency quantiles.

use crate::json::Json;
use std::collections::BTreeMap;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// One log2 histogram: per-bucket `(inclusive upper bound, samples)`,
/// ascending, empty buckets left out (as the gateway renders them).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Hist {
    /// Non-empty buckets, ascending by bound.
    pub buckets: Vec<(u64, u64)>,
    /// Exact sum of the samples.
    pub sum: u64,
}

impl Hist {
    /// Samples in the histogram.
    pub fn count(&self) -> u64 {
        self.buckets.iter().map(|&(_, n)| n).sum()
    }

    /// Adds `other`'s samples bucket by bucket.
    pub fn merge(&mut self, other: &Hist) {
        let mut merged: BTreeMap<u64, u64> = self.buckets.iter().copied().collect();
        for &(bound, n) in &other.buckets {
            *merged.entry(bound).or_insert(0) += n;
        }
        self.buckets = merged.into_iter().collect();
        self.sum += other.sum;
    }

    /// The samples `self` holds beyond `earlier` (same series, scraped
    /// before).
    pub fn since(&self, earlier: &Hist) -> Hist {
        let before: BTreeMap<u64, u64> = earlier.buckets.iter().copied().collect();
        Hist {
            sum: self.sum.saturating_sub(earlier.sum),
            buckets: self
                .buckets
                .iter()
                .map(|&(bound, n)| {
                    (
                        bound,
                        n.saturating_sub(before.get(&bound).copied().unwrap_or(0)),
                    )
                })
                .filter(|&(_, n)| n > 0)
                .collect(),
        }
    }

    /// Exact mean of the samples (the gateway keeps an exact sum beside
    /// the log2 buckets). `None` when empty.
    pub fn mean(&self) -> Option<f64> {
        let count = self.count();
        (count > 0).then(|| self.sum as f64 / count as f64)
    }

    /// Quantile `q`, interpolated linearly inside the log2 bucket that
    /// holds the rank (bucket with upper bound `2^i - 1` starts at
    /// `2^(i-1)`), so the estimate moves smoothly instead of in powers
    /// of two. `None` when empty.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        let total = self.count();
        if total == 0 {
            return None;
        }
        let rank = (q.clamp(0.0, 1.0) * total as f64).max(1.0);
        let mut seen = 0u64;
        for &(upper, n) in &self.buckets {
            if (seen + n) as f64 >= rank {
                let lower = if upper == 0 { 0 } else { upper / 2 + 1 };
                let inside = (rank - seen as f64) / n as f64;
                return Some(lower as f64 + inside * (upper - lower) as f64);
            }
            seen += n;
        }
        self.buckets.last().map(|&(upper, _)| upper as f64)
    }
}

/// One scrape: every counter and histogram by its registered name
/// (labels included, e.g. `gateway.shard.deferrals{shard="0"}`).
#[derive(Debug, Clone, Default)]
pub struct Metrics {
    counters: BTreeMap<String, u64>,
    histograms: BTreeMap<String, Hist>,
}

impl Metrics {
    /// Parses a `/metrics.json` body.
    pub fn parse(body: &str) -> Result<Metrics, String> {
        let doc = Json::parse(body)?;
        let mut metrics = Metrics::default();
        let counters = doc.get("counters").ok_or("metrics: no \"counters\"")?;
        for (name, value) in counters.members() {
            let value = value
                .as_u64()
                .ok_or_else(|| format!("metrics: counter {name} is not a count"))?;
            metrics.counters.insert(name.clone(), value);
        }
        let histograms = doc.get("histograms").ok_or("metrics: no \"histograms\"")?;
        for (name, hist) in histograms.members() {
            let mut buckets = Vec::new();
            for pair in hist.get("buckets").map(Json::elements).unwrap_or_default() {
                match pair.elements() {
                    [bound, n] => buckets.push((
                        // The top bucket's bound is u64::MAX, which a
                        // JSON number cannot hold exactly; saturate.
                        bound.as_f64().map(|b| b as u64).unwrap_or(u64::MAX),
                        n.as_u64()
                            .ok_or_else(|| format!("metrics: bad bucket in {name}"))?,
                    )),
                    _ => return Err(format!("metrics: bad bucket in {name}")),
                }
            }
            let sum = hist
                .get("sum")
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("metrics: {name} has no sum"))?;
            metrics
                .histograms
                .insert(name.clone(), Hist { buckets, sum });
        }
        Ok(metrics)
    }

    /// Sum of the counter `name` over all its label sets (`name` itself
    /// plus every `name{...}`). 0 when the series does not exist yet.
    pub fn counter(&self, name: &str) -> u64 {
        self.series(&self.counters, name).map(|(_, v)| *v).sum()
    }

    /// The histogram `name` merged over all its label sets.
    pub fn histogram(&self, name: &str) -> Hist {
        let mut merged = Hist::default();
        for (_, h) in self.series(&self.histograms, name) {
            merged.merge(h);
        }
        merged
    }

    fn series<'a, T>(
        &self,
        map: &'a BTreeMap<String, T>,
        name: &'a str,
    ) -> impl Iterator<Item = (&'a String, &'a T)> {
        map.range(name.to_owned()..)
            .take_while(move |(k, _)| k.starts_with(name))
            .filter(move |(k, _)| k.len() == name.len() || k.as_bytes()[name.len()] == b'{')
    }
}

/// `GET path` over HTTP/1.0 and returns the body.
pub fn http_get(addr: SocketAddr, path: &str) -> io::Result<String> {
    let mut stream = TcpStream::connect_timeout(&addr, Duration::from_secs(5))?;
    stream.set_read_timeout(Some(Duration::from_secs(5)))?;
    write!(stream, "GET {path} HTTP/1.0\r\n\r\n")?;
    let mut response = String::new();
    stream.read_to_string(&mut response)?;
    let (head, body) = response
        .split_once("\r\n\r\n")
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "no HTTP header end"))?;
    if !head.starts_with("HTTP/1.0 200") {
        let status = head.lines().next().unwrap_or("").to_owned();
        return Err(io::Error::new(io::ErrorKind::InvalidData, status));
    }
    Ok(body.to_owned())
}

/// Scrapes and parses the gateway's metrics.
pub fn scrape(addr: SocketAddr) -> Result<Metrics, String> {
    let body = http_get(addr, "/metrics.json").map_err(|e| format!("scrape {addr}: {e}"))?;
    Metrics::parse(&body)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// What `ftd_obs::Registry::render_json` produces.
    fn rendered() -> String {
        let r = ftd_obs::Registry::new();
        r.add("gateway.requests_forwarded", 7);
        r.add("gateway.shard.deferrals{shard=\"0\"}", 3);
        r.add("gateway.shard.deferrals{shard=\"1\"}", 4);
        r.add("gateway.shard.deferrals_other", 100);
        for v in [900, 1000, 1100, 3000] {
            r.observe("gateway.request_latency_us{group=\"10\"}", v);
        }
        r.observe("gateway.request_latency_us{group=\"11\"}", 1500);
        r.render_json()
    }

    #[test]
    fn scraper_sums_label_sets_and_ignores_longer_names() {
        let m = Metrics::parse(&rendered()).unwrap();
        assert_eq!(m.counter("gateway.requests_forwarded"), 7);
        assert_eq!(m.counter("gateway.shard.deferrals"), 7);
        assert_eq!(m.counter("never.registered"), 0);
        let h = m.histogram("gateway.request_latency_us");
        assert_eq!(h.count(), 5);
        // 900 -> (512..1023], 1000 -> same, 1100 & 1500 -> ..2047, 3000 -> ..4095.
        assert_eq!(h.buckets, vec![(1023, 2), (2047, 2), (4095, 1)]);
        assert_eq!(h.mean(), Some(1500.0));
    }

    #[test]
    fn period_histogram_is_the_difference_of_two_scrapes() {
        let earlier = Hist {
            buckets: vec![(1023, 2), (2047, 1)],
            sum: 3_000,
        };
        let later = Hist {
            buckets: vec![(1023, 2), (2047, 5), (4095, 1)],
            sum: 12_500,
        };
        let period = later.since(&earlier);
        assert_eq!(period.buckets, vec![(2047, 4), (4095, 1)]);
        assert_eq!(period.mean(), Some(1_900.0));
        // Rank 2.5 of 5 sits 62.5 % into the 1024..=2047 bucket.
        let p50 = period.quantile(0.5).unwrap();
        assert!((p50 - (1024.0 + 0.625 * 1023.0)).abs() < 1e-9, "{p50}");
        assert!(period.quantile(0.99).unwrap() > 2048.0);
        assert_eq!(Hist::default().quantile(0.5), None);
    }

    #[test]
    fn malformed_bodies_are_errors() {
        assert!(Metrics::parse("{}").is_err());
        assert!(Metrics::parse("{\"counters\":{\"a\":-1},\"histograms\":{}}").is_err());
        assert!(Metrics::parse("not json").is_err());
    }
}
