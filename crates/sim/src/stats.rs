//! Counters and sample histograms shared by the whole simulation.
//!
//! Every component (Totem, the replication mechanisms, the gateways) bumps
//! named counters and records latency samples here; the experiment harness
//! reads them back to print the per-figure reports.
//!
//! A `Stats` can additionally be **bridged** into a thread-safe
//! [`ftd_obs::Registry`] with [`Stats::bind_registry`]: every counter
//! increment and latency sample is then mirrored into the registry (as a
//! counter or histogram of the same name), so the deterministic sim
//! reports and a live `/metrics` endpoint speak one vocabulary. The
//! bridge is strictly write-through — the deterministic in-`Stats` state
//! is unaffected by it.
//!
//! Counters are bumped once or more per simulated event, so the hot path
//! allocates nothing and takes no lock: names are `&'static str` literals
//! stored as-is, and a bound registry's [`Counter`] handle is resolved
//! once per name, not once per increment.

use crate::SimDuration;
use ftd_obs::{Counter, Registry};
use std::borrow::Cow;
use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

/// A set of named counters and sample series.
///
/// Names are free-form strings; components use a `component.metric`
/// convention, e.g. `"gateway.duplicates_suppressed"`. Counter names are
/// normally literals; an owned `String` is accepted for names computed
/// at run time (a view rebuilt from a registry snapshot).
///
/// # Examples
///
/// ```
/// use ftd_sim::Stats;
///
/// let mut stats = Stats::new();
/// stats.inc("gateway.requests");
/// stats.add("gateway.requests", 2);
/// assert_eq!(stats.counter("gateway.requests"), 3);
/// ```
#[derive(Debug, Default, Clone)]
pub struct Stats {
    counters: BTreeMap<Cow<'static, str>, CounterSlot>,
    samples: BTreeMap<String, Vec<u64>>,
    /// Write-through mirror; see the module docs.
    registry: Option<Arc<Registry>>,
}

#[derive(Debug, Default, Clone)]
struct CounterSlot {
    value: u64,
    /// The bound registry's counter of the same name.
    mirror: Option<Arc<Counter>>,
}

impl CounterSlot {
    fn add(&mut self, delta: u64) {
        self.value += delta;
        if let Some(mirror) = &self.mirror {
            mirror.add(delta);
        }
    }
}

impl Stats {
    /// Creates an empty set.
    pub fn new() -> Self {
        Stats::default()
    }

    /// Mirrors this sink into `registry` from now on, first forwarding
    /// everything already recorded so the registry never under-reports
    /// events that happened before the bridge existed (e.g. Totem ring
    /// formation during domain bootstrap).
    pub fn bind_registry(&mut self, registry: Arc<Registry>) {
        for (name, slot) in &mut self.counters {
            let mirror = registry.counter(name);
            mirror.add(slot.value);
            slot.mirror = Some(mirror);
        }
        for (name, series) in &self.samples {
            let hist = registry.histogram(name);
            for &v in series {
                hist.observe(v);
            }
        }
        self.registry = Some(registry);
    }

    /// Detaches the registry bridge (clones handed out for inspection
    /// use this so accidental writes cannot pollute the live registry).
    pub fn detach_registry(&mut self) {
        self.registry = None;
        for slot in self.counters.values_mut() {
            slot.mirror = None;
        }
    }

    /// Adds `delta` to the named counter, creating it at zero if absent.
    pub fn add(&mut self, name: impl Into<Cow<'static, str>>, delta: u64) {
        let name = name.into();
        if let Some(slot) = self.counters.get_mut(name.as_ref()) {
            slot.add(delta);
            return;
        }
        let mut slot = CounterSlot {
            value: 0,
            mirror: self.registry.as_ref().map(|r| r.counter(&name)),
        };
        slot.add(delta);
        self.counters.insert(name, slot);
    }

    /// Increments the named counter by one.
    pub fn inc(&mut self, name: impl Into<Cow<'static, str>>) {
        self.add(name, 1);
    }

    /// Current value of the named counter (zero if never touched).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).map_or(0, |slot| slot.value)
    }

    /// All counters, sorted by name.
    pub fn counters(&self) -> impl Iterator<Item = (&str, u64)> {
        self.counters
            .iter()
            .map(|(k, slot)| (k.as_ref(), slot.value))
    }

    /// Records one raw sample (e.g. a nanosecond latency) in the named series.
    pub fn sample(&mut self, name: &str, value: u64) {
        self.samples.entry(name.to_owned()).or_default().push(value);
        if let Some(registry) = &self.registry {
            registry.observe(name, value);
        }
    }

    /// Records a duration sample in nanoseconds.
    pub fn sample_duration(&mut self, name: &str, value: SimDuration) {
        self.sample(name, value.as_nanos());
    }

    /// The raw samples of a series (empty if the series does not exist).
    pub fn samples(&self, name: &str) -> &[u64] {
        self.samples.get(name).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Summary statistics for a series, or `None` if it has no samples.
    pub fn summary(&self, name: &str) -> Option<Summary> {
        Summary::of(self.samples(name))
    }

    /// Names of all sample series, sorted.
    pub fn series_names(&self) -> impl Iterator<Item = &str> {
        self.samples.keys().map(String::as_str)
    }

    /// Clears all counters and series.
    pub fn clear(&mut self) {
        self.counters.clear();
        self.samples.clear();
    }

    /// Merges another `Stats` into this one (counters add, samples
    /// append); a bound registry sees the merged-in values too.
    pub fn merge(&mut self, other: &Stats) {
        for (k, slot) in &other.counters {
            self.add(k.clone(), slot.value);
        }
        for (k, v) in &other.samples {
            self.samples.entry(k.clone()).or_default().extend(v);
            if let Some(registry) = &self.registry {
                let hist = registry.histogram(k);
                for &s in v {
                    hist.observe(s);
                }
            }
        }
    }
}

/// Summary statistics over one sample series.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Number of samples.
    pub count: usize,
    /// Smallest sample.
    pub min: u64,
    /// Largest sample.
    pub max: u64,
    /// Arithmetic mean.
    pub mean: f64,
    /// 50th percentile (nearest-rank).
    pub p50: u64,
    /// 99th percentile (nearest-rank).
    pub p99: u64,
}

impl Summary {
    /// Computes a summary, or `None` for an empty slice.
    pub fn of(samples: &[u64]) -> Option<Summary> {
        if samples.is_empty() {
            return None;
        }
        let mut sorted = samples.to_vec();
        sorted.sort_unstable();
        let count = sorted.len();
        let sum: u128 = sorted.iter().map(|&v| v as u128).sum();
        let pct = |p: f64| -> u64 {
            let rank = ((p * count as f64).ceil() as usize).clamp(1, count);
            sorted[rank - 1]
        };
        Some(Summary {
            count,
            min: sorted[0],
            max: sorted[count - 1],
            mean: sum as f64 / count as f64,
            p50: pct(0.50),
            p99: pct(0.99),
        })
    }
}

impl fmt::Display for Summary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "n={} min={} p50={} p99={} max={} mean={:.1}",
            self.count, self.min, self.p50, self.p99, self.max, self.mean
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let mut s = Stats::new();
        assert_eq!(s.counter("a"), 0);
        s.inc("a");
        s.add("a", 4);
        assert_eq!(s.counter("a"), 5);
        assert_eq!(s.counters().collect::<Vec<_>>(), vec![("a", 5)]);
    }

    #[test]
    fn summary_of_known_series() {
        let mut s = Stats::new();
        for v in [10u64, 20, 30, 40] {
            s.sample("lat", v);
        }
        let sum = s.summary("lat").unwrap();
        assert_eq!(sum.count, 4);
        assert_eq!(sum.min, 10);
        assert_eq!(sum.max, 40);
        assert_eq!(sum.p50, 20);
        assert!((sum.mean - 25.0).abs() < 1e-9);
    }

    #[test]
    fn summary_empty_is_none() {
        assert!(Summary::of(&[]).is_none());
        let s = Stats::new();
        assert!(s.summary("nothing").is_none());
    }

    #[test]
    fn merge_adds_counters_and_appends_samples() {
        let mut a = Stats::new();
        a.inc("x");
        a.sample("s", 1);
        let mut b = Stats::new();
        b.add("x", 2);
        b.sample("s", 2);
        a.merge(&b);
        assert_eq!(a.counter("x"), 3);
        assert_eq!(a.samples("s"), &[1, 2]);
    }

    #[test]
    fn bound_registry_mirrors_counters_and_samples() {
        let registry = Arc::new(Registry::new());
        let mut s = Stats::new();
        // Recorded before the bridge: flushed at bind time.
        s.add("totem.token_hops", 7);
        s.sample("lat", 40);
        s.bind_registry(registry.clone());
        assert_eq!(registry.counter("totem.token_hops").get(), 7);
        assert_eq!(registry.histogram("lat").count(), 1);
        // Recorded after: written through live.
        s.inc("totem.token_hops");
        s.sample("lat", 60);
        assert_eq!(registry.counter("totem.token_hops").get(), 8);
        assert_eq!(registry.histogram("lat").count(), 2);
        assert_eq!(registry.histogram("lat").max(), Some(60));
        // The deterministic view is untouched by the mirror.
        assert_eq!(s.counter("totem.token_hops"), 8);
        assert_eq!(s.samples("lat"), &[40, 60]);
        // Detached clones stop writing through.
        let mut snapshot = s.clone();
        snapshot.detach_registry();
        snapshot.inc("totem.token_hops");
        assert_eq!(registry.counter("totem.token_hops").get(), 8);
    }

    #[test]
    fn counters_first_touched_after_binding_mirror_too() {
        let registry = Arc::new(Registry::new());
        let mut s = Stats::new();
        s.bind_registry(registry.clone());
        // The handle is resolved on first touch and reused afterwards.
        let handle = registry.counter("totem.broadcasts");
        s.inc("totem.broadcasts");
        s.add("totem.broadcasts", 2);
        assert_eq!(handle.get(), 3);
        // A name computed at run time lands on the same counter.
        s.add(String::from("totem.broadcasts"), 1);
        assert_eq!(s.counter("totem.broadcasts"), 4);
        assert_eq!(handle.get(), 4);
        // Clearing resets the deterministic view only; later increments
        // keep flowing to the registry.
        s.clear();
        s.inc("totem.broadcasts");
        assert_eq!(s.counter("totem.broadcasts"), 1);
        assert_eq!(handle.get(), 5);
    }

    #[test]
    fn merge_writes_through_to_the_registry() {
        let registry = Arc::new(Registry::new());
        let mut a = Stats::new();
        a.bind_registry(registry.clone());
        let mut b = Stats::new();
        b.add("x", 2);
        b.sample("s", 9);
        a.merge(&b);
        assert_eq!(registry.counter("x").get(), 2);
        assert_eq!(registry.histogram("s").count(), 1);
    }

    #[test]
    fn duration_samples_record_nanos() {
        let mut s = Stats::new();
        s.sample_duration("d", SimDuration::from_micros(3));
        assert_eq!(s.samples("d"), &[3_000]);
    }
}
