//! Global metric registry and snapshots.

use crate::{Counter, Histogram, HistogramSnapshot, QuantileSketch, SketchSnapshot};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, OnceLock};

/// A registry of named counters, histograms, and quantile sketches.
///
/// Names are `&'static str` dotted paths (see the crate docs for the
/// naming conventions). Lookup takes a `Mutex`, so hot paths should
/// resolve once and hold the `Arc` — the [`counter!`](crate::counter!),
/// [`histogram!`](crate::histogram!), and [`sketch!`](crate::sketch!)
/// macros do this per call site.
#[derive(Default)]
pub struct Registry {
    counters: Mutex<BTreeMap<&'static str, Arc<Counter>>>,
    histograms: Mutex<BTreeMap<&'static str, Arc<Histogram>>>,
    sketches: Mutex<BTreeMap<&'static str, Arc<QuantileSketch>>>,
}

static GLOBAL: OnceLock<Registry> = OnceLock::new();

/// The process-wide registry all instrumentation records into.
pub fn global() -> &'static Registry {
    GLOBAL.get_or_init(Registry::new)
}

impl Registry {
    /// Creates an empty registry. Most code should use [`global`];
    /// separate registries exist only for isolated tests.
    pub fn new() -> Self {
        Registry::default()
    }

    /// Returns the counter named `name`, creating it on first use.
    pub fn counter(&self, name: &'static str) -> Arc<Counter> {
        Arc::clone(
            self.counters
                .lock()
                .expect("obs registry poisoned")
                .entry(name)
                .or_default(),
        )
    }

    /// Returns the histogram named `name`, creating it on first use.
    pub fn histogram(&self, name: &'static str) -> Arc<Histogram> {
        Arc::clone(
            self.histograms
                .lock()
                .expect("obs registry poisoned")
                .entry(name)
                .or_default(),
        )
    }

    /// Returns the quantile sketch named `name`, creating it on first
    /// use.
    pub fn sketch(&self, name: &'static str) -> Arc<QuantileSketch> {
        Arc::clone(
            self.sketches
                .lock()
                .expect("obs registry poisoned")
                .entry(name)
                .or_default(),
        )
    }

    /// Registered counter names, sorted.
    pub fn counter_names(&self) -> Vec<&'static str> {
        self.counters
            .lock()
            .expect("obs registry poisoned")
            .keys()
            .copied()
            .collect()
    }

    /// Registered histogram names, sorted.
    pub fn histogram_names(&self) -> Vec<&'static str> {
        self.histograms
            .lock()
            .expect("obs registry poisoned")
            .keys()
            .copied()
            .collect()
    }

    /// Registered sketch names, sorted.
    pub fn sketch_names(&self) -> Vec<&'static str> {
        self.sketches
            .lock()
            .expect("obs registry poisoned")
            .keys()
            .copied()
            .collect()
    }

    /// A point-in-time copy of every metric.
    pub fn snapshot(&self) -> Snapshot {
        let counters = self
            .counters
            .lock()
            .expect("obs registry poisoned")
            .iter()
            .map(|(&k, v)| (k.to_string(), v.get()))
            .collect();
        let histograms = self
            .histograms
            .lock()
            .expect("obs registry poisoned")
            .iter()
            .map(|(&k, v)| (k.to_string(), v.snapshot()))
            .collect();
        let sketches = self
            .sketches
            .lock()
            .expect("obs registry poisoned")
            .iter()
            .map(|(&k, v)| (k.to_string(), v.snapshot()))
            .collect();
        Snapshot {
            counters,
            histograms,
            sketches,
        }
    }

    /// Zeroes every registered metric (names stay registered). Used to
    /// scope a snapshot to one workload in tests and repro binaries.
    pub fn reset(&self) {
        for c in self
            .counters
            .lock()
            .expect("obs registry poisoned")
            .values()
        {
            c.reset();
        }
        for h in self
            .histograms
            .lock()
            .expect("obs registry poisoned")
            .values()
        {
            h.reset();
        }
        for s in self
            .sketches
            .lock()
            .expect("obs registry poisoned")
            .values()
        {
            s.reset();
        }
    }
}

impl std::fmt::Debug for Registry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Registry")
            .field("counters", &self.counter_names().len())
            .field("histograms", &self.histogram_names().len())
            .field("sketches", &self.sketch_names().len())
            .finish()
    }
}

/// A point-in-time copy of a [`Registry`]. Export with
/// [`Snapshot::to_prometheus`].
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct Snapshot {
    /// Counter totals by metric name.
    pub counters: BTreeMap<String, u64>,
    /// Histogram states by metric name.
    pub histograms: BTreeMap<String, HistogramSnapshot>,
    /// Quantile-sketch states by metric name.
    #[serde(default)]
    pub sketches: BTreeMap<String, SketchSnapshot>,
}

impl Snapshot {
    /// The counter named `name`, or 0 if it was never registered.
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// The histogram named `name`, if registered.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms.get(name)
    }

    /// The quantile sketch named `name`, if registered.
    pub fn sketch(&self, name: &str) -> Option<&SketchSnapshot> {
        self.sketches.get(name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_name_returns_same_metric() {
        let r = Registry::new();
        let a = r.counter("obs.test.reg_counter");
        let b = r.counter("obs.test.reg_counter");
        assert!(Arc::ptr_eq(&a, &b));
        let ha = r.histogram("obs.test.reg_hist");
        let hb = r.histogram("obs.test.reg_hist");
        assert!(Arc::ptr_eq(&ha, &hb));
    }

    #[test]
    fn snapshot_and_reset() {
        let r = Registry::new();
        r.counter("obs.test.snap_counter").add(7);
        r.histogram("obs.test.snap_hist").record(3);
        let snap = r.snapshot();
        assert_eq!(snap.counter("obs.test.snap_counter"), 7);
        assert_eq!(snap.histogram("obs.test.snap_hist").unwrap().count, 1);
        assert_eq!(snap.counter("obs.test.never_registered"), 0);

        r.reset();
        let snap = r.snapshot();
        assert_eq!(snap.counter("obs.test.snap_counter"), 0);
        assert_eq!(snap.histogram("obs.test.snap_hist").unwrap().count, 0);
    }

    #[test]
    fn global_registry_is_shared_across_threads() {
        let c = global().counter("obs.test.global_shared");
        let before = c.get();
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| global().counter("obs.test.global_shared").add(10));
            }
        });
        assert_eq!(c.get(), before + 40);
    }
}
