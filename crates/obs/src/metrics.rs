//! A process-wide metrics registry: named families of counters, gauges and
//! fixed-boundary histograms, identified by `(name, sorted labels)`, with a
//! Prometheus-style text exposition (`render`).
//!
//! Design constraints, in order:
//!
//! 1. **Hot-path cheap.** A handle ([`Counter`], [`Gauge`], [`Histogram`])
//!    is an `Arc` around plain atomics; `inc`/`observe` are lock-free.
//!    Registration (`Registry::counter` etc.) takes a mutex once — callers
//!    on hot paths register at startup and cache the handle.
//! 2. **One registry, many views.** `/v1/metrics`, `/v1/cache/stats`, the
//!    `--timings` tables and perfbench's per-layer metrics all read the
//!    same counters; nothing is double-counted.
//! 3. **Deterministic exposition.** Families and series render in sorted
//!    order with stable float formatting, so the format can be pinned by a
//!    golden test.
//!
//! Metric names follow the Prometheus conventions used throughout the repo:
//! `lassi_` prefix, `_total` suffix on counters, unit suffixes (`_seconds`)
//! on histograms. The catalogue lives in the README "Observability" section.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// Log-bucketed latency boundaries in seconds: 100 µs → 60 s in a 1–2.5–5
/// progression. Fixed boundaries keep series mergeable across processes and
/// the exposition stable.
pub const LATENCY_SECONDS: &[f64] = &[
    0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5,
    5.0, 10.0, 30.0, 60.0,
];

/// A monotonically increasing counter. Cloning shares the underlying cell.
#[derive(Clone, Debug)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Increment by one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Increment by `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }

    /// Raise the counter to `total` if it is currently below it. This is
    /// for mirroring an *external* monotone counter (e.g. per-shard cache
    /// stats) into the registry at scrape time: idempotent, and never
    /// moves the counter backwards.
    pub fn record_total(&self, total: u64) {
        self.0.fetch_max(total, Ordering::Relaxed);
    }
}

/// A gauge: a value that can go up and down. Cloning shares the cell.
#[derive(Clone, Debug)]
pub struct Gauge(Arc<AtomicI64>);

impl Gauge {
    /// Set to an absolute value.
    pub fn set(&self, v: i64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Add `n` (may be negative).
    pub fn add(&self, n: i64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Increment by one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Decrement by one.
    pub fn dec(&self) {
        self.add(-1);
    }

    /// Current value.
    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

#[derive(Debug)]
struct HistogramCore {
    /// Upper bounds of the finite buckets, strictly increasing.
    bounds: Vec<f64>,
    /// Per-bucket observation counts; `buckets[bounds.len()]` is +Inf.
    buckets: Vec<AtomicU64>,
    /// Total observations.
    count: AtomicU64,
    /// Sum of observed values, stored as f64 bits and updated by CAS so
    /// concurrent observations never lose an addend.
    sum_bits: AtomicU64,
}

/// A fixed-boundary histogram. Cloning shares the underlying buckets.
#[derive(Clone, Debug)]
pub struct Histogram(Arc<HistogramCore>);

impl Histogram {
    /// Record one observation.
    pub fn observe(&self, v: f64) {
        let core = &self.0;
        let idx = core
            .bounds
            .iter()
            .position(|b| v <= *b)
            .unwrap_or(core.bounds.len());
        core.buckets[idx].fetch_add(1, Ordering::Relaxed);
        core.count.fetch_add(1, Ordering::Relaxed);
        let mut old = core.sum_bits.load(Ordering::Relaxed);
        loop {
            let new = (f64::from_bits(old) + v).to_bits();
            match core.sum_bits.compare_exchange_weak(
                old,
                new,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => break,
                Err(actual) => old = actual,
            }
        }
    }

    /// A consistent-enough point-in-time copy (per-field atomic reads).
    pub fn snapshot(&self) -> HistogramSnapshot {
        let core = &self.0;
        HistogramSnapshot {
            bounds: core.bounds.clone(),
            buckets: core
                .buckets
                .iter()
                .map(|b| b.load(Ordering::Relaxed))
                .collect(),
            count: core.count.load(Ordering::Relaxed),
            sum: f64::from_bits(core.sum_bits.load(Ordering::Relaxed)),
        }
    }
}

/// A point-in-time copy of a histogram's state.
#[derive(Debug, Clone, PartialEq)]
pub struct HistogramSnapshot {
    /// Finite bucket upper bounds.
    pub bounds: Vec<f64>,
    /// Per-bucket counts; the final entry is the +Inf bucket.
    pub buckets: Vec<u64>,
    /// Total observations.
    pub count: u64,
    /// Sum of observed values.
    pub sum: f64,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Kind {
    Counter,
    Gauge,
    Histogram,
}

impl Kind {
    fn label(self) -> &'static str {
        match self {
            Kind::Counter => "counter",
            Kind::Gauge => "gauge",
            Kind::Histogram => "histogram",
        }
    }
}

#[derive(Clone, Debug)]
enum Instrument {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(Histogram),
}

struct Family {
    help: String,
    kind: Kind,
    /// Series keyed by their rendered `{label="value",...}` block (empty
    /// string for the unlabeled series); BTreeMap keeps exposition sorted.
    series: BTreeMap<String, Instrument>,
}

/// A collection of metric families. Most code uses the process-wide
/// [`global`] registry; tests construct their own for isolation.
#[derive(Default)]
pub struct Registry {
    families: Mutex<BTreeMap<String, Family>>,
}

/// Render a label block (`{k="v",...}`) with keys sorted and values
/// escaped per the Prometheus text format.
fn label_block(labels: &[(&str, &str)]) -> String {
    if labels.is_empty() {
        return String::new();
    }
    let mut sorted: Vec<(&str, &str)> = labels.to_vec();
    sorted.sort();
    let mut out = String::from("{");
    for (i, (k, v)) in sorted.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(k);
        out.push_str("=\"");
        for c in v.chars() {
            match c {
                '\\' => out.push_str("\\\\"),
                '"' => out.push_str("\\\""),
                '\n' => out.push_str("\\n"),
                c => out.push(c),
            }
        }
        out.push('"');
    }
    out.push('}');
    out
}

/// Join a base label block with one extra label (used for `le` buckets).
fn with_extra_label(block: &str, key: &str, value: &str) -> String {
    if block.is_empty() {
        format!("{{{key}=\"{value}\"}}")
    } else {
        // Insert before the closing brace.
        format!("{},{key}=\"{value}\"}}", &block[..block.len() - 1])
    }
}

/// Format an f64 the way the exposition needs it: shortest round-trip
/// representation, with infinities spelled `+Inf`/`-Inf`.
fn fmt_f64(v: f64) -> String {
    if v == f64::INFINITY {
        "+Inf".to_string()
    } else if v == f64::NEG_INFINITY {
        "-Inf".to_string()
    } else {
        format!("{v}")
    }
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Registry {
        Registry::default()
    }

    fn instrument<F>(
        &self,
        name: &str,
        help: &str,
        kind: Kind,
        labels: &[(&str, &str)],
        make: F,
    ) -> Instrument
    where
        F: FnOnce() -> Instrument,
    {
        let mut families = self.families.lock().expect("metrics registry poisoned");
        let family = families.entry(name.to_string()).or_insert_with(|| Family {
            help: help.to_string(),
            kind,
            series: BTreeMap::new(),
        });
        assert_eq!(
            family.kind, kind,
            "metric `{name}` registered twice with different kinds"
        );
        family
            .series
            .entry(label_block(labels))
            .or_insert_with(make)
            .clone()
    }

    /// Register (or look up) a counter series.
    pub fn counter(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Counter {
        match self.instrument(name, help, Kind::Counter, labels, || {
            Instrument::Counter(Counter(Arc::new(AtomicU64::new(0))))
        }) {
            Instrument::Counter(c) => c,
            _ => unreachable!("kind checked above"),
        }
    }

    /// Register (or look up) a gauge series.
    pub fn gauge(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Gauge {
        match self.instrument(name, help, Kind::Gauge, labels, || {
            Instrument::Gauge(Gauge(Arc::new(AtomicI64::new(0))))
        }) {
            Instrument::Gauge(g) => g,
            _ => unreachable!("kind checked above"),
        }
    }

    /// Register (or look up) a histogram series with the given finite
    /// bucket boundaries (strictly increasing; +Inf is implicit).
    pub fn histogram(
        &self,
        name: &str,
        help: &str,
        labels: &[(&str, &str)],
        bounds: &[f64],
    ) -> Histogram {
        assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "histogram `{name}` bounds must be strictly increasing"
        );
        match self.instrument(name, help, Kind::Histogram, labels, || {
            let buckets = (0..=bounds.len()).map(|_| AtomicU64::new(0)).collect();
            Instrument::Histogram(Histogram(Arc::new(HistogramCore {
                bounds: bounds.to_vec(),
                buckets,
                count: AtomicU64::new(0),
                sum_bits: AtomicU64::new(0.0_f64.to_bits()),
            })))
        }) {
            Instrument::Histogram(h) => h,
            _ => unreachable!("kind checked above"),
        }
    }

    /// The value of a counter series, if it has been registered.
    pub fn counter_value(&self, name: &str, labels: &[(&str, &str)]) -> Option<u64> {
        let families = self.families.lock().expect("metrics registry poisoned");
        match families.get(name)?.series.get(&label_block(labels))? {
            Instrument::Counter(c) => Some(c.get()),
            _ => None,
        }
    }

    /// The value of a gauge series, if it has been registered.
    pub fn gauge_value(&self, name: &str, labels: &[(&str, &str)]) -> Option<i64> {
        let families = self.families.lock().expect("metrics registry poisoned");
        match families.get(name)?.series.get(&label_block(labels))? {
            Instrument::Gauge(g) => Some(g.get()),
            _ => None,
        }
    }

    /// A snapshot of a histogram series, if it has been registered.
    pub fn histogram_snapshot(
        &self,
        name: &str,
        labels: &[(&str, &str)],
    ) -> Option<HistogramSnapshot> {
        let families = self.families.lock().expect("metrics registry poisoned");
        match families.get(name)?.series.get(&label_block(labels))? {
            Instrument::Histogram(h) => Some(h.snapshot()),
            _ => None,
        }
    }

    /// Sum a counter family across all its label sets (0 if unregistered).
    pub fn counter_family_sum(&self, name: &str) -> u64 {
        let families = self.families.lock().expect("metrics registry poisoned");
        families.get(name).map_or(0, |f| {
            f.series
                .values()
                .map(|i| match i {
                    Instrument::Counter(c) => c.get(),
                    _ => 0,
                })
                .sum()
        })
    }

    /// Render the Prometheus text exposition: families sorted by name,
    /// series sorted by label block, `# HELP` and `# TYPE` headers, and
    /// `_bucket`/`_sum`/`_count` expansion for histograms.
    pub fn render(&self) -> String {
        let families = self.families.lock().expect("metrics registry poisoned");
        let mut out = String::new();
        for (name, family) in families.iter() {
            out.push_str(&format!("# HELP {name} {}\n", family.help));
            out.push_str(&format!("# TYPE {name} {}\n", family.kind.label()));
            for (block, instrument) in family.series.iter() {
                match instrument {
                    Instrument::Counter(c) => {
                        out.push_str(&format!("{name}{block} {}\n", c.get()));
                    }
                    Instrument::Gauge(g) => {
                        out.push_str(&format!("{name}{block} {}\n", g.get()));
                    }
                    Instrument::Histogram(h) => {
                        let snap = h.snapshot();
                        let mut cumulative = 0u64;
                        for (i, bound) in snap.bounds.iter().enumerate() {
                            cumulative += snap.buckets[i];
                            let labels = with_extra_label(block, "le", &fmt_f64(*bound));
                            out.push_str(&format!("{name}_bucket{labels} {cumulative}\n"));
                        }
                        let labels = with_extra_label(block, "le", "+Inf");
                        out.push_str(&format!("{name}_bucket{labels} {}\n", snap.count));
                        out.push_str(&format!("{name}_sum{block} {}\n", fmt_f64(snap.sum)));
                        out.push_str(&format!("{name}_count{block} {}\n", snap.count));
                    }
                }
            }
        }
        out
    }
}

/// The process-wide registry every subsystem records into.
pub fn global() -> &'static Registry {
    static GLOBAL: OnceLock<Registry> = OnceLock::new();
    GLOBAL.get_or_init(Registry::new)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    #[test]
    fn counters_count_exactly_under_contention() {
        let registry = Registry::new();
        let counter = registry.counter("lassi_test_total", "Test counter.", &[]);
        const THREADS: usize = 8;
        const PER_THREAD: u64 = 10_000;
        thread::scope(|scope| {
            for _ in 0..THREADS {
                let counter = counter.clone();
                scope.spawn(move || {
                    for _ in 0..PER_THREAD {
                        counter.inc();
                    }
                });
            }
        });
        assert_eq!(counter.get(), THREADS as u64 * PER_THREAD);
        assert_eq!(
            registry.counter_value("lassi_test_total", &[]),
            Some(THREADS as u64 * PER_THREAD)
        );
    }

    #[test]
    fn gauges_go_up_and_down() {
        let registry = Registry::new();
        let gauge = registry.gauge("lassi_test_gauge", "Test gauge.", &[("shard", "0")]);
        gauge.set(5);
        gauge.add(3);
        gauge.dec();
        assert_eq!(gauge.get(), 7);
        assert_eq!(
            registry.gauge_value("lassi_test_gauge", &[("shard", "0")]),
            Some(7)
        );
        assert_eq!(registry.gauge_value("lassi_test_gauge", &[]), None);
    }

    #[test]
    fn histogram_buckets_sum_to_observation_count_under_contention() {
        let registry = Registry::new();
        let histogram = registry.histogram(
            "lassi_test_seconds",
            "Test histogram.",
            &[],
            LATENCY_SECONDS,
        );
        const THREADS: usize = 8;
        const PER_THREAD: usize = 5_000;
        thread::scope(|scope| {
            for t in 0..THREADS {
                let histogram = histogram.clone();
                scope.spawn(move || {
                    for i in 0..PER_THREAD {
                        // Spread observations across buckets, including +Inf.
                        let v = match (t + i) % 4 {
                            0 => 0.00005,
                            1 => 0.003,
                            2 => 0.7,
                            _ => 120.0,
                        };
                        histogram.observe(v);
                    }
                });
            }
        });
        let snap = histogram.snapshot();
        let total = THREADS as u64 * PER_THREAD as u64;
        assert_eq!(snap.count, total);
        assert_eq!(snap.buckets.iter().sum::<u64>(), total);
        assert_eq!(snap.buckets.len(), LATENCY_SECONDS.len() + 1);
        assert!(snap.buckets[snap.buckets.len() - 1] > 0, "+Inf bucket used");
        // Each value lands in exactly the right bucket: 0.00005 <= 0.0001.
        assert_eq!(snap.buckets[0], total / 4);
    }

    #[test]
    fn histogram_sum_is_exact_for_representable_values() {
        let registry = Registry::new();
        let histogram = registry.histogram("lassi_sum_seconds", "Sum test.", &[], &[1.0]);
        for _ in 0..100 {
            histogram.observe(0.5);
        }
        assert_eq!(histogram.snapshot().sum, 50.0);
    }

    #[test]
    fn re_registration_returns_the_same_series() {
        let registry = Registry::new();
        let a = registry.counter("lassi_same_total", "Same.", &[("k", "v")]);
        let b = registry.counter("lassi_same_total", "Same.", &[("k", "v")]);
        a.inc();
        b.inc();
        assert_eq!(a.get(), 2);
        // Label order does not create a new series.
        let c = registry.counter("lassi_two_total", "Two labels.", &[("b", "2"), ("a", "1")]);
        let d = registry.counter("lassi_two_total", "Two labels.", &[("a", "1"), ("b", "2")]);
        c.inc();
        assert_eq!(d.get(), 1);
    }

    #[test]
    #[should_panic(expected = "different kinds")]
    fn kind_mismatch_panics() {
        let registry = Registry::new();
        registry.counter("lassi_kind_total", "A counter.", &[]);
        registry.gauge("lassi_kind_total", "Now a gauge?", &[]);
    }

    #[test]
    fn exposition_format_is_pinned() {
        let registry = Registry::new();
        let requests = registry.counter(
            "lassi_http_requests_total",
            "HTTP requests served, by method, route and status.",
            &[("method", "GET"), ("route", "metrics"), ("status", "200")],
        );
        requests.add(3);
        registry
            .counter(
                "lassi_http_requests_total",
                "HTTP requests served, by method, route and status.",
                &[("method", "POST"), ("route", "sweeps"), ("status", "202")],
            )
            .add(8);
        let open = registry.gauge(
            "lassi_http_open_connections",
            "Currently open client connections.",
            &[],
        );
        open.set(2);
        let latency = registry.histogram(
            "lassi_job_execute_seconds",
            "Scheduler job execution time.",
            &[],
            &[0.01, 0.1, 1.0],
        );
        // Powers of two sum exactly in f64, keeping the golden text stable.
        latency.observe(0.0078125);
        latency.observe(0.0625);
        latency.observe(0.0625);
        latency.observe(2.5);

        let expected = "\
# HELP lassi_http_open_connections Currently open client connections.
# TYPE lassi_http_open_connections gauge
lassi_http_open_connections 2
# HELP lassi_http_requests_total HTTP requests served, by method, route and status.
# TYPE lassi_http_requests_total counter
lassi_http_requests_total{method=\"GET\",route=\"metrics\",status=\"200\"} 3
lassi_http_requests_total{method=\"POST\",route=\"sweeps\",status=\"202\"} 8
# HELP lassi_job_execute_seconds Scheduler job execution time.
# TYPE lassi_job_execute_seconds histogram
lassi_job_execute_seconds_bucket{le=\"0.01\"} 1
lassi_job_execute_seconds_bucket{le=\"0.1\"} 3
lassi_job_execute_seconds_bucket{le=\"1\"} 3
lassi_job_execute_seconds_bucket{le=\"+Inf\"} 4
lassi_job_execute_seconds_sum 2.6328125
lassi_job_execute_seconds_count 4
";
        assert_eq!(registry.render(), expected);
    }

    #[test]
    fn label_values_are_escaped() {
        let registry = Registry::new();
        registry
            .counter("lassi_esc_total", "Escape test.", &[("path", "a\"b\\c\nd")])
            .inc();
        let text = registry.render();
        assert!(text.contains("lassi_esc_total{path=\"a\\\"b\\\\c\\nd\"} 1"));
    }

    #[test]
    fn global_registry_is_a_singleton() {
        let a = global().counter("lassi_global_probe_total", "Probe.", &[]);
        global()
            .counter("lassi_global_probe_total", "Probe.", &[])
            .inc();
        assert!(a.get() >= 1);
    }
}
