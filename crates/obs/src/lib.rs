//! Fleet-wide observability scopes for the mzd workspace.
//!
//! A multi-node fleet cannot audit its composed stochastic guarantee
//! with per-node averages of averages: the p99 of a merged population
//! is not a function of per-node p99s. This crate holds the fleet
//! scopes the cluster records through, built on `mzd-telemetry`'s
//! mergeable [`QuantileSketch`] and its [`LabelSet`] /
//! [`render_sketch_series`] exposition writer:
//!
//! * [`NodeScope`] — one labeled sketch registry per node
//!   (`node="3"`), recorded into by the cluster round loop.
//! * [`SketchFleet`] — the fleet aggregator that merges the node
//!   scopes exactly (bucket-wise addition on the fixed layout) and
//!   renders Prometheus text: per-node `_bucket{node="N",le="…"}`
//!   series and a fleet-level `_fleet` summary with `quantile` labels —
//!   true fleet-level p50/p99/p999, within one bucket width of the
//!   quantiles of the concatenated per-node samples.
//!
//! Like its siblings the crate is dependency-free beyond
//! `mzd-telemetry` itself, and everything here is a pure function of
//! recorded values — no clocks, no I/O — so fleet exposition is
//! byte-identical across reruns.

#![warn(missing_docs)]

use mzd_telemetry::prom::{self, render_sketch_series, LabelSet};
use mzd_telemetry::QuantileSketch;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// One node's sketch registry: a label scope (`node="N"`) plus named
/// sketches, recorded into by the cluster round loop.
#[derive(Debug, Clone, Default)]
pub struct NodeScope {
    labels: LabelSet,
    sketches: BTreeMap<String, QuantileSketch>,
}

impl NodeScope {
    /// A scope under the given labels.
    #[must_use]
    pub fn new(labels: LabelSet) -> Self {
        Self {
            labels,
            sketches: BTreeMap::new(),
        }
    }

    /// This scope's labels.
    #[must_use]
    pub fn labels(&self) -> &LabelSet {
        &self.labels
    }

    /// Record one observation into the named sketch (created on first
    /// use; only then is the name copied).
    pub fn record(&mut self, name: &str, value: f64) {
        if let Some(sketch) = self.sketches.get_mut(name) {
            sketch.record(value);
        } else {
            let mut sketch = QuantileSketch::new();
            sketch.record(value);
            self.sketches.insert(name.to_string(), sketch);
        }
    }

    /// Pre-register a sketch so it is exposed (empty) from round zero —
    /// the same catalog-stability rule eager `fault.*` / `cluster.*`
    /// registration follows.
    pub fn declare(&mut self, name: &str) {
        self.sketches.entry(name.to_string()).or_default();
    }

    /// The named sketch, if any value was recorded or declared.
    #[must_use]
    pub fn sketch(&self, name: &str) -> Option<&QuantileSketch> {
        self.sketches.get(name)
    }

    /// Sketch names in sorted order.
    pub fn names(&self) -> impl Iterator<Item = &str> {
        self.sketches.keys().map(String::as_str)
    }
}

/// The fleet aggregator: one [`NodeScope`] per node, merged roll-ups,
/// and Prometheus exposition of both.
#[derive(Debug, Clone, Default)]
pub struct SketchFleet {
    scopes: Vec<NodeScope>,
}

impl SketchFleet {
    /// A fleet of `nodes` scopes labeled `node="0"` … `node="N-1"`.
    #[must_use]
    pub fn with_nodes(nodes: u32) -> Self {
        Self {
            scopes: (0..nodes)
                .map(|i| NodeScope::new(LabelSet::new().with("node", &i.to_string())))
                .collect(),
        }
    }

    /// Mutable access to one node's scope.
    pub fn node_mut(&mut self, node: u32) -> &mut NodeScope {
        &mut self.scopes[node as usize]
    }

    /// One node's scope.
    #[must_use]
    pub fn node(&self, node: u32) -> &NodeScope {
        &self.scopes[node as usize]
    }

    /// Declare `name` on every node scope (eager catalog registration).
    pub fn declare_all(&mut self, name: &str) {
        for scope in &mut self.scopes {
            scope.declare(name);
        }
    }

    /// The fleet-level merge of the named sketch across all nodes, in
    /// node-index order (merge is order-independent on buckets; the
    /// fixed order also pins the f64 `sum` byte-for-byte).
    #[must_use]
    pub fn merged(&self, name: &str) -> QuantileSketch {
        let mut out = QuantileSketch::new();
        for scope in &self.scopes {
            if let Some(s) = scope.sketch(name) {
                out.merge(s);
            }
        }
        out
    }

    /// Every sketch name present on any node, sorted and deduplicated.
    #[must_use]
    pub fn names(&self) -> Vec<String> {
        let mut names: Vec<String> = self
            .scopes
            .iter()
            .flat_map(|s| s.names().map(ToString::to_string))
            .collect();
        names.sort();
        names.dedup();
        names
    }

    /// Render the whole fleet as Prometheus text: for each sketch name,
    /// per-node labeled histogram series (`_bucket{node="N",le="…"}`,
    /// `_sum{node="N"}`, `_count{node="N"}`) followed by a fleet-level
    /// `<name>_fleet` summary carrying `quantile="0.5|0.95|0.99|0.999"`
    /// samples of the *merged* sketch. Byte-stable: names sorted, nodes
    /// in index order, no timestamps.
    #[must_use]
    pub fn render_prom(&self) -> String {
        let mut out = String::with_capacity(4096);
        for name in self.names() {
            let n = prom::sanitize_name(&name);
            let _ = writeln!(out, "# TYPE {n} histogram");
            for scope in &self.scopes {
                let Some(sketch) = scope.sketch(&name) else {
                    continue;
                };
                render_sketch_series(&mut out, &n, scope.labels(), sketch);
            }
            let merged = self.merged(&name);
            let _ = writeln!(out, "# TYPE {n}_fleet summary");
            for (_, q) in mzd_telemetry::QUANTILE_LABELS {
                let labels = LabelSet::new().with("quantile", &prom::format_value(q));
                let _ = writeln!(
                    out,
                    "{n}_fleet{} {}",
                    labels.render(),
                    prom::format_value(merged.quantile(q))
                );
            }
            let _ = writeln!(out, "{n}_fleet_sum {}", prom::format_value(merged.sum()));
            let _ = writeln!(out, "{n}_fleet_count {}", merged.count());
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn fleet_renders_labeled_series_and_fleet_summary() {
        let mut fleet = SketchFleet::with_nodes(2);
        for i in 1..=50 {
            fleet
                .node_mut(0)
                .record("cluster.node.service_time", f64::from(i) * 1e-3);
            fleet
                .node_mut(1)
                .record("cluster.node.service_time", f64::from(i) * 5e-3);
        }
        let text = fleet.render_prom();
        assert!(text.contains("# TYPE mzd_cluster_node_service_time histogram"));
        assert!(text.contains("_bucket{node=\"0\",le=\""), "{text}");
        assert!(
            text.contains("_bucket{node=\"1\",le=\"+Inf\"} 50"),
            "{text}"
        );
        assert!(text.contains("_sum{node=\"0\"}"), "{text}");
        assert!(text.contains("# TYPE mzd_cluster_node_service_time_fleet summary"));
        assert!(text.contains("_fleet{quantile=\"0.99\"}"), "{text}");
        assert!(text.contains("_fleet_count 100"), "{text}");
        // Determinism: rendering is a pure function of recorded values.
        assert_eq!(text, fleet.render_prom());
    }

    #[test]
    fn declared_sketches_expose_empty_series() {
        let mut fleet = SketchFleet::with_nodes(2);
        fleet.declare_all("cluster.node.queue_depth");
        let text = fleet.render_prom();
        assert!(text.contains("_bucket{node=\"0\",le=\"+Inf\"} 0"), "{text}");
        assert!(text.contains("_fleet_count 0"), "{text}");
    }

    /// Pins the exact fleet exposition bytes: two nodes, one sketch
    /// with samples on both, and one declared but never recorded (its
    /// fleet quantiles read `NaN`).
    #[test]
    fn fleet_exposition_bytes_are_pinned() {
        let mut fleet = SketchFleet::with_nodes(2);
        fleet.declare_all("cluster.node.queue_depth");
        for (node, v) in [(0, 0.02), (0, 0.5), (1, 0.02), (1, 0.4), (1, 3.0)] {
            fleet.node_mut(node).record("cluster.node.service_time", v);
        }
        let expected = r#"# TYPE mzd_cluster_node_queue_depth histogram
mzd_cluster_node_queue_depth_bucket{node="0",le="+Inf"} 0
mzd_cluster_node_queue_depth_sum{node="0"} 0
mzd_cluster_node_queue_depth_count{node="0"} 0
mzd_cluster_node_queue_depth_bucket{node="1",le="+Inf"} 0
mzd_cluster_node_queue_depth_sum{node="1"} 0
mzd_cluster_node_queue_depth_count{node="1"} 0
# TYPE mzd_cluster_node_queue_depth_fleet summary
mzd_cluster_node_queue_depth_fleet{quantile="0.5"} NaN
mzd_cluster_node_queue_depth_fleet{quantile="0.95"} NaN
mzd_cluster_node_queue_depth_fleet{quantile="0.99"} NaN
mzd_cluster_node_queue_depth_fleet{quantile="0.999"} NaN
mzd_cluster_node_queue_depth_fleet_sum 0
mzd_cluster_node_queue_depth_fleet_count 0
# TYPE mzd_cluster_node_service_time histogram
mzd_cluster_node_service_time_bucket{node="0",le="0.021544346900318825"} 1
mzd_cluster_node_service_time_bucket{node="0",le="0.5994842503189421"} 2
mzd_cluster_node_service_time_bucket{node="0",le="+Inf"} 2
mzd_cluster_node_service_time_sum{node="0"} 0.52
mzd_cluster_node_service_time_count{node="0"} 2
mzd_cluster_node_service_time_bucket{node="1",le="0.021544346900318825"} 1
mzd_cluster_node_service_time_bucket{node="1",le="0.4641588833612773"} 2
mzd_cluster_node_service_time_bucket{node="1",le="3.593813663804626"} 3
mzd_cluster_node_service_time_bucket{node="1",le="+Inf"} 3
mzd_cluster_node_service_time_sum{node="1"} 3.42
mzd_cluster_node_service_time_count{node="1"} 3
# TYPE mzd_cluster_node_service_time_fleet summary
mzd_cluster_node_service_time_fleet{quantile="0.5"} 0.4084238652674518
mzd_cluster_node_service_time_fleet{quantile="0.95"} 3
mzd_cluster_node_service_time_fleet{quantile="0.99"} 3
mzd_cluster_node_service_time_fleet{quantile="0.999"} 3
mzd_cluster_node_service_time_fleet_sum 3.94
mzd_cluster_node_service_time_fleet_count 5
"#;
        assert_eq!(fleet.render_prom(), expected);
    }

    proptest! {
        /// Merge is commutative and associative on the bucket counts —
        /// the property that makes fleet roll-ups independent of node
        /// visiting order (satellite: sketch merge proptest).
        #[test]
        fn merge_order_never_changes_buckets(
            xs in prop::collection::vec(0.0f64..10.0, 0..40),
            ys in prop::collection::vec(0.0f64..10.0, 0..40),
            zs in prop::collection::vec(0.0f64..10.0, 0..40),
        ) {
            let sketch = |vals: &[f64]| {
                let mut s = QuantileSketch::new();
                for &v in vals {
                    s.record(v);
                }
                s
            };
            let (a, b, c) = (sketch(&xs), sketch(&ys), sketch(&zs));
            // Commutativity: a+b == b+a.
            let mut ab = a.clone();
            ab.merge(&b);
            let mut ba = b.clone();
            ba.merge(&a);
            prop_assert_eq!(ab.bucket_counts(), ba.bucket_counts());
            prop_assert_eq!(ab.count(), ba.count());
            // Associativity: (a+b)+c == a+(b+c).
            let mut abc = ab.clone();
            abc.merge(&c);
            let mut bc = b.clone();
            bc.merge(&c);
            let mut a_bc = a.clone();
            a_bc.merge(&bc);
            prop_assert_eq!(abc.bucket_counts(), a_bc.bucket_counts());
            // And the rendered bucket/count lines of the two merge
            // orders are byte-identical (quantiles come off the
            // buckets; min/max clamp is order-independent too). The
            // `_sum` line is excluded: f64 addition is not associative,
            // which is why the fleet always merges in node-index order.
            let buckets_only = |s: &QuantileSketch| {
                let mut out = String::new();
                let labels = LabelSet::new().with("node", "0");
                render_sketch_series(&mut out, "mzd_t", &labels, s);
                out.lines()
                    .filter(|l| !l.contains("_sum"))
                    .collect::<Vec<_>>()
                    .join("\n")
            };
            prop_assert_eq!(buckets_only(&abc), buckets_only(&a_bc));
        }

        /// A merged sketch always has exactly the bucket counts of the
        /// concatenated samples.
        #[test]
        fn merge_equals_concatenation(
            xs in prop::collection::vec(1e-6f64..1e3, 0..60),
            split in 0usize..60,
        ) {
            let split = split.min(xs.len());
            let mut left = QuantileSketch::new();
            let mut right = QuantileSketch::new();
            let mut whole = QuantileSketch::new();
            for (i, &v) in xs.iter().enumerate() {
                if i < split { left.record(v); } else { right.record(v); }
                whole.record(v);
            }
            left.merge(&right);
            prop_assert_eq!(left.bucket_counts(), whole.bucket_counts());
            prop_assert_eq!(left.count(), whole.count());
            prop_assert_eq!(left.min(), whole.min());
            prop_assert_eq!(left.max(), whole.max());
        }
    }
}
