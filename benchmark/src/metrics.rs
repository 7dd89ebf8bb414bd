//! The metric tables: every name the benchmark prints, with its unit and
//! direction. `BENCHMARK.json` lists the same names; a test keeps the two
//! in step.

use crate::stats::Better::{self, Higher, Lower};
use std::collections::BTreeMap;

#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn m(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef { name, unit, better }
}

/// The gated end-to-end metrics: what a user of the system sees, every
/// workload has, and the reference host can repeat within a tenth.
pub const END_TO_END: [MetricDef; 4] = [
    m("setup_s", "s", Lower),
    m("rss_mb", "MiB", Lower),
    m("rep_bytes_per_tuple", "B", Lower),
    m("rep_vs_output", "ratio", Lower),
];

/// End-to-end timings, in the order `Pass::timings` returns them. Every
/// run measures and prints them, tracing off; they are reported with the
/// per-layer metrics, ungated, because a neighbour's burst moves them by
/// a third on the reference host (BASELINE.md).
pub const TIMINGS: [MetricDef; 6] = [
    m("answers_per_s", "1/s", Higher),
    m("requests_per_s", "1/s", Higher),
    m("ttfa_p50_us", "us", Lower),
    m("ttfa_p99_us", "us", Lower),
    m("request_p50_us", "us", Lower),
    m("request_p99_us", "us", Lower),
];

/// Single layers, read in the traced run. A layer the workload does not
/// exercise reads 0. The first three are end-to-end readings that only
/// one or two workloads have, which is why they are here and ungated.
pub const PER_LAYER: [MetricDef; 61] = [
    m("wire_bytes_per_answer", "B", Lower),
    m("update_p50_us", "us", Lower),
    m("update_p90_us", "us", Lower),
    m("workload.gen_ms", "ms", Lower),
    m("storage.index_build_ms", "ms", Lower),
    m("storage.partition_ms", "ms", Lower),
    m("storage.apply_us_p50", "us", Lower),
    m("lp.solve_ms", "ms", Lower),
    m("engine.select_ms", "ms", Lower),
    m("engine.select_solves", "count", Lower),
    m("core.build_ms", "ms", Lower),
    m("core.build.sort_ms", "ms", Lower),
    m("core.build.index_ms", "ms", Lower),
    m("core.build.dict_ms", "ms", Lower),
    m("core.rep_bytes.tri_lo", "B", Lower),
    m("core.rep_bytes.tri_hi", "B", Lower),
    m("core.rep_bytes.p3", "B", Lower),
    m("core.dict_entries.tri_lo", "count", Lower),
    m("core.dict_entries.tri_hi", "count", Lower),
    m("core.tree_nodes.tri_lo", "count", Lower),
    m("core.tree_nodes.tri_hi", "count", Lower),
    m("core.enum.ns_per_answer", "ns", Lower),
    m("core.enum.first_answer_us_p50", "us", Lower),
    m("core.enum.work_per_answer", "count", Lower),
    m("join.seeks_per_answer", "count", Lower),
    m("core.enum.allocs_per_answer", "count", Lower),
    m("core.enum.delay_work_max.tri_lo", "count", Lower),
    m("core.enum.delay_work_max.tri_hi", "count", Lower),
    m("factorized.rep_bytes", "B", Lower),
    m("factorized.enum.ns_per_answer", "ns", Lower),
    m("engine.register_ms", "ms", Lower),
    m("engine.register.overhead_ms", "ms", Lower),
    m("engine.serve.ns_per_answer", "ns", Lower),
    m("engine.serve.self_ns_per_answer", "ns", Lower),
    m("engine.serve.request_overhead_us_p50", "us", Lower),
    m("engine.sharded.self_ns_per_answer", "ns", Lower),
    m("engine.catalog.hit_share", "ratio", Higher),
    m("engine.catalog.builds", "count", Lower),
    m("engine.update.maintained_share", "ratio", Higher),
    m("engine.update.rebuilt_share", "ratio", Lower),
    m("engine.update.restamped_share", "ratio", Higher),
    m("core.maintain.us_p50", "us", Lower),
    m("engine.read_after_update_us_p50", "us", Lower),
    m("common.merge.ns_per_answer", "ns", Lower),
    m("common.frame.encode_ns_per_answer", "ns", Lower),
    m("common.frame.decode_ns_per_answer", "ns", Lower),
    m("common.frame.bytes_per_answer", "B", Lower),
    m("net.shard.ns_per_answer", "ns", Lower),
    m("net.router.self_ns_per_answer", "ns", Lower),
    m("net.rtt_us_p50", "us", Lower),
    m("net.request.overhead_us_p50", "us", Lower),
    m("net.wire_bytes_per_request", "B", Lower),
    m("net.admission.shed_share", "ratio", Lower),
    m("net.retries", "count", Lower),
    m("net.failovers", "count", Lower),
    m("durable.log_us_p50", "us", Lower),
    m("durable.wal_bytes_per_delta_tuple", "B", Lower),
    m("durable.checkpoint_ms", "ms", Lower),
    m("durable.recover_ms", "ms", Lower),
    m("trace.overhead_share", "ratio", Lower),
    m("trace.unattributed_share", "ratio", Lower),
];

/// Host readings, appended to the per-layer table.
pub const HOST: [MetricDef; 2] = [
    m("host.foreign_cpu_share", "ratio", Lower),
    m("host.clean_passes", "count", Higher),
];

/// What a `--trace 1` result carries: `per_layer` of `BENCHMARK.json`.
pub const TRACED: &[&[MetricDef]] = &[&TIMINGS, &PER_LAYER, &HOST];
pub const ALL: &[&[MetricDef]] = &[&END_TO_END, &TIMINGS, &PER_LAYER, &HOST];

/// Metric values by name; a name outside the tables is a typo and panics.
#[derive(Debug)]
pub struct Values {
    values: BTreeMap<&'static str, f64>,
}

impl Values {
    /// Every metric of `groups`, at 0 until set.
    pub fn new(groups: &[&[MetricDef]]) -> Values {
        let values = groups
            .iter()
            .flat_map(|g| g.iter())
            .map(|d| (d.name, 0.0))
            .collect();
        Values { values }
    }

    pub fn set(&mut self, name: &str, value: f64) {
        let slot = self
            .values
            .get_mut(name)
            .unwrap_or_else(|| panic!("`{name}` is not in the metric table"));
        *slot = value;
    }

    pub fn get(&self, name: &str) -> f64 {
        self.values[name]
    }

    /// The contract's result line: exactly `correct`, `attempted`,
    /// `failed` and `metrics`, the latter holding the metrics of `groups`.
    pub fn result_line(
        &self,
        groups: &[&[MetricDef]],
        correct: bool,
        attempted: usize,
        failed: usize,
    ) -> String {
        let metrics: Vec<String> = groups
            .iter()
            .flat_map(|g| g.iter())
            .map(|d| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    d.name,
                    json_number(self.get(d.name)),
                    d.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
            metrics.join(", ")
        )
    }
}

/// A float as JSON: all its digits, and never `NaN` or `inf`.
pub fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn declared(section: &str) -> Vec<(String, String, String)> {
        let text = include_str!("../../BENCHMARK.json");
        let start = text.find(&format!("\"{section}\"")).expect("section");
        let body = &text[start..];
        let body = &body[..body.find(']').expect("section end")];
        let field = |obj: &str, key: &str| {
            let at = obj.find(&format!("\"{key}\"")).expect(key) + key.len() + 2;
            let rest = &obj[at..];
            let open = rest.find('"').unwrap() + 1;
            let close = open + rest[open..].find('"').unwrap();
            rest[open..close].to_string()
        };
        body.split('{')
            .skip(1)
            .map(|obj| (field(obj, "name"), field(obj, "unit"), field(obj, "better")))
            .collect()
    }

    fn table(defs: &[&[MetricDef]]) -> Vec<(String, String, String)> {
        defs.iter()
            .flat_map(|d| d.iter())
            .map(|d| {
                let better = if d.better == Lower { "lower" } else { "higher" };
                (d.name.to_string(), d.unit.to_string(), better.to_string())
            })
            .collect()
    }

    #[test]
    fn benchmark_json_declares_exactly_these_metrics() {
        assert_eq!(declared("end_to_end"), table(&[&END_TO_END]));
        assert_eq!(declared("per_layer"), table(TRACED));
    }

    #[test]
    fn result_line_has_the_four_keys_and_every_metric() {
        let mut v = Values::new(ALL);
        v.set("setup_s", 0.8127);
        let line = v.result_line(&[&END_TO_END], true, 1000, 0);
        assert!(line
            .starts_with("{\"correct\": true, \"attempted\": 1000, \"failed\": 0, \"metrics\": {"));
        assert!(line.contains("\"setup_s\": {\"value\": 0.8127, \"unit\": \"s\"}"));
        assert_eq!(line.matches("\"unit\"").count(), END_TO_END.len());
    }

    #[test]
    #[should_panic(expected = "not in the metric table")]
    fn a_misspelt_metric_panics() {
        Values::new(ALL).set("setup_ms", 1.0);
    }
}
