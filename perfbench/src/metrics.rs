//! The metric catalogue and the result line.
//!
//! Every metric names its clock: *host* time is what the CPU spent,
//! *host@ref* is host time scaled to the reference host's speed
//! ([`crate::calib`]), *sim* time is the protocol model's simulated clock,
//! and counts and ratios have no clock. `BENCHMARK.json` lists the same metrics with the same
//! units; a unit test holds the two together.

use std::fmt::Write as _;

/// The clock a metric is read on.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Clock {
    /// Host wall time (or derived from it).
    Host,
    /// Host wall time scaled to the reference host's speed.
    HostAtReference,
    /// The simulated protocol clock: a pure function of the seed.
    Sim,
    /// A count, size or ratio of counts.
    None,
}

impl Clock {
    fn name(self) -> &'static str {
        match self {
            Clock::Host => "host",
            Clock::HostAtReference => "host@ref",
            Clock::Sim => "sim",
            Clock::None => "-",
        }
    }
}

/// One catalogued metric.
#[derive(Clone, Copy, Debug)]
pub struct MetricDef {
    /// Name as printed and as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit as printed.
    pub unit: &'static str,
    /// The clock it is read on.
    pub clock: Clock,
}

const fn def(name: &'static str, unit: &'static str, clock: Clock) -> MetricDef {
    MetricDef { name, unit, clock }
}

/// End-to-end metrics: printed by every untraced run (`--trace 0`).
pub const END_TO_END: &[MetricDef] = &[
    def("setup_s", "s", Clock::HostAtReference),
    def("pay_per_s", "payments/s", Clock::HostAtReference),
    def("rss_peak_mb", "MiB", Clock::Host),
    def("ok_ratio", "ratio", Clock::None),
    def("admit_ratio", "ratio", Clock::None),
    def("accept_sim_p50_s", "s", Clock::Sim),
    def("accept_sim_p99_s", "s", Clock::Sim),
];

/// Per-layer metrics: printed by every traced run (`--trace 1`).
pub const PER_LAYER: &[MetricDef] = &[
    def("core.session_new_ms", "ms", Clock::Host),
    def("core.round_ms_p50", "ms", Clock::Host),
    def("core.round_ms_p99", "ms", Clock::Host),
    def("core.round_growth", "ratio", Clock::Host),
    def("core.evaluate_offer_us", "us", Clock::Host),
    def("core.idle_advance_ms", "ms", Clock::Host),
    def("core.admission_offered", "count", Clock::None),
    def("core.admission_shed", "count", Clock::None),
    def("core.queue_depth_max", "count", Clock::None),
    def("core.dispute_op_ms", "ms", Clock::Host),
    def("core.dispute_ms_p50", "ms", Clock::Host),
    def("core.dispute_ms_p95", "ms", Clock::Host),
    def("core.dispute_per_s", "ops/s", Clock::Host),
    def("core.dispute_sim_p50_s", "s", Clock::Sim),
    def("core.busy_ms", "ms", Clock::Host),
    def("btcsim.tx_build_us", "us", Clock::Host),
    def("btcsim.mempool_insert_us", "us", Clock::Host),
    def("btcsim.block_ms", "ms", Clock::Host),
    def("btcsim.blocks_mined", "count", Clock::None),
    def("btcsim.utxo_entries", "count", Clock::None),
    def("btcsim.busy_ms", "ms", Clock::Host),
    def("pscsim.submit_us", "us", Clock::Host),
    def("pscsim.block_ms", "ms", Clock::Host),
    def("pscsim.commitment_ms_first", "ms", Clock::Host),
    def("pscsim.commitment_ms_last", "ms", Clock::Host),
    def("pscsim.blocks", "count", Clock::None),
    def("pscsim.empty_blocks", "count", Clock::None),
    def("pscsim.gas_per_payment", "gas", Clock::None),
    def("pscsim.busy_ms", "ms", Clock::Host),
    def("payjudger.open_build_us", "us", Clock::Host),
    def("payjudger.batch_verify_us", "us", Clock::Host),
    def("payjudger.batch_items_mean", "count", Clock::None),
    def("payjudger.batch_bisections", "count", Clock::None),
    def("payjudger.headers_verified", "count", Clock::None),
    def("payjudger.cache_hit_ratio", "ratio", Clock::None),
    def("payjudger.dispute_gas", "gas", Clock::None),
    def("payjudger.busy_ms", "ms", Clock::Host),
    def("crypto.pubkey_cache_hit_ratio", "ratio", Clock::None),
    def("store.journal_us", "us", Clock::Host),
    def("store.recover_ms_first", "ms", Clock::Host),
    def("store.recover_ms_last", "ms", Clock::Host),
    def("store.wal_bytes", "bytes", Clock::None),
    def("store.recoveries", "count", Clock::None),
    def("store.busy_ms", "ms", Clock::Host),
    def("netsim.sent", "count", Clock::None),
    def("netsim.retransmissions", "count", Clock::None),
    def("netsim.failed", "count", Clock::None),
    def("netsim.delivered_ratio", "ratio", Clock::None),
    def("netsim.backoff_wait_sim_s", "s", Clock::Sim),
    def("netsim.busy_ms", "ms", Clock::Host),
    def("obs.trace_events", "count", Clock::None),
    def("obs.trace_dropped", "count", Clock::None),
    def("obs.render_ms", "ms", Clock::Host),
    def("obs.busy_ms", "ms", Clock::Host),
    def("bench.trace_overhead", "ratio", Clock::Host),
    def("bench.unattributed_ms", "ms", Clock::Host),
    def("bench.traced_ms", "ms", Clock::Host),
];

/// Is `name` a legal metric name: `[A-Za-z0-9_.-]+`, starting with a
/// letter or digit, at most 64 characters?
pub fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// The measured values of one run, keyed by catalogue name.
#[derive(Debug, Default)]
pub struct Values(Vec<(&'static str, f64)>);

impl Values {
    /// Records `name = value`.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.0.push((name, value));
    }

    /// The value recorded for `name`.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _)| *n == name).map(|(_, v)| *v)
    }

    /// Checks that exactly the `catalogue` metrics were recorded, once
    /// each, with finite values.
    pub fn check_complete(&self, catalogue: &[MetricDef]) -> Result<(), String> {
        for (name, value) in &self.0 {
            if !valid_name(name) {
                return Err(format!("metric name {name:?} is malformed"));
            }
            if !catalogue.iter().any(|m| m.name == *name) {
                return Err(format!("metric {name} is not catalogued"));
            }
            if !value.is_finite() {
                return Err(format!("metric {name} is {value}"));
            }
        }
        for metric in catalogue {
            match self.0.iter().filter(|(n, _)| *n == metric.name).count() {
                1 => {}
                0 => return Err(format!("metric {} was not measured", metric.name)),
                _ => return Err(format!("metric {} was measured twice", metric.name)),
            }
        }
        Ok(())
    }
}

/// A finished run's result.
#[derive(Debug)]
pub struct RunResult {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// The measured metrics.
    pub values: Values,
}

/// Renders the human-readable table: one metric a line with its unit and
/// clock, in catalogue order.
pub fn render_table(catalogue: &[MetricDef], values: &Values) -> String {
    let mut out = String::new();
    for metric in catalogue {
        let value = values.get(metric.name).unwrap_or(f64::NAN);
        let _ = writeln!(
            out,
            "{:<32} {:>18} {:<11} {}",
            metric.name,
            value,
            metric.unit,
            metric.clock.name()
        );
    }
    out
}

/// Renders the result line: one JSON object with exactly the keys
/// `correct`, `attempted`, `failed` and `metrics`.
pub fn render_result(correct: bool, result: &RunResult, catalogue: &[MetricDef]) -> String {
    let mut metrics = Vec::new();
    for metric in catalogue {
        if let Some(value) = result.values.get(metric.name) {
            metrics.push(format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                metric.name,
                json_number(value),
                metric.unit
            ));
        }
    }
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        result.attempted,
        result.failed,
        metrics.join(", ")
    )
}

/// A finite `f64` as a JSON number with every digit Rust's shortest
/// round-trip formatting gives it.
fn json_number(value: f64) -> String {
    let text = format!("{value}");
    if text.contains(['.', 'e', 'E']) {
        text
    } else {
        format!("{text}.0")
    }
}

/// Peak resident set of this process (`VmHWM`), MiB.
///
/// # Errors
///
/// When `/proc/self/status` is unreadable or has no `VmHWM` line.
pub fn rss_peak_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    let kib: f64 = status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{parse, Json};

    fn benchmark_json() -> Json {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        parse(&text).expect("BENCHMARK.json parses")
    }

    fn listed<'a>(doc: &'a Json, key: &str) -> Vec<(&'a str, &'a str)> {
        doc.get(key)
            .and_then(Json::as_array)
            .expect("metric list")
            .iter()
            .map(|m| {
                (
                    m.get("name").and_then(Json::as_str).expect("name"),
                    m.get("unit").and_then(Json::as_str).expect("unit"),
                )
            })
            .collect()
    }

    #[test]
    fn every_metric_name_is_well_formed_and_unique() {
        let mut seen = std::collections::HashSet::new();
        for metric in END_TO_END.iter().chain(PER_LAYER) {
            assert!(valid_name(metric.name), "bad name {}", metric.name);
            assert!(seen.insert(metric.name), "duplicate {}", metric.name);
            assert!(!metric.unit.is_empty() && metric.unit.len() <= 16);
            assert!(metric
                .unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
        assert!(!valid_name("core.busy ms"));
        assert!(!valid_name(".core"));
        assert!(!valid_name(""));
    }

    #[test]
    fn the_command_prints_exactly_the_metrics_benchmark_json_lists() {
        let doc = benchmark_json();
        let catalogued =
            |c: &[MetricDef]| -> Vec<(&str, &str)> { c.iter().map(|m| (m.name, m.unit)).collect() };
        assert_eq!(listed(&doc, "end_to_end"), catalogued(END_TO_END));
        assert_eq!(listed(&doc, "per_layer"), catalogued(PER_LAYER));
        let workloads: Vec<&str> = doc
            .get("workloads")
            .and_then(Json::as_array)
            .expect("workloads")
            .iter()
            .map(|w| w.get("name").and_then(Json::as_str).expect("workload name"))
            .collect();
        let ours: Vec<&str> = crate::workload::Workload::LISTED
            .iter()
            .map(|w| w.name())
            .collect();
        assert_eq!(workloads, ours);
    }

    #[test]
    fn incomplete_or_unknown_metrics_are_refused() {
        let mut values = Values::default();
        for metric in END_TO_END {
            values.set(metric.name, 1.0);
        }
        assert_eq!(values.check_complete(END_TO_END), Ok(()));
        values.set("setup_s", 2.0);
        assert!(values.check_complete(END_TO_END).is_err());
        let mut partial = Values::default();
        partial.set("setup_s", 1.0);
        assert!(partial.check_complete(END_TO_END).is_err());
        let mut nan = Values::default();
        for metric in END_TO_END {
            nan.set(metric.name, f64::NAN);
        }
        assert!(nan.check_complete(END_TO_END).is_err());
    }

    #[test]
    fn the_result_line_is_one_json_object_with_the_four_keys() {
        let mut values = Values::default();
        values.set("setup_s", 0.8127);
        values.set("ok_ratio", 1.0);
        let line = render_result(
            true,
            &RunResult {
                attempted: 1000,
                failed: 0,
                values,
            },
            END_TO_END,
        );
        assert!(!line.contains('\n'));
        let doc = parse(&line).expect("result line parses");
        let keys: Vec<&str> = doc.keys().collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let setup = doc.get("metrics").and_then(|m| m.get("setup_s")).unwrap();
        assert_eq!(setup.get("value").and_then(Json::as_f64), Some(0.8127));
        assert_eq!(setup.get("unit").and_then(Json::as_str), Some("s"));
        assert!(line.contains("\"ok_ratio\": {\"value\": 1.0,"));
    }
}
