//! What a run prints: one JSON summary line on stdout, the rest on stderr.

use std::fmt::Write as _;

use crate::json::Json;
use crate::metrics::Metric;
use crate::run::RunReport;

/// The summary line: exactly the keys `correct`, `attempted`, `failed` and
/// `metrics`. Every value must be finite.
pub fn summary_json(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, m) in metrics.iter().enumerate() {
        assert!(m.value.is_finite(), "metric {} is {}", m.name, m.value);
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            out,
            "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name, m.value, m.unit
        );
    }
    out.push_str("}}");
    out
}

/// A summary line read back.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// `(name, value)` in the order printed.
    pub metrics: Vec<(String, f64)>,
}

pub fn parse_summary(line: &str) -> Option<Summary> {
    let doc = Json::parse(line)?;
    let metrics = doc
        .get("metrics")?
        .members()?
        .iter()
        .map(|(name, m)| Some((name.clone(), m.get("value")?.as_f64()?)))
        .collect::<Option<Vec<_>>>()?;
    Some(Summary {
        correct: doc.get("correct")?.as_bool()?,
        attempted: doc.get("attempted")?.as_u64()?,
        failed: doc.get("failed")?.as_u64()?,
        metrics,
    })
}

/// The human-readable account of a run, for stderr.
pub fn describe(report: &RunReport) -> String {
    let mut out = String::new();
    let c = &report.config;
    let s = &report.samples;
    let _ = writeln!(
        out,
        "{} seed {}: {} rounds in {:.1} s measured ({:.0} % OLTP sections), set-up {:.2} s \
         (generate {:.2}, load {:.2}, references {:.2})",
        c.workload.name(),
        c.seed,
        report.rounds,
        report.measured_s,
        100.0 * s.oltp_section_s / (s.oltp_section_s + s.olap_section_s),
        report.setup_s,
        report.timing.generate_s,
        report.timing.load_s,
        report.timing.references_s,
    );
    let _ = writeln!(
        out,
        "samples: {} passes, {} read blocks, {} refresh transactions, {} short aggregates; \
         statement hash {:016x}",
        s.passes.len(),
        s.read_block_us.len(),
        s.refresh_txns(),
        s.short_aggregate_us.len(),
        s.statement_hash,
    );
    let quantiles = |v: &[f64]| {
        [0.1, 0.25, 0.5, 0.75, 0.9]
            .iter()
            .map(|&p| format!("{:.3}", crate::stats::percentile(v, p)))
            .collect::<Vec<_>>()
            .join(" / ")
    };
    let _ = writeln!(
        out,
        "refresh latency p10/p25/p50/p75/p90: inserts {} ms, deletes {} ms",
        quantiles(&s.refresh_insert_ms),
        quantiles(&s.refresh_delete_ms),
    );
    let _ = writeln!(
        out,
        "host memory latency p10/p25/p50/p75/p90: {} ns; reported at {} ns",
        quantiles(&s.mem_latency_ns),
        crate::metrics::REFERENCE_MEM_LATENCY_NS,
    );
    for (m, measured) in report.end_to_end.iter().zip(&report.as_measured) {
        let _ = writeln!(
            out,
            "  {:<34} {:>14.4} {} (measured {:.4})",
            m.name, m.value, m.unit, measured.value
        );
    }
    for m in &report.per_layer {
        let _ = writeln!(out, "  {:<34} {:>14.4} {}", m.name, m.value, m.unit);
    }
    for (what, shares) in &report.shares {
        let cells: Vec<String> = shares
            .iter()
            .map(|(layer, share)| format!("{layer} {:.1} %", share * 100.0))
            .collect();
        let _ = writeln!(out, "layer share, {what}: {}", cells.join(", "));
    }
    if let Some(path) = &report.trace_file {
        let _ = writeln!(out, "spans written to {}", path.display());
    }
    for reason in s.tally.reasons.iter().chain(&report.problems) {
        let _ = writeln!(out, "FAILED: {reason}");
    }
    for miss in &report.guard {
        let _ = writeln!(out, "UNDER-SAMPLED: {miss}");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_round_trips() {
        let metrics = vec![
            Metric::new("latency_ms", 1.2034, "ms"),
            Metric::new("engine.q1_ms.kernel_off", 250.0, "ms"),
        ];
        let line = summary_json(true, 1000, 0, &metrics);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 1000, \"failed\": 0, \"metrics\": {\
             \"latency_ms\": {\"value\": 1.2034, \"unit\": \"ms\"}, \
             \"engine.q1_ms.kernel_off\": {\"value\": 250, \"unit\": \"ms\"}}}"
        );
        assert_eq!(
            parse_summary(&line),
            Some(Summary {
                correct: true,
                attempted: 1000,
                failed: 0,
                metrics: vec![
                    ("latency_ms".to_string(), 1.2034),
                    ("engine.q1_ms.kernel_off".to_string(), 250.0)
                ],
            })
        );
    }
}
