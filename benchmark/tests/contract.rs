//! `BENCHMARK.json` and the program must name the same things.

use std::collections::BTreeSet;

use apuama_benchmark::json::Json;
use apuama_benchmark::metrics::END_TO_END;
use apuama_benchmark::run::{run, RunConfig, DEFAULT_SECONDS};
use apuama_benchmark::workload::Workload;

fn benchmark_json() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json sits at the repository root");
    Json::parse(&text).expect("BENCHMARK.json is JSON")
}

/// The objects of the array under `key`.
fn entries<'a>(doc: &'a Json, key: &str) -> &'a [Json] {
    doc.get(key).and_then(Json::items).expect(key)
}

fn text<'a>(entry: &'a Json, key: &str) -> &'a str {
    entry.get(key).and_then(Json::as_str).expect(key)
}

#[test]
fn workloads_run_length_and_end_to_end_metrics_match_the_program() {
    let doc = benchmark_json();
    let workloads: Vec<&str> = entries(&doc, "workloads")
        .iter()
        .map(|e| text(e, "name"))
        .collect();
    let ours: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(workloads, ours);
    assert_eq!(
        doc.get("run_seconds").and_then(Json::as_u64),
        Some(DEFAULT_SECONDS)
    );

    let declared = entries(&doc, "end_to_end");
    assert_eq!(declared.len(), END_TO_END.len());
    for (entry, def) in declared.iter().zip(&END_TO_END) {
        assert_eq!(text(entry, "name"), def.name);
        assert_eq!(text(entry, "unit"), def.unit);
        let better = if def.higher_is_better {
            "higher"
        } else {
            "lower"
        };
        assert_eq!(text(entry, "better"), better, "{}", def.name);
        assert_eq!(
            entry.get("bound").and_then(Json::as_f64),
            Some(def.bound),
            "{}",
            def.name
        );
    }
}

#[test]
fn a_traced_run_reports_exactly_the_declared_per_layer_metrics() {
    let doc = benchmark_json();
    let declared: BTreeSet<(String, String)> = entries(&doc, "per_layer")
        .iter()
        .map(|e| (text(e, "name").to_string(), text(e, "unit").to_string()))
        .collect();
    let report = run(&RunConfig {
        workload: Workload::OltpPassthrough,
        seed: 1,
        seconds: 1.0,
        trace: true,
        smoke: true,
    });
    let reported: BTreeSet<(String, String)> = report
        .per_layer
        .iter()
        .map(|m| (m.name.clone(), m.unit.to_string()))
        .collect();
    assert_eq!(
        reported.len(),
        report.per_layer.len(),
        "a name is used twice"
    );
    assert_eq!(declared, reported);
    assert!(report.per_layer.iter().all(|m| m.value.is_finite()));
}
