//! A run is a function of its seed: the same seed sends the same
//! statements and counts the same work; another seed sends other
//! statements.

use apuama_benchmark::inputs::{self, OltpShape};
use apuama_benchmark::run::{run, RunConfig};
use apuama_benchmark::workload::Workload;
use apuama_tpch::TpchConfig;

/// Counters the engine derives from the data and the plan alone; they must
/// not depend on thread timing.
const EXACT_COUNTERS: [&str; 3] = [
    "engine.rows_scanned_per_pass",
    "storage.page_accesses_per_pass",
    "core.partial_rows_per_pass",
];

fn smoke(workload: Workload, seed: u64, trace: bool) -> apuama_benchmark::run::RunReport {
    run(&RunConfig {
        workload,
        seed,
        seconds: 1.0,
        trace,
        smoke: true,
    })
}

#[test]
fn same_seed_same_statements_and_same_exact_counters() {
    let a = smoke(Workload::OlapPower, 11, true);
    let b = smoke(Workload::OlapPower, 11, true);
    assert!(a.correct() && b.correct(), "{:?}", a.samples.tally.reasons);
    assert_eq!(a.samples.statement_hash, b.samples.statement_hash);
    assert_eq!(a.samples.tally.attempted, b.samples.tally.attempted);
    for name in EXACT_COUNTERS {
        let (x, y) = (a.per_layer_value(name), b.per_layer_value(name));
        assert!(x.is_some_and(|v| v > 0.0), "{name} = {x:?}");
        assert_eq!(x, y, "{name}");
    }

    let c = smoke(Workload::OlapPower, 12, false);
    assert!(c.correct());
    assert_ne!(a.samples.statement_hash, c.samples.statement_hash);
    assert_eq!(a.samples.tally.attempted, c.samples.tally.attempted);
}

#[test]
fn every_workload_is_deterministic_and_correct_on_a_smoke_run() {
    for workload in [
        Workload::OlapStreams,
        Workload::MixedRefresh,
        Workload::OltpPassthrough,
    ] {
        let a = smoke(workload, 5, false);
        let b = smoke(workload, 5, false);
        assert!(
            a.correct(),
            "{}: {:?}",
            workload.name(),
            a.samples.tally.reasons
        );
        assert!(a.problems.is_empty(), "{:?}", a.problems);
        assert_eq!(
            a.samples.statement_hash,
            b.samples.statement_hash,
            "{}",
            workload.name()
        );
        assert_ne!(
            a.samples.statement_hash,
            smoke(workload, 6, false).samples.statement_hash,
            "{}",
            workload.name()
        );
    }
}

#[test]
fn generated_inputs_depend_on_seed_round_and_client_only() {
    let tpch = TpchConfig::new(0.002);
    let shape = OltpShape {
        reads: 50,
        refresh_pairs: 5,
        aggregates: 5,
    };
    let base = inputs::oltp_round(&tpch, shape, 3, 7, 0, 2);
    assert_eq!(base, inputs::oltp_round(&tpch, shape, 3, 7, 0, 2));
    assert_ne!(base, inputs::oltp_round(&tpch, shape, 4, 7, 0, 2));
    assert_ne!(base, inputs::oltp_round(&tpch, shape, 3, 8, 0, 2));
    assert_ne!(base, inputs::oltp_round(&tpch, shape, 3, 7, 1, 2));
    assert_eq!(
        inputs::mixed_refresh_stream(&tpch, 20, 3),
        inputs::mixed_refresh_stream(&tpch, 20, 3)
    );
    assert_ne!(
        inputs::mixed_refresh_stream(&tpch, 20, 3),
        inputs::mixed_refresh_stream(&tpch, 20, 4)
    );
}
