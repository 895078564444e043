//! The end-to-end metrics: definitions, estimators, sampling guard.

use std::collections::BTreeSet;

use crate::stats::{geomean, mean, median};
use crate::workload::{Samples, Workload};

/// A reported number.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
        Metric {
            name: name.into(),
            value,
            unit,
        }
    }
}

/// An end-to-end metric as `BENCHMARK.json` declares it.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub higher_is_better: bool,
    /// Share of the parent's median by which it may get worse.
    pub bound: f64,
    /// By what power of the host's memory latency the metric moves, fitted
    /// over runs of one build (README, "The host's memory"); 0 where it
    /// does not.
    pub memory_elasticity: f64,
    /// Workloads on which a later change may claim a gain in this metric;
    /// on the others it is expected flat.
    pub claimable_on: &'static [Workload],
}

use Workload::{MixedRefresh, OlapPower, OlapStreams, OltpPassthrough};

// Every timing has the widest bound the benchmark's contract allows: with
// the memory latency taken out, ten runs of one build still spread 2 to
// 11 % on the reference host, and a bound has to be three times that.
pub const END_TO_END: [EndToEnd; 6] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        higher_is_better: false,
        // One sample per run: the cap on all runs together leaves no room
        // for a second set-up.
        bound: 0.25,
        memory_elasticity: 0.6,
        claimable_on: &Workload::ALL,
    },
    EndToEnd {
        name: "rss_peak_mb",
        unit: "MB",
        higher_is_better: false,
        bound: 0.10,
        memory_elasticity: 0.0,
        claimable_on: &Workload::ALL,
    },
    EndToEnd {
        name: "olap_pass_ms",
        unit: "ms",
        higher_is_better: false,
        bound: 0.25,
        memory_elasticity: 0.7,
        claimable_on: &[OlapPower, OlapStreams, MixedRefresh],
    },
    EndToEnd {
        name: "olap_geomean_ms",
        unit: "ms",
        higher_is_better: false,
        bound: 0.25,
        memory_elasticity: 0.85,
        claimable_on: &[OlapPower, OlapStreams],
    },
    EndToEnd {
        name: "olap_qpm",
        unit: "1/min",
        higher_is_better: true,
        bound: 0.25,
        memory_elasticity: 0.7,
        claimable_on: &[OlapStreams, MixedRefresh],
    },
    EndToEnd {
        name: "point_read_us",
        unit: "us",
        higher_is_better: false,
        bound: 0.25,
        memory_elasticity: 0.45,
        claimable_on: &[OltpPassthrough],
    },
];

/// The memory latency at which timings are reported, in ns per dependent
/// load of `host::MemoryProbe`: what the reference host shows when its
/// neighbours are quiet.
pub const REFERENCE_MEM_LATENCY_NS: f64 = 220.0;

impl EndToEnd {
    /// What the metric would have read had the host's memory answered in
    /// [`REFERENCE_MEM_LATENCY_NS`] during the run and not in
    /// `mem_latency_ns`. The one metric where higher is better is a rate,
    /// so it moves the other way.
    pub fn at_reference_latency(&self, measured: f64, mem_latency_ns: f64) -> f64 {
        let slowdown = (mem_latency_ns / REFERENCE_MEM_LATENCY_NS).powf(self.memory_elasticity);
        if self.higher_is_better {
            measured * slowdown
        } else {
            measured / slowdown
        }
    }
}

/// Minimum samples behind every end-to-end cell of a full run, and the
/// refresh transactions without which a pass or a read was not measured in
/// the traffic its workload names.
pub const MIN_PASSES_PER_STREAM: usize = 25;
pub const MIN_SHORT_OPERATIONS: u64 = 2_000;
pub const MIN_REFRESH_TXNS: usize = 300;
/// Shorter set-ups spread 19–60 % run to run on the reference host. A
/// run below it still reports (a faster load is a gain, not a fault) and
/// says on stderr that `setup_s` is under-sampled.
pub const MIN_SETUP_S: f64 = 2.0;

/// `olap_pass_ms`: p50 over rounds of one pass, per stream, averaged over
/// the streams (streams run under different parameter sets, so pooling
/// their passes would put the median between two modes).
pub fn olap_pass_ms(samples: &Samples) -> f64 {
    let streams: BTreeSet<u64> = samples.passes.iter().map(|p| p.stream).collect();
    let per_stream: Vec<f64> = streams
        .iter()
        .map(|&s| median(&samples.passes_of(s)))
        .collect();
    mean(&per_stream)
}

/// `olap_geomean_ms`: geometric mean over (stream, query) of the p50
/// latency, so Q6 and Q14 count as much as Q21.
pub fn olap_geomean_ms(samples: &Samples) -> f64 {
    let cells: BTreeSet<(u64, usize)> = samples.queries.iter().map(|q| (q.0, q.1)).collect();
    let p50s: Vec<f64> = cells
        .iter()
        .map(|&(stream, query)| {
            let ms: Vec<f64> = samples
                .queries
                .iter()
                .filter(|q| q.0 == stream && q.1 == query)
                .map(|q| q.2)
                .collect();
            median(&ms)
        })
        .collect();
    geomean(&p50s)
}

/// `olap_qpm`: mean-based on purpose, to catch stalls the medians hide.
pub fn olap_qpm(samples: &Samples) -> f64 {
    samples.olap_queries as f64 / samples.olap_section_s * 60.0
}

/// `refresh_txn_ms`, a per-layer metric since its A/A (see README): p50 of
/// the insert transactions and p50 of the delete transactions, averaged.
/// Beside OLAP passes the latency is the wait for the query in progress,
/// spread from 3 to 200 ms, and the median of the 300 transactions a run
/// can send at 10 txn/s moves by 15 to 23 % from run to run. (Per kind, because an insert costs three times
/// a delete and the median of the pooled latencies falls between the two
/// modes; of single transactions, because under `mixed_refresh` the
/// latency is mostly lock wait and skewed, and averaging an insert with
/// its delete first moves the median into the flat part of the density.)
pub fn refresh_txn_ms(samples: &Samples) -> f64 {
    (median(&samples.refresh_insert_ms) + median(&samples.refresh_delete_ms)) / 2.0
}

/// The end-to-end metrics as the clients measured them, in [`END_TO_END`]
/// order.
pub fn as_measured(samples: &Samples, setup_s: f64, rss_peak_mb: f64) -> Vec<Metric> {
    let values = [
        setup_s,
        rss_peak_mb,
        olap_pass_ms(samples),
        olap_geomean_ms(samples),
        olap_qpm(samples),
        median(&samples.read_block_us),
    ];
    END_TO_END
        .iter()
        .zip(values)
        .map(|(def, value)| Metric::new(def.name, value, def.unit))
        .collect()
}

/// The end-to-end metrics as reported: [`as_measured`], at the reference
/// memory latency. The run's latency is the median of its readings.
pub fn end_to_end(measured: &[Metric], samples: &Samples) -> Vec<Metric> {
    let mem_latency_ns = median(&samples.mem_latency_ns);
    END_TO_END
        .iter()
        .zip(measured)
        .map(|(def, m)| {
            let value = def.at_reference_latency(m.value, mem_latency_ns);
            Metric::new(def.name, value, def.unit)
        })
        .collect()
}

/// The sampling guard: one message per end-to-end cell whose sample count
/// is below its minimum. A full run keeps going (within a cap) until there
/// is none, and refuses to report if there still is one.
pub fn guard(workload: Workload, samples: &Samples) -> Vec<String> {
    let mut misses = Vec::new();
    for &stream in workload.streams() {
        let n = samples.passes_of(stream).len();
        if n < MIN_PASSES_PER_STREAM {
            misses.push(format!(
                "stream {stream} completed {n} passes, needs {MIN_PASSES_PER_STREAM}"
            ));
        }
    }
    if samples.short_operations() < MIN_SHORT_OPERATIONS {
        misses.push(format!(
            "{} short operations, needs {MIN_SHORT_OPERATIONS}",
            samples.short_operations()
        ));
    }
    if samples.refresh_txns() < MIN_REFRESH_TXNS {
        misses.push(format!(
            "{} refresh transactions, needs {MIN_REFRESH_TXNS}",
            samples.refresh_txns()
        ));
    }
    misses
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::PassSample;

    fn samples(passes_per_stream: usize, streams: &[u64], reads: usize, refresh: usize) -> Samples {
        let mut s = Samples::new();
        for &stream in streams {
            for _ in 0..passes_per_stream {
                s.passes.push(PassSample {
                    stream,
                    ms: 100.0 + stream as f64 * 50.0,
                    traced: false,
                });
                s.queries.push((stream, 0, 10.0));
                s.queries.push((stream, 1, 1000.0));
            }
        }
        s.read_block_us = vec![40.0; reads / crate::inputs::READ_BLOCK];
        s.refresh_insert_ms = vec![0.3; refresh / 2];
        s.refresh_delete_ms = vec![0.1; refresh / 2];
        s
    }

    #[test]
    fn guard_names_every_under_sampled_cell() {
        let full = samples(25, &[1, 2], 2_000, 300);
        assert!(guard(Workload::OlapStreams, &full).is_empty());

        let thin = samples(24, &[1, 2], 1_000, 100);
        let misses = guard(Workload::OlapStreams, &thin);
        assert_eq!(misses.len(), 4, "{misses:?}");
        assert!(misses[0].contains("stream 1 completed 24 passes"));
        assert!(misses[3].contains("100 refresh transactions"));
        let reader_only = samples(25, &[0], 12_500, 0);
        assert_eq!(guard(Workload::MixedRefresh, &reader_only).len(), 1);
    }

    #[test]
    fn a_slow_host_is_taken_out_of_the_timings_and_of_nothing_else() {
        let by_name = |name: &str| END_TO_END.iter().find(|m| m.name == name).unwrap();
        let slow = REFERENCE_MEM_LATENCY_NS * 1.3;
        let pass = by_name("olap_pass_ms");
        assert_eq!(
            pass.at_reference_latency(500.0, REFERENCE_MEM_LATENCY_NS),
            500.0
        );
        let reported = pass.at_reference_latency(500.0 * 1.3f64.powf(0.7), slow);
        assert!((reported - 500.0).abs() < 1e-9);
        // A rate rises when the latency is taken out.
        assert!(by_name("olap_qpm").at_reference_latency(900.0, slow) > 900.0);
        assert_eq!(
            by_name("rss_peak_mb").at_reference_latency(800.0, slow),
            800.0
        );
    }

    #[test]
    fn estimators_do_not_pool_what_is_bimodal() {
        let s = samples(30, &[1, 2], 2_000, 300);
        // Per-stream medians 150 and 200, averaged.
        assert_eq!(olap_pass_ms(&s), 175.0);
        // Geometric mean over the four (stream, query) cells.
        assert!((olap_geomean_ms(&s) - 100.0).abs() < 1e-9);
        // Insert and delete medians, averaged: not the pooled median.
        assert!((refresh_txn_ms(&s) - 0.2).abs() < 1e-12);
    }
}
