//! One benchmark run: set-up, rounds until the time is up, final checks,
//! and on a traced run the layer replay.

use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Instant;

use crate::cluster::{Cluster, SetupTiming, SCALE_FACTOR, SMOKE_SCALE_FACTOR};
use crate::host;
use crate::inputs;
use crate::layers::{self, Path, Replay};
use crate::metrics::{self, Metric};
use crate::oracle::check_convergence;
use crate::stats::{median, percentile};
use crate::trace::{self, Tracer};
use crate::workload::{Runner, Samples, Workload, REFRESH_RATE_PER_S};

#[derive(Debug, Clone, Copy)]
pub struct RunConfig {
    pub workload: Workload,
    pub seed: u64,
    /// Measured time; the round in progress is finished.
    pub seconds: f64,
    /// Record spans and replay the layers; reports the per-layer metrics.
    pub trace: bool,
    /// Tiny scale factor, two rounds, no sampling guard.
    pub smoke: bool,
}

/// Measured seconds of a run when `--seconds` is not given: the
/// `run_seconds` of `BENCHMARK.json` (`tests/contract.rs` holds the two
/// together).
pub const DEFAULT_SECONDS: u64 = 30;
/// Rounds of a `--smoke` run, and the length of its refresh schedule.
const SMOKE_ROUNDS: u64 = 2;
const SMOKE_REFRESH_S: f64 = 1.0;
/// A run whose cells are under-sampled when the time is up keeps going, up
/// to this multiple of `--seconds` (a run has 180 s in all): on the
/// reference host `olap_streams` completes 27 or 28 rounds in 30 s and needs 25,
/// and the host has minutes in which its two vCPUs do the work of one.
const MAX_OVERRUN: f64 = 3.0;
/// A traced run spends this share of `--seconds` on traced rounds and the
/// rest on the layer replay.
const TRACED_ROUNDS_SHARE: f64 = 0.7;
/// The warm-up round draws its inputs from a round number no measured
/// round reaches.
const WARMUP_ROUND: u64 = u64::MAX / 2;

pub struct RunReport {
    pub config: RunConfig,
    pub samples: Samples,
    pub rounds: u64,
    pub measured_s: f64,
    pub setup_s: f64,
    pub timing: SetupTiming,
    /// Violations of the convergence and baseline checks.
    pub problems: Vec<String>,
    /// Under-sampled end-to-end cells (always empty on a smoke run).
    pub guard: Vec<String>,
    /// The end-to-end metrics as the clients measured them, and as reported:
    /// at the reference memory latency.
    pub as_measured: Vec<Metric>,
    pub end_to_end: Vec<Metric>,
    /// Traced runs only.
    pub per_layer: Vec<Metric>,
    /// Traced runs only: share of time per layer in one operation of each
    /// kind, and in this workload's OLTP section.
    pub shares: Vec<(&'static str, Path)>,
    pub trace_file: Option<PathBuf>,
}

impl RunReport {
    pub fn correct(&self) -> bool {
        self.samples.tally.failed == 0 && self.problems.is_empty()
    }

    pub fn per_layer_value(&self, name: &str) -> Option<f64> {
        self.per_layer
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }
}

/// Where trace files go: `out/` beside this package's manifest.
pub fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

fn measure(
    config: &RunConfig,
    runner: &Runner,
    tracer: Option<&Tracer>,
    probe: &mut host::MemoryProbe,
) -> (Samples, u64, f64) {
    let budget_s = if config.trace {
        config.seconds * TRACED_ROUNDS_SHARE
    } else {
        config.seconds
    };
    // `stream_over` is `mixed_refresh`'s: its rounds last as long as the
    // refresh stream beside them does.
    let mut rounds = |samples: &mut Samples, stream_over: Option<&AtomicBool>| {
        let mut measured_s = 0.0;
        let mut round = 0;
        loop {
            // Odd rounds of a traced run record spans; even rounds are the
            // untraced baseline of `trace.overhead_pct`.
            let traced = tracer.filter(|_| round % 2 == 1);
            let outcome = runner.round(round, traced);
            // A smoke run has a fixed number of rounds, whatever the stream
            // does.
            if !config.smoke && stream_over.is_some_and(|over| over.load(Ordering::SeqCst)) {
                // Part of this round ran with no refresh stream beside it:
                // its statements count, its timings do not.
                samples.tally.merge(outcome.samples.tally);
                return (round, measured_s);
            }
            measured_s += outcome.measured_s;
            samples.merge(outcome.samples);
            samples.mem_latency_ns.push(probe.latency_ns());
            round += 1;
            let done = if config.smoke {
                round >= SMOKE_ROUNDS
            } else if stream_over.is_some() {
                false
            } else if config.trace {
                // A traced run needs a round of each kind.
                measured_s >= budget_s && round >= 2
            } else {
                // A full run needs its minimum sample counts.
                measured_s >= budget_s
                    && (metrics::guard(config.workload, samples).is_empty()
                        || measured_s >= budget_s * MAX_OVERRUN)
            };
            if done {
                return (round, measured_s);
            }
        }
    };
    let mut samples = Samples::new();
    let (round, measured_s) = if config.workload == Workload::MixedRefresh {
        // The open loop's schedule is wall time, fixed in advance.
        let schedule_s = if config.smoke {
            SMOKE_REFRESH_S
        } else {
            budget_s
        };
        let txns = (schedule_s * REFRESH_RATE_PER_S).round() as usize;
        let stream = inputs::mixed_refresh_stream(&runner.cluster.tpch, txns, config.seed);
        let stream_over = AtomicBool::new(false);
        let epoch = Instant::now();
        std::thread::scope(|s| {
            let writer = s.spawn(|| {
                let sent = runner.refresh_writer(&stream, epoch);
                stream_over.store(true, Ordering::SeqCst);
                sent
            });
            let done = rounds(&mut samples, Some(&stream_over));
            samples.merge(writer.join().expect("refresh writer panicked"));
            done
        })
    } else {
        rounds(&mut samples, None)
    };
    (samples, round, measured_s)
}

fn per_layer_metrics(
    config: &RunConfig,
    cluster: &Cluster,
    samples: &Samples,
    replay: &Replay,
    tracer: &Tracer,
    calib_ms: f64,
) -> Vec<Metric> {
    let mut m = vec![
        Metric::new("tpch.generate_s", cluster.timing.generate_s, "s"),
        Metric::new("storage.load_s", cluster.timing.load_s, "s"),
        Metric::new("storage.pages_total", cluster.pages_total() as f64, "count"),
    ];
    m.extend(replay.metrics.iter().cloned());

    let refresh_p50 = metrics::refresh_txn_ms(samples);
    let short_us = if samples.short_aggregate_us.is_empty() {
        replay.svp_short_us
    } else {
        median(&samples.short_aggregate_us)
    };
    m.extend([
        Metric::new("refresh_txn_ms", refresh_p50, "ms"),
        Metric::new("client.svp_short_us", short_us, "us"),
        Metric::new(
            "core.write_wait_ms",
            refresh_p50 - replay.uncontended_refresh_ms,
            "ms",
        ),
        Metric::new(
            "client.refresh_txn_ms_p90",
            percentile(&samples.refresh_txn_ms(), 0.9),
            "ms",
        ),
        Metric::new(
            "client.refresh_send_lag_ms_p90",
            if samples.send_lag_ms.is_empty() {
                0.0
            } else {
                percentile(&samples.send_lag_ms, 0.9)
            },
            "ms",
        ),
    ]);

    let (mut hits, mut misses) = (0u64, 0u64);
    let (mut pool_hits, mut pool_accesses) = (0u64, 0u64);
    for node in &cluster.nodes {
        node.with_db(|db| {
            let plans = db.plan_cache_stats();
            hits += plans.hits;
            misses += plans.misses;
            let pool = db.pool_stats();
            pool_hits += pool.hits;
            pool_accesses += pool.accesses();
        });
    }
    let governance = cluster.controller.governance_counts();
    m.extend([
        Metric::new(
            "engine.plan_cache_hit_ratio",
            hits as f64 / (hits + misses).max(1) as f64,
            "ratio",
        ),
        Metric::new(
            "cjdbc.recovery_log_entries",
            cluster.controller.recovery_log().len() as f64,
            "count",
        ),
        Metric::new("cjdbc.admitted", governance.admitted as f64, "count"),
        Metric::new("cjdbc.shed", governance.shed as f64, "count"),
        Metric::new(
            "storage.buffer_hit_ratio",
            pool_hits as f64 / pool_accesses.max(1) as f64,
            "ratio",
        ),
    ]);

    // Client-side diagnostics of the rounds.
    let first_stream = config.workload.streams()[0];
    let passes = samples.passes_of(first_stream);
    let drift = if passes.len() >= 10 {
        let head = median(&passes[..5]);
        let tail = median(&passes[passes.len() - 5..]);
        (tail / head - 1.0) * 100.0
    } else {
        0.0
    };
    let by_tracing = |traced: bool| {
        let ms: Vec<f64> = samples
            .passes
            .iter()
            .filter(|p| p.stream == first_stream && p.traced == traced)
            .map(|p| p.ms)
            .collect();
        median(&ms)
    };
    let traced_pass_ms = by_tracing(true);
    m.extend([
        Metric::new("client.olap_pass_ms_p90", percentile(&passes, 0.9), "ms"),
        Metric::new(
            "client.point_read_us_p99",
            percentile(&samples.read_us, 0.99),
            "us",
        ),
        Metric::new(
            "client.oltp_stmt_per_s",
            samples.oltp_statements as f64 / samples.oltp_section_s,
            "1/s",
        ),
        Metric::new("client.olap_pass_drift_pct", drift, "pct"),
        Metric::new("host.nproc", host::nproc() as f64, "count"),
        Metric::new("host.calib_ms", calib_ms, "ms"),
        Metric::new("host.mem_latency_ns", median(&samples.mem_latency_ns), "ns"),
        Metric::new(
            "trace.overhead_pct",
            (traced_pass_ms / by_tracing(false) - 1.0) * 100.0,
            "pct",
        ),
        Metric::new("trace.coverage", replay.coverage, "ratio"),
        Metric::new("trace.spans", tracer.span_count() as f64, "count"),
    ]);
    m
}

/// Share of each layer in the given paths, each weighted by how often the
/// operation ran. Layers are listed in order of first appearance.
fn shares(paths: &[(f64, &Path)]) -> Path {
    let mut by_layer = Path::new();
    for (weight, path) in paths {
        for &(layer, t) in path.iter() {
            match by_layer.iter_mut().find(|(l, _)| *l == layer) {
                Some(cell) => cell.1 += weight * t,
                None => by_layer.push((layer, weight * t)),
            }
        }
    }
    let total: f64 = by_layer.iter().map(|c| c.1).sum();
    by_layer.into_iter().map(|(l, t)| (l, t / total)).collect()
}

/// Runs the benchmark once.
pub fn run(config: &RunConfig) -> RunReport {
    // The benchmark's own, not the program's: outside `setup_s`.
    let mut probe = host::MemoryProbe::new();
    let setup_start = Instant::now();
    let scale_factor = if config.smoke {
        SMOKE_SCALE_FACTOR
    } else {
        SCALE_FACTOR
    };
    let cluster = Cluster::build(scale_factor);
    let runner = Runner::new(&cluster, config.workload, config.seed);
    // One untimed round, so caches are filled and lazy set-up (worker
    // pools, plan caches, the pooled composer) is done before timing.
    let warmup = runner.round(WARMUP_ROUND, None);
    let setup_s = setup_start.elapsed().as_secs_f64();

    // The calibration loop brackets the measured rounds only: at process
    // start the cores are cold and the heap small, which alone moves it.
    let calib_before = host::calibrate_ms();
    let tracer = config.trace.then(Tracer::new);
    let (mut samples, rounds, measured_s) = measure(config, &runner, tracer.as_ref(), &mut probe);
    let calib_after = host::calibrate_ms();
    samples.tally.merge(warmup.samples.tally);

    let replay = tracer.as_ref().map(|t| layers::replay(&cluster, t));

    // Final checks on the quiesced cluster. `mixed_refresh` could not
    // compare its answers while the refresh stream ran, so it compares one
    // last pass now that the stream has deleted all it inserted.
    let problems = check_convergence(&cluster.engine, &cluster.nodes, cluster.baseline);
    if config.workload == Workload::MixedRefresh {
        let checker = Runner::new(&cluster, Workload::OlapPower, config.seed);
        samples.tally.merge(checker.verified_pass());
    }

    if (calib_after / calib_before - 1.0).abs() > 0.10 {
        eprintln!(
            "warning: the host changed speed during the run (calibration loop {calib_before:.1} ms before, {calib_after:.1} ms after)"
        );
    }

    let guard = if config.smoke || config.trace {
        Vec::new()
    } else {
        if setup_s < metrics::MIN_SETUP_S {
            eprintln!(
                "warning: setup_s is under-sampled (set-up took {setup_s:.2} s; below {} s it does not repeat)",
                metrics::MIN_SETUP_S
            );
        }
        metrics::guard(config.workload, &samples)
    };
    let as_measured = metrics::as_measured(&samples, setup_s, host::rss_peak_mb());
    let end_to_end = metrics::end_to_end(&as_measured, &samples);
    let mut per_layer = Vec::new();
    let mut layer_shares = Vec::new();
    let mut trace_file = None;
    if let (Some(tracer), Some(replay)) = (tracer, replay) {
        per_layer = per_layer_metrics(
            config,
            &cluster,
            &samples,
            &replay,
            &tracer,
            (calib_before + calib_after) / 2.0,
        );
        // The OLTP section as this workload mixed it: each operation's
        // quiesced path, weighted by how many of them the rounds sent.
        let reads = (samples.read_block_us.len() * inputs::READ_BLOCK) as f64;
        let oltp_section = [
            (reads, &replay.point_read_path_us),
            (samples.refresh_txns() as f64, &replay.refresh_path_us),
            (
                samples.short_aggregate_us.len() as f64,
                &replay.short_aggregate_path_us,
            ),
        ];
        layer_shares = vec![
            ("OLAP pass", shares(&[(1.0, &replay.olap_path_ms)])),
            ("point read", shares(&[(1.0, &replay.point_read_path_us)])),
            (
                "refresh transaction",
                shares(&[(1.0, &replay.refresh_path_us)]),
            ),
            (
                "short SVP aggregate",
                shares(&[(1.0, &replay.short_aggregate_path_us)]),
            ),
            ("OLTP section of this workload", shares(&oltp_section)),
        ];
        let spans = tracer.into_spans();
        let path = out_dir().join(format!("trace_{}.json", config.workload.name()));
        let written = std::fs::create_dir_all(out_dir()).and_then(|()| {
            std::fs::write(
                &path,
                trace::to_json(config.workload.name(), config.seed, &spans),
            )
        });
        match written {
            Ok(()) => trace_file = Some(path),
            Err(e) => eprintln!("warning: could not write {}: {e}", path.display()),
        }
    }

    RunReport {
        config: *config,
        samples,
        rounds,
        measured_s,
        setup_s,
        timing: cluster.timing,
        problems,
        guard,
        as_measured,
        end_to_end,
        per_layer,
        shares: layer_shares,
        trace_file,
    }
}
