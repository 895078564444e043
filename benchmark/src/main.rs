use std::process::ExitCode;

use apuama_benchmark::run::{run, RunConfig, DEFAULT_SECONDS};
use apuama_benchmark::workload::Workload;
use apuama_benchmark::{aa, report};

const USAGE: &str = "\
usage: apuama-benchmark --workload <name> [--seed N] [--seconds S] [--trace 0|1] [--smoke]
       apuama-benchmark --aa [N] [--workload <name>] [--seconds S]
workloads: olap_power olap_streams mixed_refresh oltp_passthrough";

const DEFAULT_SEED: u64 = 1;
const DEFAULT_AA_RUNS: usize = 5;

struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: u64,
    trace: bool,
    smoke: bool,
    aa: Option<usize>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
        smoke: false,
        aa: None,
    };
    let mut it = std::env::args().skip(1).peekable();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| it.next().ok_or(format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => {
                let name = value("a workload name")?;
                args.workload =
                    Some(Workload::parse(&name).ok_or(format!("unknown workload {name}"))?);
            }
            "--seed" => {
                args.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                args.seconds = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if args.seconds == 0 {
                    return Err("--seconds must be at least 1".into());
                }
            }
            "--trace" => {
                args.trace = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other}")),
                };
            }
            "--smoke" => args.smoke = true,
            "--aa" => {
                let runs = match it.peek().and_then(|v| v.parse::<usize>().ok()) {
                    Some(n) => {
                        it.next();
                        n
                    }
                    None => DEFAULT_AA_RUNS,
                };
                if runs < 2 {
                    return Err("--aa needs at least 2 runs per set".into());
                }
                args.aa = Some(runs);
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if let Some(runs) = args.aa {
        let workloads = args.workload.map_or(Workload::ALL.to_vec(), |w| vec![w]);
        return match aa::run(&workloads, runs, args.seconds) {
            Ok(true) => ExitCode::SUCCESS,
            Ok(false) => ExitCode::FAILURE,
            Err(e) => {
                eprintln!("{e}");
                ExitCode::from(2)
            }
        };
    }
    let Some(workload) = args.workload else {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    };
    let report = run(&RunConfig {
        workload,
        seed: args.seed,
        seconds: args.seconds as f64,
        trace: args.trace,
        smoke: args.smoke,
    });
    eprint!("{}", report::describe(&report));
    if !report.guard.is_empty() {
        // An under-sampled cell is not a measurement: no result line.
        return ExitCode::from(3);
    }
    let metrics = if args.trace {
        &report.per_layer
    } else {
        &report.end_to_end
    };
    let tally = &report.samples.tally;
    println!(
        "{}",
        report::summary_json(report.correct(), tally.attempted, tally.failed, metrics)
    );
    ExitCode::SUCCESS
}
