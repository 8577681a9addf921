//! The repo benchmark.  See `benchmark/README.md` for what is measured
//! and why; `benchmark/run.sh` builds this and runs it.

mod affinity;
mod batch;
mod compare;
mod gen;
mod layers;
mod model;
mod program;
mod report;
mod serve;
mod spec;
mod stats;
mod trace;
mod verify;
mod wire;

use std::path::PathBuf;
use std::process::ExitCode;

/// Options of one workload run.
pub struct Args {
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
    /// One round, 5% of the operation counts, no bounds: a smoke run.
    pub quick: bool,
}

impl Args {
    /// Seconds the timed phase measures.  A traced run spends the rest
    /// of its time in the traced phase and the layer ladder.
    pub fn timed_seconds(&self) -> f64 {
        if self.quick {
            0.0
        } else if self.traced {
            self.seconds * 0.4
        } else {
            self.seconds
        }
    }
}

const USAGE: &str = "usage: run.sh [--workload NAME] [--seed N] [--seconds N] [--trace 0|1] \
                     [--quick] [--aa] [--out DIR] [--print-spec]
  no --workload   run every workload, one process each
  --aa            run the full set six times, as two interleaved sets of three,
                  and fail if an end-to-end median differs by more than its bound
  --quick         one round, 5% of the counts: checks outputs, not speed";

struct Cli {
    workload: Option<String>,
    args: Args,
    aa: bool,
    print_spec: bool,
    out: PathBuf,
}

fn parse(argv: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        workload: None,
        args: Args {
            seed: spec::DEFAULT_SEED,
            seconds: f64::from(spec::RUN_SECONDS),
            traced: false,
            quick: false,
        },
        aa: false,
        print_spec: false,
        out: PathBuf::from("benchmark/out"),
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs {what}"))
        };
        match flag.as_str() {
            "--workload" => cli.workload = Some(value("a workload name")?),
            "--seed" => {
                cli.args.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                let seconds: f64 = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds > 0.0 && seconds <= 60.0) {
                    return Err(format!("--seconds must be in (0, 60], got {seconds}"));
                }
                cli.args.seconds = seconds;
            }
            "--trace" => {
                cli.args.traced = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other}")),
                }
            }
            "--out" => cli.out = PathBuf::from(value("a directory")?),
            "--quick" => cli.args.quick = true,
            "--aa" => cli.aa = true,
            "--print-spec" => cli.print_spec = true,
            other => return Err(format!("unknown argument {other}\n{USAGE}")),
        }
    }
    if let Some(name) = &cli.workload {
        if spec::workload(name).is_none() {
            let names: Vec<&str> = spec::WORKLOADS.iter().map(|w| w.name).collect();
            return Err(format!(
                "unknown workload {name}; one of {}",
                names.join(", ")
            ));
        }
    }
    Ok(cli)
}

fn run_workload(name: &str, cli: &Cli) -> Result<bool, String> {
    let args = &cli.args;
    println!(
        "# workload {name} seed {} seconds {} trace {} quick {}",
        args.seed,
        args.seconds,
        u8::from(args.traced),
        args.quick
    );
    let report = match name {
        "batch_exact" => batch::run(&batch::BATCH_EXACT, args),
        "batch_memo_lo" => batch::run(&batch::BATCH_MEMO_LO, args),
        "batch_memo_hi" => batch::run(&batch::BATCH_MEMO_HI, args),
        "serve_open" => serve::run_open_workload(args),
        "serve_mixed" => serve::run_mixed_workload(args),
        other => Err(format!("unknown workload {other}")),
    }?;
    report::emit(
        &report,
        args.traced,
        args.seed,
        args.seconds,
        args.quick,
        &cli.out,
    )?;
    Ok(report.correct())
}

fn real_main() -> Result<bool, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let cli = parse(&argv)?;
    if cli.print_spec {
        print!("{}", spec::benchmark_json());
        return Ok(true);
    }
    match &cli.workload {
        Some(name) if !cli.aa => run_workload(name, &cli),
        _ => compare::run_sets(&argv, cli.workload.as_deref(), cli.aa),
    }
}

fn main() -> ExitCode {
    match real_main() {
        Ok(true) => ExitCode::SUCCESS,
        // A result line was printed and says what failed.
        Ok(false) => ExitCode::from(1),
        Err(message) => {
            eprintln!("nfm-benchmark: {message}");
            ExitCode::from(2)
        }
    }
}
