//! ```text
//! hermes-benchmark --workload W --seed N --seconds S --trace 0|1   one measurement; last stdout line is its JSON
//! hermes-benchmark [--seed N] [--seconds S] [--sets K] [--smoke]   all four workloads, both passes, report
//! ```

use std::process::ExitCode;

use hermes_benchmark::cli::{Cli, Mode, USAGE};
use hermes_benchmark::{report, run};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = match Cli::parse(&args) {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("hermes-benchmark: {e}\n{}", USAGE);
            return ExitCode::from(2);
        }
    };
    let ok = match cli.mode {
        Mode::Child(ref job) => {
            run::child_main(job);
            true
        }
        Mode::Measure { workload, trace } => run::measure_main(&cli, workload, trace),
        Mode::Report { sets } => report::report_main(&cli, sets),
    };
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
