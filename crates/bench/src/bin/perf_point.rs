//! Run one named perf point and print a machine-parseable report.
//!
//! ```text
//! perf_point [--point NAME] [--quick] [--list]
//! ```
//!
//! The scheduler is whatever this binary was *compiled* with: the
//! timing wheel by default, the binary heap when built with
//! `--features hermes-sim/heap-queue`. `xtask perf` builds and runs
//! both variants and diffs the reports; humans can too:
//!
//! ```text
//! cargo run --release -p hermes-bench --bin perf_point -- --quick
//! cargo run --release -p hermes-bench --features hermes-sim/heap-queue \
//!     --bin perf_point -- --quick
//! ```

use hermes_bench::{measure_point, PERF_POINTS};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--list") {
        for p in PERF_POINTS {
            println!("{p}");
        }
        return;
    }
    let quick = args.iter().any(|a| a == "--quick");
    let point = args
        .iter()
        .position(|a| a == "--point")
        .and_then(|i| args.get(i + 1))
        .map_or("fig12_baseline", String::as_str);
    let Some(sample) = measure_point(point, quick) else {
        eprintln!("unknown point {point:?}; --list prints the known ones");
        std::process::exit(2);
    };
    print!("{}", sample.to_report());
}
