//! Emit one named trace point as JSONL (events) + CSV (metrics).
//!
//! `cargo run --release -p hermes-bench --bin trace_point -- --point
//! <name> --out <dir>`. The telemetry layer is always compiled in; this
//! bin installs the sink on its thread for the one run. A bad argument,
//! an unknown point or an `--out` that cannot be written exits 2.

use std::path::{Path, PathBuf};

fn usage() -> ! {
    eprintln!("usage: trace_point --point <name> --out <dir>");
    eprintln!("points:");
    for p in hermes_bench::trace_points() {
        eprintln!("  {:<28} {}", p.name, p.about);
    }
    std::process::exit(2);
}

/// Report an `--out` that cannot be written and exit 2.
fn out_error(path: &Path, e: &std::io::Error) -> ! {
    eprintln!("trace_point: --out {}: {e}", path.display());
    std::process::exit(2);
}

fn main() {
    let mut point: Option<String> = None;
    let mut out: Option<PathBuf> = None;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--point" => point = args.next(),
            "--out" => out = args.next().map(PathBuf::from),
            _ => usage(),
        }
    }
    let (Some(point), Some(out)) = (point, out) else {
        usage()
    };
    let Some(p) = hermes_bench::trace_point(&point) else {
        eprintln!("unknown trace point `{point}`");
        usage()
    };
    // Before the run, so a bad `--out` costs no simulation.
    if let Err(e) = std::fs::create_dir_all(&out) {
        out_error(&out, &e);
    }
    let res = hermes_bench::run_trace_point(&p.point);
    let jsonl = out.join(format!("{point}.trace.jsonl"));
    let csv = out.join(format!("{point}.metrics.csv"));
    for (path, body) in [(&jsonl, &res.jsonl), (&csv, &res.csv)] {
        if let Err(e) = std::fs::write(path, body) {
            out_error(path, &e);
        }
    }
    println!(
        "{point}: {} events ({} shed), {} unfinished flows, digest {:#018x}",
        res.events.len(),
        res.shed,
        res.unfinished,
        res.digest
    );
    println!("  {}", jsonl.display());
    println!("  {}", csv.display());
}
