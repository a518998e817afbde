//! Emit one named trace point as JSONL (events) + CSV (metrics).
//!
//! Usually invoked through
//! `cargo run -p xtask -- trace <point> --out <dir>`, which rebuilds
//! this bin with the `telemetry` feature on.

use std::io::Write as _;
use std::path::PathBuf;

fn usage() -> ! {
    eprintln!("usage: trace_point --point <name> --out <dir>");
    eprintln!("points:");
    for p in hermes_bench::TRACE_POINTS {
        eprintln!("  {:<28} {}", p.name, p.about);
    }
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
    if !hermes_telemetry::compiled() {
        eprintln!(
            "hermes-telemetry is compiled out; rebuild with \
             `--features hermes-bench/telemetry` (xtask trace does this)"
        );
        std::process::exit(2);
    }
    let res = hermes_bench::run_trace_point(p);
    std::fs::create_dir_all(&out).expect("create output dir");
    let jsonl = out.join(format!("{point}.trace.jsonl"));
    let csv = out.join(format!("{point}.metrics.csv"));
    std::fs::File::create(&jsonl)
        .and_then(|mut f| f.write_all(res.jsonl.as_bytes()))
        .expect("write trace jsonl");
    std::fs::File::create(&csv)
        .and_then(|mut f| f.write_all(res.csv.as_bytes()))
        .expect("write metrics csv");
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
