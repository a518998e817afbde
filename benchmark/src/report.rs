//! No `--workload`: the whole benchmark in one command — all four
//! workloads, the untraced pass interleaved across them, then probes
//! and the per-layer pass — once or `--sets` times, with a noise report
//! between the first and the last set.

use std::path::PathBuf;

use crate::cli::Cli;
use crate::json::Json;
use crate::metrics::{END_TO_END, PER_LAYER};
use crate::run::{label, measure_end_to_end, measure_layers, Measurement, Runner, OUT_DIR};
use crate::stats::{iqr_share, median, quantile};
use crate::workloads::{Workload, WORKLOADS};

struct Set {
    end_to_end: Vec<Measurement>,
    per_layer: Vec<Measurement>,
    calib: f64,
}

fn run_set(cli: &Cli) -> Result<Set, String> {
    let mut r = Runner::new(cli);
    let all: Vec<&'static Workload> = WORKLOADS.iter().collect();
    let end_to_end = measure_end_to_end(&mut r, &all)?;
    for m in &end_to_end {
        m.print(&format!("{} · end to end, tracing off", label(cli)));
    }
    let probes = r.probes()?;
    let mut per_layer = Vec::new();
    for w in all {
        let m = measure_layers(&mut r, w, &probes)?;
        m.print(&format!(
            "{} · per-layer: traced run + probes + ladder",
            label(cli)
        ));
        per_layer.push(m);
    }
    Ok(Set {
        end_to_end,
        per_layer,
        calib: median(&r.calib),
    })
}

/// First set against last: per (workload, end-to-end metric) both
/// values, the quartiles and spread of their reps, how much worse the
/// later one reads, and the bound. The evidence that the benchmark can
/// hold its own bounds, and the template for a later A/B run.
fn noise_report(a: &Set, b: &Set) -> Vec<String> {
    let mut violations = Vec::new();
    println!("== noise report: first set (A) vs last set (B) of the same code");
    println!(
        "host.calib_ns_per_iter  A {:.4} ns  B {:.4} ns",
        a.calib, b.calib
    );
    println!(
        "{:<17} {:<16} {:>11} {:>25} {:>7} {:>11} {:>25} {:>7} {:>8} {:>6}",
        "workload",
        "metric",
        "A",
        "quartiles A",
        "iqr A",
        "B",
        "quartiles B",
        "iqr B",
        "B worse",
        "bound"
    );
    let quartiles = |s: &[f64]| format!("[{:.4e}, {:.4e}]", quantile(s, 0.25), quantile(s, 0.75));
    for (ma, mb) in a.end_to_end.iter().zip(&b.end_to_end) {
        for (def, (sa, sb)) in END_TO_END.iter().zip(ma.samples.iter().zip(&mb.samples)) {
            let (va, vb) = (ma.value(def.name), mb.value(def.name));
            let worse = def.better.worsening(va, vb);
            let verdict = if def.simulated && va != vb {
                violations.push(format!(
                    "{} {}: {va} vs {vb} between sets, must repeat exactly",
                    ma.workload, def.name
                ));
                "DIFFERS"
            } else if worse > def.bound {
                "UNRESOLVED"
            } else {
                ""
            };
            println!(
                "{:<17} {:<16} {:>11.4e} {:>25} {:>6.1}% {:>11.4e} {:>25} {:>6.1}% {:>+7.2}% {:>5.0}% {verdict}",
                ma.workload,
                def.name,
                va,
                quartiles(&sa.1),
                iqr_share(&sa.1) * 100.0,
                vb,
                quartiles(&sb.1),
                iqr_share(&sb.1) * 100.0,
                worse * 100.0,
                def.bound * 100.0,
            );
        }
        if ma.digests != mb.digests {
            violations.push(format!("{}: digests differ between sets", ma.workload));
        }
    }
    for (la, lb) in a.per_layer.iter().zip(&b.per_layer) {
        for (def, (xa, xb)) in PER_LAYER.iter().zip(la.metrics.iter().zip(&lb.metrics)) {
            // Counts are exact for a seed; so are the notes, below.
            if def.unit == "count" && xa.1 != xb.1 {
                violations.push(format!(
                    "{} {}: {} vs {} between sets, must repeat exactly",
                    la.workload, def.name, xa.1, xb.1
                ));
            }
        }
        if la.notes != lb.notes {
            violations.push(format!(
                "{}: {:?} vs {:?} between sets, must repeat exactly",
                la.workload, la.notes, lb.notes
            ));
        }
    }
    violations
}

fn measurement_json(m: &Measurement) -> Json {
    let strings = |v: &[String]| Json::Arr(v.iter().map(|s| Json::str(s.as_str())).collect());
    Json::obj([
        ("result", m.line()),
        (
            "samples",
            Json::obj(
                m.samples.iter().map(|(name, s)| {
                    (*name, Json::Arr(s.iter().copied().map(Json::Num).collect()))
                }),
            ),
        ),
        ("digests", strings(&m.digests)),
        ("notes", strings(&m.notes)),
        ("violations", strings(&m.violations)),
    ])
}

fn results_json(cli: &Cli, sets: &[Set]) -> Json {
    let by_workload =
        |ms: &[Measurement]| Json::obj(ms.iter().map(|m| (m.workload, measurement_json(m))));
    Json::obj([
        ("label", Json::str(label(cli))),
        ("seed", Json::Num(cli.seed as f64)),
        ("seconds", Json::Num(cli.seconds as f64)),
        ("reps", Json::Num(cli.reps() as f64)),
        (
            "sets",
            Json::Arr(
                sets.iter()
                    .map(|s| {
                        Json::obj([
                            ("host_calib_ns_per_iter", Json::Num(s.calib)),
                            ("end_to_end", by_workload(&s.end_to_end)),
                            ("per_layer", by_workload(&s.per_layer)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

/// Prints every metric by name with its unit, enforces the gate, and
/// writes `benchmark/out/results.json`.
pub fn report_main(cli: &Cli, sets: usize) -> bool {
    let mut done = Vec::new();
    for i in 0..sets {
        println!("==== set {} of {sets}", i + 1);
        match run_set(cli) {
            Ok(set) => done.push(set),
            Err(e) => {
                eprintln!("hermes-benchmark: {e}");
                return false;
            }
        }
    }
    let mut violations: Vec<String> = done
        .iter()
        .flat_map(|s| s.end_to_end.iter().chain(&s.per_layer))
        .flat_map(|m| {
            m.violations
                .iter()
                .map(move |v| format!("{}: {v}", m.workload))
        })
        .collect();
    if let [first, .., last] = &done[..] {
        violations.extend(noise_report(first, last));
    }
    let path = PathBuf::from(OUT_DIR).join("results.json");
    if let Err(e) = std::fs::create_dir_all(OUT_DIR)
        .and_then(|()| std::fs::write(&path, format!("{}\n", results_json(cli, &done))))
    {
        eprintln!("hermes-benchmark: writing {}: {e}", path.display());
        return false;
    }
    println!("wrote {}", path.display());
    for v in &violations {
        println!("VIOLATION {v}");
    }
    violations.is_empty()
}
