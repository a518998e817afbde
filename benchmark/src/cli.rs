//! The command line: the contract's one-measurement form, the
//! whole-report form, and the hidden child form the parent re-invokes
//! itself with.

use crate::workloads::{self, Variant, Workload};

pub const USAGE: &str = "\
usage: hermes-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
       hermes-benchmark [--seed <n>] [--seconds <s>] [--sets <k>] [--smoke]
workloads: websearch_hermes websearch_ecmp failure_hermes incast_hermes";

/// `run_seconds` of `BENCHMARK.json`, and the default of `--seconds`.
pub const RUN_SECONDS: u64 = 24;

/// Host seconds one full-size rep takes on the 2-core box the
/// workloads were sized on; `--seconds` buys `seconds / 8` reps. The
/// count is a function of the arguments alone, never of how fast the
/// host turned out to be, so every simulated-time metric repeats
/// exactly for a given `(seed, seconds)`.
const REP_NOMINAL_SECONDS: u64 = 8;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum JobKind {
    /// One untraced run.
    Run,
    /// One traced run, its spans written to `benchmark/out/`.
    Trace,
    /// The layer probes (the workload is not looked at).
    Probes,
}

impl JobKind {
    const ALL: [(JobKind, &'static str); 3] = [
        (JobKind::Run, "run"),
        (JobKind::Trace, "trace"),
        (JobKind::Probes, "probes"),
    ];
}

/// One child's work order.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Job {
    pub kind: JobKind,
    pub workload: &'static str,
    pub seed: u64,
    /// Ladder sibling: the workload with `hermes-core` bypassed.
    pub no_core: bool,
    /// Ladder sibling: the workload on a healthy fabric.
    pub no_faults: bool,
    pub smoke: bool,
}

impl Job {
    pub fn variant(&self) -> Variant {
        let mut v = workloads::by_name(self.workload)
            .expect("a Job is only built from a known workload")
            .variant;
        if self.no_core {
            v = v.without_core();
        }
        if self.no_faults {
            v = v.without_faults();
        }
        if self.smoke {
            v = v.smoke();
        }
        v
    }

    /// The arguments that make a child parse back into this job.
    pub fn args(&self) -> Vec<String> {
        let kind = JobKind::ALL
            .iter()
            .find(|(k, _)| *k == self.kind)
            .expect("ALL lists every kind")
            .1;
        let mut args: Vec<String> = ["--child", kind, "--workload", self.workload, "--seed"]
            .map(String::from)
            .to_vec();
        args.push(self.seed.to_string());
        for (on, flag) in [
            (self.no_core, "--no-core"),
            (self.no_faults, "--no-faults"),
            (self.smoke, "--smoke"),
        ] {
            if on {
                args.push(flag.into());
            }
        }
        args
    }
}

#[derive(Debug, PartialEq)]
pub enum Mode {
    Child(Job),
    Measure {
        workload: &'static Workload,
        trace: bool,
    },
    Report {
        sets: usize,
    },
}

#[derive(Debug, PartialEq)]
pub struct Cli {
    pub mode: Mode,
    pub seed: u64,
    pub seconds: u64,
    pub smoke: bool,
}

fn number<T: std::str::FromStr>(flag: &str, v: &str) -> Result<T, String> {
    v.parse().map_err(|_| format!("{flag}: bad number {v:?}"))
}

impl Cli {
    pub fn parse(args: &[String]) -> Result<Cli, String> {
        let mut workload = None;
        let mut seed = 1u64;
        let mut seconds = RUN_SECONDS;
        let mut trace = None;
        let mut sets = None;
        let mut kind = None;
        let (mut smoke, mut no_core, mut no_faults) = (false, false, false);
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            let mut value = || {
                it.next()
                    .map(String::as_str)
                    .ok_or_else(|| format!("{flag} needs a value"))
            };
            match flag.as_str() {
                "--workload" => {
                    let name = value()?;
                    workload = Some(
                        workloads::by_name(name)
                            .ok_or_else(|| format!("unknown workload {name:?}"))?,
                    );
                }
                "--seed" => seed = number(flag, value()?)?,
                "--seconds" => seconds = number(flag, value()?)?,
                "--sets" => sets = Some(number::<usize>(flag, value()?)?),
                "--trace" => {
                    trace = Some(match value()? {
                        "0" => false,
                        "1" => true,
                        v => return Err(format!("--trace takes 0 or 1, not {v:?}")),
                    });
                }
                "--child" => {
                    let v = value()?;
                    kind = Some(
                        JobKind::ALL
                            .iter()
                            .find(|(_, name)| *name == v)
                            .ok_or_else(|| format!("unknown child job {v:?}"))?
                            .0,
                    );
                }
                "--smoke" => smoke = true,
                "--no-core" => no_core = true,
                "--no-faults" => no_faults = true,
                other => return Err(format!("unknown argument {other:?}")),
            }
        }
        if !(1..=60).contains(&seconds) {
            return Err("--seconds must be 1..=60".into());
        }
        let mode = match (kind, workload, trace, sets) {
            (Some(kind), Some(w), None, None) => Mode::Child(Job {
                kind,
                workload: w.name,
                seed,
                no_core,
                no_faults,
                smoke,
            }),
            (None, Some(workload), Some(trace), None) => Mode::Measure { workload, trace },
            (None, None, None, Some(0)) => return Err("--sets must be at least 1".into()),
            (None, None, None, sets) => Mode::Report {
                sets: sets.unwrap_or(1),
            },
            _ => return Err("--workload and --trace go together, without --sets".into()),
        };
        if (no_core || no_faults) && kind.is_none() {
            return Err("--no-core and --no-faults belong to --child".into());
        }
        Ok(Cli {
            mode,
            seed,
            seconds,
            smoke,
        })
    }

    /// Untraced reps per workload.
    pub fn reps(&self) -> u64 {
        (self.seconds / REP_NOMINAL_SECONDS).max(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &str) -> Result<Cli, String> {
        let args: Vec<String> = args.split_whitespace().map(String::from).collect();
        Cli::parse(&args)
    }

    #[test]
    fn the_contract_form_parses_in_any_order() {
        let cli = parse("--trace 1 --seconds 16 --seed 7 --workload incast_hermes").expect("ok");
        assert_eq!((cli.seed, cli.seconds, cli.reps()), (7, 16, 2));
        assert!(
            matches!(cli.mode, Mode::Measure { workload, trace: true } if workload.name == "incast_hermes")
        );
    }

    #[test]
    fn defaults_are_the_whole_report_at_the_benchmark_run_length() {
        let cli = parse("").expect("ok");
        assert_eq!(cli.mode, Mode::Report { sets: 1 });
        assert_eq!(
            (cli.seed, cli.seconds, cli.reps(), cli.smoke),
            (1, RUN_SECONDS, 3, false)
        );
        assert_eq!(
            parse("--sets 2 --smoke").expect("ok").mode,
            Mode::Report { sets: 2 }
        );
        assert_eq!(parse("--seconds 5").expect("ok").reps(), 1);
    }

    #[test]
    fn malformed_command_lines_are_refused() {
        for bad in [
            "--workload nope --trace 0",
            "--workload incast_hermes",
            "--trace 0",
            "--workload incast_hermes --trace 2",
            "--workload incast_hermes --trace 0 --sets 2",
            "--seed",
            "--seed x",
            "--seconds 0",
            "--seconds 61",
            "--sets 0",
            "--no-core",
            "--child sleep --workload incast_hermes",
            "--frobnicate",
        ] {
            assert!(parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn a_job_round_trips_through_its_own_arguments() {
        for (kind, _) in JobKind::ALL {
            for (no_core, no_faults, smoke) in [
                (false, false, false),
                (true, false, true),
                (true, true, false),
            ] {
                let job = Job {
                    kind,
                    workload: "failure_hermes",
                    seed: 1_000_004,
                    no_core,
                    no_faults,
                    smoke,
                };
                assert_eq!(
                    Cli::parse(&job.args()).expect("parses").mode,
                    Mode::Child(job)
                );
            }
        }
    }

    #[test]
    fn sibling_flags_take_exactly_one_layer_out() {
        let job = |no_core, no_faults| Job {
            kind: JobKind::Run,
            workload: "failure_hermes",
            seed: 1,
            no_core,
            no_faults,
            smoke: false,
        };
        let base = job(false, false).variant();
        assert!(base.hermes && base.faults);
        assert_eq!(job(true, false).variant(), base.without_core());
        assert_eq!(job(false, true).variant(), base.without_faults());
        assert_eq!(
            job(false, false).variant().smoke().flows(),
            base.flows() / 10
        );
    }
}
