//! Declarative scenario specs and their materialization into runnable
//! experiment points.
//!
//! A scenario is one TOML file (see `tests/scenarios/` at the repo
//! root) describing a topology, a workload mix, a fault plan, the LBs
//! under test, the seeds to sweep, and the checks to apply. The loader
//! builds the topology, schemes and fault plan straight into a
//! [`PointCfg`] template held by the [`ScenarioSpec`];
//! each `(lb, load, seed)` cell of the grid is that template plus a
//! scheme, an offered load and a seed ([`ScenarioSpec::materialize`]),
//! ready for `run_point`. An `[slo]` scenario also runs each cell's
//! fault-free twin ([`ScenarioSpec::twin`]). An optional key of the
//! wrong type is an error naming it, never its default. The paper's
//! FCT figures are scenario files too (`figures/` at the repo root),
//! which is what the load sweeps, the `[[lb]]` variants and the two
//! print keys are for.
//!
//! ## Schema
//!
//! ```toml
//! name = "asymmetric"            # defaults to the file stem
//! description = "one uplink cut, load vs healthy fabric"
//! pin_digests = true             # participate in golden digests
//! normalize_to = "hermes"        # optional: `fig` prints ratios to this lb
//! note = ["(paper: ...)"]        # optional: lines `fig` prints after the table
//!
//! [topology]
//! kind = "testbed"               # "testbed" | "sim_baseline" | "asym"
//!                                # (the 8x8 with 20% of links at 2 Gbps)
//! cut = [[0, 3]]                 # optional [leaf, spine] cuts
//! degrade = [[0, 2, 100]]        # optional [leaf, spine, rate_mbps]
//!
//! [workload]
//! kind = "poisson"               # optional (default "poisson"); also
//!                                # "ring_allreduce" | "incast" | "elephant_mice"
//! dist = "web_search"            # poisson: "web_search" | "data_mining"
//! load = 0.5                     # vs the healthy fabric when cut/degraded;
//!                                # a list [0.3, 0.5] of distinct loads sweeps
//!                                # (no pin_digests, [[envelope]] or [slo] then)
//! flows = 60
//!
//! # kind = "ring_allreduce":     barrier-stepped collective; drain_ms
//! # ranks = 8                    is the whole run's time budget
//! # steps = 3
//! # chunk_kb = 64
//!
//! # kind = "incast":             sequential N-to-1 bursts
//! # fanout = 6
//! # reply_kb = 32
//! # bursts = 5
//!
//! # kind = "elephant_mice":      open-loop bimodal mix
//! # load = 0.3
//! # flows = 60
//! # mice_kb = 20
//! # elephant_kb = 1000
//! # elephant_frac = 0.1
//!
//! [run]
//! seeds = [1, 2, 3]              # distinct
//! lbs = ["hermes", "conga", "ecmp"]  # distinct: an [[lb]] name or a
//!                                # `Scheme::NAMES` entry at its defaults
//! drain_ms = 2000                # optional (default 3000)
//! transport = "tcp"              # optional: "dctcp" (default) | "tcp"
//! reorder_mask = true            # optional: mask reordering for every lb
//!
//! [[lb]]                         # optional labelled variants, each used
//! name = "clove-800us"           # by `lbs`
//! scheme = "clove"               # a `Scheme::NAMES` entry
//! flowlet_timeout_us = 800       # clove, conga
//! # hermes: preset = "testbed" | "tcp" (applied first), probe_interval_us,
//! # probing = false, reroute = false, t_rtt_high_us, delta_rtt_us
//!
//! [[event]]                      # optional fault plan, any number
//! at_ns = 5000000                # of events (every kind: `crate::events`)
//! kind = "spine_down"
//! spine = 0
//!
//! [invariants]                   # optional, in [0, 1]
//! max_unfinished_frac = 0.0      # default 1.0 = no bound; 0.0 under [slo]
//!
//! [[envelope]]                   # optional statistical envelopes
//! metric = "avg"                 # "avg" | "p99"
//! lb = "hermes"
//! baseline = "conga"
//! max_ratio = 1.15               # > 0: mean-over-seeds(lb) ≤ ratio × baseline
//!
//! [slo]                          # optional: judge by the SLOs against
//! class = "recovery"             # fault-free twins, goodput every 1 ms;
//! cell = "hermes"                # both keys optional provenance
//! ```

use std::fmt;
use std::path::{Path, PathBuf};

use hermes_core::HermesParams;
use hermes_net::{FaultPlan, LeafId, SpineId, Topology};
use hermes_runtime::{Scheme, SimConfig};
use hermes_sim::{SimRng, Time};
use hermes_transport::TransportCfg;
use hermes_workload::{FlowSizeDist, IncastCfg, MixCfg, PoissonCfg, RingCfg, WorkloadKind};

use crate::chaos::SloClass;
use crate::events;
use crate::point::{PointCfg, PointField};
use crate::toml::{self, opt, req, uint, KeyLines, Table, Value};

/// A spec-level error: what went wrong, and in which file.
#[derive(Clone, Debug)]
pub struct SpecError {
    pub file: String,
    pub msg: String,
}

impl fmt::Display for SpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.file, self.msg)
    }
}

impl std::error::Error for SpecError {}

/// A statistical envelope: `mean_over_seeds(metric(lb))` must stay
/// within `max_ratio ×` the same metric of `baseline`.
#[derive(Clone, Debug)]
pub struct EnvelopeSpec {
    pub metric: Metric,
    pub lb: String,
    pub baseline: String,
    pub max_ratio: f64,
}

/// Which FCT statistic an envelope constrains.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Metric {
    Avg,
    P99,
}

impl fmt::Display for Metric {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Metric::Avg => write!(f, "avg"),
            Metric::P99 => write!(f, "p99"),
        }
    }
}

/// Invariant knobs (everything else is always on).
#[derive(Clone, Debug)]
pub struct InvariantCfg {
    /// Upper bound on the unfinished-flow fraction per run. The default
    /// of 1.0 disables the bound (fault scenarios legitimately strand
    /// flows under non-adaptive LBs); an `[slo]` scenario's default is
    /// 0.0, since its faults clear long before the drain ends.
    pub max_unfinished_frac: f64,
}

impl Default for InvariantCfg {
    fn default() -> InvariantCfg {
        InvariantCfg {
            max_unfinished_frac: 1.0,
        }
    }
}

/// An `[slo]` table: the scenario is judged by the two degradation
/// SLOs, each cell against its fault-free twin, and no flow may stay
/// unfinished unless `[invariants]` says otherwise. Its keys are
/// provenance only: they select nothing.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct SloTag {
    /// The SLO class the scenario was mined for.
    pub class: Option<SloClass>,
    /// The cell that tripped it: an LB of the scenario, or `cross` for
    /// the cross-LB contract.
    pub cell: Option<String>,
}

/// One fully-parsed scenario file.
#[derive(Clone, Debug)]
pub struct ScenarioSpec {
    pub name: String,
    pub description: String,
    /// The point every grid cell starts from: the topology under test
    /// (cuts and degrades applied, load defined against the healthy
    /// fabric), workload, drain, fault plan and goodput cadence. Its
    /// `scheme`, load and `seed` are the first cell's;
    /// [`Self::materialize`] sets them per cell.
    pub base: PointCfg,
    /// The offered loads the cells sweep: `[workload] load`'s list, or
    /// its one value. Empty for a closed-loop workload, which has no
    /// load and runs its base point.
    pub loads: Vec<f64>,
    pub seeds: Vec<u64>,
    /// The LBs under test: the spec-file label (used in job labels,
    /// digest keys and envelope references) and the scheme it resolved
    /// to, an `[[lb]]` variant or [`Scheme::by_name`]'s defaults.
    pub lbs: Vec<(String, Scheme)>,
    pub invariants: InvariantCfg,
    pub envelopes: Vec<EnvelopeSpec>,
    /// Whether `(scenario, lb, seed)` digests are pinned as goldens.
    pub pin_digests: bool,
    /// `Some` for a scenario judged by the degradation SLOs.
    pub slo: Option<SloTag>,
    /// The label of `lbs` whose values `fig` divides each row by.
    pub normalize_to: Option<String>,
    /// Lines `fig` prints after the scenario's table.
    pub note: Vec<String>,
}

impl ScenarioSpec {
    /// Every cell as `(lb_idx, load_idx, seed)`, in run order: lb
    /// first, then load, then seed.
    pub fn cells(&self) -> Vec<(usize, usize, u64)> {
        let loads = self.loads.len().max(1);
        let mut out = Vec::with_capacity(self.lbs.len() * loads * self.seeds.len());
        for li in 0..self.lbs.len() {
            for ld in 0..loads {
                out.extend(self.seeds.iter().map(|&seed| (li, ld, seed)));
            }
        }
        out
    }

    /// One grid cell as a runnable point: the template plus the cell's
    /// scheme, load and seed.
    pub fn materialize(&self, lb_idx: usize, load_idx: usize, seed: u64) -> PointCfg {
        let mut cfg = self.base.clone();
        cfg.sim.scheme = self.lbs[lb_idx].1.clone();
        cfg.sim.seed = seed;
        if let (WorkloadKind::Poisson(p), Some(&load)) =
            (&mut cfg.workload, self.loads.get(load_idx))
        {
            p.load = load;
        }
        cfg
    }

    /// [`Self::materialize`] with no faults: the baseline an `[slo]`
    /// scenario, which has one load, judges the cell against.
    pub fn twin(&self, lb_idx: usize, seed: u64) -> PointCfg {
        let mut cfg = self.materialize(lb_idx, 0, seed);
        cfg.sim.fault_plan = FaultPlan::new();
        cfg
    }

    /// Check every cell with [`PointCfg::validate`], as the loader
    /// does; the error names the file's key.
    pub fn validate(&self) -> Result<(), String> {
        for (li, ld, seed) in self.cells() {
            let Err(e) = self.materialize(li, ld, seed).validate() else {
                continue;
            };
            let key = match e.field {
                PointField::Load => "`load`".to_string(),
                PointField::Flows => "`flows`".to_string(),
                // The file counts sizes in KB.
                PointField::Workload(name) => match name.strip_suffix("_bytes") {
                    Some(stem) => format!("`{stem}_kb`"),
                    None => format!("`{name}`"),
                },
                PointField::Topology => "`cut`".to_string(),
                PointField::Faults => "[[event]]".to_string(),
            };
            return Err(format!("{key}: {}", e.msg));
        }
        Ok(())
    }

    /// Key for a golden-digest entry.
    pub fn digest_key(&self, lb_idx: usize, seed: u64) -> String {
        format!("{}/{}/{}", self.name, self.lbs[lb_idx].0, seed)
    }
}

// ---- TOML → spec ----------------------------------------------------

fn opt_str(t: &Table, key: &str) -> Result<Option<String>, String> {
    Ok(opt(t, key, "a string", Value::as_str)?.map(str::to_string))
}

fn req_str(t: &Table, key: &str) -> Result<String, String> {
    Ok(req(t, key, "a string", Value::as_str)?.to_string())
}

fn req_float(t: &Table, key: &str) -> Result<f64, String> {
    req(t, key, "a number", Value::as_float)
}

/// An optional fraction key in [0, 1], `default` when absent.
fn frac(t: &Table, key: &str, default: f64) -> Result<f64, String> {
    match opt(t, key, "a number", Value::as_float)? {
        None => Ok(default),
        Some(f) if (0.0..=1.0).contains(&f) => Ok(f),
        Some(f) => Err(format!("`{key}` = {f}: must lie in [0, 1]")),
    }
}

/// A size key counted in KB (1000 B), as bytes. A product past `u64`
/// is an error naming the key, not a wrap.
fn kb_bytes(t: &Table, key: &str) -> Result<u64, String> {
    let kb: u64 = uint(t, key)?;
    match kb.checked_mul(1000) {
        Some(bytes) => Ok(bytes),
        None => Err(format!("`{key}` = {kb}: too large to count in bytes")),
    }
}

/// An optional duration key counted in units of `unit_ns`: an integer
/// ≥ `min` and representable in nanoseconds. `None` when the key is
/// absent.
fn duration(t: &Table, key: &str, unit_ns: u64, min: u64) -> Result<Option<Time>, String> {
    let Some(i) = opt(t, key, "an integer", Value::as_int)? else {
        return Ok(None);
    };
    let ns = u64::try_from(i).ok().filter(|&v| v >= min);
    match ns.and_then(|v| v.checked_mul(unit_ns)) {
        Some(ns) => Ok(Some(Time::from_ns(ns))),
        None => Err(format!(
            "`{key}` = {i}: must be an integer ≥ {min} that fits in nanoseconds"
        )),
    }
}

/// A leaf or spine index from the file, range-checked against the
/// chosen topology's `n` switches of that tier before it indexes
/// anything.
fn switch_idx(i: i64, n: usize, tier: &str, key: &str) -> Result<u16, String> {
    match u16::try_from(i) {
        Ok(v) if usize::from(v) < n => Ok(v),
        _ => Err(format!(
            "`{key}`: {tier} {i} out of range (topology has {n})"
        )),
    }
}

/// The `[leaf, spine, ..]` head of one `cut`/`degrade` entry.
fn link(item: &Value, base: &Topology, key: &str) -> Result<(LeafId, SpineId), String> {
    let entry = item.as_array().unwrap_or(&[]);
    let (Some(l), Some(s)) = (
        entry.first().and_then(Value::as_int),
        entry.get(1).and_then(Value::as_int),
    ) else {
        return Err(format!("`{key}` entries must start [leaf, spine]"));
    };
    Ok((
        LeafId(switch_idx(l, base.n_leaves, "leaf", key)?),
        SpineId(switch_idx(s, base.n_spines, "spine", key)?),
    ))
}

/// Per-section allowed key sets. A key outside these is a hard error
/// with the offending line — typos (`flws`) must not silently become
/// defaults. `[[event]]` keys depend on each event's kind and are
/// checked by [`events::plan_from_toml`].
const TOP_KEYS: &[&str] = &[
    "name",
    "description",
    "pin_digests",
    "normalize_to",
    "note",
    "topology",
    "workload",
    "run",
    "lb",
    "event",
    "invariants",
    "envelope",
    "slo",
];
const TOPOLOGY_KEYS: &[&str] = &["kind", "cut", "degrade"];
const RUN_KEYS: &[&str] = &["seeds", "lbs", "drain_ms", "transport", "reorder_mask"];
const LB_KEYS: &[&str] = &[
    "name",
    "scheme",
    "flowlet_timeout_us",
    "preset",
    "probe_interval_us",
    "probing",
    "reroute",
    "t_rtt_high_us",
    "delta_rtt_us",
];
const INVARIANT_KEYS: &[&str] = &["max_unfinished_frac"];
const ENVELOPE_KEYS: &[&str] = &["metric", "lb", "baseline", "max_ratio"];
const SLO_KEYS: &[&str] = &["class", "cell"];

/// The goodput sampler's period in a scenario without `[slo]`. Its
/// events enter the event digest, so the golden digests hold at this
/// period only.
const GOODPUT_INTERVAL: Time = Time::from_us(500);

/// The goodput sampler's period in an `[slo]` scenario: the chaos
/// cadence the recovery budgets and the campaign digest are defined at.
const SLO_GOODPUT_INTERVAL: Time = Time::from_ms(1);

/// `[workload]` keys allowed for each `kind`.
fn workload_keys(kind: &str) -> &'static [&'static str] {
    match kind {
        "ring_allreduce" => &["kind", "ranks", "steps", "chunk_kb"],
        "incast" => &["kind", "fanout", "reply_kb", "bursts"],
        "elephant_mice" => &[
            "kind",
            "load",
            "flows",
            "mice_kb",
            "elephant_kb",
            "elephant_frac",
        ],
        // "poisson" and anything unknown (the kind itself errors later).
        _ => &["kind", "dist", "load", "flows"],
    }
}

/// Reject unknown keys anywhere in the document, naming the source
/// line. `wl_kind` selects which `[workload]` keys are legal.
fn validate_keys(key_lines: &KeyLines, wl_kind: &str) -> Result<(), String> {
    let unknown = |line: usize, key: &str, section: &str| -> Result<(), String> {
        Err(format!("line {line}: unknown key `{key}` in {section}"))
    };
    for (path, &line) in key_lines {
        let segs: Vec<&str> = path.split('.').collect();
        if !TOP_KEYS.contains(&segs[0]) {
            return Err(format!("line {line}: unknown top-level key `{}`", segs[0]));
        }
        if segs.len() == 1 {
            continue;
        }
        let (section, allowed, key_idx) = match segs[0] {
            "topology" => ("[topology]", TOPOLOGY_KEYS, 1),
            "workload" => ("[workload]", workload_keys(wl_kind), 1),
            "run" => ("[run]", RUN_KEYS, 1),
            "invariants" => ("[invariants]", INVARIANT_KEYS, 1),
            "slo" => ("[slo]", SLO_KEYS, 1),
            // AoT paths carry the element index: envelope.<i>.<key>.
            "envelope" => ("[[envelope]]", ENVELOPE_KEYS, 2),
            "lb" => ("[[lb]]", LB_KEYS, 2),
            "event" => continue,
            _ => {
                // Scalar top-level key used as a table (`[name.x]`).
                return unknown(line, segs[1], &format!("[{}]", segs[0]));
            }
        };
        match segs.get(key_idx) {
            Some(key) if segs.len() == key_idx + 1 && allowed.contains(key) => {}
            Some(key) => return unknown(line, key, section),
            None => {} // the AoT header itself (`envelope`, `lb`)
        }
    }
    Ok(())
}

/// A list key that must be non-empty and name each entry once.
fn distinct<T: PartialEq + fmt::Debug>(items: &[T], key: &str) -> Result<(), String> {
    match (1..items.len()).find(|&i| items[..i].contains(&items[i])) {
        _ if items.is_empty() => Err(format!("`{key}` must be non-empty")),
        Some(i) => Err(format!("`{key}` lists {:?} twice", items[i])),
        None => Ok(()),
    }
}

/// The paper's §5.3.2 asymmetric topology: the 8×8 baseline with 20% of
/// leaf-spine links degraded from 10 Gbps to 2 Gbps, chosen by a fixed
/// seed so every figure sees the same asymmetry.
fn asym_topology() -> Topology {
    let mut topo = Topology::sim_baseline();
    let mut rng = SimRng::new(0xA5);
    topo.degrade_random_links(0.2, 2_000_000_000, &mut rng);
    topo
}

/// A Hermes parameter preset by name: `testbed`, the 1 Gbps testbed's
/// tuned thresholds ([`HermesParams::paper_testbed`]), or `tcp`, §5.4's
/// RTT-only sensing ([`HermesParams::for_tcp`]). `None` for any other
/// name.
fn hermes_preset(name: &str, topo: &Topology) -> Option<HermesParams> {
    match name {
        "testbed" => Some(HermesParams::paper_testbed(topo)),
        "tcp" => Some(HermesParams::for_tcp(topo)),
        _ => None,
    }
}

/// One `[[lb]]` table: its label and the scheme it names, with the
/// overrides its base takes applied (a Hermes `preset` first). An
/// override the base does not take is an error naming the key.
fn lb_variant(t: &Table, topo: &Topology) -> Result<(String, Scheme), String> {
    let name = req_str(t, "name")?;
    let base = req_str(t, "scheme")?;
    let Some(mut scheme) = Scheme::by_name(&base, topo) else {
        return Err(format!(
            "[[lb]] `{name}`: `scheme`: unknown scheme `{base}`"
        ));
    };
    // Every override but the flowlet timeout is Hermes'.
    let takes = |key: &str| match scheme {
        Scheme::Clove { .. } | Scheme::Conga { .. } => key == "flowlet_timeout_us",
        Scheme::Hermes(_) => key != "flowlet_timeout_us",
        _ => false,
    };
    let mut overrides = t
        .keys()
        .filter(|k| !matches!(k.as_str(), "name" | "scheme"));
    if let Some(key) = overrides.find(|k| !takes(k)) {
        return Err(format!(
            "[[lb]] `{name}`: `{key}` does not apply to `{base}`"
        ));
    }
    let us = |key| duration(t, key, 1_000, 1);
    let flag = |key| opt(t, key, "a boolean", Value::as_bool);
    let flowlet = us("flowlet_timeout_us")?;
    match &mut scheme {
        Scheme::Clove { flowlet_timeout } | Scheme::Conga { flowlet_timeout } => {
            *flowlet_timeout = flowlet.unwrap_or(*flowlet_timeout);
        }
        Scheme::Hermes(p) => {
            if let Some(preset) = opt_str(t, "preset")? {
                *p = hermes_preset(&preset, topo).ok_or(format!(
                    "[[lb]] `{name}`: `preset`: unknown preset `{preset}`"
                ))?;
            }
            p.probe_interval = us("probe_interval_us")?.unwrap_or(p.probe_interval);
            if flag("probing")? == Some(false) {
                p.probe_interval = Time::MAX;
            }
            p.enable_reroute = flag("reroute")?.unwrap_or(p.enable_reroute);
            p.t_rtt_high = us("t_rtt_high_us")?.unwrap_or(p.t_rtt_high);
            p.delta_rtt = us("delta_rtt_us")?.unwrap_or(p.delta_rtt);
        }
        _ => {}
    }
    Ok((name, scheme))
}

/// Parse one scenario file's contents. `file` is used for error
/// context; `stem` is the default scenario name.
pub fn parse_scenario(src: &str, file: &str, stem: &str) -> Result<ScenarioSpec, SpecError> {
    parse(src, stem).map_err(|msg| SpecError {
        file: file.to_string(),
        msg,
    })
}

fn parse(src: &str, stem: &str) -> Result<ScenarioSpec, String> {
    let (root, key_lines) = toml::parse_with_lines(src).map_err(|e| e.to_string())?;
    let wl_kind = match root.get("workload").and_then(Value::as_table) {
        Some(t) => opt_str(t, "kind")?,
        None => None,
    };
    let wl_kind = wl_kind.unwrap_or_else(|| "poisson".to_string());
    validate_keys(&key_lines, &wl_kind)?;

    let name = opt_str(&root, "name")?.unwrap_or_else(|| stem.to_string());
    let description = opt_str(&root, "description")?.unwrap_or_default();
    let pin_digests = opt(&root, "pin_digests", "a boolean", Value::as_bool)?.unwrap_or(false);

    // [topology]
    let Some(topo_t) = root.get("topology").and_then(Value::as_table) else {
        return Err("missing [topology] table".into());
    };
    let kind = req_str(topo_t, "kind")?;
    let mut topo = match kind.as_str() {
        // 2 leaves × 4 spines × 6 hosts/leaf, 1 Gbps (the paper's testbed).
        "testbed" => Topology::testbed(),
        // 8 leaves × 8 spines × 16 hosts/leaf, 10 Gbps (§5 simulations).
        "sim_baseline" => Topology::sim_baseline(),
        // §5.3.2: the 8×8 with 20% of its links at 2 Gbps.
        "asym" => asym_topology(),
        other => return Err(format!("unknown topology kind `{other}`")),
    };
    // The asymmetric fabric's healthy capacity is the 8×8's.
    let healthy_capacity = match kind.as_str() {
        "asym" => Topology::sim_baseline().total_uplink_bps(),
        _ => topo.total_uplink_bps(),
    };
    let entries = |key: &str| match topo_t.get(key).map(Value::as_array) {
        None => Ok(&[][..]),
        Some(Some(items)) => Ok(items),
        Some(None) => Err(format!("`{key}` must be an array")),
    };
    for item in entries("cut")? {
        let (l, s) = link(item, &topo, "cut")?;
        topo.cut_link(l, s);
    }
    for item in entries("degrade")? {
        let (l, s) = link(item, &topo, "degrade")?;
        if topo.up[usize::from(l.0)][usize::from(s.0)].is_none() {
            return Err(format!(
                "`degrade` names link [{}, {}], which `cut` removes",
                l.0, s.0
            ));
        }
        let mbps = item
            .as_array()
            .and_then(|e| e.get(2))
            .and_then(Value::as_int)
            .and_then(|m| u64::try_from(m).ok())
            .filter(|&m| m >= 1 && m.checked_mul(1_000_000).is_some());
        let Some(mbps) = mbps else {
            return Err(
                "`degrade` entries must be [leaf, spine, rate_mbps] with rate_mbps ≥ 1".into(),
            );
        };
        topo.degrade_link(l, s, mbps * 1_000_000);
    }

    // [workload]
    let Some(work_t) = root.get("workload").and_then(Value::as_table) else {
        return Err("missing [workload] table".into());
    };
    // `load` is a number, or a list of them to sweep; a closed-loop
    // kind has none.
    let sweep = work_t.get("load").and_then(Value::as_array);
    let loads = match sweep {
        Some(items) => items
            .iter()
            .map(Value::as_float)
            .collect::<Option<Vec<f64>>>()
            .filter(|l| !l.is_empty())
            .ok_or("`load` must be a number or a non-empty list of numbers")?,
        None if work_t.contains_key("load") => vec![req_float(work_t, "load")?],
        None => Vec::new(),
    };
    // Each cell once: a load listed twice would repeat its cells.
    if sweep.is_some() {
        distinct(&loads, "load")?;
    }
    // The paper's convention: offered load is defined against the
    // healthy fabric even when the fabric under test lost capacity.
    let poisson = |dist| -> Result<WorkloadKind, String> {
        Ok(WorkloadKind::Poisson(PoissonCfg {
            dist,
            load: *loads.first().ok_or("missing `load` (a number)")?,
            flows: uint(work_t, "flows")?,
            capacity: Some(healthy_capacity),
        }))
    };
    let workload = match wl_kind.as_str() {
        "poisson" => poisson(match req_str(work_t, "dist")?.as_str() {
            "web_search" => FlowSizeDist::web_search(),
            "data_mining" => FlowSizeDist::data_mining(),
            other => return Err(format!("unknown dist `{other}`")),
        })?,
        "ring_allreduce" => WorkloadKind::RingAllreduce(RingCfg {
            ranks: uint(work_t, "ranks")?,
            steps: uint(work_t, "steps")?,
            chunk_bytes: kb_bytes(work_t, "chunk_kb")?,
        }),
        "incast" => WorkloadKind::Incast(IncastCfg {
            fanout: uint(work_t, "fanout")?,
            reply_bytes: kb_bytes(work_t, "reply_kb")?,
            bursts: uint(work_t, "bursts")?,
        }),
        "elephant_mice" => poisson(FlowSizeDist::elephant_mice(MixCfg {
            mice_bytes: kb_bytes(work_t, "mice_kb")?,
            elephant_bytes: kb_bytes(work_t, "elephant_kb")?,
            elephant_frac: req_float(work_t, "elephant_frac")?,
        }))?,
        other => return Err(format!("unknown workload kind `{other}`")),
    };

    // [run]
    let Some(run_t) = root.get("run").and_then(Value::as_table) else {
        return Err("missing [run] table".into());
    };
    let Some(items) = run_t.get("seeds").and_then(Value::as_array) else {
        return Err("missing `seeds` in [run]".into());
    };
    let mut seeds: Vec<u64> = Vec::with_capacity(items.len());
    for item in items {
        match item.as_int().map(u64::try_from) {
            Some(Ok(seed)) => seeds.push(seed),
            _ => return Err("`seeds` must be non-negative integers".into()),
        }
    }
    distinct(&seeds, "seeds")?;
    // [[lb]] (optional): the labelled variants `lbs` may name.
    let mut variants = Vec::new();
    for item in root.get("lb").and_then(Value::as_array).unwrap_or(&[]) {
        let Some(lt) = item.as_table() else {
            return Err("[[lb]] entries must be tables".into());
        };
        variants.push(lb_variant(lt, &topo)?);
    }
    let Some(items) = run_t.get("lbs").and_then(Value::as_array) else {
        return Err("missing `lbs` in [run]".into());
    };
    let mut lbs = Vec::with_capacity(items.len());
    for item in items {
        let Some(name) = item.as_str() else {
            return Err("`lbs` must be strings".into());
        };
        let variant = variants
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, s)| s.clone());
        let Some(scheme) = variant.or_else(|| Scheme::by_name(name, &topo)) else {
            return Err(format!(
                "`lbs`: unknown lb `{name}` (neither an [[lb]] name nor a scheme)"
            ));
        };
        lbs.push((name.to_string(), scheme));
    }
    let names: Vec<&str> = lbs.iter().map(|(n, _)| n.as_str()).collect();
    distinct(&names, "lbs")?;
    let variant_names: Vec<&str> = variants.iter().map(|(n, _)| n.as_str()).collect();
    if !variants.is_empty() {
        distinct(&variant_names, "[[lb]] `name`")?;
    }
    if let Some(unused) = variant_names.iter().find(|n| !names.contains(n)) {
        return Err(format!("[[lb]] `{unused}`: no `lbs` entry uses it"));
    }
    let drain = duration(run_t, "drain_ms", 1_000_000, 0)?.unwrap_or(Time::from_ms(3000));
    let transport = match opt_str(run_t, "transport")?.as_deref() {
        None | Some("dctcp") => TransportCfg::dctcp(),
        Some("tcp") => TransportCfg::tcp(),
        Some(other) => return Err(format!("`transport`: unknown transport `{other}`")),
    };
    let reorder_mask = opt(run_t, "reorder_mask", "a boolean", Value::as_bool)?.unwrap_or(false);

    // [[event]] (optional): the fault plan, which must fit the fabric.
    let fault_plan = events::plan_from_toml(&root, &key_lines)?;
    if let Err(e) = fault_plan.validate_on(&topo) {
        return Err(events::plan_error(&fault_plan, &topo, &e));
    }

    // [invariants] (optional); under [slo] every flow must finish.
    let mut dflt = InvariantCfg::default();
    if root.contains_key("slo") {
        dflt.max_unfinished_frac = 0.0;
    }
    let invariants = match root.get("invariants").and_then(Value::as_table) {
        Some(it) => InvariantCfg {
            max_unfinished_frac: frac(it, "max_unfinished_frac", dflt.max_unfinished_frac)?,
        },
        None => dflt,
    };

    // [[envelope]] (optional)
    let mut envelopes = Vec::new();
    if let Some(items) = root.get("envelope").and_then(Value::as_array) {
        for item in items {
            let Some(et) = item.as_table() else {
                return Err("[[envelope]] entries must be tables".into());
            };
            let metric = match req_str(et, "metric")?.as_str() {
                "avg" => Metric::Avg,
                "p99" => Metric::P99,
                other => return Err(format!("unknown metric `{other}`")),
            };
            let env = EnvelopeSpec {
                metric,
                lb: req_str(et, "lb")?,
                baseline: req_str(et, "baseline")?,
                max_ratio: req_float(et, "max_ratio")?,
            };
            if !(env.max_ratio.is_finite() && env.max_ratio > 0.0) {
                return Err(format!(
                    "`max_ratio` = {}: must be finite and > 0",
                    env.max_ratio
                ));
            }
            for who in [&env.lb, &env.baseline] {
                if !names.contains(&who.as_str()) {
                    return Err(format!("envelope references `{who}` not in `lbs`"));
                }
            }
            envelopes.push(env);
        }
    }

    // [slo] (optional)
    let slo = match root.get("slo").and_then(Value::as_table) {
        Some(st) => {
            let class = opt_str(st, "class")?
                .map(|c| SloClass::parse(&c).ok_or(format!("`class`: unknown SLO class `{c}`")));
            let cell = opt_str(st, "cell")?;
            if let Some(c) = cell
                .as_deref()
                .filter(|&c| c != "cross" && !names.contains(&c))
            {
                return Err(format!("`cell`: `{c}` is neither in `lbs` nor `cross`"));
            }
            Some(SloTag {
                class: class.transpose()?,
                cell,
            })
        }
        None => None,
    };

    // A sweep's cells share their digest keys, so nothing pins or
    // compares them.
    if sweep.is_some() {
        let pinned = [
            ("`pin_digests`", pin_digests),
            ("[[envelope]]", !envelopes.is_empty()),
            ("[slo]", slo.is_some()),
        ];
        if let Some((key, _)) = pinned.iter().find(|(_, set)| *set) {
            return Err(format!("`load` lists loads: {key} needs a single load"));
        }
    }

    // The print keys (optional).
    let normalize_to = opt_str(&root, "normalize_to")?;
    if let Some(n) = normalize_to.as_deref().filter(|n| !names.contains(n)) {
        return Err(format!("`normalize_to`: `{n}` is not in `lbs`"));
    }
    let note = match root.get("note") {
        None => Vec::new(),
        Some(v) => v
            .as_array()
            .and_then(|items| {
                items
                    .iter()
                    .map(|i| i.as_str().map(str::to_string))
                    .collect()
            })
            .ok_or("`note` must be an array of strings")?,
    };

    let sim = SimConfig {
        transport,
        reorder_mask,
        fault_plan,
        ..SimConfig::new(topo, lbs[0].1.clone()).with_seed(seeds[0])
    };
    let base = PointCfg::new(sim, workload)
        .drain(drain)
        .goodput_interval(match slo {
            Some(_) => SLO_GOODPUT_INTERVAL,
            None => GOODPUT_INTERVAL,
        });
    let spec = ScenarioSpec {
        name,
        description,
        base,
        loads,
        seeds,
        lbs,
        invariants,
        envelopes,
        pin_digests,
        slo,
        normalize_to,
        note,
    };
    spec.validate()?;
    Ok(spec)
}

/// Load one scenario file from disk.
pub fn load_file(path: &Path) -> Result<ScenarioSpec, SpecError> {
    let file = path.display().to_string();
    let stem = path
        .file_stem()
        .and_then(|s| s.to_str())
        .unwrap_or("scenario");
    let src = std::fs::read_to_string(path).map_err(|e| SpecError {
        file: file.clone(),
        msg: format!("read failed: {e}"),
    })?;
    parse_scenario(&src, &file, stem)
}

/// Load every `*.toml` scenario in a directory (non-recursive), sorted
/// by file name for deterministic grid order. `digests.toml` and
/// `records.toml` are the golden stores, not scenarios, and are skipped.
pub fn load_dir(dir: &Path) -> Result<Vec<ScenarioSpec>, SpecError> {
    let entries = std::fs::read_dir(dir).map_err(|e| SpecError {
        file: dir.display().to_string(),
        msg: format!("read_dir failed: {e}"),
    })?;
    let mut paths: Vec<PathBuf> = entries
        .filter_map(Result::ok)
        .map(|e| e.path())
        .filter(|p| {
            p.extension().is_some_and(|e| e == "toml")
                && p.file_name().is_some_and(|n| {
                    n != crate::suite::DIGESTS_FILE && n != crate::suite::RECORDS_FILE
                })
        })
        .collect();
    paths.sort();
    let mut out = Vec::with_capacity(paths.len());
    for p in &paths {
        out.push(load_file(p)?);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    const MINIMAL: &str = r#"
        description = "smoke"
        [topology]
        kind = "testbed"
        [workload]
        dist = "web_search"
        load = 0.3
        flows = 40
        [run]
        seeds = [1, 2]
        lbs = ["hermes", "ecmp"]
    "#;

    #[test]
    fn minimal_scenario_parses_with_defaults() {
        let s = parse_scenario(MINIMAL, "mem", "smoke_test").expect("parses");
        assert_eq!(s.name, "smoke_test");
        assert_eq!(s.seeds, vec![1, 2]);
        assert_eq!(s.lbs.len(), 2);
        assert_eq!(s.base.drain, Time::from_ms(3000));
        assert!(!s.pin_digests);
        assert!(s.base.sim.fault_plan.is_empty());
        assert_eq!(s.invariants.max_unfinished_frac, 1.0);
        assert!(s.slo.is_none());
    }

    #[test]
    fn slo_table_parses_and_sets_the_chaos_cadence() {
        let src = format!("{MINIMAL}\n[slo]\nclass = \"cross_lb\"\ncell = \"cross\"\n");
        let s = parse_scenario(&src, "mem", "x").expect("parses");
        let tag = SloTag {
            class: Some(SloClass::CrossLb),
            cell: Some("cross".to_string()),
        };
        assert_eq!(s.slo, Some(tag));
        assert_eq!(s.base.goodput_interval, Some(SLO_GOODPUT_INTERVAL));
        // Both keys are optional; the table alone judges by the SLOs.
        let s = parse_scenario(&format!("{MINIMAL}\n[slo]\n"), "mem", "x").expect("parses");
        assert_eq!(s.slo, Some(SloTag::default()));
        // Under [slo] no flow may stay unfinished, unless [invariants]
        // says otherwise.
        assert_eq!(s.invariants.max_unfinished_frac, 0.0);
        let src = format!("{MINIMAL}\n[slo]\n[invariants]\nmax_unfinished_frac = 0.5\n");
        let s = parse_scenario(&src, "mem", "x").expect("parses");
        assert_eq!(s.invariants.max_unfinished_frac, 0.5);
        // A twin is the cell without its faults.
        assert!(s.twin(0, 1).sim.fault_plan.is_empty());
        assert_eq!(s.twin(1, 2).sim.seed, 2);
    }

    #[test]
    fn materializes_asymmetric_with_healthy_capacity() {
        let src = r#"
            [topology]
            kind = "testbed"
            cut = [[0, 3]]
            [workload]
            dist = "data_mining"
            load = 0.4
            flows = 30
            [run]
            seeds = [7]
            lbs = ["conga"]
        "#;
        let s = parse_scenario(src, "mem", "asym").expect("parses");
        let healthy = Topology::testbed().total_uplink_bps();
        let capacity = |cfg: &PointCfg| match &cfg.workload {
            WorkloadKind::Poisson(p) => p.capacity,
            other => panic!("wrong kind: {other:?}"),
        };
        assert_eq!(capacity(&s.base), Some(healthy));
        assert!(s.base.sim.topo.total_uplink_bps() < healthy);
        let cfg = s.materialize(0, 0, 7);
        assert_eq!(cfg.sim.seed, 7);
        assert!(matches!(cfg.sim.scheme, Scheme::Conga { .. }));
        assert_eq!(capacity(&cfg), Some(healthy));
    }

    #[test]
    fn event_and_envelope_blocks_parse() {
        let src = r#"
            [topology]
            kind = "testbed"
            [workload]
            dist = "web_search"
            load = 0.3
            flows = 40
            [run]
            seeds = [1]
            lbs = ["hermes", "ecmp"]
            [[event]]
            at_ns = 5000000
            kind = "set_spine_failure"
            spine = 0
            random_drop = 0.0
            bh_src_leaf = 0
            bh_dst_leaf = 1
            bh_pair_fraction = 1.0
            [[event]]
            at_ns = 100000000
            kind = "clear_spine_failure"
            spine = 0
            [[envelope]]
            metric = "avg"
            lb = "hermes"
            baseline = "ecmp"
            max_ratio = 0.7
        "#;
        let s = parse_scenario(src, "mem", "bh").expect("parses");
        // One window = an onset and a clearance event.
        let window = FaultPlan::new().blackhole_window(
            SpineId(0),
            LeafId(0),
            LeafId(1),
            1.0,
            Time::from_ms(5),
            Time::from_ms(100),
        );
        assert_eq!(s.base.sim.fault_plan, window);
        assert!(s.slo.is_none());
        assert_eq!(s.base.goodput_interval, Some(GOODPUT_INTERVAL));
        assert_eq!(s.envelopes.len(), 1);
        assert_eq!(s.envelopes[0].metric, Metric::Avg);
        assert_eq!(s.materialize(0, 0, 1).sim.fault_plan.len(), 2);
    }

    #[test]
    fn rejects_unknown_lb_and_dangling_envelope() {
        let bad_lb = MINIMAL.replace("\"ecmp\"", "\"wecmp\"");
        assert!(parse_scenario(&bad_lb, "mem", "x").is_err());
        let dangling = format!(
            "{MINIMAL}\n[[envelope]]\nmetric = \"p99\"\nlb = \"hermes\"\nbaseline = \"conga\"\nmax_ratio = 1.0\n"
        );
        let e = parse_scenario(&dangling, "mem", "x").expect_err("must fail");
        assert!(e.msg.contains("conga"));
    }

    #[test]
    fn out_of_range_values_are_errors_naming_the_key() {
        let topo = |extra: &str| MINIMAL.replace("[workload]", &format!("{extra}\n[workload]"));
        let run = |extra: &str| format!("{MINIMAL}\n{extra}\n");
        let top = |extra: &str| format!("{extra}\n{MINIMAL}");
        let table = |extra: &str| format!("{MINIMAL}\n{extra}\n");
        // A pair-blackhole onset on `spine` for leaf 0 -> `dst`, then
        // its clearance (the retired `[fault]` window as two events).
        let fault = |spine: i64, dst: i64, frac: f64| {
            format!(
                "{MINIMAL}\n[[event]]\nat_ns = 5000000\nkind = \"set_spine_failure\"\n\
                 spine = {spine}\nrandom_drop = 0.0\nbh_src_leaf = 0\nbh_dst_leaf = {dst}\n\
                 bh_pair_fraction = {frac}\n\n[[event]]\nat_ns = 100000000\n\
                 kind = \"clear_spine_failure\"\nspine = {spine}\n"
            )
        };
        let event = |body: &str| format!("{MINIMAL}\n[[event]]\nat_ns = 5000000\n{body}\n");
        // MINIMAL (12-host testbed) with its [workload] table replaced.
        let workload = |body: &str| {
            MINIMAL.replace(
                "dist = \"web_search\"\n        load = 0.3\n        flows = 40",
                body,
            )
        };
        let ring = |ranks: u64, kb: u64| {
            workload(&format!(
                "kind = \"ring_allreduce\"\nranks = {ranks}\nsteps = 2\nchunk_kb = {kb}"
            ))
        };
        let incast = |fanout: u64, kb: u64| {
            workload(&format!(
                "kind = \"incast\"\nfanout = {fanout}\nreply_kb = {kb}\nbursts = 2"
            ))
        };
        let mix = |mice: u64, elephant: u64| {
            workload(&format!(
                "kind = \"elephant_mice\"\nload = 0.3\nflows = 40\nelephant_frac = 0.1\n\
                 mice_kb = {mice}\nelephant_kb = {elephant}"
            ))
        };
        // An [[lb]] named `c` on CONGA, with one more key.
        let conga = |key: &str| table(&format!("[[lb]]\nname = \"c\"\nscheme = \"conga\"\n{key}"));
        // A KB count whose byte count overflows u64.
        const HUGE_KB: u64 = u64::MAX / 999;
        // (scenario, the key its error must name)
        let rows = [
            (topo("cut = [[5, 0]]"), "`cut`"),
            (topo("cut = [[0, 9]]"), "`cut`"),
            (topo("cut = [[-1, 0]]"), "`cut`"),
            (topo("cut = [[0, 1]]\ndegrade = [[0, 1, 100]]"), "`degrade`"),
            (topo("degrade = [[0, 4, 100]]"), "`degrade`"),
            (topo("degrade = [[0, 1, 0]]"), "`degrade`"),
            // Leaf 0 keeps no uplink; then each leaf keeps two, but no
            // spine in common.
            (topo("cut = [[0, 0], [0, 1], [0, 2], [0, 3]]"), "`cut`"),
            (topo("cut = [[0, 0], [0, 1], [1, 2], [1, 3]]"), "`cut`"),
            (MINIMAL.replace("load = 0.3", "load = 0.0"), "`load`"),
            (MINIMAL.replace("load = 0.3", "load = nan"), "`load`"),
            (MINIMAL.replace("load = 0.3", "load = 1.6"), "`load`"),
            // 40 arrivals at this rate would span far past `Time::MAX`.
            (MINIMAL.replace("load = 0.3", "load = 1e-300"), "`load`"),
            (MINIMAL.replace("flows = 40", "flows = 0"), "`flows`"),
            // More flows than timer tokens have ids for.
            (
                MINIMAL.replace("flows = 40", "flows = 9223372036854775807"),
                "`flows`",
            ),
            (fault(9, 1, 1.0), "[[event]] #0 (`set_spine_failure`) `spine`"),
            (fault(0, 1, 1.5), "[[event]] #0 (`set_spine_failure`) `bh_pair_fraction`"),
            (fault(0, 2, 1.0), "[[event]] #0 (`set_spine_failure`) `bh_dst_leaf`"),
            (
                event("kind = \"set_spine_failure\"\nspine = 0\nrandom_drop = 1.5"),
                "[[event]] #0 (`set_spine_failure`) `random_drop`",
            ),
            (
                event(
                    "kind = \"set_spine_failure\"\nspine = 0\nrandom_drop = 0.0\n\
                     bh_src_leaf = 9\nbh_dst_leaf = 1\nbh_pair_fraction = 1.0",
                ),
                "[[event]] #0 (`set_spine_failure`) `bh_src_leaf`",
            ),
            // One failure per spine and instant.
            (
                event(
                    "kind = \"set_spine_failure\"\nspine = 1\nrandom_drop = 0.02\n\n\
                     [[event]]\nat_ns = 5000000\nkind = \"set_spine_failure\"\nspine = 1\n\
                     random_drop = 0.05",
                ),
                "[[event]] #1 (`set_spine_failure`)",
            ),
            // Leaf 9 of the testbed's two, and a link_up with no link_down.
            (
                event("kind = \"link_down\"\nleaf = 9\nspine = 0"),
                "[[event]] #0 (`link_down`) `leaf`",
            ),
            (
                event("kind = \"link_up\"\nleaf = 0\nspine = 0"),
                "[[event]] #0 (`link_up`): LinkUp",
            ),
            (run("drain_ms = -5"), "`drain_ms`"),
            (run("drain_ms = \"5\""), "`drain_ms`"),
            // Optional keys of the wrong type are errors, not defaults.
            (top("pin_digests = \"true\""), "`pin_digests`"),
            (top("name = 7"), "`name`"),
            (top("description = true"), "`description`"),
            (workload("kind = 3\nload = 0.3\nflows = 40"), "`kind`"),
            (
                table("[invariants]\nmax_unfinished_frac = \"0.0\""),
                "`max_unfinished_frac`",
            ),
            // The fraction lies in [0, 1].
            (
                table("[invariants]\nmax_unfinished_frac = 1.5"),
                "`max_unfinished_frac`",
            ),
            // A ratio bound is finite and positive.
            (
                table("[[envelope]]\nmetric = \"avg\"\nlb = \"hermes\"\nbaseline = \"ecmp\"\nmax_ratio = 0.0"),
                "`max_ratio`",
            ),
            (
                table("[[envelope]]\nmetric = \"avg\"\nlb = \"hermes\"\nbaseline = \"ecmp\"\nmax_ratio = inf"),
                "`max_ratio`",
            ),
            // Each seed and each LB once: two cells must not share a key.
            (MINIMAL.replace("seeds = [1, 2]", "seeds = [1, 1]"), "`seeds`"),
            (
                MINIMAL.replace("lbs = [\"hermes\", \"ecmp\"]", "lbs = [\"hermes\", \"hermes\"]"),
                "`lbs`",
            ),
            (table("[slo]\nclass = \"latency\""), "`class`"),
            (table("[slo]\ncell = \"conga\""), "`cell`"),
            (table("[slo]\nclass = 3"), "`class`"),
            // One more rank / client than the testbed has hosts for.
            (ring(13, 64), "`ranks`"),
            (incast(7, 32), "`fanout`"),
            (ring(8, HUGE_KB), "`chunk_kb`"),
            (incast(6, HUGE_KB), "`reply_kb`"),
            (mix(HUGE_KB, 50), "`mice_kb`"),
            (mix(50, HUGE_KB), "`elephant_kb`"),
            // [[lb]] variants: only the overrides the base takes, a
            // known base, and each one used.
            (
                conga("t_rtt_high_us = 100").replace("\"ecmp\"]", "\"c\"]"),
                "`t_rtt_high_us`",
            ),
            (
                table("[[lb]]\nname = \"c\"\nscheme = \"wecmp\""),
                "`scheme`",
            ),
            (MINIMAL.replace("\"ecmp\"]", "\"wecmp\"]"), "`lbs`"),
            (conga("flowlet_timeout_us = 500"), "[[lb]] `c`"),
            (top("normalize_to = \"conga\""), "`normalize_to`"),
            // A sweep checks every load, lists each once, and pins nothing.
            (MINIMAL.replace("load = 0.3", "load = [0.3, 2.0]"), "`load`"),
            (MINIMAL.replace("load = 0.3", "load = [0.3, 0.3]"), "`load`"),
            (
                top("pin_digests = true").replace("load = 0.3", "load = [0.3, 0.5]"),
                "`pin_digests`",
            ),
        ];
        for (src, key) in &rows {
            match parse_scenario(src, "mem", "x") {
                Err(e) => assert!(e.msg.contains(key), "{key}: got `{}`", e.msg),
                Ok(_) => panic!("{key}: accepted\n{src}"),
            }
        }
        // The in-range neighbours of those rows still parse.
        let ok = topo("cut = [[1, 3]]\ndegrade = [[0, 1, 100]]");
        parse_scenario(&ok, "mem", "x").expect("in-range cut and degrade");
        parse_scenario(&fault(3, 1, 0.0), "mem", "x").expect("in-range fault");
        for edge in ["0", "1.0"] {
            let edge = table(&format!("[invariants]\nmax_unfinished_frac = {edge}"));
            parse_scenario(&edge, "mem", "x").expect("a fraction at an edge of [0, 1]");
        }
        parse_scenario(&ring(12, 64), "mem", "x").expect("one rank per host");
        parse_scenario(&incast(6, 32), "mem", "x").expect("the whole other rack");
        parse_scenario(&mix(50, 1000), "mem", "x").expect("in-range mix");
    }

    #[test]
    fn load_sweeps_and_lb_variants_parse() {
        let sweep = MINIMAL.replace("load = 0.3", "load = [0.3, 0.5]");
        let src = format!(
            "note = [\"a\", \" b\"]\nnormalize_to = \"ecmp\"\n{sweep}\ntransport = \"tcp\"\nreorder_mask = true\n\
             [[lb]]\nname = \"hermes\"\nscheme = \"hermes\"\npreset = \"testbed\"\nreroute = false\n"
        );
        let s = parse_scenario(&src, "mem", "x").expect("parses");
        assert_eq!(s.loads, [0.3, 0.5]);
        assert_eq!(s.note, ["a", " b"]);
        assert_eq!(s.normalize_to.as_deref(), Some("ecmp"));
        assert!(s.base.sim.reorder_mask);
        assert_eq!(
            format!("{:?}", s.base.sim.transport),
            format!("{:?}", TransportCfg::tcp())
        );
        // lb first, then load, then seed; each cell at its own load.
        let cells = s.cells();
        assert_eq!(cells.len(), 8);
        assert_eq!(
            (cells[0], cells[1], cells[2]),
            ((0, 0, 1), (0, 0, 2), (0, 1, 1))
        );
        let load = |cfg: PointCfg| match cfg.workload {
            WorkloadKind::Poisson(p) => p.load,
            other => panic!("wrong kind: {other:?}"),
        };
        assert_eq!(load(s.materialize(1, 1, 2)), 0.5);
        // The label resolves to its [[lb]] before the scheme name.
        let Scheme::Hermes(p) = s.lbs[0].1 else {
            panic!("{:?}", s.lbs[0].1);
        };
        let testbed = hermes_preset("testbed", &s.base.sim.topo).expect("a preset");
        assert_eq!(
            (p.t_rtt_high, p.enable_reroute),
            (testbed.t_rtt_high, false)
        );
        // A scalar load is a sweep of one, with the same keys as ever.
        let s = parse_scenario(MINIMAL, "mem", "x").expect("parses");
        assert_eq!(s.loads, [0.3]);
        assert_eq!(s.cells().len(), 4);
    }

    #[test]
    fn ring_and_incast_workloads_parse() {
        let ring = r#"
            [topology]
            kind = "testbed"
            [workload]
            kind = "ring_allreduce"
            ranks = 8
            steps = 3
            chunk_kb = 64
            [run]
            seeds = [1]
            lbs = ["hermes"]
        "#;
        let s = parse_scenario(ring, "mem", "ring").expect("parses");
        assert_eq!(
            s.base.workload,
            WorkloadKind::RingAllreduce(RingCfg {
                ranks: 8,
                steps: 3,
                chunk_bytes: 64_000,
            })
        );
        assert_eq!(s.materialize(0, 0, 1).workload, s.base.workload);

        let incast = r#"
            [topology]
            kind = "testbed"
            [workload]
            kind = "incast"
            fanout = 6
            reply_kb = 32
            bursts = 5
            [run]
            seeds = [1]
            lbs = ["ecmp"]
        "#;
        let s = parse_scenario(incast, "mem", "inc").expect("parses");
        assert_eq!(
            s.base.workload,
            WorkloadKind::Incast(IncastCfg {
                fanout: 6,
                reply_bytes: 32_000,
                bursts: 5,
            })
        );
    }

    #[test]
    fn elephant_mice_workload_parses() {
        let src = r#"
            [topology]
            kind = "testbed"
            [workload]
            kind = "elephant_mice"
            load = 0.3
            flows = 60
            mice_kb = 20
            elephant_kb = 1000
            elephant_frac = 0.1
            [run]
            seeds = [1]
            lbs = ["conga"]
        "#;
        let s = parse_scenario(src, "mem", "mix").expect("parses");
        let WorkloadKind::Poisson(p) = s.base.workload else {
            panic!("wrong kind: {:?}", s.base.workload);
        };
        let mix = p.dist.mix().expect("the two-point law");
        assert_eq!(mix.mice_bytes, 20_000);
        assert_eq!(mix.elephant_bytes, 1_000_000);
        assert_eq!(mix.elephant_frac, 0.1);
        assert_eq!((p.load, p.flows), (0.3, 60));
    }

    #[test]
    fn unknown_keys_are_rejected_with_line_numbers() {
        // Typo'd `flws` in [workload]: must fail, naming the line.
        let typo = MINIMAL.replace("flows = 40", "flws = 40");
        let e = parse_scenario(&typo, "mem", "x").expect_err("typo must fail");
        assert!(e.msg.contains("unknown key `flws`"), "{}", e.msg);
        assert!(e.msg.contains("line 8"), "{}", e.msg);
        assert!(e.msg.contains("[workload]"), "{}", e.msg);

        // Unknown top-level tables, the retired `[fault]` window included.
        for section in ["faultx", "fault"] {
            let e = parse_scenario(&format!("{MINIMAL}\n[{section}]\nspine = 0\n"), "mem", "x")
                .expect_err("unknown section must fail");
            assert!(
                e.msg
                    .contains(&format!("unknown top-level key `{section}`")),
                "{}",
                e.msg
            );
        }

        // A key the event's kind does not read, with its line.
        let e = parse_scenario(
            &format!("{MINIMAL}\n[[event]]\nat_ns = 5\nkind = \"spine_down\"\nspine = 0\nrandom_drop = 0.5\n"),
            "mem",
            "x",
        )
        .expect_err("stray event key must fail");
        assert!(
            e.msg.contains("line 17: unknown key `random_drop`"),
            "{}",
            e.msg
        );

        // Per-kind keys: `ranks` is not a poisson key.
        let e = parse_scenario(
            &MINIMAL.replace("flows = 40", "flows = 40\n        ranks = 4"),
            "mem",
            "x",
        )
        .expect_err("kind-mismatched key must fail");
        assert!(e.msg.contains("unknown key `ranks`"), "{}", e.msg);

        // Retired [run] keys are unknown keys like any other.
        for key in ["letflow_timeout_us", "drill_samples", "goodput_interval_us"] {
            let e = parse_scenario(&format!("{MINIMAL}\n{key} = 500\n"), "mem", "x")
                .expect_err("retired key must fail");
            assert!(e.msg.contains(&format!("unknown key `{key}`")), "{}", e.msg);
            assert!(e.msg.contains("[run]"), "{}", e.msg);
        }

        // Unknown key inside [[envelope]].
        let e = parse_scenario(
            &format!(
                "{MINIMAL}\n[[envelope]]\nmetric = \"avg\"\nlb = \"hermes\"\nbaseline = \"ecmp\"\nmax_ratio = 1.0\nratio = 2.0\n"
            ),
            "mem",
            "x",
        )
        .expect_err("envelope typo must fail");
        assert!(e.msg.contains("unknown key `ratio`"), "{}", e.msg);
    }

    #[test]
    fn digest_keys_are_stable() {
        let s = parse_scenario(MINIMAL, "mem", "smoke_test").expect("parses");
        assert_eq!(s.digest_key(1, 2), "smoke_test/ecmp/2");
    }
}
