//! Declarative scenario specs and their materialization into runnable
//! experiment points.
//!
//! A scenario is one TOML file (see `tests/scenarios/` at the repo
//! root) describing a topology, a workload mix, a fault plan, the LBs
//! under test, the seeds to sweep, and the checks to apply. The loader
//! builds the topology, schemes and fault plan straight into a
//! [`hermes_bench::PointCfg`] template held by the [`ScenarioSpec`];
//! each `(lb, seed)` cell of the grid is that template plus a scheme
//! and a seed ([`ScenarioSpec::materialize`]), ready for `run_point`.
//!
//! ## Schema
//!
//! ```toml
//! name = "asymmetric"            # defaults to the file stem
//! description = "one uplink cut, load vs healthy fabric"
//! pin_digests = true             # participate in golden digests
//!
//! [topology]
//! kind = "testbed"               # "testbed" | "sim_baseline"
//! cut = [[0, 3]]                 # optional [leaf, spine] cuts
//! degrade = [[0, 2, 100]]        # optional [leaf, spine, rate_mbps]
//!
//! [workload]
//! kind = "poisson"               # optional (default "poisson"); also
//!                                # "ring_allreduce" | "incast" | "elephant_mice"
//! dist = "web_search"            # poisson: "web_search" | "data_mining"
//! load = 0.5                     # vs the healthy fabric when cut/degraded
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
//! seeds = [1, 2, 3]
//! lbs = ["hermes", "conga", "ecmp"]
//! drain_ms = 2000                # optional (default 3000)
//!
//! [fault]                        # optional, time-triggered
//! kind = "blackhole"             # "blackhole" | "random_drop"
//! spine = 0
//! src_leaf = 0                   # blackhole only
//! dst_leaf = 1                   # blackhole only
//! frac = 1.0                     # blackhole pair fraction | drop rate
//! start_ms = 5
//! end_ms = 120
//!
//! [invariants]
//! max_unfinished_frac = 0.0      # optional (default 1.0 = no bound)
//! incast_floor_frac = 0.25       # optional; incast scenarios only:
//!                                # per-burst goodput ≥ frac × line rate
//!
//! [[envelope]]                   # optional statistical envelopes
//! metric = "avg"                 # "avg" | "p99"
//! lb = "hermes"
//! baseline = "conga"
//! max_ratio = 1.15               # mean-over-seeds(lb) ≤ ratio × baseline
//! ```

use std::fmt;
use std::path::{Path, PathBuf};

use hermes_bench::{PointCfg, PointField};
use hermes_net::{FaultPlan, LeafId, SpineId, Topology};
use hermes_runtime::{Scheme, SimConfig};
use hermes_sim::Time;
use hermes_workload::{FlowSizeDist, IncastCfg, MixCfg, PoissonCfg, RingCfg, WorkloadKind};

use crate::toml::{self, KeyLines, Table, Value};

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

fn serr<T>(file: &str, msg: impl Into<String>) -> Result<T, SpecError> {
    Err(SpecError {
        file: file.to_string(),
        msg: msg.into(),
    })
}

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
    /// flows under non-adaptive LBs).
    pub max_unfinished_frac: f64,
    /// Incast scenarios only: every drained burst's aggregate goodput
    /// (`fanout × reply_bytes × 8 / drain time`) must stay at or above
    /// this fraction of the aggregator's line rate. The default leaves
    /// generous headroom for slow-start and synchronized-loss recovery.
    pub incast_floor_frac: f64,
}

impl Default for InvariantCfg {
    fn default() -> InvariantCfg {
        InvariantCfg {
            max_unfinished_frac: 1.0,
            incast_floor_frac: 0.25,
        }
    }
}

/// One fully-parsed scenario file.
#[derive(Clone, Debug)]
pub struct ScenarioSpec {
    pub name: String,
    pub description: String,
    /// The point every grid cell starts from: the topology under test
    /// (cuts and degrades applied, load defined against the healthy
    /// fabric), workload, drain, fault plan and goodput cadence. Its
    /// `scheme` and `seed` are the first cell's; [`Self::materialize`]
    /// sets them per cell.
    pub base: PointCfg,
    pub seeds: Vec<u64>,
    /// The LBs under test: the spec-file name (used in job labels,
    /// digest keys and envelope references) and the scheme
    /// [`Scheme::by_name`] resolved it to.
    pub lbs: Vec<(String, Scheme)>,
    pub invariants: InvariantCfg,
    pub envelopes: Vec<EnvelopeSpec>,
    /// Whether `(scenario, lb, seed)` digests are pinned as goldens.
    pub pin_digests: bool,
}

impl ScenarioSpec {
    /// One grid cell as a runnable point: the template plus the cell's
    /// scheme and seed.
    pub fn materialize(&self, lb_idx: usize, seed: u64) -> PointCfg {
        let mut cfg = self.base.clone();
        cfg.sim.scheme = self.lbs[lb_idx].1.clone();
        cfg.sim.seed = seed;
        cfg
    }

    /// Key for a golden-digest entry.
    pub fn digest_key(&self, lb_idx: usize, seed: u64) -> String {
        format!("{}/{}/{}", self.name, self.lbs[lb_idx].0, seed)
    }
}

// ---- TOML → spec ----------------------------------------------------

fn get<'a>(t: &'a Table, key: &str) -> Option<&'a Value> {
    t.get(key)
}

fn req_str(t: &Table, key: &str, file: &str) -> Result<String, SpecError> {
    match get(t, key).and_then(Value::as_str) {
        Some(s) => Ok(s.to_string()),
        None => serr(file, format!("missing string `{key}`")),
    }
}

fn req_float(t: &Table, key: &str, file: &str) -> Result<f64, SpecError> {
    match get(t, key).and_then(Value::as_float) {
        Some(f) => Ok(f),
        None => serr(file, format!("missing number `{key}`")),
    }
}

fn req_usize(t: &Table, key: &str, file: &str) -> Result<usize, SpecError> {
    let Some(i) = get(t, key).and_then(Value::as_int) else {
        return serr(file, format!("missing integer `{key}`"));
    };
    usize::try_from(i).map_err(|_| SpecError {
        file: file.to_string(),
        msg: format!("`{key}` must be non-negative"),
    })
}

/// A size key counted in KB (1000 B), as bytes. A product past `u64`
/// is an error naming the key, not a wrap.
fn kb_bytes(t: &Table, key: &str, file: &str) -> Result<u64, SpecError> {
    let kb = req_usize(t, key, file)? as u64;
    match kb.checked_mul(1000) {
        Some(bytes) => Ok(bytes),
        None => serr(file, format!("`{key}` = {kb}: too large to count in bytes")),
    }
}

/// An optional duration key counted in milliseconds: non-negative and
/// representable in nanoseconds. `None` when the key is absent.
fn duration_ms(t: &Table, key: &str, file: &str) -> Result<Option<Time>, SpecError> {
    let Some(i) = get(t, key).and_then(Value::as_int) else {
        return Ok(None);
    };
    match u64::try_from(i).ok().and_then(|v| v.checked_mul(1_000_000)) {
        Some(ns) => Ok(Some(Time::from_ns(ns))),
        None => serr(
            file,
            format!("`{key}` = {i}: must be an integer ≥ 0 that fits in nanoseconds"),
        ),
    }
}

fn time_ms(t: &Table, key: &str, file: &str) -> Result<Time, SpecError> {
    match duration_ms(t, key, file)? {
        Some(d) => Ok(d),
        None => serr(file, format!("missing integer `{key}`")),
    }
}

/// A leaf or spine index from the file, range-checked against the
/// chosen topology's `n` switches of that tier before it indexes
/// anything.
fn switch_idx(i: i64, n: usize, tier: &str, key: &str, file: &str) -> Result<u16, SpecError> {
    match u16::try_from(i) {
        Ok(v) if usize::from(v) < n => Ok(v),
        _ => serr(
            file,
            format!("`{key}`: {tier} {i} out of range (topology has {n})"),
        ),
    }
}

/// The `[leaf, spine, ..]` head of one `cut`/`degrade` entry.
fn link(
    item: &Value,
    base: &Topology,
    key: &str,
    file: &str,
) -> Result<(LeafId, SpineId), SpecError> {
    let entry = item.as_array().unwrap_or(&[]);
    let (Some(l), Some(s)) = (
        entry.first().and_then(Value::as_int),
        entry.get(1).and_then(Value::as_int),
    ) else {
        return serr(file, format!("`{key}` entries must start [leaf, spine]"));
    };
    Ok((
        LeafId(switch_idx(l, base.n_leaves, "leaf", key, file)?),
        SpineId(switch_idx(s, base.n_spines, "spine", key, file)?),
    ))
}

/// A fault's `frac` (blackhole pair fraction or drop rate) in [0, 1].
fn fault_frac(ft: &Table, file: &str) -> Result<f64, SpecError> {
    let frac = req_float(ft, "frac", file)?;
    if (0.0..=1.0).contains(&frac) {
        Ok(frac)
    } else {
        serr(file, format!("fault `frac` {frac} outside [0, 1]"))
    }
}

/// Per-section allowed key sets. A key outside these is a hard error
/// with the offending line — typos (`flws`) must not silently become
/// defaults.
const TOP_KEYS: &[&str] = &[
    "name",
    "description",
    "pin_digests",
    "topology",
    "workload",
    "run",
    "fault",
    "invariants",
    "envelope",
];
const TOPOLOGY_KEYS: &[&str] = &["kind", "cut", "degrade"];
const RUN_KEYS: &[&str] = &["seeds", "lbs", "drain_ms"];
const FAULT_KEYS: &[&str] = &[
    "kind", "spine", "src_leaf", "dst_leaf", "frac", "start_ms", "end_ms",
];
const INVARIANT_KEYS: &[&str] = &["max_unfinished_frac", "incast_floor_frac"];
const ENVELOPE_KEYS: &[&str] = &["metric", "lb", "baseline", "max_ratio"];

/// The goodput sampler's period in every scenario. Its events enter the
/// event digest, so the golden digests hold at this period only.
const GOODPUT_INTERVAL: Time = Time::from_us(500);

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
fn validate_keys(key_lines: &KeyLines, wl_kind: &str, file: &str) -> Result<(), SpecError> {
    let unknown = |line: usize, key: &str, section: &str| -> Result<(), SpecError> {
        serr(
            file,
            format!("line {line}: unknown key `{key}` in {section}"),
        )
    };
    for (path, &line) in key_lines {
        let segs: Vec<&str> = path.split('.').collect();
        if !TOP_KEYS.contains(&segs[0]) {
            return serr(
                file,
                format!("line {line}: unknown top-level key `{}`", segs[0]),
            );
        }
        if segs.len() == 1 {
            continue;
        }
        let (section, allowed, key_idx) = match segs[0] {
            "topology" => ("[topology]", TOPOLOGY_KEYS, 1),
            "workload" => ("[workload]", workload_keys(wl_kind), 1),
            "run" => ("[run]", RUN_KEYS, 1),
            "fault" => ("[fault]", FAULT_KEYS, 1),
            "invariants" => ("[invariants]", INVARIANT_KEYS, 1),
            // AoT paths carry the element index: envelope.<i>.<key>.
            "envelope" => ("[[envelope]]", ENVELOPE_KEYS, 2),
            _ => {
                // Scalar top-level key used as a table (`[name.x]`).
                return unknown(line, segs[1], &format!("[{}]", segs[0]));
            }
        };
        match segs.get(key_idx) {
            Some(key) if segs.len() == key_idx + 1 && allowed.contains(key) => {}
            Some(key) => return unknown(line, key, section),
            None => {} // the AoT header itself (`envelope`)
        }
    }
    Ok(())
}

/// Parse one scenario file's contents. `file` is used for error
/// context; `stem` is the default scenario name.
pub fn parse_scenario(src: &str, file: &str, stem: &str) -> Result<ScenarioSpec, SpecError> {
    let (root, key_lines) = toml::parse_with_lines(src).map_err(|e| SpecError {
        file: file.to_string(),
        msg: e.to_string(),
    })?;
    let wl_kind = get(&root, "workload")
        .and_then(Value::as_table)
        .and_then(|t| get(t, "kind"))
        .and_then(Value::as_str)
        .unwrap_or("poisson")
        .to_string();
    validate_keys(&key_lines, &wl_kind, file)?;

    let name = match get(&root, "name").and_then(Value::as_str) {
        Some(s) => s.to_string(),
        None => stem.to_string(),
    };
    let description = get(&root, "description")
        .and_then(Value::as_str)
        .unwrap_or("")
        .to_string();
    let pin_digests = get(&root, "pin_digests")
        .and_then(Value::as_bool)
        .unwrap_or(false);

    // [topology]
    let Some(topo_t) = get(&root, "topology").and_then(Value::as_table) else {
        return serr(file, "missing [topology] table");
    };
    let mut topo = match req_str(topo_t, "kind", file)?.as_str() {
        // 2 leaves × 4 spines × 6 hosts/leaf, 1 Gbps (the paper's testbed).
        "testbed" => Topology::testbed(),
        // 8 leaves × 8 spines × 16 hosts/leaf, 10 Gbps (§5 simulations).
        "sim_baseline" => Topology::sim_baseline(),
        other => return serr(file, format!("unknown topology kind `{other}`")),
    };
    let healthy_capacity = topo.total_uplink_bps();
    let entries = |key: &str| match get(topo_t, key).map(Value::as_array) {
        None => Ok(&[][..]),
        Some(Some(items)) => Ok(items),
        Some(None) => serr(file, format!("`{key}` must be an array")),
    };
    for item in entries("cut")? {
        let (l, s) = link(item, &topo, "cut", file)?;
        topo.cut_link(l, s);
    }
    for item in entries("degrade")? {
        let (l, s) = link(item, &topo, "degrade", file)?;
        if topo.up[usize::from(l.0)][usize::from(s.0)].is_none() {
            return serr(
                file,
                format!(
                    "`degrade` names link [{}, {}], which `cut` removes",
                    l.0, s.0
                ),
            );
        }
        let mbps = item
            .as_array()
            .and_then(|e| e.get(2))
            .and_then(Value::as_int)
            .and_then(|m| u64::try_from(m).ok())
            .filter(|&m| m >= 1 && m.checked_mul(1_000_000).is_some());
        let Some(mbps) = mbps else {
            return serr(
                file,
                "`degrade` entries must be [leaf, spine, rate_mbps] with rate_mbps ≥ 1",
            );
        };
        topo.degrade_link(l, s, mbps * 1_000_000);
    }

    // [workload]
    let Some(work_t) = get(&root, "workload").and_then(Value::as_table) else {
        return serr(file, "missing [workload] table");
    };
    // The paper's convention: offered load is defined against the
    // healthy fabric even when the fabric under test lost capacity.
    let poisson = |dist| -> Result<WorkloadKind, SpecError> {
        Ok(WorkloadKind::Poisson(PoissonCfg {
            dist,
            load: req_float(work_t, "load", file)?,
            flows: req_usize(work_t, "flows", file)?,
            capacity: Some(healthy_capacity),
        }))
    };
    let workload = match wl_kind.as_str() {
        "poisson" => poisson(match req_str(work_t, "dist", file)?.as_str() {
            "web_search" => FlowSizeDist::web_search(),
            "data_mining" => FlowSizeDist::data_mining(),
            other => return serr(file, format!("unknown dist `{other}`")),
        })?,
        "ring_allreduce" => WorkloadKind::RingAllreduce(RingCfg {
            ranks: req_usize(work_t, "ranks", file)?,
            steps: req_usize(work_t, "steps", file)?,
            chunk_bytes: kb_bytes(work_t, "chunk_kb", file)?,
        }),
        "incast" => WorkloadKind::Incast(IncastCfg {
            fanout: req_usize(work_t, "fanout", file)?,
            reply_bytes: kb_bytes(work_t, "reply_kb", file)?,
            bursts: req_usize(work_t, "bursts", file)?,
        }),
        "elephant_mice" => poisson(FlowSizeDist::elephant_mice(MixCfg {
            mice_bytes: kb_bytes(work_t, "mice_kb", file)?,
            elephant_bytes: kb_bytes(work_t, "elephant_kb", file)?,
            elephant_frac: req_float(work_t, "elephant_frac", file)?,
        }))?,
        other => return serr(file, format!("unknown workload kind `{other}`")),
    };

    // [run]
    let Some(run_t) = get(&root, "run").and_then(Value::as_table) else {
        return serr(file, "missing [run] table");
    };
    let seeds: Vec<u64> = match get(run_t, "seeds").and_then(Value::as_array) {
        Some(items) => {
            let mut out = Vec::new();
            for item in items {
                match item.as_int() {
                    Some(i) if i >= 0 => out.push(i as u64),
                    _ => return serr(file, "`seeds` must be non-negative integers"),
                }
            }
            out
        }
        None => return serr(file, "missing `seeds` in [run]"),
    };
    if seeds.is_empty() {
        return serr(file, "`seeds` must be non-empty");
    }
    let Some(items) = get(run_t, "lbs").and_then(Value::as_array) else {
        return serr(file, "missing `lbs` in [run]");
    };
    let mut lbs = Vec::with_capacity(items.len());
    for item in items {
        let Some(name) = item.as_str() else {
            return serr(file, "`lbs` must be strings");
        };
        let Some(scheme) = Scheme::by_name(name, &topo) else {
            return serr(file, format!("unknown lb `{name}`"));
        };
        lbs.push((name.to_string(), scheme));
    }
    let Some((_, first_scheme)) = lbs.first() else {
        return serr(file, "`lbs` must be non-empty");
    };
    let drain = duration_ms(run_t, "drain_ms", file)?.unwrap_or(Time::from_ms(3000));

    // [fault] (optional, time-triggered window)
    let fault_plan = match get(&root, "fault").and_then(Value::as_table) {
        Some(ft) => {
            let idx = |key: &str, n: usize, tier: &str| -> Result<u16, SpecError> {
                match get(ft, key).and_then(Value::as_int) {
                    Some(i) => switch_idx(i, n, tier, key, file),
                    None => serr(file, format!("missing integer `{key}`")),
                }
            };
            let spine = SpineId(idx("spine", topo.n_spines, "spine")?);
            let start = time_ms(ft, "start_ms", file)?;
            let end = time_ms(ft, "end_ms", file)?;
            if end <= start {
                return serr(file, "fault `end_ms` must exceed `start_ms`");
            }
            match req_str(ft, "kind", file)?.as_str() {
                // `spine` silently drops `frac` of the src→dst leaf
                // pair's packets between `start` and `end`.
                "blackhole" => FaultPlan::new().blackhole_window(
                    spine,
                    LeafId(idx("src_leaf", topo.n_leaves, "leaf")?),
                    LeafId(idx("dst_leaf", topo.n_leaves, "leaf")?),
                    fault_frac(ft, file)?,
                    start,
                    end,
                ),
                // `spine` drops each packet with probability `frac`.
                "random_drop" => {
                    FaultPlan::new().random_drop_window(spine, fault_frac(ft, file)?, start, end)
                }
                other => return serr(file, format!("unknown fault kind `{other}`")),
            }
        }
        None => FaultPlan::new(),
    };

    // [invariants] (optional)
    let invariants = match get(&root, "invariants").and_then(Value::as_table) {
        Some(it) => InvariantCfg {
            max_unfinished_frac: get(it, "max_unfinished_frac")
                .and_then(Value::as_float)
                .unwrap_or(1.0),
            incast_floor_frac: get(it, "incast_floor_frac")
                .and_then(Value::as_float)
                .unwrap_or_else(|| InvariantCfg::default().incast_floor_frac),
        },
        None => InvariantCfg::default(),
    };

    // [[envelope]] (optional)
    let mut envelopes = Vec::new();
    if let Some(items) = get(&root, "envelope").and_then(Value::as_array) {
        for item in items {
            let Some(et) = item.as_table() else {
                return serr(file, "[[envelope]] entries must be tables");
            };
            let metric = match req_str(et, "metric", file)?.as_str() {
                "avg" => Metric::Avg,
                "p99" => Metric::P99,
                other => return serr(file, format!("unknown metric `{other}`")),
            };
            let env = EnvelopeSpec {
                metric,
                lb: req_str(et, "lb", file)?,
                baseline: req_str(et, "baseline", file)?,
                max_ratio: req_float(et, "max_ratio", file)?,
            };
            for who in [&env.lb, &env.baseline] {
                if !lbs.iter().any(|(name, _)| name == who) {
                    return serr(file, format!("envelope references `{who}` not in `lbs`"));
                }
            }
            envelopes.push(env);
        }
    }

    let sim = SimConfig {
        fault_plan,
        ..SimConfig::new(topo, first_scheme.clone()).with_seed(seeds[0])
    };
    let base = PointCfg::new(sim, workload)
        .drain(drain)
        .goodput_interval(GOODPUT_INTERVAL);
    if let Err(e) = base.validate() {
        let key = match e.field {
            PointField::Load => "`load`".to_string(),
            PointField::Flows => "`flows`".to_string(),
            // The file counts sizes in KB.
            PointField::Workload(name) => match name.strip_suffix("_bytes") {
                Some(stem) => format!("`{stem}_kb`"),
                None => format!("`{name}`"),
            },
            PointField::Topology => "`cut`".to_string(),
            // A scenario file's only fault is its `[fault]` window.
            PointField::Faults => "[fault]".to_string(),
        };
        return serr(file, format!("{key}: {}", e.msg));
    }
    Ok(ScenarioSpec {
        name,
        description,
        base,
        seeds,
        lbs,
        invariants,
        envelopes,
        pin_digests,
    })
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
        let cfg = s.materialize(0, 7);
        assert_eq!(cfg.sim.seed, 7);
        assert!(matches!(cfg.sim.scheme, Scheme::Conga(_)));
        assert_eq!(capacity(&cfg), Some(healthy));
    }

    #[test]
    fn fault_and_envelope_blocks_parse() {
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
            [fault]
            kind = "blackhole"
            spine = 0
            src_leaf = 0
            dst_leaf = 1
            frac = 1.0
            start_ms = 5
            end_ms = 100
            [[envelope]]
            metric = "avg"
            lb = "hermes"
            baseline = "ecmp"
            max_ratio = 0.7
        "#;
        let s = parse_scenario(src, "mem", "bh").expect("parses");
        // One window = an onset and a clearance event.
        assert_eq!(s.base.sim.fault_plan.len(), 2);
        assert_eq!(s.envelopes.len(), 1);
        assert_eq!(s.envelopes[0].metric, Metric::Avg);
        assert_eq!(s.materialize(0, 1).sim.fault_plan.len(), 2);
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
        const FAULT: &str = "[fault]\nkind = \"blackhole\"\nsrc_leaf = 0\ndst_leaf = 1\nstart_ms = 5\nend_ms = 100\n";
        let topo = |extra: &str| MINIMAL.replace("[workload]", &format!("{extra}\n[workload]"));
        let run = |extra: &str| format!("{MINIMAL}\n{extra}\n");
        let fault =
            |spine: i64, frac: f64| format!("{MINIMAL}\n{FAULT}spine = {spine}\nfrac = {frac}\n");
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
        // A KB count whose byte count overflows u64.
        const HUGE_KB: u64 = u64::MAX / 999;
        // (scenario, the key its error must name)
        let rows = [
            (topo("cut = [[5, 0]]"), "`cut`"),
            (topo("cut = [[-1, 0]]"), "`cut`"),
            (topo("cut = [[0, 1]]\ndegrade = [[0, 1, 100]]"), "`degrade`"),
            (topo("degrade = [[0, 4, 100]]"), "`degrade`"),
            (topo("degrade = [[0, 1, 0]]"), "`degrade`"),
            // Leaf 0 keeps no uplink; then each leaf keeps two, but no
            // spine in common.
            (topo("cut = [[0, 0], [0, 1], [0, 2], [0, 3]]"), "`cut`"),
            (topo("cut = [[0, 0], [0, 1], [1, 2], [1, 3]]"), "`cut`"),
            (MINIMAL.replace("load = 0.3", "load = 0.0"), "`load`"),
            (MINIMAL.replace("flows = 40", "flows = 0"), "`flows`"),
            (fault(9, 1.0), "`spine`"),
            (fault(0, 1.5), "`frac`"),
            (
                fault(0, 1.0).replace("dst_leaf = 1", "dst_leaf = 2"),
                "`dst_leaf`",
            ),
            (run("drain_ms = -5"), "`drain_ms`"),
            // One more rank / client than the testbed has hosts for.
            (ring(13, 64), "`ranks`"),
            (incast(7, 32), "`fanout`"),
            (ring(8, HUGE_KB), "`chunk_kb`"),
            (incast(6, HUGE_KB), "`reply_kb`"),
            (mix(HUGE_KB, 50), "`mice_kb`"),
            (mix(50, HUGE_KB), "`elephant_kb`"),
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
        parse_scenario(&fault(3, 0.0), "mem", "x").expect("in-range fault");
        parse_scenario(&ring(12, 64), "mem", "x").expect("one rank per host");
        parse_scenario(&incast(6, 32), "mem", "x").expect("the whole other rack");
        parse_scenario(&mix(50, 1000), "mem", "x").expect("in-range mix");
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
        assert_eq!(s.materialize(0, 1).workload, s.base.workload);

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
            [invariants]
            incast_floor_frac = 0.3
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
        assert_eq!(s.invariants.incast_floor_frac, 0.3);
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

        // Unknown top-level table.
        let e = parse_scenario(&format!("{MINIMAL}\n[faultx]\nspine = 0\n"), "mem", "x")
            .expect_err("unknown section must fail");
        assert!(
            e.msg.contains("unknown top-level key `faultx`"),
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
