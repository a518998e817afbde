//! The scoped rule engine: token-stream checks over one source file.
//!
//! Two generations of rules run here. The five PR-1 rules (wall-clock,
//! hash-order, stray-rng, lib-unwrap, fault-mutation) are ported from
//! the old regex/mask lint onto token sequences. Five more are only
//! expressible at token level: float-determinism, panic-surface,
//! unsafe-inventory, concurrency-readiness, telemetry-hygiene.
//!
//! Scopes are explicit: every rule declares which (crate, kind, file)
//! combinations it covers, and `#[cfg(test)]` regions are excluded by
//! brace-matched token tracking, not text masking. The four new
//! behavioral rules accept per-site suppressions —
//! `// ANALYZER: allow(rule, reason)` trailing the line or on the line
//! immediately above — and every suppression must earn its keep: an
//! unused one is itself a finding (`stale-allow`), as is a malformed
//! one (`allow-syntax`). unsafe-inventory is deliberately *not*
//! suppressible: its escape hatch is the reviewed, committed
//! `analyzer_baseline.json`, so new unsafe is always a visible diff.

use crate::classify::{FileClass, Kind};
use crate::lexer::{lex, Tok, TokKind};
use std::collections::BTreeSet;

/// One rule violation (or meta-finding) at a source line.
#[derive(Clone, Debug)]
pub struct Finding {
    /// Workspace-relative path with `/` separators.
    pub file: String,
    /// 1-based source line.
    pub line: u32,
    pub rule: &'static str,
    /// The trimmed source line, for human-readable reports.
    pub text: String,
}

/// One `unsafe` occurrence that carries its `// SAFETY:` justification.
/// Keyed by content, not line number, so pure code motion never churns
/// the committed baseline.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct UnsafeSite {
    pub file: String,
    /// The trimmed source line containing the `unsafe` keyword.
    pub context: String,
    /// The `SAFETY:` comment text (the reason the baseline requires).
    pub safety: String,
}

/// Everything the engine extracted from one file.
#[derive(Default)]
pub struct FileReport {
    pub findings: Vec<Finding>,
    pub unsafe_sites: Vec<UnsafeSite>,
}

/// Rules a `// ANALYZER: allow(rule, reason)` comment may suppress.
/// The legacy five predate suppressions and stay absolute;
/// unsafe-inventory's only escape hatch is the committed baseline.
pub const SUPPRESSIBLE: &[&str] = &[
    "float-determinism",
    "panic-surface",
    "concurrency-readiness",
    "telemetry-hygiene",
];

/// Why each rule exists — printed once per tripped rule in reports.
pub const RULE_WHY: &[(&str, &str)] = &[
    (
        "wall-clock",
        "simulation crates must use hermes_sim::Time; only hermes-bench times real execution",
    ),
    (
        "hash-order",
        "hash iteration order is per-process random; use BTreeMap/BTreeSet/Vec so event and RNG \
         order is reproducible",
    ),
    (
        "stray-rng",
        "all randomness must derive from SimRng so the master seed determines every draw",
    ),
    (
        "lib-unwrap",
        "library code must expect() with an invariant message or handle the None/Err",
    ),
    (
        "fault-mutation",
        "mid-run fabric mutation must be scheduled via a FaultPlan so it flows through the event \
         queue (digested, deterministic); only hermes-net defines these operations and only \
         hermes-runtime dispatches them",
    ),
    (
        "float-determinism",
        "engine-layer float arithmetic accumulates differently the moment evaluation order \
         changes; keep it to the allowlisted modules or use fixed-point/stable-order forms",
    ),
    (
        "panic-surface",
        "hot-path modules must not be able to panic mid-run; prove the invariant and suppress \
         per-site with `// ANALYZER: allow(panic-surface, reason)`",
    ),
    (
        "unsafe-inventory",
        "every unsafe block needs a `// SAFETY:` comment and a reviewed analyzer_baseline.json \
         entry, so new unsafe is always an explicit diff",
    ),
    (
        "concurrency-readiness",
        "sim-facing crates and testkit stay single-thread-deterministic; threads, locks, \
         atomics and `static mut` belong only in hermes-bench's `run_points`, the one pool, \
         which runs independent whole runs (DESIGN.md §17 records why no in-run parallel \
         engine ships)",
    ),
    (
        "telemetry-hygiene",
        "emit_with closures must be side-effect-free so the disabled sink keeps zero overhead \
         and identical digests",
    ),
    (
        "allow-syntax",
        "suppressions must be `// ANALYZER: allow(rule, reason)` with a suppressible rule and a \
         non-empty reason",
    ),
    (
        "stale-allow",
        "this suppression no longer matches any finding; delete it so allows stay meaningful",
    ),
];

pub fn rule_why(name: &str) -> &'static str {
    RULE_WHY
        .iter()
        .find(|(n, _)| *n == name)
        .map_or("", |(_, why)| why)
}

/// Engine-layer files where float math is deliberate and reviewed.
/// Everything here is either setup-time conversion or per-entity local
/// state with a fixed update order — none of it accumulates across a
/// would-be shard boundary. Documented in DESIGN.md §13.
pub const FLOAT_ALLOW: &[(&str, &str)] = &[
    (
        "crates/sim/src/rng.rs",
        "u64->f64 unit-interval mapping is the seeded draw itself; bit-exact by construction",
    ),
    (
        "crates/sim/src/time.rs",
        "secs<->ns conversions at the config boundary; Time stays integer nanoseconds",
    ),
    (
        "crates/net/src/rate.rs",
        "DRE EWMA is per-port local state updated in event order",
    ),
    (
        "crates/net/src/failure.rs",
        "hash->unit-interval mapping, a pure function of the packet tuple",
    ),
    (
        "crates/net/src/packet.rs",
        "CONGA ce/fb congestion metadata mirrors the paper's header fields",
    ),
    (
        "crates/net/src/topology.rs",
        "link-rate unit conversions for construction and display, not in the event path",
    ),
    (
        "crates/net/src/faultplan.rs",
        "drop-rate ramps are computed when the plan is built, before the run starts",
    ),
    (
        "crates/runtime/src/config.rs",
        "workload weights and rates parsed at setup time",
    ),
];

/// Hot-path files outside `crates/sim` that panic-surface also covers.
const PANIC_HOT_FILES: &[&str] = &["crates/net/src/port.rs", "crates/net/src/pool.rs"];

/// Identifiers that read as keywords before `[` (array literals /
/// types, not indexing).
const NONINDEX_KEYWORDS: &[&str] = &[
    "return", "break", "in", "if", "else", "match", "mut", "ref", "as", "const", "static", "move",
    "loop", "while", "for", "where", "unsafe", "dyn", "impl", "box", "await", "yield",
];

/// Assignment operators (each is a single token from the lexer, so `=`
/// here can never be half of `==`/`=>`/`<=`/`>=`/`!=`).
const ASSIGN_OPS: &[&str] = &[
    "=", "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=", "<<=", ">>=",
];

fn float_scope(c: &FileClass) -> bool {
    matches!(c.krate.as_str(), "sim" | "net" | "runtime")
        && c.kind == Kind::Lib
        && !FLOAT_ALLOW.iter().any(|(f, _)| *f == c.rel)
}

fn panic_scope(c: &FileClass) -> bool {
    (c.krate == "sim" && c.kind == Kind::Lib) || PANIC_HOT_FILES.contains(&c.rel.as_str())
}

fn concurrency_scope(c: &FileClass) -> bool {
    (c.is_sim_crate() || c.krate == "testkit") && c.kind == Kind::Lib
}

fn telemetry_scope(c: &FileClass) -> bool {
    c.is_sim_crate() && c.kind == Kind::Lib
}

struct Suppression {
    line: u32,
    rule: String,
    used: bool,
}

/// Run every applicable rule over one file's source.
pub fn scan_file(source: &str, class: &FileClass) -> FileReport {
    let toks = lex(source);
    let code: Vec<usize> = (0..toks.len()).filter(|&i| !toks[i].is_comment()).collect();
    let lines: Vec<&str> = source.lines().collect();
    let mut s = Scanner {
        toks: &toks,
        code: &code,
        lines: &lines,
        class,
        in_test: Vec::new(),
        test_line_ranges: Vec::new(),
        sups: Vec::new(),
        seen: BTreeSet::new(),
        report: FileReport::default(),
    };
    s.mark_cfg_test();
    s.collect_suppressions();
    s.legacy_rules();
    s.float_determinism();
    s.panic_surface();
    s.unsafe_inventory();
    s.concurrency_readiness();
    s.telemetry_hygiene();
    s.stale_allows();
    s.report.findings.sort_by_key(|f| (f.line, f.rule));
    s.report
}

struct Scanner<'a> {
    toks: &'a [Tok<'a>],
    /// Indices into `toks` of the non-comment tokens.
    code: &'a [usize],
    lines: &'a [&'a str],
    class: &'a FileClass,
    /// Per-`code`-index: inside a `#[cfg(test)]` item?
    in_test: Vec<bool>,
    test_line_ranges: Vec<(u32, u32)>,
    sups: Vec<Suppression>,
    /// (rule, line) dedup so one line trips one rule once.
    seen: BTreeSet<(&'static str, u32)>,
    report: FileReport,
}

impl<'a> Scanner<'a> {
    fn ct(&self, ci: usize) -> Tok<'a> {
        self.toks[self.code[ci]]
    }

    /// Do the code tokens starting at `ci` spell out `pat` exactly?
    fn seq(&self, ci: usize, pat: &[&str]) -> bool {
        ci + pat.len() <= self.code.len()
            && pat
                .iter()
                .enumerate()
                .all(|(k, p)| self.ct(ci + k).text == *p)
    }

    fn src_line(&self, line: u32) -> String {
        self.lines
            .get(line as usize - 1)
            .map_or("", |l| l.trim())
            .to_string()
    }

    fn in_test_line(&self, line: u32) -> bool {
        self.test_line_ranges
            .iter()
            .any(|&(a, b)| (a..=b).contains(&line))
    }

    /// Record a finding at `line`, honoring suppressions (for the
    /// suppressible rules) and per-(rule, line) dedup.
    fn push(&mut self, rule: &'static str, line: u32) {
        if SUPPRESSIBLE.contains(&rule) {
            if let Some(s) = self
                .sups
                .iter_mut()
                .find(|s| s.rule == rule && (s.line == line || s.line + 1 == line))
            {
                s.used = true;
                return;
            }
        }
        if self.seen.insert((rule, line)) {
            self.report.findings.push(Finding {
                file: self.class.rel.clone(),
                line,
                rule,
                text: self.src_line(line),
            });
        }
    }

    /// Brace-matched `#[cfg(test)]` item tracking: from the attribute
    /// through the gated item's closing `}` (or `;`), including any
    /// further attributes between the two. Works across nested modules
    /// because the match counts real brace tokens, not text.
    fn mark_cfg_test(&mut self) {
        self.in_test = vec![false; self.code.len()];
        let mut i = 0;
        while i < self.code.len() {
            if !self.seq(i, &["#", "[", "cfg", "(", "test", ")", "]"]) {
                i += 1;
                continue;
            }
            let start = i;
            let mut j = i + 7;
            // Skip stacked attributes (`#[cfg(test)] #[allow(...)] mod …`).
            while j + 1 < self.code.len() && self.ct(j).text == "#" && self.ct(j + 1).text == "[" {
                let mut depth = 0usize;
                let mut k = j + 1;
                while k < self.code.len() {
                    match self.ct(k).text {
                        "[" => depth += 1,
                        "]" => {
                            depth -= 1;
                            if depth == 0 {
                                break;
                            }
                        }
                        _ => {}
                    }
                    k += 1;
                }
                j = k + 1;
            }
            // The gated item: runs to its matched `}`, or to `;` for a
            // braceless item (`#[cfg(test)] use …;`).
            while j < self.code.len() && self.ct(j).text != "{" && self.ct(j).text != ";" {
                j += 1;
            }
            let end = if j < self.code.len() && self.ct(j).text == "{" {
                let mut depth = 0usize;
                let mut k = j;
                while k < self.code.len() {
                    match self.ct(k).text {
                        "{" => depth += 1,
                        "}" => {
                            depth -= 1;
                            if depth == 0 {
                                break;
                            }
                        }
                        _ => {}
                    }
                    k += 1;
                }
                k.min(self.code.len() - 1)
            } else {
                j.min(self.code.len() - 1)
            };
            for flag in &mut self.in_test[start..=end] {
                *flag = true;
            }
            self.test_line_ranges
                .push((self.ct(start).line, self.ct(end).line));
            i = end + 1;
        }
    }

    /// Parse `// ANALYZER: allow(rule, reason)` comments. Malformed or
    /// unknown-rule suppressions become `allow-syntax` findings
    /// immediately; well-formed ones are checked for use at the end.
    fn collect_suppressions(&mut self) {
        let mut bad: Vec<u32> = Vec::new();
        for t in self.toks.iter().filter(|t| t.kind == TokKind::LineComment) {
            let body = t
                .text
                .trim_start_matches('/')
                .trim_start_matches('!')
                .trim();
            let Some(rest) = body.strip_prefix("ANALYZER:") else {
                continue;
            };
            let rest = rest.trim();
            let parsed = rest
                .strip_prefix("allow(")
                .and_then(|r| r.strip_suffix(')'))
                .and_then(|inner| inner.split_once(','))
                .map(|(rule, reason)| (rule.trim().to_string(), reason.trim().to_string()));
            match parsed {
                Some((rule, reason))
                    if SUPPRESSIBLE.contains(&rule.as_str()) && !reason.is_empty() =>
                {
                    self.sups.push(Suppression {
                        line: t.line,
                        rule,
                        used: false,
                    });
                }
                _ => bad.push(t.line),
            }
        }
        for line in bad {
            self.push("allow-syntax", line);
        }
    }

    /// Every well-formed suppression must have matched a finding;
    /// leftovers are findings themselves (outside test regions, where
    /// the suppressed construct may be compiled away).
    fn stale_allows(&mut self) {
        let stale: Vec<u32> = self
            .sups
            .iter()
            .filter(|s| !s.used && !self.in_test_line(s.line))
            .map(|s| s.line)
            .collect();
        for line in stale {
            self.push("stale-allow", line);
        }
    }

    /// The five PR-1 rules, ported onto token sequences. Same scopes as
    /// the regex lint: wall-clock / hash-order in sim crates,
    /// stray-rng everywhere, lib-unwrap in library code, fault-mutation
    /// in sim crates outside the fault core (net defines, runtime
    /// dispatches).
    fn legacy_rules(&mut self) {
        let c = self.class;
        let sim = c.is_sim_crate();
        let fault = sim && c.krate != "net" && c.krate != "runtime";
        for i in 0..self.code.len() {
            if self.in_test[i] {
                continue;
            }
            let line = self.ct(i).line;
            let t = self.ct(i);
            if sim {
                if self.seq(i, &["std", "::", "time"])
                    || self.seq(i, &["Instant", "::", "now"])
                    || (t.kind == TokKind::Ident && t.text == "SystemTime")
                {
                    self.push("wall-clock", line);
                }
                if t.kind == TokKind::Ident && (t.text == "HashMap" || t.text == "HashSet") {
                    self.push("hash-order", line);
                }
            }
            if (t.kind == TokKind::Ident
                && matches!(t.text, "thread_rng" | "from_entropy" | "OsRng"))
                || self.seq(i, &["rand", "::", "random"])
            {
                self.push("stray-rng", line);
            }
            if c.kind == Kind::Lib && self.seq(i, &[".", "unwrap", "(", ")"]) {
                self.push("lib-unwrap", line);
            }
            if fault
                && t.kind == TokKind::Ident
                && matches!(t.text, "set_spine_failure" | "apply_fault")
            {
                self.push("fault-mutation", line);
            }
        }
    }

    /// Float literals, `f32`/`f64` mentions (types, casts, paths) in
    /// the engine layer outside the reviewed allowlist.
    fn float_determinism(&mut self) {
        if !float_scope(self.class) {
            return;
        }
        for i in 0..self.code.len() {
            if self.in_test[i] {
                continue;
            }
            let t = self.ct(i);
            let hit = t.kind == TokKind::Float
                || (t.kind == TokKind::Ident && matches!(t.text, "f32" | "f64"));
            if hit {
                self.push("float-determinism", t.line);
            }
        }
    }

    /// Panicking constructs and slice indexing in hot-path modules.
    /// A single integer-literal index (`s[0]`) is exempt: it is as
    /// statically checkable as a field access. Computed indices must
    /// argue their invariant in a suppression.
    fn panic_surface(&mut self) {
        if !panic_scope(self.class) {
            return;
        }
        for i in 0..self.code.len() {
            if self.in_test[i] {
                continue;
            }
            let line = self.ct(i).line;
            if self.seq(i, &[".", "unwrap", "("])
                || self.seq(i, &[".", "expect", "("])
                || self.seq(i, &["panic", "!"])
                || self.seq(i, &["unreachable", "!"])
                || self.seq(i, &["todo", "!"])
                || self.seq(i, &["unimplemented", "!"])
            {
                self.push("panic-surface", line);
                continue;
            }
            // Indexing: `[` after an expression tail (identifier, `)`
            // or `]`), i.e. not an array literal/type or attribute.
            if self.ct(i).text == "[" && i > 0 {
                let prev = self.ct(i - 1);
                let indexes = match prev.kind {
                    TokKind::Ident => !NONINDEX_KEYWORDS.contains(&prev.text),
                    TokKind::Punct => prev.text == ")" || prev.text == "]",
                    _ => false,
                };
                let literal_index = i + 2 < self.code.len()
                    && self.ct(i + 1).kind == TokKind::Int
                    && self.ct(i + 2).text == "]";
                if indexes && !literal_index {
                    self.push("panic-surface", line);
                }
            }
        }
    }

    /// Every `unsafe` outside test code needs a `SAFETY:` comment —
    /// trailing on the same line or in the comment block immediately
    /// above. Justified sites go to the inventory (compared against
    /// the committed baseline by the caller); unjustified ones are
    /// findings and never enter the inventory.
    fn unsafe_inventory(&mut self) {
        for i in 0..self.code.len() {
            if self.in_test[i] {
                continue;
            }
            let t = self.ct(i);
            if t.kind != TokKind::Ident || t.text != "unsafe" {
                continue;
            }
            match self.safety_comment_for(t.line) {
                Some(safety) => {
                    let site = UnsafeSite {
                        file: self.class.rel.clone(),
                        context: self.src_line(t.line),
                        safety,
                    };
                    if !self.report.unsafe_sites.contains(&site) {
                        self.report.unsafe_sites.push(site);
                    }
                }
                None => self.push("unsafe-inventory", t.line),
            }
        }
    }

    /// The `SAFETY:` text covering an `unsafe` at `line`, if any:
    /// same-line trailing comment, or the contiguous comment run
    /// directly above.
    fn safety_comment_for(&self, line: u32) -> Option<String> {
        let comment_on = |l: u32| -> Option<&Tok<'a>> {
            self.toks.iter().find(|t| t.is_comment() && t.line == l)
        };
        let extract = |t: &Tok<'a>| -> Option<String> {
            t.text
                .split_once("SAFETY:")
                .map(|(_, rest)| rest.trim().trim_end_matches("*/").trim().to_string())
        };
        if let Some(s) = comment_on(line).and_then(&extract) {
            return Some(s);
        }
        let mut l = line.saturating_sub(1);
        while l > 0 {
            let Some(t) = comment_on(l) else { break };
            if let Some(s) = extract(t) {
                return Some(s);
            }
            l -= 1;
        }
        None
    }

    /// Threads, locks, atomics and `static mut` in sim-facing crates:
    /// all of it belongs in testkit's scoped pool of whole runs.
    fn concurrency_readiness(&mut self) {
        if !concurrency_scope(self.class) {
            return;
        }
        for i in 0..self.code.len() {
            if self.in_test[i] {
                continue;
            }
            let t = self.ct(i);
            let line = t.line;
            if self.seq(i, &["static", "mut"])
                || self.seq(i, &["thread", "::", "spawn"])
                || self.seq(i, &["std", "::", "thread"])
                || self.seq(i, &["sync", "::", "atomic"])
            {
                self.push("concurrency-readiness", line);
                continue;
            }
            if t.kind == TokKind::Ident
                && (matches!(t.text, "Mutex" | "RwLock" | "Condvar")
                    || (t.text.starts_with("Atomic") && t.text.len() > "Atomic".len()))
            {
                self.push("concurrency-readiness", line);
            }
        }
    }

    /// `emit_with` argument lists must stay side-effect-free: no
    /// `&mut`, no assignment operators, no `borrow_mut`/`lock`. The
    /// zero-overhead-when-off guarantee assumes skipping the closure
    /// changes nothing.
    fn telemetry_hygiene(&mut self) {
        if !telemetry_scope(self.class) {
            return;
        }
        let mut i = 0;
        while i < self.code.len() {
            let callish = !self.in_test[i]
                && self.ct(i).kind == TokKind::Ident
                && self.ct(i).text == "emit_with"
                && i + 1 < self.code.len()
                && self.ct(i + 1).text == "(";
            if !callish {
                i += 1;
                continue;
            }
            // Paren-match the whole argument list.
            let mut depth = 0usize;
            let mut k = i + 1;
            while k < self.code.len() {
                match self.ct(k).text {
                    "(" => depth += 1,
                    ")" => {
                        depth -= 1;
                        if depth == 0 {
                            break;
                        }
                    }
                    _ => {}
                }
                k += 1;
            }
            let end = k.min(self.code.len() - 1);
            for j in i + 2..end {
                let t = self.ct(j);
                let dirty = (t.text == "&" && self.seq(j, &["&", "mut"]))
                    || (t.kind == TokKind::Punct && ASSIGN_OPS.contains(&t.text))
                    || (t.kind == TokKind::Ident && matches!(t.text, "borrow_mut" | "lock"));
                if dirty {
                    self.push("telemetry-hygiene", t.line);
                }
            }
            i = end + 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::classify::classify;
    use std::path::Path;

    fn scan_at(rel: &str, src: &str) -> Vec<&'static str> {
        let class = classify(Path::new(rel)).expect("fixture path classifies");
        scan_file(src, &class)
            .findings
            .into_iter()
            .map(|f| f.rule)
            .collect()
    }

    #[test]
    fn cfg_test_tracking_spans_nested_modules() {
        let src = "fn live() { let _m: HashMap<u8, u8> = HashMap::new(); }\n\
                   #[cfg(test)]\nmod tests {\n  mod inner {\n    fn f() { Some(1).unwrap(); }\n  }\n\
                   \n  fn g() { let _ = std::time::Instant::now(); }\n}\n\
                   fn also_live(x: Option<u8>) -> u8 { x.unwrap() }\n";
        let rules = scan_at("crates/lb/src/t.rs", src);
        assert!(
            rules.contains(&"hash-order"),
            "code before the test mod scans"
        );
        assert_eq!(
            rules.iter().filter(|r| **r == "lib-unwrap").count(),
            1,
            "only the unwrap after the test mod counts: {rules:?}"
        );
        assert!(
            !rules.contains(&"wall-clock"),
            "nested test-mod contents are exempt: {rules:?}"
        );
    }

    #[test]
    fn cfg_test_with_stacked_attributes() {
        let src = "#[cfg(test)]\n#[allow(dead_code)]\nmod tests { fn f() { Some(1).unwrap(); } }\n";
        assert!(scan_at("crates/lb/src/t.rs", src).is_empty());
    }

    #[test]
    fn suppression_grammar() {
        // Trailing, with reason: suppressed, not stale.
        let src = "fn f(x: Option<u32>) -> u32 {\n    x.expect(\"inv\") // ANALYZER: allow(panic-surface, invariant: caller checked)\n}\n";
        assert!(
            scan_at("crates/sim/src/t.rs", src).is_empty(),
            "trailing allow"
        );
        // On the line above.
        let src = "fn f(x: Option<u32>) -> u32 {\n    // ANALYZER: allow(panic-surface, invariant: caller checked)\n    x.expect(\"inv\")\n}\n";
        assert!(
            scan_at("crates/sim/src/t.rs", src).is_empty(),
            "leading allow"
        );
        // Missing reason → allow-syntax (and the finding still fires).
        let src = "fn f(x: Option<u32>) -> u32 {\n    x.expect(\"inv\") // ANALYZER: allow(panic-surface,)\n}\n";
        let rules = scan_at("crates/sim/src/t.rs", src);
        assert!(rules.contains(&"allow-syntax"), "{rules:?}");
        assert!(rules.contains(&"panic-surface"), "{rules:?}");
        // Unknown rule → allow-syntax.
        let rules = scan_at(
            "crates/sim/src/t.rs",
            "fn f() {} // ANALYZER: allow(no-such-rule, because)\n",
        );
        assert!(rules.contains(&"allow-syntax"), "{rules:?}");
        // Legacy rules are not suppressible.
        let rules = scan_at(
            "crates/sim/src/t.rs",
            "fn f() {} // ANALYZER: allow(hash-order, please)\n",
        );
        assert!(rules.contains(&"allow-syntax"), "{rules:?}");
        // Unused suppression → stale-allow.
        let rules = scan_at(
            "crates/sim/src/t.rs",
            "// ANALYZER: allow(panic-surface, nothing here panics)\nfn f() {}\n",
        );
        assert!(rules.contains(&"stale-allow"), "{rules:?}");
    }

    #[test]
    fn float_rule_scope_and_allowlist() {
        let src = "pub fn f(x: u64) -> f64 { x as f64 * 0.5 }\n";
        assert!(scan_at("crates/sim/src/t.rs", src).contains(&"float-determinism"));
        assert!(scan_at("crates/net/src/t.rs", src).contains(&"float-determinism"));
        // Allowlisted module, algorithmic crates, and non-lib code are out of scope.
        assert!(scan_at("crates/sim/src/rng.rs", src).is_empty());
        assert!(scan_at("crates/core/src/t.rs", src).is_empty());
        assert!(scan_at("crates/sim/tests/t.rs", src).is_empty());
        // The token form: `0..10` is a range, not a float.
        assert!(scan_at("crates/sim/src/t.rs", "fn f() { for _ in 0..10 {} }\n").is_empty());
    }

    #[test]
    fn panic_surface_indexing() {
        // Computed index fires; literal index is exempt.
        assert!(scan_at(
            "crates/sim/src/t.rs",
            "fn f(v: &[u32], i: usize) -> u32 { v[i] }\n"
        )
        .contains(&"panic-surface"));
        assert!(scan_at(
            "crates/sim/src/t.rs",
            "fn f(v: &[u32; 4]) -> u32 { v[0] }\n"
        )
        .is_empty());
        // Array literals and types don't index.
        assert!(scan_at(
            "crates/sim/src/t.rs",
            "fn f() -> [u8; 4] { [0u8; 4] }\nstatic Z: [u8; 2] = [0, 0];\n"
        )
        .is_empty());
        // expect/panic!/unreachable! in scope fire; out of scope don't.
        assert!(
            scan_at("crates/sim/src/t.rs", "fn f() { panic!(\"no\") }\n")
                .contains(&"panic-surface")
        );
        assert!(scan_at(
            "crates/net/src/port.rs",
            "fn f(x: Option<u8>) -> u8 { x.expect(\"inv\") }\n"
        )
        .contains(&"panic-surface"));
        assert!(scan_at("crates/lb/src/t.rs", "fn f() { panic!(\"no\") }\n").is_empty());
    }

    #[test]
    fn unsafe_inventory_wants_safety_comments() {
        let bare = "pub fn f(p: *const u8) -> u8 { unsafe { *p } }\n";
        assert!(scan_at("crates/net/src/t.rs", bare).contains(&"unsafe-inventory"));
        let trailing =
            "pub fn f(p: *const u8) -> u8 { unsafe { *p } // SAFETY: caller upholds validity\n}\n";
        let class = classify(Path::new("crates/net/src/t.rs")).unwrap();
        let rep = scan_file(trailing, &class);
        assert!(rep.findings.is_empty(), "{:?}", rep.findings);
        assert_eq!(rep.unsafe_sites.len(), 1);
        assert_eq!(rep.unsafe_sites[0].safety, "caller upholds validity");
        let above = "// SAFETY: p is checked non-null by the caller\npub fn f(p: *const u8) -> u8 { unsafe { *p } }\n";
        let rep = scan_file(above, &class);
        assert!(rep.findings.is_empty());
        assert_eq!(
            rep.unsafe_sites[0].safety,
            "p is checked non-null by the caller"
        );
        // Test-gated unsafe is neither a finding nor inventoried.
        let gated = "#[cfg(test)]\nmod t { fn f(p: *const u8) -> u8 { unsafe { *p } } }\n";
        let rep = scan_file(gated, &class);
        assert!(rep.findings.is_empty() && rep.unsafe_sites.is_empty());
    }

    #[test]
    fn concurrency_readiness_scope() {
        for src in [
            "static mut COUNTER: u64 = 0;\n",
            "pub fn f() { let _h = std::thread::spawn(|| {}); }\n",
            "use std::sync::Mutex;\n",
            "use std::sync::atomic::AtomicUsize;\n",
        ] {
            assert!(
                scan_at("crates/sim/src/t.rs", src).contains(&"concurrency-readiness"),
                "should fire on: {src}"
            );
        }
        // All of testkit is in scope, its grid runner included; the
        // digest and run-loop files are engine code like any other;
        // bench, home of the one pool, is out of scope entirely.
        let src = "use std::sync::Mutex;\n";
        for file in [
            "crates/testkit/src/run.rs",
            "crates/net/src/audit.rs",
            "crates/runtime/src/sim.rs",
        ] {
            for src in [
                "pub fn f() { let _h = std::thread::spawn(|| {}); }\n",
                "use std::sync::Mutex;\n",
                "use std::sync::atomic::AtomicU64;\n",
            ] {
                assert!(
                    scan_at(file, src).contains(&"concurrency-readiness"),
                    "{file} should be flagged on: {src}"
                );
            }
        }
        assert!(scan_at("crates/testkit/src/spec.rs", src).contains(&"concurrency-readiness"));
        assert!(scan_at("crates/net/src/fabric.rs", src).contains(&"concurrency-readiness"));
        assert!(scan_at("crates/bench/src/t.rs", src).is_empty());
    }

    #[test]
    fn telemetry_hygiene_flags_side_effects() {
        let dirty = "fn f(sink: &Sink, n: &mut u64) {\n    sink.emit_with(POINT, || { *n += 1; make_record() });\n}\n";
        assert!(scan_at("crates/core/src/t.rs", dirty).contains(&"telemetry-hygiene"));
        let dirty2 = "fn f(sink: &Sink, c: &Cell) {\n    sink.emit_with(POINT, || record(c.state.borrow_mut()));\n}\n";
        assert!(scan_at("crates/core/src/t.rs", dirty2).contains(&"telemetry-hygiene"));
        let clean = "fn f(sink: &Sink, a: u64) {\n    sink.emit_with(POINT, || Record { a, b: a == 3, c: a <= 9 });\n}\n";
        assert!(
            scan_at("crates/core/src/t.rs", clean).is_empty(),
            "comparisons are not assignments"
        );
        // `&mut` outside the emit_with argument list is fine.
        let outside = "fn f(sink: &Sink, n: &mut u64) {\n    *n += 1;\n    sink.emit_with(POINT, || Record { a: 1 });\n}\n";
        assert!(scan_at("crates/core/src/t.rs", outside).is_empty());
    }

    #[test]
    fn findings_dedup_per_rule_and_line() {
        let src = "fn f(a: f64, b: f64) -> f64 { a * 2.0 + b * 3.0 }\n";
        let class = classify(Path::new("crates/sim/src/t.rs")).unwrap();
        let rep = scan_file(src, &class);
        assert_eq!(rep.findings.len(), 1, "{:?}", rep.findings);
    }
}
