//! Self-test fixtures: one or more deliberately-bad sources per rule
//! class, plus clean sources that must not fire. `analyze --self-test`
//! runs all of them through the real engine, proving every rule can
//! both trip and stay quiet — the same discipline the conformance
//! suite applies to its checkers.
//!
//! Each fixture carries a synthetic workspace-relative path so it is
//! scoped exactly like a real file (`classify` derives crate and kind
//! from it). The legacy five use the same sources as PR-1's regex lint,
//! which doubles as the differential test for the token-based port.

/// A source that must trip `rule` when scanned as `path`.
pub struct BadFixture {
    pub rule: &'static str,
    pub path: &'static str,
    pub src: &'static str,
}

/// A source that must produce zero findings when scanned as `path`.
pub struct CleanFixture {
    pub name: &'static str,
    pub path: &'static str,
    pub src: &'static str,
}

const SIM_LIB: &str = "crates/sim/src/fixture.rs";

pub const BAD_FIXTURES: &[BadFixture] = &[
    // ---- the five PR-1 rules, same sources as the regex lint --------
    BadFixture {
        rule: "wall-clock",
        path: SIM_LIB,
        src: "fn f() { let _t = std::time::Instant::now(); }\n",
    },
    BadFixture {
        rule: "wall-clock",
        path: SIM_LIB,
        src: "fn f() { let _t = SystemTime::now(); }\n",
    },
    BadFixture {
        rule: "wall-clock",
        path: "crates/telemetry/src/fixture.rs",
        src: "fn stamp() -> u128 { std::time::Instant::now().elapsed().as_nanos() }\n",
    },
    BadFixture {
        rule: "hash-order",
        path: SIM_LIB,
        src: "use std::collections::HashMap;\nfn f(m: &HashMap<u32, u32>) -> u32 { m.len() as u32 }\n",
    },
    BadFixture {
        rule: "stray-rng",
        path: SIM_LIB,
        src: "fn f() -> u64 { rand::random() }\n",
    },
    BadFixture {
        rule: "stray-rng",
        path: SIM_LIB,
        src: "fn f() { let mut _r = thread_rng(); }\n",
    },
    BadFixture {
        rule: "lib-unwrap",
        path: "crates/lb/src/fixture.rs",
        src: "fn f(x: Option<u32>) -> u32 { x.unwrap() }\n",
    },
    BadFixture {
        rule: "fault-mutation",
        path: "crates/lb/src/fixture.rs",
        src: "fn f(fab: &mut Fabric, f: SpineFailure) { fab.set_spine_failure(SpineId(0), f); }\n",
    },
    BadFixture {
        rule: "fault-mutation",
        path: "crates/lb/src/fixture.rs",
        src: "fn f(fab: &mut Fabric, a: &FaultAction) { fab.apply_fault(a); }\n",
    },
    // ---- float-determinism ------------------------------------------
    BadFixture {
        rule: "float-determinism",
        path: SIM_LIB,
        src: "pub fn ewma(prev: f64, x: u64) -> f64 { prev * 0.9 + (x as f64) * 0.1 }\n",
    },
    BadFixture {
        rule: "float-determinism",
        path: "crates/net/src/fixture.rs",
        src: "pub fn util(bytes: u64, cap: u64) -> f32 { bytes as f32 / cap as f32 }\n",
    },
    // ---- panic-surface ----------------------------------------------
    BadFixture {
        rule: "panic-surface",
        path: SIM_LIB,
        src: "pub fn pop(v: &mut Vec<u32>) -> u32 { v.pop().expect(\"non-empty\") }\n",
    },
    BadFixture {
        rule: "panic-surface",
        path: SIM_LIB,
        src: "pub fn at(v: &[u32], i: usize) -> u32 { v[i] }\n",
    },
    BadFixture {
        rule: "panic-surface",
        path: "crates/net/src/port.rs",
        src: "pub fn f(state: u8) { if state > 3 { panic!(\"bad state\") } }\n",
    },
    BadFixture {
        rule: "panic-surface",
        path: SIM_LIB,
        src: "pub fn f(x: u8) -> u8 { match x { 0 => 1, _ => unreachable!() } }\n",
    },
    // ---- unsafe-inventory -------------------------------------------
    BadFixture {
        rule: "unsafe-inventory",
        path: "crates/net/src/fixture.rs",
        src: "pub fn read(p: *const u8) -> u8 { unsafe { *p } }\n",
    },
    // ---- concurrency-readiness --------------------------------------
    BadFixture {
        rule: "concurrency-readiness",
        path: SIM_LIB,
        src: "static mut TICKS: u64 = 0;\n",
    },
    BadFixture {
        rule: "concurrency-readiness",
        path: SIM_LIB,
        src: "pub fn f() { std::thread::spawn(|| {}); }\n",
    },
    BadFixture {
        rule: "concurrency-readiness",
        path: "crates/core/src/fixture.rs",
        src: "use std::sync::atomic::AtomicUsize;\n",
    },
    BadFixture {
        rule: "concurrency-readiness",
        path: "crates/testkit/src/run.rs",
        src: "use std::sync::Mutex;\npub struct Pool { q: Mutex<Vec<u32>> }\n",
    },
    // ---- telemetry-hygiene ------------------------------------------
    BadFixture {
        rule: "telemetry-hygiene",
        path: "crates/core/src/fixture.rs",
        src: "fn f(sink: &Sink, n: &mut u64) {\n    sink.emit_with(POINT, || { *n += 1; rec() });\n}\n",
    },
    BadFixture {
        rule: "telemetry-hygiene",
        path: "crates/core/src/fixture.rs",
        src: "fn f(sink: &Sink, s: &State) {\n    sink.emit_with(POINT, || rec(s.inner.borrow_mut().take()));\n}\n",
    },
    // ---- suppression meta-rules -------------------------------------
    BadFixture {
        rule: "allow-syntax",
        path: SIM_LIB,
        src: "pub fn at(v: &[u32], i: usize) -> u32 { v[i] } // ANALYZER: allow(panic-surface,)\n",
    },
    BadFixture {
        rule: "allow-syntax",
        path: SIM_LIB,
        src: "fn f() {} // ANALYZER: allow(made-up-rule, reason text)\n",
    },
    BadFixture {
        rule: "stale-allow",
        path: SIM_LIB,
        src: "// ANALYZER: allow(panic-surface, nothing here can panic)\nfn f() {}\n",
    },
];

pub const CLEAN_FIXTURES: &[CleanFixture] = &[
    // ---- the PR-1 clean set (comments/strings/test regions) ---------
    CleanFixture {
        name: "banned token in line comment",
        path: SIM_LIB,
        src: "// std::time::Instant::now() is banned here\nfn f() {}\n",
    },
    CleanFixture {
        name: "banned token in string literal",
        path: SIM_LIB,
        src: "fn f() -> &'static str { \"HashMap iteration order\" }\n",
    },
    CleanFixture {
        name: "banned token in block comment",
        path: SIM_LIB,
        src: "/* thread_rng() would break determinism */\nfn f() {}\n",
    },
    CleanFixture {
        name: "unwrap inside #[cfg(test)]",
        path: SIM_LIB,
        src: "fn f() {}\n#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() { Some(1).unwrap(); }\n}\n",
    },
    CleanFixture {
        name: "lifetimes are not char literals",
        path: SIM_LIB,
        src: "fn lifetime<'a>(x: &'a u64) -> &'a u64 { x }\n",
    },
    CleanFixture {
        name: "fault op named in comment only",
        path: SIM_LIB,
        src: "// never call apply_fault directly; schedule it via a FaultPlan\nfn f() {}\n",
    },
    // ---- token-level cases the regex lint could not express ---------
    CleanFixture {
        name: "banned token inside raw string",
        path: SIM_LIB,
        src: "fn f() -> &'static str { r#\"thread_rng() and \"HashMap\" // not code\"# }\n",
    },
    CleanFixture {
        name: "integer range is not a float",
        path: SIM_LIB,
        src: "pub fn f() -> u64 { (0..10).sum() }\n",
    },
    CleanFixture {
        name: "float math in allowlisted module",
        path: "crates/sim/src/rng.rs",
        src: "pub fn unit(x: u64) -> f64 { (x >> 11) as f64 * (1.0 / 9007199254740992.0) }\n",
    },
    CleanFixture {
        name: "float math in algorithmic crate (out of engine scope)",
        path: "crates/lb/src/fixture.rs",
        src: "pub fn score(a: f64, b: f64) -> f64 { a * 0.5 + b }\n",
    },
    CleanFixture {
        name: "literal index is exempt from panic-surface",
        path: SIM_LIB,
        src: "pub struct S { s: [u64; 4] }\nimpl S { pub fn lo(&self) -> u64 { self.s[0] } }\n",
    },
    CleanFixture {
        name: "suppressed computed index with reason",
        path: SIM_LIB,
        src: "pub fn at(v: &[u64; 8], i: usize) -> u64 {\n    v[i & 7] // ANALYZER: allow(panic-surface, masked to the array length)\n}\n",
    },
    CleanFixture {
        name: "unsafe with trailing SAFETY comment",
        path: "crates/net/src/fixture.rs",
        src: "pub fn read(p: *const u8) -> u8 {\n    unsafe { *p } // SAFETY: caller guarantees p is valid for reads\n}\n",
    },
    CleanFixture {
        name: "unsafe with SAFETY block above",
        path: "crates/net/src/fixture.rs",
        src: "// SAFETY: the slot was initialized by the preceding write;\n// the index is bounds-checked by the caller.\npub fn read(p: *const u8) -> u8 { unsafe { *p } }\n",
    },
    CleanFixture {
        name: "unsafe inside #[cfg(test)] is out of scope",
        path: "crates/net/src/fixture.rs",
        src: "#[cfg(test)]\nmod t {\n    fn f(p: *const u8) -> u8 { unsafe { *p } }\n}\n",
    },
    CleanFixture {
        name: "Mutex in bench (not a sim-facing crate)",
        path: "crates/bench/src/fixture.rs",
        src: "use std::sync::Mutex;\n",
    },
    CleanFixture {
        name: "side-effect-free emit_with closure",
        path: "crates/core/src/fixture.rs",
        src: "fn f(sink: &Sink, a: u64, ok: bool) {\n    sink.emit_with(POINT, || Record { a, b: ok, c: a == 3, d: a <= 9 });\n}\n",
    },
    CleanFixture {
        name: "mutation outside the emit_with call",
        path: "crates/core/src/fixture.rs",
        src: "fn f(sink: &Sink, n: &mut u64) {\n    *n += 1;\n    sink.emit_with(POINT, || Record { a: 1 });\n}\n",
    },
];
