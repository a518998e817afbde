//! Workspace layout: mapping a source path to the crate and code kind
//! the rule scopes are expressed in.

use std::path::{Path, PathBuf};

/// Crates whose behavior must be a pure function of (config, seed).
pub const SIM_CRATES: &[&str] = &[
    "sim",
    "net",
    "transport",
    "core",
    "lb",
    "runtime",
    "workload",
    "telemetry",
];

/// Crate directories the analyzer skips entirely: vendored stand-ins
/// for third-party crates (not our code) and the tooling itself.
pub const SKIP_CRATES: &[&str] = &["proptest", "xtask", "analyzer"];

/// What part of a crate a file belongs to.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Kind {
    /// `src/` excluding `src/bin/` — code other crates can link.
    Lib,
    /// `src/bin/` or `src/main.rs` — executable entry points.
    Bin,
    /// `tests/`, `examples/`, `benches/` — never shipped.
    TestOrExample,
}

/// Where a source file sits in the workspace.
#[derive(Clone, Debug)]
pub struct FileClass {
    /// Crate directory name (`"sim"`, `"bench"`, …); `"root"` for the
    /// top-level `hermes-repro` package.
    pub krate: String,
    pub kind: Kind,
    /// Workspace-relative path with `/` separators, for per-file rule
    /// scopes (allowlists name exact files).
    pub rel: String,
}

impl FileClass {
    pub fn is_sim_crate(&self) -> bool {
        SIM_CRATES.contains(&self.krate.as_str())
    }
}

/// Map a workspace-relative path to its crate and kind. Returns `None`
/// for files outside any crate layout we recognize.
pub fn classify(rel: &Path) -> Option<FileClass> {
    let parts: Vec<&str> = rel.iter().filter_map(|c| c.to_str()).collect();
    let (krate, rest) = match parts.as_slice() {
        ["crates", name, rest @ ..] => ((*name).to_string(), rest),
        rest => ("root".to_string(), rest),
    };
    let kind = match rest {
        ["src", "bin", ..] | ["src", "main.rs"] => Kind::Bin,
        ["src", ..] => Kind::Lib,
        ["tests", ..] | ["examples", ..] | ["benches", ..] => Kind::TestOrExample,
        _ => return None,
    };
    Some(FileClass {
        krate,
        kind,
        rel: parts.join("/"),
    })
}

/// Recursively gather `.rs` files, in sorted order for stable output.
pub fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(rd) = std::fs::read_dir(dir) else {
        return;
    };
    let mut entries: Vec<PathBuf> = rd.filter_map(|e| e.ok().map(|e| e.path())).collect();
    entries.sort();
    for p in entries {
        if p.is_dir() {
            let name = p.file_name().and_then(|n| n.to_str()).unwrap_or("");
            if name == "target" || name.starts_with('.') {
                continue;
            }
            collect_rs_files(&p, out);
        } else if p.extension().and_then(|e| e.to_str()) == Some("rs") {
            out.push(p);
        }
    }
}

/// The workspace root, two levels above this crate's manifest.
pub fn workspace_root() -> PathBuf {
    let manifest = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    manifest
        .parent()
        .and_then(Path::parent)
        .expect("crates/analyzer sits two levels below the workspace root")
        .to_path_buf()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classify_maps_workspace_layout() {
        let c = classify(Path::new("crates/net/src/fabric.rs")).expect("classifies");
        assert_eq!(c.krate, "net");
        assert_eq!(c.kind, Kind::Lib);
        assert_eq!(c.rel, "crates/net/src/fabric.rs");
        let c = classify(Path::new("crates/bench/src/bin/fig9.rs")).expect("classifies");
        assert_eq!(c.kind, Kind::Bin);
        let c = classify(Path::new("src/bin/hermes-cli.rs")).expect("classifies");
        assert_eq!(c.krate, "root");
        assert_eq!(c.kind, Kind::Bin);
        let c = classify(Path::new("tests/scenarios.rs")).expect("classifies");
        assert_eq!(c.kind, Kind::TestOrExample);
        assert!(classify(Path::new("README.md")).is_none());
    }

    #[test]
    fn sim_crates_cover_the_stack_and_skip_tooling() {
        for k in ["sim", "net", "telemetry"] {
            let rel = format!("crates/{k}/src/lib.rs");
            assert!(classify(Path::new(&rel)).unwrap().is_sim_crate());
        }
        assert!(!classify(Path::new("crates/bench/src/lib.rs"))
            .unwrap()
            .is_sim_crate());
        assert!(SKIP_CRATES.contains(&"analyzer"), "never scan ourselves");
    }
}
