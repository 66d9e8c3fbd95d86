//! Workspace walking and file classification.
//!
//! The runner decides, from a file's path alone, which rule groups
//! apply to it (see [`FileClass`]); `rules::check_source` then handles
//! the finer-grained `#[cfg(test)]` regions inside library files.

use crate::rules::{check_source, FileClass, Finding};
use std::io;
use std::path::{Path, PathBuf};

/// Crates exempt from the determinism rules (and from `no-print`).
/// `bench` exists to time wall-clock runs, read sweep knobs from the
/// environment and print result tables; `tidy` is build tooling that
/// never touches simulation state; `mcheck-rt` is the concurrency-test
/// scheduler, whose replay/budget knobs (`DQOS_MCHECK_*`) are
/// environment-driven by design.
const NON_SIM_CRATES: &[&str] = &["bench", "tidy", "mcheck-rt"];

/// Files allowed to contain `unsafe`. Deliberately empty: the
/// workspace builds with `#![forbid(unsafe_code)]` everywhere, and any
/// future exception must land here with a PR-reviewed rationale.
const UNSAFE_ALLOWLIST: &[&str] = &[];

/// The only library files allowed to touch `std::net`/`std::process`:
/// the daemon's real-socket transport. Everything else — including the
/// rest of `dqosd` — runs on the deterministic loopback transport, so
/// tier-1 tests can never accidentally open a socket.
const NET_ALLOWLIST: &[&str] = &["crates/dqosd/src/transport/socket.rs"];

/// Classify one workspace-relative path.
pub fn classify(rel: &str) -> FileClass {
    let crate_name = rel
        .strip_prefix("crates/")
        .and_then(|r| r.split('/').next())
        .unwrap_or("deadline-qos");
    let in_src = rel.split('/').any(|seg| seg == "src");
    let is_main = rel.ends_with("/main.rs") || rel == "main.rs";
    let is_lib = in_src && !is_main;
    let is_crate_root = rel == "src/lib.rs"
        || (rel.starts_with("crates/")
            && (rel.ends_with("/src/lib.rs") || rel.ends_with("/src/main.rs")));
    FileClass {
        is_sim: !NON_SIM_CRATES.contains(&crate_name),
        is_lib,
        is_crate_root,
        allow_unsafe: UNSAFE_ALLOWLIST.contains(&rel),
        allow_net: NET_ALLOWLIST.contains(&rel),
    }
}

/// Every `.rs` file dqos-tidy checks, workspace-relative. Scans the
/// umbrella crate's `src`/`tests`/`examples` and each member crate's
/// `src`/`tests`/`benches`/`examples`. Directories named `fixtures`
/// are skipped: they hold deliberately-violating inputs for the
/// fixture tests.
pub fn workspace_files(root: &Path) -> io::Result<Vec<String>> {
    let mut files: Vec<String> = Vec::new();
    let mut scan_roots: Vec<PathBuf> = vec![
        root.join("src"),
        root.join("tests"),
        root.join("examples"),
    ];
    let crates_dir = root.join("crates");
    if crates_dir.is_dir() {
        for entry in std::fs::read_dir(&crates_dir)? {
            let entry = entry?;
            if entry.file_type()?.is_dir() {
                for sub in ["src", "tests", "benches", "examples"] {
                    scan_roots.push(entry.path().join(sub));
                }
            }
        }
    }
    for sr in scan_roots {
        if sr.is_dir() {
            collect_rs(&sr, &mut files, root)?;
        }
    }
    files.sort();
    Ok(files)
}

fn collect_rs(dir: &Path, out: &mut Vec<String>, root: &Path) -> io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if entry.file_type()?.is_dir() {
            if name == "fixtures" || name == "target" {
                continue;
            }
            collect_rs(&path, out, root)?;
        } else if name.ends_with(".rs") {
            if let Ok(rel) = path.strip_prefix(root) {
                out.push(rel.to_string_lossy().replace('\\', "/"));
            }
        }
    }
    Ok(())
}

/// Run the whole lint pass over the workspace at `root`.
pub fn check_workspace(root: &Path) -> io::Result<Vec<Finding>> {
    let mut findings = Vec::new();
    for rel in workspace_files(root)? {
        let src = std::fs::read_to_string(root.join(&rel))?;
        findings.extend(check_source(&rel, &src, &classify(&rel)));
    }
    findings.sort_by(|a, b| (&a.path, a.line, a.rule).cmp(&(&b.path, b.line, b.rule)));
    Ok(findings)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classification_matrix() {
        let c = classify("crates/sim-core/src/exec.rs");
        assert!(c.is_sim && c.is_lib && !c.is_crate_root);
        let c = classify("crates/bench/src/lib.rs");
        assert!(!c.is_sim && c.is_lib && c.is_crate_root);
        let c = classify("crates/tidy/src/main.rs");
        assert!(!c.is_sim && !c.is_lib && c.is_crate_root);
        let c = classify("crates/netsim/tests/some_test.rs");
        assert!(c.is_sim && !c.is_lib && !c.is_crate_root);
        let c = classify("src/lib.rs");
        assert!(c.is_sim && c.is_lib && c.is_crate_root);
        let c = classify("tests/determinism.rs");
        assert!(!c.is_lib);
        let c = classify("crates/queues/benches/bench.rs");
        assert!(!c.is_lib);
        let c = classify("crates/dqosd/src/transport/socket.rs");
        assert!(c.is_sim && c.is_lib && c.allow_net);
        let c = classify("crates/dqosd/src/server.rs");
        assert!(c.is_sim && c.is_lib && !c.allow_net);
    }
}
