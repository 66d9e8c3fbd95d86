//! Every rule demonstrably fires (bad fixture) and demonstrably stays
//! quiet on the idiomatic alternative (ok fixture) — plus the self-check
//! that the real workspace is clean, which is what keeps the justification
//! comments in the tree honest.
//!
//! Fixtures live under `tests/fixtures/`; the workspace walker skips any
//! directory named `fixtures`, so the deliberate violations in the bad
//! files never pollute a real `dqos-tidy` run.

use dqos_tidy::{check_source, check_workspace, FileClass, Finding};

/// Run one fixture under the given classification.
fn run(name: &str, src: &str, class: &FileClass) -> Vec<Finding> {
    check_source(name, src, class)
}

/// Rules that fired, deduplicated, in finding order.
fn rules_of(findings: &[Finding]) -> Vec<&str> {
    let mut out: Vec<&str> = Vec::new();
    for f in findings {
        if !out.contains(&f.rule) {
            out.push(f.rule);
        }
    }
    out
}

/// Assert the bad fixture fires `rule` and the ok fixture is silent.
fn assert_pair(rule: &str, bad: &str, ok: &str, class: &FileClass) {
    let bad_findings = run("bad", bad, class);
    assert!(
        bad_findings.iter().any(|f| f.rule == rule),
        "bad fixture for `{rule}` did not fire it; got {:?}",
        rules_of(&bad_findings)
    );
    let ok_findings = run("ok", ok, class);
    assert!(
        ok_findings.is_empty(),
        "ok fixture for `{rule}` is not clean; got {ok_findings:?}"
    );
}

fn crate_root_class() -> FileClass {
    let mut c = FileClass::sim_lib();
    c.is_crate_root = true;
    c
}

#[test]
fn wall_clock() {
    assert_pair(
        "wall-clock",
        include_str!("fixtures/bad_wall_clock.rs"),
        include_str!("fixtures/ok_wall_clock.rs"),
        &FileClass::sim_lib(),
    );
}

#[test]
fn env_read() {
    assert_pair(
        "env-read",
        include_str!("fixtures/bad_env_read.rs"),
        include_str!("fixtures/ok_env_read.rs"),
        &FileClass::sim_lib(),
    );
}

#[test]
fn hash_iter() {
    assert_pair(
        "hash-iter",
        include_str!("fixtures/bad_hash_iter.rs"),
        include_str!("fixtures/ok_hash_iter.rs"),
        &FileClass::sim_lib(),
    );
}

#[test]
fn float_eq() {
    assert_pair(
        "float-eq",
        include_str!("fixtures/bad_float_eq.rs"),
        include_str!("fixtures/ok_float_eq.rs"),
        &FileClass::sim_lib(),
    );
}

#[test]
fn float_ord() {
    assert_pair(
        "float-ord",
        include_str!("fixtures/bad_float_ord.rs"),
        include_str!("fixtures/ok_float_ord.rs"),
        &FileClass::sim_lib(),
    );
}

#[test]
fn atomic_ordering() {
    assert_pair(
        "atomic-ordering",
        include_str!("fixtures/bad_atomic_ordering.rs"),
        include_str!("fixtures/ok_atomic_ordering.rs"),
        &FileClass::sim_lib(),
    );
}

#[test]
fn unsafe_code() {
    assert_pair(
        "unsafe-code",
        include_str!("fixtures/bad_unsafe.rs"),
        include_str!("fixtures/ok_unsafe.rs"),
        &FileClass::sim_lib(),
    );
}

#[test]
fn forbid_unsafe() {
    assert_pair(
        "forbid-unsafe",
        include_str!("fixtures/bad_forbid_unsafe.rs"),
        include_str!("fixtures/ok_forbid_unsafe.rs"),
        &crate_root_class(),
    );
}

#[test]
fn no_print() {
    assert_pair(
        "no-print",
        include_str!("fixtures/bad_no_print.rs"),
        include_str!("fixtures/ok_no_print.rs"),
        &FileClass::sim_lib(),
    );
}

#[test]
fn no_unwrap() {
    assert_pair(
        "no-unwrap",
        include_str!("fixtures/bad_no_unwrap.rs"),
        include_str!("fixtures/ok_no_unwrap.rs"),
        &FileClass::sim_lib(),
    );
}

#[test]
fn hot_path_alloc() {
    assert_pair(
        "hot-path-alloc",
        include_str!("fixtures/bad_hot_path_alloc.rs"),
        include_str!("fixtures/ok_hot_path_alloc.rs"),
        &FileClass::sim_lib(),
    );
}

#[test]
fn hot_path_alloc_fires_once_per_allocation() {
    // The bad fixture allocates in three distinct loops (Vec::new,
    // Box::new, .collect()) — each must be its own finding.
    let findings = run(
        "bad",
        include_str!("fixtures/bad_hot_path_alloc.rs"),
        &FileClass::sim_lib(),
    );
    let hits = findings.iter().filter(|f| f.rule == "hot-path-alloc").count();
    assert_eq!(hits, 3, "expected one finding per allocating loop; got {findings:?}");
}

#[test]
fn hot_path_sync() {
    assert_pair(
        "hot-path-sync",
        include_str!("fixtures/bad_hot_path_sync.rs"),
        include_str!("fixtures/ok_hot_path_sync.rs"),
        &FileClass::sim_lib(),
    );
}

#[test]
fn hot_path_sync_only_applies_to_declared_modules() {
    // The same blocking primitives are fine in a module that never
    // declares `tidy: hot-path` — this rule bans them on the executor's
    // steady-state path, not workspace-wide.
    let src = include_str!("fixtures/bad_hot_path_sync.rs")
        .replace("// tidy: hot-path\n", "");
    let findings = run("bad", &src, &FileClass::sim_lib());
    assert!(
        !findings.iter().any(|f| f.rule == "hot-path-sync"),
        "hot-path-sync fired without a hot-path declaration: {findings:?}"
    );
}

#[test]
fn atomic_isolation() {
    assert_pair(
        "atomic-isolation",
        include_str!("fixtures/bad_atomic_isolation.rs"),
        include_str!("fixtures/ok_atomic_isolation.rs"),
        &FileClass::sim_lib(),
    );
}

#[test]
fn atomic_isolation_only_applies_to_declared_modules() {
    // Raw `std::sync::atomic` is fine in modules that never declare
    // `tidy: hot-path` — the shim requirement exists so the checker can
    // schedule the lock-free protocol code, not workspace-wide.
    let src = include_str!("fixtures/bad_atomic_isolation.rs")
        .replace("// tidy: hot-path\n", "");
    let findings = run("bad", &src, &FileClass::sim_lib());
    assert!(
        !findings.iter().any(|f| f.rule == "atomic-isolation"),
        "atomic-isolation fired without a hot-path declaration: {findings:?}"
    );
}

#[test]
fn net_isolation() {
    assert_pair(
        "net-isolation",
        include_str!("fixtures/bad_net_isolation.rs"),
        include_str!("fixtures/ok_net_isolation.rs"),
        &FileClass::sim_lib(),
    );
}

#[test]
fn net_isolation_allowlisted_file_is_exempt() {
    let mut class = FileClass::sim_lib();
    class.allow_net = true;
    let findings = run(
        "socket.rs",
        include_str!("fixtures/bad_net_isolation.rs"),
        &class,
    );
    assert!(
        !findings.iter().any(|f| f.rule == "net-isolation"),
        "allowlisted socket transport must not fire net-isolation; got {findings:?}"
    );
}

#[test]
fn bad_directive() {
    assert_pair(
        "bad-directive",
        include_str!("fixtures/bad_bad_directive.rs"),
        include_str!("fixtures/ok_bad_directive.rs"),
        &FileClass::sim_lib(),
    );
}

#[test]
fn unused_allow() {
    assert_pair(
        "unused-allow",
        include_str!("fixtures/bad_unused_allow.rs"),
        include_str!("fixtures/ok_unused_allow.rs"),
        &FileClass::sim_lib(),
    );
}

#[test]
fn every_rule_has_a_fixture_pair() {
    // Rules added to the catalog must come with fixture coverage; this
    // keeps the pairs above in lock-step with `RULES`.
    let covered = [
        "wall-clock",
        "env-read",
        "hash-iter",
        "float-eq",
        "float-ord",
        "atomic-ordering",
        "unsafe-code",
        "forbid-unsafe",
        "no-print",
        "no-unwrap",
        "hot-path-alloc",
        "hot-path-sync",
        "atomic-isolation",
        "net-isolation",
        "bad-directive",
        "unused-allow",
    ];
    for r in dqos_tidy::RULES {
        assert!(
            covered.contains(&r.id),
            "rule `{}` has no fixture pair in tests/fixtures.rs",
            r.id
        );
    }
    assert_eq!(covered.len(), dqos_tidy::RULES.len());
}

#[test]
fn real_workspace_is_clean() {
    // CARGO_MANIFEST_DIR is crates/tidy; the workspace root is two up.
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("..")
        .join("..");
    let findings = check_workspace(&root).expect("workspace scan");
    assert!(
        findings.is_empty(),
        "dqos-tidy found {} finding(s) in the real workspace:\n{}",
        findings.len(),
        findings.iter().map(|f| f.to_string()).collect::<Vec<_>>().join("\n")
    );
}
