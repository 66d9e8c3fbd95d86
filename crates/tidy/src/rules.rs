//! The rule catalog and the per-file checker.
//!
//! Rules operate on the token stream from [`crate::lexer`], never on raw
//! text: string literals, comments and doc examples can mention
//! `HashMap` or `.unwrap()` freely. Each rule fires as a [`Finding`];
//! findings can be suppressed by the justification directives defined
//! in the lexer (`tidy: allow`, `tidy: sorted-before-use`,
//! `ordering:`), and a justification that suppresses nothing is itself
//! a finding — stale allowances rot.
//!
//! See `DESIGN.md` §8 for the rationale behind every rule.

use crate::lexer::{self, DirectiveKind, Tok, TokKind};

/// One rule violation (or meta-finding such as a malformed directive).
#[derive(Debug, Clone)]
pub struct Finding {
    /// File the finding is in (workspace-relative when produced by the
    /// runner; the label passed in when produced by `check_source`).
    pub path: String,
    /// 1-based line.
    pub line: u32,
    /// Stable rule identifier (`wall-clock`, `no-unwrap`, …).
    pub rule: &'static str,
    /// Human-readable description of this specific violation.
    pub msg: String,
}

impl std::fmt::Display for Finding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}:{}: [{}] {}", self.path, self.line, self.rule, self.msg)
    }
}

/// Static description of a rule, for `--list` and the docs.
pub struct RuleInfo {
    /// Stable identifier used in findings and `allow(...)`.
    pub id: &'static str,
    /// One-line description.
    pub what: &'static str,
}

/// The full catalog.
pub const RULES: &[RuleInfo] = &[
    RuleInfo {
        id: "wall-clock",
        what: "no Instant/SystemTime in sim-crate library code: simulated time only",
    },
    RuleInfo {
        id: "env-read",
        what: "no env::var/env::args in sim-crate library code: runs must not depend on ambient state",
    },
    RuleInfo {
        id: "hash-iter",
        what: "no HashMap/HashSet in sim-crate library code: iteration order is seeded per-process \
               (use BTreeMap/BTreeSet, or justify with `tidy: sorted-before-use`)",
    },
    RuleInfo {
        id: "float-eq",
        what: "no ==/!= on floating-point values in sim-crate library code: compare integer ticks",
    },
    RuleInfo {
        id: "float-ord",
        what: "no .partial_cmp() calls in sim-crate library code: use total_cmp so NaN cannot \
               poison an ordering",
    },
    RuleInfo {
        id: "atomic-ordering",
        what: "every Relaxed/Acquire/Release/AcqRel memory ordering needs an `// ordering:` \
               justification (SeqCst is the unjustified default)",
    },
    RuleInfo {
        id: "lock-order",
        what: "files with a `tidy: lock-order(...)` declaration must acquire locks in that order",
    },
    RuleInfo {
        id: "hot-path-sync",
        what: "modules declaring `tidy: hot-path` must not use blocking sync primitives (Barrier, \
               Mutex, RwLock, Condvar) in library code: the steady-state path is lock-free \
               rings and atomics (justify cold-path setup/teardown uses with \
               `tidy: allow(hot-path-sync)`)",
    },
    RuleInfo {
        id: "atomic-isolation",
        what: "modules declaring `tidy: hot-path` must route atomics and thread operations \
               through the tsync shim (dqos_mcheck_rt::tsync), not std::sync::atomic / \
               std::thread, so the systematic concurrency checker sees every access \
               (justify exceptions with `tidy: allow(atomic-isolation)`)",
    },
    RuleInfo {
        id: "unsafe-code",
        what: "`unsafe` is forbidden outside the allowlist (currently empty)",
    },
    RuleInfo {
        id: "forbid-unsafe",
        what: "every crate root must carry #![forbid(unsafe_code)]",
    },
    RuleInfo {
        id: "no-print",
        what: "no println!/print!/eprintln!/eprint! in sim-crate library code: exporters and \
               reports go through writers or returned strings, never straight to the terminal",
    },
    RuleInfo {
        id: "no-unwrap",
        what: "no unwrap/expect/panic!/unreachable!/todo!/unimplemented! in non-test library \
               code: return SimError (or justify the invariant)",
    },
    RuleInfo {
        id: "hot-path-alloc",
        what: "modules declaring `tidy: hot-path` must not heap-allocate (Box::new, Vec::new, \
               vec![], .collect()) inside loop bodies: hoist into a reused scratch buffer",
    },
    RuleInfo {
        id: "net-isolation",
        what: "no std::net / std::process in sim-crate library code outside the daemon's socket \
               transport: tests must stay offline-deterministic on the loopback transport",
    },
    RuleInfo {
        id: "bad-directive",
        what: "malformed tidy/ordering directive comment",
    },
    RuleInfo {
        id: "unused-allow",
        what: "a justification directive that suppressed nothing (stale allowance)",
    },
];

/// How the runner classified a file; drives which rules apply.
#[derive(Debug, Clone)]
pub struct FileClass {
    /// Determinism rules (wall-clock, env-read, hash-iter, float-eq,
    /// float-ord) apply. False for `bench` (it times wall-clock runs)
    /// and `tidy` itself.
    pub is_sim: bool,
    /// Library (non-test, non-bench, non-example) code: robustness and
    /// atomic-ordering rules apply.
    pub is_lib: bool,
    /// This file is a crate root and must carry `#![forbid(unsafe_code)]`.
    pub is_crate_root: bool,
    /// This file must declare a `tidy: lock-order(...)`.
    pub requires_lock_order: bool,
    /// File is on the unsafe allowlist.
    pub allow_unsafe: bool,
    /// File may touch `std::net`/`std::process` (the daemon's socket
    /// transport is the only entry).
    pub allow_net: bool,
}

impl FileClass {
    /// The strictest classification: sim-crate library code.
    pub fn sim_lib() -> Self {
        FileClass {
            is_sim: true,
            is_lib: true,
            is_crate_root: false,
            requires_lock_order: false,
            allow_unsafe: false,
            allow_net: false,
        }
    }
}

/// Bookkeeping for one suppression directive.
struct Suppression {
    kind: DirectiveKind,
    line: u32,
    /// Lines this directive covers: its own line and the next line that
    /// carries code (for stand-alone comment lines).
    targets: [u32; 2],
    used: bool,
}

/// Run every applicable rule on one source file.
pub fn check_source(path: &str, src: &str, class: &FileClass) -> Vec<Finding> {
    let lexed = lexer::lex(src);
    let toks = &lexed.tokens;
    let test_mask = test_region_mask(toks);
    let mut findings: Vec<Finding> = Vec::new();

    for (line, msg) in &lexed.errors {
        findings.push(Finding {
            path: path.to_string(),
            line: *line,
            rule: "bad-directive",
            msg: msg.clone(),
        });
    }

    let mut supps: Vec<Suppression> = lexed
        .directives
        .iter()
        .filter(|d| !matches!(d.kind, DirectiveKind::LockOrder { .. } | DirectiveKind::HotPath))
        .map(|d| Suppression {
            kind: d.kind.clone(),
            line: d.line,
            targets: [d.line, next_code_line(toks, d.line)],
            used: false,
        })
        .collect();
    let lock_order: Option<Vec<String>> = lexed.directives.iter().find_map(|d| match &d.kind {
        DirectiveKind::LockOrder { order } => Some(order.clone()),
        _ => None,
    });
    let hot_path = lexed.directives.iter().any(|d| matches!(d.kind, DirectiveKind::HotPath));

    // Emit a finding unless a matching justification covers its line.
    let mut emit = |rule: &'static str, line: u32, msg: String, supps: &mut Vec<Suppression>| {
        for s in supps.iter_mut() {
            let covers = s.targets.contains(&line);
            let matches_rule = match &s.kind {
                DirectiveKind::Allow { rule: r, .. } => r == rule,
                DirectiveKind::SortedBeforeUse { .. } => rule == "hash-iter",
                DirectiveKind::Ordering { .. } => rule == "atomic-ordering",
                DirectiveKind::LockOrder { .. } | DirectiveKind::HotPath => false,
            };
            if covers && matches_rule {
                s.used = true;
                return;
            }
        }
        findings.push(Finding { path: path.to_string(), line, rule, msg });
    };

    // --- token-pattern rules ---------------------------------------
    for (i, t) in toks.iter().enumerate() {
        let in_test = test_mask[i];
        let lib_code = class.is_lib && !in_test;
        let sim_code = class.is_sim && lib_code;

        if t.kind == TokKind::Ident {
            let name = t.text.as_str();
            if sim_code && (name == "Instant" || name == "SystemTime") {
                emit(
                    "wall-clock",
                    t.line,
                    format!("`{name}` reads the host clock; simulations must use SimTime"),
                    &mut supps,
                );
            }
            if sim_code
                && name == "env"
                && punct(toks, i + 1, "::")
                && ident_in(toks, i + 2, &["var", "vars", "var_os", "vars_os", "args", "args_os"])
            {
                emit(
                    "env-read",
                    t.line,
                    format!(
                        "`env::{}` makes the run depend on ambient process state",
                        toks[i + 2].text
                    ),
                    &mut supps,
                );
            }
            if sim_code
                && !class.allow_net
                && name == "std"
                && punct(toks, i + 1, "::")
                && ident_in(toks, i + 2, &["net", "process"])
            {
                emit(
                    "net-isolation",
                    t.line,
                    format!(
                        "`std::{}` in sim-crate library code; real sockets and subprocesses \
                         live only in the daemon's socket transport — everything else runs \
                         on the deterministic loopback",
                        toks[i + 2].text
                    ),
                    &mut supps,
                );
            }
            if sim_code && (name == "HashMap" || name == "HashSet") {
                emit(
                    "hash-iter",
                    t.line,
                    format!(
                        "`{name}` iteration order is per-process; use BTreeMap/BTreeSet or \
                         justify with `tidy: sorted-before-use -- ...`"
                    ),
                    &mut supps,
                );
            }
            if lib_code && matches!(name, "Relaxed" | "Acquire" | "Release" | "AcqRel") {
                emit(
                    "atomic-ordering",
                    t.line,
                    format!(
                        "`Ordering::{name}` is weaker than SeqCst and needs an \
                         `// ordering:` justification"
                    ),
                    &mut supps,
                );
            }
            if name == "unsafe" && !class.allow_unsafe {
                emit(
                    "unsafe-code",
                    t.line,
                    "`unsafe` is forbidden outside the allowlist".to_string(),
                    &mut supps,
                );
            }
            if sim_code
                && matches!(name, "println" | "print" | "eprintln" | "eprint")
                && punct(toks, i + 1, "!")
            {
                emit(
                    "no-print",
                    t.line,
                    format!(
                        "`{name}!` in library code; route output through a writer or return \
                         a String (binaries and the bench harness may print)"
                    ),
                    &mut supps,
                );
            }
            if lib_code
                && matches!(name, "panic" | "unreachable" | "todo" | "unimplemented")
                && punct(toks, i + 1, "!")
            {
                emit(
                    "no-unwrap",
                    t.line,
                    format!("`{name}!` in library code; return a structured SimError instead"),
                    &mut supps,
                );
            }
            if hot_path
                && lib_code
                && name == "sync"
                && punct(toks, i + 1, "::")
                && ident_in(toks, i + 2, &["atomic"])
            {
                emit(
                    "atomic-isolation",
                    t.line,
                    "`std::sync::atomic` in a `tidy: hot-path` module; route atomics \
                     through the `tsync` shim (`dqos_mcheck_rt::tsync`) so the systematic \
                     concurrency checker sees every access (justify exceptions with \
                     `tidy: allow(atomic-isolation)`)"
                        .to_string(),
                    &mut supps,
                );
            }
            if hot_path
                && lib_code
                && name == "thread"
                && punct(toks, i + 1, "::")
                && ident_in(toks, i + 2, &["spawn", "scope", "yield_now", "Builder"])
            {
                emit(
                    "atomic-isolation",
                    t.line,
                    format!(
                        "`thread::{}` in a `tidy: hot-path` module; route thread \
                         operations through the `tsync` shim (`dqos_mcheck_rt::tsync`) so \
                         the systematic concurrency checker manages the thread (justify \
                         exceptions with `tidy: allow(atomic-isolation)`)",
                        toks[i + 2].text
                    ),
                    &mut supps,
                );
            }
            if hot_path && lib_code && matches!(name, "Barrier" | "Mutex" | "RwLock" | "Condvar")
            {
                emit(
                    "hot-path-sync",
                    t.line,
                    format!(
                        "`{name}` in a `tidy: hot-path` module; the steady-state path must use \
                         lock-free rings and atomics (justify cold-path uses with \
                         `tidy: allow(hot-path-sync)`)"
                    ),
                    &mut supps,
                );
            }
        }

        if t.kind == TokKind::Punct && t.text == "." {
            if lib_code && ident_in(toks, i + 1, &["unwrap", "expect"]) {
                emit(
                    "no-unwrap",
                    toks[i + 1].line,
                    format!(
                        "`.{}()` in library code; return a structured SimError instead",
                        toks[i + 1].text
                    ),
                    &mut supps,
                );
            }
            if sim_code && ident_in(toks, i + 1, &["partial_cmp"]) {
                emit(
                    "float-ord",
                    toks[i + 1].line,
                    "`.partial_cmp()` returns None on NaN; use `total_cmp` for float keys"
                        .to_string(),
                    &mut supps,
                );
            }
        }

        if sim_code && t.kind == TokKind::Punct && (t.text == "==" || t.text == "!=") {
            if let Some(side) = float_operand(toks, i) {
                emit(
                    "float-eq",
                    t.line,
                    format!(
                        "floating-point `{}` against {side}; compare integer ticks or use an \
                         epsilon",
                        t.text
                    ),
                    &mut supps,
                );
            }
        }
    }

    // --- hot-path allocation rule ----------------------------------
    // Declared per-file; only loop bodies are checked, because that is
    // where an allocation happens once per event rather than once per
    // run. Setup code above the loop may allocate freely.
    if hot_path && class.is_lib {
        let loop_mask = loop_body_mask(toks);
        for (i, t) in toks.iter().enumerate() {
            if !loop_mask[i] || test_mask[i] {
                continue;
            }
            if t.kind == TokKind::Ident {
                let name = t.text.as_str();
                if matches!(name, "Box" | "Vec")
                    && punct(toks, i + 1, "::")
                    && ident_in(toks, i + 2, &["new", "with_capacity"])
                {
                    emit(
                        "hot-path-alloc",
                        t.line,
                        format!(
                            "`{name}::{}` heap-allocates inside a loop body in a \
                             `tidy: hot-path` module; hoist it into a reused scratch buffer",
                            toks[i + 2].text
                        ),
                        &mut supps,
                    );
                }
                if name == "vec" && punct(toks, i + 1, "!") {
                    emit(
                        "hot-path-alloc",
                        t.line,
                        "`vec![...]` heap-allocates inside a loop body in a \
                         `tidy: hot-path` module; hoist it into a reused scratch buffer"
                            .to_string(),
                        &mut supps,
                    );
                }
            }
            if t.kind == TokKind::Punct && t.text == "." && ident_in(toks, i + 1, &["collect"]) {
                emit(
                    "hot-path-alloc",
                    toks[i + 1].line,
                    "`.collect()` builds a fresh container inside a loop body in a \
                     `tidy: hot-path` module; hoist it into a reused scratch buffer"
                        .to_string(),
                    &mut supps,
                );
            }
        }
    }

    // --- file-shape rules ------------------------------------------
    if class.is_crate_root && !has_forbid_unsafe(toks) {
        emit(
            "forbid-unsafe",
            1,
            "crate root lacks #![forbid(unsafe_code)]".to_string(),
            &mut supps,
        );
    }

    match (&lock_order, class.requires_lock_order) {
        (None, true) => emit(
            "lock-order",
            1,
            "this file takes multiple locks and must declare \
             `// tidy: lock-order(a < b)`"
                .to_string(),
            &mut supps,
        ),
        (Some(order), _) => {
            // Route through `emit` so `tidy: allow(lock-order)` can cover
            // individual acquisitions (e.g. a generic lock helper whose
            // receiver name is a type parameter, not a real lock).
            let mut lo = Vec::new();
            check_lock_order(path, toks, order, &mut lo);
            for f in lo {
                emit("lock-order", f.line, f.msg, &mut supps);
            }
        }
        (None, false) => {}
    }

    for s in &supps {
        if !s.used {
            let what = match &s.kind {
                DirectiveKind::Allow { rule, .. } => format!("allow({rule})"),
                DirectiveKind::SortedBeforeUse { .. } => "sorted-before-use".to_string(),
                DirectiveKind::Ordering { .. } => "ordering:".to_string(),
                DirectiveKind::LockOrder { .. } => "lock-order".to_string(),
                DirectiveKind::HotPath => "hot-path".to_string(),
            };
            findings.push(Finding {
                path: path.to_string(),
                line: s.line,
                rule: "unused-allow",
                msg: format!("`{what}` justification suppressed nothing; remove it"),
            });
        }
    }

    findings.sort_by(|a, b| (a.line, a.rule).cmp(&(b.line, b.rule)));
    findings
}

/// Is `toks[i]` a punct with exactly this text?
fn punct(toks: &[Tok], i: usize, text: &str) -> bool {
    toks.get(i).is_some_and(|t| t.kind == TokKind::Punct && t.text == text)
}

/// Is `toks[i]` an ident among `set`?
fn ident_in(toks: &[Tok], i: usize, set: &[&str]) -> bool {
    toks.get(i).is_some_and(|t| t.kind == TokKind::Ident && set.contains(&t.text.as_str()))
}

/// First line after `after` that carries a code token.
fn next_code_line(toks: &[Tok], after: u32) -> u32 {
    toks.iter().map(|t| t.line).filter(|&l| l > after).min().unwrap_or(0)
}

/// Mark every token inside a `for`/`while`/`loop` body. The body brace
/// is the first `{` after the loop keyword at paren/bracket depth 0, so
/// closure blocks inside the iterator or condition expression (always
/// inside a call's parentheses) do not truncate the body. `for` counts
/// only when a top-level `in` precedes the brace: `impl Trait for Type`
/// and HRTB `for<'a>` never have one.
fn loop_body_mask(toks: &[Tok]) -> Vec<bool> {
    let mut mask = vec![false; toks.len()];
    for i in 0..toks.len() {
        let t = &toks[i];
        if t.kind != TokKind::Ident {
            continue;
        }
        let is_loop = match t.text.as_str() {
            "loop" | "while" => true,
            "for" => is_for_loop(toks, i),
            _ => false,
        };
        if !is_loop {
            continue;
        }
        if let Some(open) = body_brace(toks, i + 1) {
            let close = matching(toks, open, "{", "}");
            for m in mask.iter_mut().take(close + 1).skip(open) {
                *m = true;
            }
        }
    }
    mask
}

/// Is the `for` at `for_idx` a loop (vs `impl … for …` / HRTB)? A loop
/// has a top-level `in` between the keyword and its body brace.
fn is_for_loop(toks: &[Tok], for_idx: usize) -> bool {
    let mut depth = 0i32;
    for t in &toks[for_idx + 1..] {
        match (t.kind, t.text.as_str()) {
            (TokKind::Punct, "(" | "[") => depth += 1,
            (TokKind::Punct, ")" | "]") => depth -= 1,
            (TokKind::Punct, "{" | ";") if depth == 0 => return false,
            (TokKind::Ident, "in") if depth == 0 => return true,
            _ => {}
        }
    }
    false
}

/// Index of the first `{` at paren/bracket depth 0 at or after `from`
/// (a loop's body brace), stopping at a top-level `;`.
fn body_brace(toks: &[Tok], from: usize) -> Option<usize> {
    let mut depth = 0i32;
    for (j, t) in toks.iter().enumerate().skip(from) {
        match (t.kind, t.text.as_str()) {
            (TokKind::Punct, "(" | "[") => depth += 1,
            (TokKind::Punct, ")" | "]") => depth -= 1,
            (TokKind::Punct, "{") if depth == 0 => return Some(j),
            (TokKind::Punct, ";") if depth == 0 => return None,
            _ => {}
        }
    }
    None
}

/// Does either operand of the `==`/`!=` at `eq` look like a float?
/// Left: a float literal, or a call chain ending in `…_f64()`/`…_f32()`.
/// Right: a float literal, possibly negated.
fn float_operand(toks: &[Tok], eq: usize) -> Option<&'static str> {
    // Right side: `== 1.5` or `== -1.5`.
    match toks.get(eq + 1) {
        Some(t) if t.kind == TokKind::Float => return Some("a float literal"),
        Some(t) if t.kind == TokKind::Punct && t.text == "-" => {
            if toks.get(eq + 2).is_some_and(|t| t.kind == TokKind::Float) {
                return Some("a float literal");
            }
        }
        _ => {}
    }
    // Left side.
    if eq == 0 {
        return None;
    }
    let prev = &toks[eq - 1];
    if prev.kind == TokKind::Float {
        return Some("a float literal");
    }
    // `x.as_secs_f64() ==` — walk back over the `()` to the method name.
    if prev.kind == TokKind::Punct && prev.text == ")" {
        let mut depth = 1i32;
        let mut j = eq - 1;
        while j > 0 && depth > 0 {
            j -= 1;
            match toks[j].text.as_str() {
                ")" if toks[j].kind == TokKind::Punct => depth += 1,
                "(" if toks[j].kind == TokKind::Punct => depth -= 1,
                _ => {}
            }
        }
        if j > 0 {
            let callee = &toks[j - 1];
            if callee.kind == TokKind::Ident
                && (callee.text.ends_with("_f64") || callee.text.ends_with("_f32"))
            {
                return Some("an `…_f64()` conversion");
            }
        }
    }
    None
}

/// Does the file open with `#![forbid(unsafe_code)]`?
fn has_forbid_unsafe(toks: &[Tok]) -> bool {
    toks.windows(8).any(|w| {
        w[0].text == "#"
            && w[1].text == "!"
            && w[2].text == "["
            && w[3].text == "forbid"
            && w[4].text == "("
            && w[5].text == "unsafe_code"
            && w[6].text == ")"
            && w[7].text == "]"
    })
}

/// Mark every token that lives inside a `#[cfg(test)]`- or
/// `#[test]`-gated item. Conservative: any attribute mentioning the
/// bare identifier `test` gates the item that follows.
fn test_region_mask(toks: &[Tok]) -> Vec<bool> {
    let mut mask = vec![false; toks.len()];
    let mut i = 0usize;
    while i < toks.len() {
        if punct(toks, i, "#") && punct(toks, i + 1, "[") {
            let attr_end = matching(toks, i + 1, "[", "]");
            let gated = toks[i + 2..attr_end]
                .iter()
                .any(|t| t.kind == TokKind::Ident && t.text == "test");
            if gated {
                // Skip any further attributes, then mark the item.
                let mut j = attr_end + 1;
                while punct(toks, j, "#") && punct(toks, j + 1, "[") {
                    j = matching(toks, j + 1, "[", "]") + 1;
                }
                let end = item_end(toks, j);
                for m in mask.iter_mut().take(end + 1).skip(i) {
                    *m = true;
                }
                i = end + 1;
                continue;
            }
            i = attr_end + 1;
            continue;
        }
        i += 1;
    }
    mask
}

/// Index of the delimiter matching `toks[open]`.
fn matching(toks: &[Tok], open: usize, o: &str, c: &str) -> usize {
    let mut depth = 0i32;
    let mut i = open;
    while i < toks.len() {
        if toks[i].kind == TokKind::Punct {
            if toks[i].text == o {
                depth += 1;
            } else if toks[i].text == c {
                depth -= 1;
                if depth == 0 {
                    return i;
                }
            }
        }
        i += 1;
    }
    toks.len().saturating_sub(1)
}

/// End (inclusive) of the item starting at `start`: the matching `}` of
/// its first body brace, or the first top-level `;` (for `mod x;`,
/// `use …;`, statics).
fn item_end(toks: &[Tok], start: usize) -> usize {
    let mut i = start;
    let mut depth = 0i32;
    while i < toks.len() {
        match (toks[i].kind, toks[i].text.as_str()) {
            (TokKind::Punct, "{") => {
                let end = matching(toks, i, "{", "}");
                return end;
            }
            (TokKind::Punct, ";") if depth == 0 => return i,
            (TokKind::Punct, "(") | (TokKind::Punct, "[") => depth += 1,
            (TokKind::Punct, ")") | (TokKind::Punct, "]") => depth -= 1,
            _ => {}
        }
        i += 1;
    }
    toks.len().saturating_sub(1)
}

/// Enforce a declared lock order: scanning the file, every `.lock(`
/// acquisition must name a declared lock, and a lock may only be
/// acquired while all currently-held locks precede it in the declared
/// order. Held-until is approximated as "to the end of the enclosing
/// block", which is conservative (guards can drop earlier) but exact
/// for the `let guard = x.lock()…` shape.
fn check_lock_order(path: &str, toks: &[Tok], order: &[String], findings: &mut Vec<Finding>) {
    let idx_of = |name: &str| order.iter().position(|o| o == name);
    let mut held: Vec<(String, i32)> = Vec::new();
    let mut depth = 0i32;
    let mut i = 0usize;
    while i < toks.len() {
        let t = &toks[i];
        if t.kind == TokKind::Punct {
            match t.text.as_str() {
                "{" => depth += 1,
                "}" => {
                    depth -= 1;
                    held.retain(|&(_, d)| d <= depth);
                }
                "." if ident_in(toks, i + 1, &["lock"]) && punct(toks, i + 2, "(") => {
                    let name = receiver_name(toks, i);
                    let line = toks[i + 1].line;
                    match name.as_deref().and_then(idx_of) {
                        None => findings.push(Finding {
                            path: path.to_string(),
                            line,
                            rule: "lock-order",
                            msg: format!(
                                "lock `{}` is not in the declared lock-order ({})",
                                name.as_deref().unwrap_or("<unknown>"),
                                order.join(" < ")
                            ),
                        }),
                        Some(my) => {
                            for (h, _) in &held {
                                if idx_of(h).is_some_and(|hi| hi > my) {
                                    findings.push(Finding {
                                        path: path.to_string(),
                                        line,
                                        rule: "lock-order",
                                        msg: format!(
                                            "acquiring `{}` while holding `{h}` violates the \
                                             declared order ({})",
                                            order[my],
                                            order.join(" < ")
                                        ),
                                    });
                                }
                            }
                            held.push((order[my].clone(), depth));
                        }
                    }
                    i += 2;
                }
                _ => {}
            }
        }
        i += 1;
    }
}

/// Name of the receiver of the `.lock()` whose dot is at `dot`: the
/// identifier before the dot, skipping one balanced `[…]`/`(…)` group
/// (for `slots[part].lock()` shapes).
fn receiver_name(toks: &[Tok], dot: usize) -> Option<String> {
    if dot == 0 {
        return None;
    }
    let mut j = dot - 1;
    if toks[j].kind == TokKind::Punct && (toks[j].text == "]" || toks[j].text == ")") {
        let (c, o) = if toks[j].text == "]" { ("]", "[") } else { (")", "(") };
        let mut depth = 0i32;
        loop {
            if toks[j].kind == TokKind::Punct {
                if toks[j].text == c {
                    depth += 1;
                } else if toks[j].text == o {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
            }
            if j == 0 {
                return None;
            }
            j -= 1;
        }
        if j == 0 {
            return None;
        }
        j -= 1;
    }
    (toks[j].kind == TokKind::Ident).then(|| toks[j].text.clone())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(src: &str) -> Vec<Finding> {
        check_source("test.rs", src, &FileClass::sim_lib())
    }

    fn rules_of(f: &[Finding]) -> Vec<&'static str> {
        f.iter().map(|x| x.rule).collect()
    }

    #[test]
    fn test_regions_are_exempt() {
        let src = "
fn lib() { }
#[cfg(test)]
mod tests {
    use std::collections::HashMap;
    #[test]
    fn t() { let _ = HashMap::<u8, u8>::new(); foo().unwrap(); }
}
";
        assert!(run(src).is_empty(), "{:?}", run(src));
    }

    #[test]
    fn lib_code_outside_test_mod_is_checked() {
        let src = "
use std::collections::HashMap;
#[cfg(test)]
mod tests {}
";
        assert_eq!(rules_of(&run(src)), ["hash-iter"]);
    }

    #[test]
    fn suppression_covers_next_line() {
        let src = "
// tidy: allow(no-unwrap) -- invariant: the peek above guarantees Some
fn f(v: &mut Vec<u8>) -> u8 { v.pop().unwrap() }
";
        assert!(run(src).is_empty());
    }

    #[test]
    fn hot_path_flags_allocation_in_loop_bodies_only() {
        let src = "
// tidy: hot-path
pub fn f(n: u32) -> Vec<u8> {
    let mut out = Vec::new();
    for _ in 0..n {
        let mut b = Vec::new();
        b.push(1u8);
        out.extend(b);
    }
    out
}
";
        let f = run(src);
        assert_eq!(rules_of(&f), ["hot-path-alloc"]);
        assert_eq!(f.len(), 1, "the pre-loop Vec::new must not fire: {f:?}");
    }

    #[test]
    fn hot_path_ignores_impl_for_and_silent_without_directive() {
        let hot = "
// tidy: hot-path
pub struct S(pub u8);
impl Clone for S {
    fn clone(&self) -> S {
        let b = Box::new(self.0);
        S(*b)
    }
}
";
        assert!(run(hot).is_empty(), "{:?}", run(hot));
        let undeclared = "
pub fn f(n: u32) { for _ in 0..n { let _ = Box::new(n); } }
";
        assert!(run(undeclared).is_empty(), "{:?}", run(undeclared));
    }

    #[test]
    fn hot_path_alloc_can_be_justified() {
        let src = "
// tidy: hot-path
pub fn f(n: u32) -> Vec<Vec<u8>> {
    let mut out = Vec::new();
    for _ in 0..n {
        // tidy: allow(hot-path-alloc) -- cold error branch, taken at most once per run
        out.push(Vec::new());
    }
    out
}
";
        assert!(run(src).is_empty(), "{:?}", run(src));
    }

    #[test]
    fn unused_allow_is_a_finding() {
        let src = "
// tidy: allow(wall-clock) -- nothing here actually reads the clock
fn f() {}
";
        assert_eq!(rules_of(&run(src)), ["unused-allow"]);
    }
}
