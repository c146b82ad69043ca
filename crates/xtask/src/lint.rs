//! The custom static-analysis pass behind `cargo xtask lint`.
//!
//! Four source-level rules the Rust compiler cannot enforce by itself:
//!
//! * **Rule A — proof confinement.** `Checked { .. }` struct expressions may
//!   appear only in `crates/trust/src/sanitizer.rs`. The struct's private
//!   fields already stop foreign crates; this rule additionally stops code
//!   *inside* the trust crate (and any future `pub(crate)` leak) from
//!   minting proofs outside the sanitizer module.
//! * **Rule B — sink signatures.** The registered memory sinks must not
//!   take raw `PhysAddr` / `Span` / `Tainted` parameters: their signatures
//!   are required to demand `Checked<_>` proofs. A sink disappearing from
//!   its file is also an error, so the registry cannot silently go stale.
//! * **Rule C — lock-rank documentation.** Every `OrderedMutex` /
//!   `OrderedRwLock` declaration (struct field, type alias, or static) must
//!   carry a comment naming its rank from `lockorder.rs`'s documented
//!   hierarchy, so the declared hierarchy and the code never drift apart.
//! * **Rule D — fault-point classification.** Every `fault_point!(` call
//!   site must carry a `// journal:` or `// atomic:` comment (same line or
//!   the contiguous comment block above) stating its crash-consistency
//!   story: `journal:` — the crossing sits inside a journaled window and a
//!   crash there is repaired by replaying the pending intent entry;
//!   `atomic:` — the crossing precedes an all-or-nothing step, so a crash
//!   or injected failure leaves the previous state intact. An unclassified
//!   crossing is untested crash surface by construction (see
//!   ARCHITECTURE.md, "Fault model & recovery").
//!
//! The pass is a deliberately simple hand-rolled scanner (the container has
//! no `syn`): comments and string literals are blanked before rules A and B
//! run, and rule C reads the comments themselves. Unit tests below seed
//! violation fixtures through the same entry points CI uses.

use std::fmt;
use std::path::{Path, PathBuf};

/// One finding; rendered like a compiler diagnostic.
#[derive(Debug, PartialEq, Eq)]
pub struct Violation {
    /// Workspace-relative path.
    pub file: String,
    /// 1-based line number (0 = whole file).
    pub line: usize,
    /// Which rule fired.
    pub rule: &'static str,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "error[{}]: {}:{}: {}",
            self.rule, self.file, self.line, self.message
        )
    }
}

/// The sinks whose signatures must demand `Checked<_>` proofs.
///
/// `(file, fn name)`; extend this list when a new function starts touching
/// memory on behalf of untrusted callers.
const SINK_REGISTRY: &[(&str, &str)] = &[
    ("crates/machine/src/machine.rs", "read_span"),
    ("crates/machine/src/machine.rs", "write_span"),
    ("crates/machine/src/machine.rs", "read_page"),
    ("crates/core/src/mailbox.rs", "send"),
];

/// The only module allowed to construct `Checked`.
const SANITIZER_FILE: &str = "crates/trust/src/sanitizer.rs";

/// File defining the rank vocabulary (exempt from rule C — it *is* the
/// hierarchy).
const LOCKORDER_FILE: &str = "crates/core/src/lockorder.rs";

/// Runs all rules over the workspace rooted at `root`.
pub fn run(root: &Path) -> Vec<Violation> {
    let mut files = Vec::new();
    collect_rust_files(&root.join("crates"), root, &mut files);
    collect_rust_files(&root.join("src"), root, &mut files);
    collect_rust_files(&root.join("tests"), root, &mut files);
    files.sort();

    let ranks = match std::fs::read_to_string(root.join(LOCKORDER_FILE)) {
        Ok(src) => rank_names(&src),
        Err(e) => {
            return vec![Violation {
                file: LOCKORDER_FILE.to_string(),
                line: 0,
                rule: "lock-rank",
                message: format!("cannot read rank vocabulary: {e}"),
            }]
        }
    };

    let mut violations = Vec::new();
    let mut sinks_seen = vec![false; SINK_REGISTRY.len()];
    for rel in &files {
        let Ok(src) = std::fs::read_to_string(root.join(rel)) else {
            continue;
        };
        let rel = rel.to_string_lossy().replace('\\', "/");
        violations.extend(check_file(&rel, &src, &ranks, &mut sinks_seen));
    }
    for (seen, (file, name)) in sinks_seen.iter().zip(SINK_REGISTRY) {
        if !seen {
            violations.push(Violation {
                file: (*file).to_string(),
                line: 0,
                rule: "sink-signature",
                message: format!(
                    "registered sink `fn {name}` not found — update SINK_REGISTRY in xtask"
                ),
            });
        }
    }
    violations
}

/// Runs every rule that applies to one file. `sinks_seen` marks which
/// registry entries were found (checked for completeness by [`run`]).
fn check_file(
    rel: &str,
    src: &str,
    ranks: &[String],
    sinks_seen: &mut [bool],
) -> Vec<Violation> {
    let mut violations = Vec::new();
    // Shims model external crates; xtask lints only first-party code.
    if rel.starts_with("crates/shims/") || rel.starts_with("crates/xtask/") {
        return violations;
    }
    let code = strip_comments_and_strings(src);
    if rel != SANITIZER_FILE {
        violations.extend(checked_constructions(rel, &code));
    }
    for (idx, (file, name)) in SINK_REGISTRY.iter().enumerate() {
        if rel == *file {
            if let Some(found) = sink_signature(rel, &code, name) {
                sinks_seen[idx] = true;
                violations.extend(found);
            }
        }
    }
    if rel != LOCKORDER_FILE {
        violations.extend(undocumented_lock_ranks(rel, src, &code, ranks));
    }
    violations.extend(unclassified_fault_points(rel, src, &code));
    violations
}

// ---------------------------------------------------------------------------
// rule A: proof confinement
// ---------------------------------------------------------------------------

/// Finds `Checked { .. }` / `Checked::<..> { .. }` struct expressions.
///
/// Type positions (`Checked<Span, P>`) are not flagged: a struct expression
/// either opens its brace directly after the name or uses turbofish.
fn checked_constructions(rel: &str, code: &str) -> Vec<Violation> {
    let mut violations = Vec::new();
    let bytes = code.as_bytes();
    let mut search = 0;
    while let Some(pos) = code[search..].find("Checked") {
        let at = search + pos;
        search = at + "Checked".len();
        // Must be a standalone identifier.
        if at > 0 && (bytes[at - 1].is_ascii_alphanumeric() || bytes[at - 1] == b'_') {
            continue;
        }
        // Skip a turbofish `::<...>` (the only generic form legal in
        // expression position).
        let mut after = search;
        if code[after..].starts_with("::<") {
            let mut depth = 0usize;
            for (i, c) in code[after..].char_indices() {
                match c {
                    '<' => depth += 1,
                    '>' => {
                        depth -= 1;
                        if depth == 0 {
                            after += i + 1;
                            break;
                        }
                    }
                    _ => {}
                }
            }
        }
        let next = code[after..].chars().find(|c| !c.is_whitespace());
        if next == Some('{') {
            violations.push(Violation {
                file: rel.to_string(),
                line: line_of(code, at),
                rule: "checked-construction",
                message: "`Checked { .. }` constructed outside the sanitizer module \
                          (crates/trust/src/sanitizer.rs is the only place proofs \
                          may be minted)"
                    .to_string(),
            });
        }
    }
    violations
}

// ---------------------------------------------------------------------------
// rule B: sink signatures
// ---------------------------------------------------------------------------

/// Raw parameter types that must never appear on a registered sink.
const BANNED_SINK_PARAMS: &[&str] = &[": PhysAddr", ": &PhysAddr", ": Span", ": &Span", ": Tainted"];

/// Checks every `fn <name>` signature in `code`; returns `None` if the
/// function does not exist in this file.
fn sink_signature(rel: &str, code: &str, name: &str) -> Option<Vec<Violation>> {
    let mut violations = Vec::new();
    let needle = format!("fn {name}");
    let mut search = 0;
    let mut found = false;
    while let Some(pos) = code[search..].find(&needle) {
        let at = search + pos;
        search = at + needle.len();
        // `fn send` must not match `fn send_mail`.
        match code[search..].chars().next() {
            Some(c) if c.is_alphanumeric() || c == '_' => continue,
            _ => {}
        }
        let Some(open) = code[search..].find('(') else {
            continue;
        };
        let params_start = search + open;
        let mut depth = 0usize;
        let mut end = params_start;
        for (i, c) in code[params_start..].char_indices() {
            match c {
                '(' => depth += 1,
                ')' => {
                    depth -= 1;
                    if depth == 0 {
                        end = params_start + i;
                        break;
                    }
                }
                _ => {}
            }
        }
        found = true;
        let params = &code[params_start..end];
        for banned in BANNED_SINK_PARAMS {
            if params.contains(banned) {
                violations.push(Violation {
                    file: rel.to_string(),
                    line: line_of(code, at),
                    rule: "sink-signature",
                    message: format!(
                        "sink `fn {name}` takes a raw `{}` parameter — sinks must demand \
                         `Checked<_>` proofs",
                        banned.trim_start_matches(": ")
                    ),
                });
            }
        }
    }
    found.then_some(violations)
}

// ---------------------------------------------------------------------------
// rule C: lock-rank documentation
// ---------------------------------------------------------------------------

/// Extracts the rank vocabulary from `lockorder.rs` (`pub const NAME: ...`
/// inside the `rank` module — in practice every upper-case const).
fn rank_names(lockorder_src: &str) -> Vec<String> {
    let mut names = Vec::new();
    for line in lockorder_src.lines() {
        let line = line.trim_start();
        if let Some(rest) = line.strip_prefix("pub const ") {
            if let Some((name, _)) = rest.split_once(':') {
                let name = name.trim();
                if !name.is_empty()
                    && name
                        .chars()
                        .all(|c| c.is_ascii_uppercase() || c.is_ascii_digit() || c == '_')
                {
                    names.push(name.to_string());
                }
            }
        }
    }
    names
}

/// Flags `OrderedMutex` / `OrderedRwLock` declarations (fields, type
/// aliases, statics) whose surrounding comment does not name a known rank.
///
/// `raw` is the original source (comments intact); `code` the stripped
/// version used to decide what is a real declaration.
fn undocumented_lock_ranks(
    rel: &str,
    raw: &str,
    code: &str,
    ranks: &[String],
) -> Vec<Violation> {
    let mut violations = Vec::new();
    let raw_lines: Vec<&str> = raw.lines().collect();
    for (idx, line) in code.lines().enumerate() {
        if !(line.contains("OrderedMutex<") || line.contains("OrderedRwLock<")) {
            continue;
        }
        let trimmed = line.trim_start();
        // Only declarations: struct fields (`name: ...Ordered...<`), type
        // aliases and statics. Function signatures, generic bounds, local
        // borrows and expressions are out of scope.
        let is_alias = trimmed.starts_with("type ") || trimmed.starts_with("pub type ");
        let is_static = trimmed.starts_with("static ") || trimmed.starts_with("pub static ");
        let is_field = !is_alias
            && !is_static
            && !trimmed.contains("fn ")
            && !trimmed.contains('&')
            && field_declaration(trimmed);
        if !(is_alias || is_static || is_field) {
            continue;
        }
        // Look for a rank name on the declaration line itself or in the
        // contiguous comment block immediately above it.
        let mut documented = rank_mentioned(raw_lines.get(idx).copied().unwrap_or(""), ranks);
        let mut above = idx;
        while !documented && above > 0 {
            above -= 1;
            let candidate = raw_lines[above].trim_start();
            if candidate.starts_with("///") || candidate.starts_with("//") {
                documented = rank_mentioned(candidate, ranks);
            } else {
                break;
            }
        }
        if !documented {
            violations.push(Violation {
                file: rel.to_string(),
                line: idx + 1,
                rule: "lock-rank",
                message: format!(
                    "`{}` declaration lacks a rank comment naming one of lockorder.rs's \
                     documented ranks",
                    if line.contains("OrderedRwLock<") {
                        "OrderedRwLock"
                    } else {
                        "OrderedMutex"
                    }
                ),
            });
        }
    }
    violations
}

// ---------------------------------------------------------------------------
// rule D: fault-point classification
// ---------------------------------------------------------------------------

/// Flags `fault_point!(` call sites whose surrounding comment does not
/// state a `journal:` or `atomic:` crash-consistency classification.
///
/// Scanning the stripped `code` skips prose mentions in comments and
/// strings, and the `(` requirement skips the `macro_rules! fault_point`
/// definition itself; the classification comment is then searched in the
/// raw source, on the call line or the contiguous comment block above it
/// (the same discipline rule C uses for lock ranks).
fn unclassified_fault_points(rel: &str, raw: &str, code: &str) -> Vec<Violation> {
    let mut violations = Vec::new();
    let raw_lines: Vec<&str> = raw.lines().collect();
    for (idx, line) in code.lines().enumerate() {
        if !line.contains("fault_point!(") {
            continue;
        }
        let classified = |candidate: &str| {
            candidate.contains("journal:") || candidate.contains("atomic:")
        };
        let mut documented = classified(raw_lines.get(idx).copied().unwrap_or(""));
        let mut above = idx;
        while !documented && above > 0 {
            above -= 1;
            let candidate = raw_lines[above].trim_start();
            if candidate.starts_with("///") || candidate.starts_with("//") {
                documented = classified(candidate);
            } else {
                break;
            }
        }
        if !documented {
            violations.push(Violation {
                file: rel.to_string(),
                line: idx + 1,
                rule: "fault-classification",
                message: "`fault_point!` call site lacks a `// journal:` or `// atomic:` \
                          crash-consistency classification comment"
                    .to_string(),
            });
        }
    }
    violations
}

/// `name: Type` or `pub name: Type` with an identifier before the colon.
fn field_declaration(trimmed: &str) -> bool {
    let rest = trimmed
        .strip_prefix("pub(crate) ")
        .or_else(|| trimmed.strip_prefix("pub(super) "))
        .or_else(|| trimmed.strip_prefix("pub "))
        .unwrap_or(trimmed);
    let Some((name, _)) = rest.split_once(':') else {
        return false;
    };
    let name = name.trim();
    !name.is_empty()
        && name
            .chars()
            .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_')
}

/// Whether `line` mentions any known rank name as a whole word.
fn rank_mentioned(line: &str, ranks: &[String]) -> bool {
    ranks.iter().any(|rank| {
        line.match_indices(rank.as_str()).any(|(pos, _)| {
            let bytes = line.as_bytes();
            let before_ok = pos == 0 || {
                let b = bytes[pos - 1];
                !(b.is_ascii_alphanumeric() || b == b'_')
            };
            let after = pos + rank.len();
            let after_ok = after >= bytes.len() || {
                let b = bytes[after];
                !(b.is_ascii_alphanumeric() || b == b'_')
            };
            before_ok && after_ok
        })
    })
}

// ---------------------------------------------------------------------------
// source preprocessing and helpers
// ---------------------------------------------------------------------------

/// Blanks comments and string/char literals, preserving line structure so
/// byte offsets still map to the original line numbers.
fn strip_comments_and_strings(src: &str) -> String {
    let bytes = src.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        let rest = &src[i..];
        if rest.starts_with("//") {
            let end = rest.find('\n').map_or(bytes.len(), |p| i + p);
            blank(&mut out, &bytes[i..end]);
            i = end;
        } else if rest.starts_with("/*") {
            // Rust block comments nest.
            let mut depth = 0usize;
            let mut j = i;
            while j < bytes.len() {
                if src[j..].starts_with("/*") {
                    depth += 1;
                    j += 2;
                } else if src[j..].starts_with("*/") {
                    depth -= 1;
                    j += 2;
                    if depth == 0 {
                        break;
                    }
                } else {
                    j += 1;
                }
            }
            blank(&mut out, &bytes[i..j]);
            i = j;
        } else if rest.starts_with("r\"") || rest.starts_with("r#") {
            // Raw string: count the hashes, find the matching close quote.
            let hashes = rest[1..].bytes().take_while(|b| *b == b'#').count();
            let open = 1 + hashes + 1; // r##"
            let close = format!("\"{}", "#".repeat(hashes));
            let end = rest[open..]
                .find(&close)
                .map_or(bytes.len(), |p| i + open + p + close.len());
            blank(&mut out, &bytes[i..end]);
            i = end;
        } else if bytes[i] == b'"' {
            let mut j = i + 1;
            while j < bytes.len() {
                match bytes[j] {
                    b'\\' => j += 2,
                    b'"' => {
                        j += 1;
                        break;
                    }
                    _ => j += 1,
                }
            }
            blank(&mut out, &bytes[i..j.min(bytes.len())]);
            i = j.min(bytes.len());
        } else if bytes[i] == b'\'' {
            // Char literal vs. lifetime: a literal closes within a few
            // bytes ('x' or '\n'); a lifetime never has a closing quote.
            let lookahead = &bytes[i + 1..bytes.len().min(i + 8)];
            let close = lookahead.iter().position(|b| *b == b'\'');
            let is_literal = match close {
                Some(p) => p > 0 || lookahead.first() == Some(&b'\\'),
                None => false,
            };
            if is_literal {
                let end = i + 2 + close.unwrap_or(0);
                blank(&mut out, &bytes[i..end.min(bytes.len())]);
                i = end.min(bytes.len());
            } else {
                out.push(bytes[i]);
                i += 1;
            }
        } else {
            out.push(bytes[i]);
            i += 1;
        }
    }
    String::from_utf8_lossy(&out).into_owned()
}

/// Replaces every byte with a space, newlines excepted.
fn blank(out: &mut Vec<u8>, bytes: &[u8]) {
    out.extend(bytes.iter().map(|b| if *b == b'\n' { b'\n' } else { b' ' }));
}

/// 1-based line number of byte offset `at`.
fn line_of(code: &str, at: usize) -> usize {
    code[..at].bytes().filter(|b| *b == b'\n').count() + 1
}

/// Recursively collects `.rs` files (workspace-relative), skipping `target`.
fn collect_rust_files(dir: &Path, root: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            if path.file_name().is_some_and(|n| n == "target") {
                continue;
            }
            collect_rust_files(&path, root, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            if let Ok(rel) = path.strip_prefix(root) {
                out.push(rel.to_path_buf());
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const RANKS: &[&str] = &[
        "ENCLAVE_TABLE",
        "MAIL_LEDGER",
        "BACKEND",
        "MODEL_VISITED",
        "VERIFIER_DRBG",
        "VERIFIER_TRUST",
    ];

    fn ranks() -> Vec<String> {
        RANKS.iter().map(|s| s.to_string()).collect()
    }

    /// Drives a seeded fixture through the same per-file entry point CI
    /// uses, with a fresh sink-seen table.
    fn lint_fixture(rel: &str, src: &str) -> Vec<Violation> {
        let mut sinks_seen = vec![false; SINK_REGISTRY.len()];
        check_file(rel, src, &ranks(), &mut sinks_seen)
    }

    #[test]
    fn seeded_checked_forgery_fails() {
        let fixture = r#"
            fn forge() -> Checked<Span, RwAccess> {
                Checked { value: span, proof: RwAccess(()) }
            }
        "#;
        let violations = lint_fixture("crates/core/src/evil.rs", fixture);
        assert_eq!(violations.len(), 1, "{violations:?}");
        assert_eq!(violations[0].rule, "checked-construction");
        assert_eq!(violations[0].line, 3);
    }

    #[test]
    fn turbofish_forgery_fails_too() {
        let fixture = "let c = Checked::<Span, RwAccess> { value, proof };";
        let violations = lint_fixture("crates/core/src/evil.rs", fixture);
        assert_eq!(violations.len(), 1);
        assert_eq!(violations[0].rule, "checked-construction");
    }

    #[test]
    fn type_positions_and_sanitizer_are_clean() {
        let ok = r#"
            impl<T: Copy, P: Proof> Checked<T, P> {
                fn use_it(c: &Checked<Span, RwAccess>) {}
            }
        "#;
        assert!(lint_fixture("crates/core/src/fine.rs", ok).is_empty());
        // The sanitizer module itself may construct proofs.
        let minted = "let c = Checked { value, proof: P::witness() };";
        assert!(lint_fixture(SANITIZER_FILE, minted).is_empty());
        // Comments and strings never fire the rule.
        let commented = r#"
            // A forged Checked { value } would be rejected.
            let s = "Checked { value }";
        "#;
        assert!(lint_fixture("crates/core/src/docs.rs", commented).is_empty());
    }

    #[test]
    fn seeded_raw_sink_signature_fails() {
        let fixture = r#"
            impl Machine {
                pub fn read_span(&self, addr: PhysAddr, buf: &mut [u8]) {}
                pub fn write_span<P: CanWrite>(&self, span: &Checked<Span, P>, data: &[u8]) {}
            }
        "#;
        let mut sinks_seen = vec![false; SINK_REGISTRY.len()];
        let violations = check_file(
            "crates/machine/src/machine.rs",
            fixture,
            &ranks(),
            &mut sinks_seen,
        );
        assert_eq!(violations.len(), 1, "{violations:?}");
        assert_eq!(violations[0].rule, "sink-signature");
        assert!(violations[0].message.contains("read_span"));
        assert!(sinks_seen[0] && sinks_seen[1], "both sinks located");
    }

    #[test]
    fn missing_sink_is_reported_by_run_not_check_file() {
        let mut sinks_seen = vec![false; SINK_REGISTRY.len()];
        let violations = check_file(
            "crates/core/src/mailbox.rs",
            "fn send_mail() {}", // prefix match must not count as `fn send`
            &ranks(),
            &mut sinks_seen,
        );
        assert!(violations.is_empty());
        assert!(!sinks_seen.iter().any(|s| *s));
    }

    #[test]
    fn seeded_undocumented_lock_fails() {
        let fixture = r#"
            struct State {
                /// Table of enclaves (rank `ENCLAVE_TABLE`).
                enclaves: OrderedRwLock<Vec<Slot>>,
                ledger: OrderedMutex<Ledger>,
            }
        "#;
        let violations = lint_fixture("crates/core/src/state.rs", fixture);
        assert_eq!(violations.len(), 1, "{violations:?}");
        assert_eq!(violations[0].rule, "lock-rank");
        assert_eq!(violations[0].line, 5);
    }

    #[test]
    fn modelcheck_crate_is_inside_rule_c_jurisdiction() {
        // The model checker is first-party code, not a shim: an ordered
        // lock declared there without its lockorder.rs rank comment must be
        // flagged like anywhere else in the workspace.
        let bare = r#"
            struct SharedSearch {
                visited: OrderedMutex<HashSet<u128>>,
            }
        "#;
        let violations = lint_fixture("crates/modelcheck/src/search.rs", bare);
        assert_eq!(violations.len(), 1, "{violations:?}");
        assert_eq!(violations[0].rule, "lock-rank");
        let documented = r#"
            struct SharedSearch {
                /// Visited-state set, shared across expansion workers
                /// (rank `MODEL_VISITED`, above every monitor rank).
                visited: OrderedMutex<HashSet<u128>>,
            }
        "#;
        assert!(lint_fixture("crates/modelcheck/src/search.rs", documented).is_empty());
    }

    #[test]
    fn verifier_crate_epoch_cells_are_inside_rule_c_jurisdiction() {
        // The concurrent verifier tier declares ordered mutexes and
        // reader-writer locks; every such declaration must name its
        // lockorder.rs rank, exactly like monitor-side locks — the rank
        // table is the one place the cross-tier acquisition order lives.
        let bare = r#"
            pub struct RemoteVerifier {
                drbg: OrderedMutex<ChaChaDrbg>,
                trust: OrderedRwLock<Arc<TrustState>>,
            }
        "#;
        let violations = lint_fixture("crates/verifier/src/remote.rs", bare);
        assert_eq!(violations.len(), 2, "{violations:?}");
        assert!(violations.iter().all(|v| v.rule == "lock-rank"));
        assert!(violations[1].message.contains("OrderedRwLock"));
        let documented = r#"
            pub struct RemoteVerifier {
                // lock rank: rank::VERIFIER_DRBG
                drbg: OrderedMutex<ChaChaDrbg>,
                // lock rank: rank::VERIFIER_TRUST (swapped under the
                // writer lock)
                trust: OrderedRwLock<Arc<TrustState>>,
            }
        "#;
        assert!(lint_fixture("crates/verifier/src/remote.rs", documented).is_empty());
    }

    #[test]
    fn seeded_unclassified_fault_point_fails() {
        let fixture = r#"
            fn scrub(&self) {
                if fault_point!(self.machine.fault_injector(), "monitor.scrub-page")
                    == Crossing::FailOp
                {
                    return Err(SmError::Again);
                }
            }
        "#;
        let violations = lint_fixture("crates/core/src/evil.rs", fixture);
        assert_eq!(violations.len(), 1, "{violations:?}");
        assert_eq!(violations[0].rule, "fault-classification");
        assert_eq!(violations[0].line, 3);
    }

    #[test]
    fn classified_fault_points_and_prose_mentions_are_clean() {
        // Same-line and comment-block-above classifications both count.
        let classified = r#"
            fn scrub(&self) {
                // journal: retried under recovery; a failure keeps the
                // quarantine in place for the next recover() pass.
                if fault_point!(inj, "monitor.scrub-page") == Crossing::FailOp {}
                let _ = fault_point!(inj, "journal.record"); // atomic: append only
            }
        "#;
        assert!(lint_fixture("crates/core/src/fine.rs", classified).is_empty());
        // A stale comment block (interrupted by code) does not classify.
        let interrupted = r#"
            // atomic: this comment documents the *other* crossing.
            let geometry = self.region_geometry(region)?;
            let _ = fault_point!(inj, "backend.assign-region");
        "#;
        assert_eq!(lint_fixture("crates/core/src/evil.rs", interrupted).len(), 1);
        // Prose mentions in comments/strings and the macro definition
        // (no `(` after the name) never fire the rule.
        let prose = r#"
            // The fault_point!(site) macro is documented in fault.rs.
            macro_rules! fault_point {
                ($injector:expr, $site:expr $(,)?) => { $injector.cross($site) };
            }
            let s = "fault_point!(inj, \"backend.assign-region\")";
        "#;
        assert!(lint_fixture("crates/core/src/docs.rs", prose).is_empty());
    }

    #[test]
    fn documented_locks_and_non_declarations_are_clean() {
        let ok = r#"
            /// Quota ledger (rank `MAIL_LEDGER`).
            ledger: OrderedMutex<Ledger>,
            /// Backend mutex sits at rank `BACKEND`.
            pub type BackendHandle = Arc<OrderedMutex<Backend>>;
            fn lock_it(m: &OrderedMutex<Ledger>) {}
            impl<T> OrderedMutex<T> {}
        "#;
        assert!(lint_fixture("crates/core/src/state.rs", ok).is_empty());
    }

    #[test]
    fn rank_vocabulary_is_parsed_from_lockorder() {
        let src = r#"
            pub mod rank {
                pub const ENCLAVE_TABLE: LockRank = LockRank(30);
                pub const RESOURCE_SHARD_BASE: u16 = 10;
                pub fn not_a_rank() {}
            }
        "#;
        let names = rank_names(src);
        assert_eq!(names, vec!["ENCLAVE_TABLE", "RESOURCE_SHARD_BASE"]);
    }

    #[test]
    fn whole_word_rank_matching() {
        let ranks = ranks();
        assert!(rank_mentioned("/// rank `BACKEND`", &ranks));
        assert!(!rank_mentioned("/// rank BACKENDS", &ranks));
    }
}
