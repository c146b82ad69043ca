//! Table 1 — implementation size, grouped the way the paper reports it
//! (Section VII-A: 5785 LOC total for the Sanctum SM, of which 1011 LOC are
//! platform-independent monitor logic, the rest being cryptography, standard
//! library pieces and boot/platform support).
//!
//! The "TCB analogue" is the code LOC of every group that sits inside the
//! trusted computing base: the monitor, the platform backends, the
//! trust-boundary sanitizer and the cryptography.
//!
//! Code LOC counts production code only: comment lines, `#[cfg(test)]`
//! items, files under `tests/`, `benches/` or `examples/` directories and
//! files of modules declared `#[cfg(test)] mod name;` all count towards
//! "LOC w/tests" alone.
//!
//! Usage:
//!
//! ```text
//! table1_loc [--out PATH] [--baseline PATH]
//! ```
//!
//! * `--out PATH` — write the machine-readable result JSON
//!   (`BENCH_loc.json` is the committed copy).
//! * `--baseline PATH` — exit non-zero if the TCB analogue exceeds the
//!   committed figure. A change that grows the TCB regenerates the baseline
//!   with `--out`, so the growth shows up in its diff.
//!
//! Run with: `cargo run -p sanctorum-bench --bin table1_loc`

use sanctorum_bench::extract_number;
use std::fs;
use std::path::{Path, PathBuf};

/// One row of the table.
struct Group {
    name: &'static str,
    /// JSON key of the row's code-LOC figure.
    key: &'static str,
    dirs: &'static [&'static str],
    note: &'static str,
    /// Whether the row counts towards the TCB analogue.
    tcb: bool,
}

const GROUPS: &[Group] = &[
    Group {
        name: "platform-independent SM",
        key: "platform_independent_sm",
        dirs: &["crates/core"],
        note: "paper: 1011 LOC of portable C99 monitor logic",
        tcb: true,
    },
    Group {
        name: "platform-specific backends",
        key: "platform_backends",
        dirs: &[
            "crates/platform-sanctum",
            "crates/platform-keystone",
            "crates/hal",
        ],
        note: "paper: Sanctum-specific code + boot assembly",
        tcb: true,
    },
    Group {
        name: "trust boundary (sanitizer)",
        key: "trust_boundary",
        dirs: &["crates/trust"],
        note: "paper: the SM's argument checks (inside the TCB)",
        tcb: true,
    },
    Group {
        name: "cryptography",
        key: "cryptography",
        dirs: &["crates/crypto"],
        note: "paper: sha3 + standard library routines",
        tcb: true,
    },
    Group {
        name: "hardware model (simulation substrate)",
        key: "hardware_model",
        dirs: &["crates/machine"],
        note: "paper: the Sanctum RTL / a real RISC-V machine (not LOC-counted)",
        tcb: false,
    },
    Group {
        name: "untrusted OS, enclaves, verifier (harness)",
        key: "harness",
        dirs: &["crates/os", "crates/enclave", "crates/verifier"],
        note: "paper: Linux + application enclaves (outside the TCB)",
        tcb: false,
    },
    Group {
        name: "benchmarks, tests and examples",
        key: "benchmarks_tests_examples",
        dirs: &["crates/bench", "tests", "examples"],
        note: "paper: n/a (code LOC: the bench harness itself)",
        tcb: false,
    },
];

/// Directories that hold tests, benchmarks or examples, wherever they sit.
const TEST_DIRS: &[&str] = &["tests", "benches", "examples"];

/// Collects the `.rs` files under `dir`, each paired with whether it lies
/// in one of the [`TEST_DIRS`].
fn rust_files(dir: &Path, in_test_dir: bool, out: &mut Vec<(PathBuf, bool)>) {
    let in_test_dir = in_test_dir
        || dir
            .file_name()
            .and_then(|name| name.to_str())
            .is_some_and(|name| TEST_DIRS.contains(&name));
    if let Ok(entries) = fs::read_dir(dir) {
        for entry in entries.flatten() {
            let path = entry.path();
            if path.is_dir() {
                if path.file_name().is_some_and(|n| n == "target") {
                    continue;
                }
                rust_files(&path, in_test_dir, out);
            } else if path.extension().is_some_and(|e| e == "rs") {
                out.push((path, in_test_dir));
            }
        }
    }
}

/// The paths of the modules that `text`, the source of `file`, declares
/// out of line as `#[cfg(test)] mod name;`: the module's `name.rs` and its
/// `name/` directory.
fn test_module_paths(file: &Path, text: &str) -> Vec<PathBuf> {
    let dir = file.parent().unwrap_or(Path::new(""));
    let stem = file.file_stem().and_then(|s| s.to_str()).unwrap_or("");
    let module_dir = match stem {
        "lib" | "main" | "mod" => dir.to_path_buf(),
        _ => dir.join(stem),
    };
    let mut paths = Vec::new();
    let mut lines = text.lines().map(str::trim).filter(|l| !l.is_empty());
    while let Some(line) = lines.next() {
        let Some(rest) = line.strip_prefix("#[cfg(test)]") else {
            continue;
        };
        let item = match rest.trim() {
            "" => lines.next().unwrap_or(""),
            item => item,
        };
        let Some((_, name)) = item
            .strip_suffix(';')
            .and_then(|decl| decl.rsplit_once("mod "))
        else {
            continue;
        };
        let name = name.trim();
        if !name.is_empty() && name.chars().all(|c| c.is_alphanumeric() || c == '_') {
            paths.push(module_dir.join(format!("{name}.rs")));
            paths.push(module_dir.join(name));
        }
    }
    paths
}

/// Returns (non-blank lines, code lines) of one source text. Code excludes
/// comment lines and `#[cfg(test)]` items. An item ends where its braces
/// balance again, or at its `;` if it opens none (`mod oracle;`).
fn count_text(text: &str) -> (usize, usize) {
    let mut total = 0;
    let mut code = 0;
    let mut in_tests = false;
    let mut brace_depth = 0i64;
    for line in text.lines() {
        let trimmed = line.trim();
        if trimmed.is_empty() {
            continue;
        }
        total += 1;
        let item = match trimmed.strip_prefix("#[cfg(test)]") {
            Some(rest) => {
                in_tests = true;
                brace_depth = 0;
                rest.trim()
            }
            None => trimmed,
        };
        if in_tests {
            brace_depth += (item.matches('{').count() as i64) - (item.matches('}').count() as i64);
            if brace_depth <= 0 && (item.contains('}') || item.ends_with(';')) {
                in_tests = false;
            }
            continue;
        }
        if trimmed.starts_with("//") {
            continue;
        }
        code += 1;
    }
    (total, code)
}

/// Returns (non-blank lines, production code lines) under `dir`.
fn count_loc(dir: &Path) -> (usize, usize) {
    let mut files = Vec::new();
    rust_files(dir, false, &mut files);
    let sources: Vec<(PathBuf, bool, String)> = files
        .into_iter()
        .filter_map(|(path, in_test_dir)| {
            let text = fs::read_to_string(&path).ok()?;
            Some((path, in_test_dir, text))
        })
        .collect();
    let test_modules: Vec<PathBuf> = sources
        .iter()
        .flat_map(|(path, _, text)| test_module_paths(path, text))
        .collect();
    let mut total = 0;
    let mut code = 0;
    for (path, in_test_dir, text) in &sources {
        let (t, c) = count_text(text);
        total += t;
        if !in_test_dir && !test_modules.iter().any(|module| path.starts_with(module)) {
            code += c;
        }
    }
    (total, code)
}

fn main() {
    let mut out: Option<String> = None;
    let mut baseline: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--out" => out = Some(args.next().expect("--out PATH")),
            "--baseline" => baseline = Some(args.next().expect("--baseline PATH")),
            other => panic!("unknown argument {other:?}"),
        }
    }

    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    println!("Table 1 — implementation size of this reproduction");
    println!("{:<44} {:>10} {:>12}   note", "component", "code LOC", "LOC w/tests");
    let mut tcb_total = 0;
    let mut rows = Vec::new();
    for group in GROUPS {
        let mut total = 0;
        let mut code = 0;
        for dir in group.dirs {
            let (t, c) = count_loc(&root.join(dir));
            total += t;
            code += c;
        }
        if group.tcb {
            tcb_total += code;
        }
        println!("{:<44} {code:>10} {total:>12}   {}", group.name, group.note);
        rows.push(format!("    \"{}\": {code}", group.key));
    }
    println!();
    println!("reproduction TCB analogue (SM + backends + trust + crypto): {tcb_total} LOC");
    println!("paper's reported TCB: 5785 LOC total (5264 C + 521 asm), 1011 LOC platform-independent");

    if let Some(path) = &out {
        fs::write(path, render_json(&rows, tcb_total)).expect("write result JSON");
        println!("\nwrote {path}");
    }

    if let Some(path) = &baseline {
        let text = fs::read_to_string(path).expect("read baseline JSON");
        let committed = extract_number(&text, "tcb_analogue_loc")
            .expect("baseline JSON has a tcb_analogue_loc field");
        println!("baseline {path}: TCB analogue {committed} LOC");
        if tcb_total as f64 > committed {
            eprintln!(
                "FAIL: the TCB analogue grew from {committed} to {tcb_total} LOC; \
                 regenerate {path} with --out and record why"
            );
            std::process::exit(1);
        }
    }
}

fn render_json(rows: &[String], tcb_total: usize) -> String {
    format!(
        r#"{{
  "bench": "table1_loc",
  "code_loc": {{
{rows}
  }},
  "tcb_analogue_loc": {tcb_total},
  "paper_tcb_loc": 5785,
  "paper_portable_loc": 1011
}}
"#,
        rows = rows.join(",\n")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Writes `files` (path, contents) under a fresh scratch directory.
    fn tree(name: &str, files: &[(&str, &str)]) -> PathBuf {
        let root = std::env::temp_dir().join(format!("table1_loc-{}-{name}", std::process::id()));
        let _ = fs::remove_dir_all(&root);
        for (path, text) in files {
            let path = root.join(path);
            fs::create_dir_all(path.parent().expect("has a parent")).expect("create dir");
            fs::write(path, text).expect("write file");
        }
        root
    }

    #[test]
    fn test_bench_and_example_directories_are_not_code() {
        let root = tree(
            "dirs",
            &[
                ("src/lib.rs", "pub fn f() {}\n"),
                ("tests/t.rs", "#[test]\nfn t() {}\n"),
                ("benches/b.rs", "fn main() {}\n"),
                ("examples/e.rs", "fn main() {}\n"),
                ("src/examples/nested.rs", "fn main() {}\n"),
            ],
        );
        assert_eq!(count_loc(&root), (6, 1));
        // A row that lists a test directory itself counts it as tests too.
        assert_eq!(count_loc(&root.join("tests")), (2, 0));
        fs::remove_dir_all(&root).expect("clean up");
    }

    #[test]
    fn files_of_cfg_test_modules_are_not_code() {
        let root = tree(
            "modules",
            &[
                ("src/lib.rs", "#[cfg(test)]\nmod oracle;\npub mod field;\n"),
                ("src/oracle.rs", "pub fn slow() {}\n"),
                (
                    "src/field.rs",
                    "#[cfg(test)] pub(crate) mod check;\npub fn add() {}\n",
                ),
                ("src/field/check.rs", "pub fn check() {}\n"),
                ("src/field/check/deep.rs", "pub fn deep() {}\n"),
            ],
        );
        assert_eq!(count_loc(&root), (8, 2));
        assert_eq!(
            test_module_paths(
                Path::new("c/src/lib.rs"),
                "#[cfg(test)]\nmod oracle;\nmod tests {}\n"
            ),
            [
                PathBuf::from("c/src/oracle.rs"),
                PathBuf::from("c/src/oracle")
            ]
        );
        fs::remove_dir_all(&root).expect("clean up");
    }

    #[test]
    fn a_braceless_cfg_test_item_ends_at_its_semicolon() {
        let text = "#[cfg(test)]\nmod oracle;\nfn f() -> u8 {\n    1\n}\n";
        assert_eq!(count_text(text), (5, 3));
        let one_line = "#[cfg(test)] use std::fmt;\nfn g() {}\n";
        assert_eq!(count_text(one_line), (2, 1));
        // Braced items still end where their braces balance.
        let braced = "#[cfg(test)]\nmod tests {\n    fn t() {}\n}\nfn h() {}\n";
        assert_eq!(count_text(braced), (5, 1));
    }
}
