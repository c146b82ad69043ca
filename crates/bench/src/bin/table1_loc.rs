//! Table 1 — implementation size, grouped the way the paper reports it
//! (Section VII-A: 5785 LOC total for the Sanctum SM, of which 1011 LOC are
//! platform-independent monitor logic, the rest being cryptography, standard
//! library pieces and boot/platform support).
//!
//! The "TCB analogue" is the code LOC of every group that sits inside the
//! trusted computing base: the monitor, the platform backends, the
//! trust-boundary sanitizer and the cryptography.
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
        note: "paper: n/a",
        tcb: false,
    },
];

fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    if let Ok(entries) = fs::read_dir(dir) {
        for entry in entries.flatten() {
            let path = entry.path();
            if path.is_dir() {
                if path.file_name().is_some_and(|n| n == "target") {
                    continue;
                }
                rust_files(&path, out);
            } else if path.extension().is_some_and(|e| e == "rs") {
                out.push(path);
            }
        }
    }
}

fn count_loc(dir: &Path) -> (usize, usize) {
    // Returns (total non-blank lines, lines excluding tests and comments).
    let mut files = Vec::new();
    rust_files(dir, &mut files);
    let mut total = 0;
    let mut code = 0;
    for file in files {
        let Ok(text) = fs::read_to_string(&file) else { continue };
        let mut in_tests = false;
        let mut brace_depth = 0i64;
        for line in text.lines() {
            let trimmed = line.trim();
            if trimmed.is_empty() {
                continue;
            }
            total += 1;
            if trimmed.starts_with("#[cfg(test)]") {
                in_tests = true;
                brace_depth = 0;
            }
            if in_tests {
                brace_depth += (line.matches('{').count() as i64) - (line.matches('}').count() as i64);
                if brace_depth <= 0 && line.contains('}') && !trimmed.starts_with("#[cfg(test)]") {
                    in_tests = false;
                }
                continue;
            }
            if trimmed.starts_with("//") {
                continue;
            }
            code += 1;
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
