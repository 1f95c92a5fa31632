//! `hidet-lint`: runs the repo-invariant source lints and exits non-zero on
//! any gating finding.
//!
//! ```text
//! hidet-lint [--root <repo-root>] [--json]
//! ```
//!
//! With no `--root`, the repo root is auto-detected by walking up from the
//! current directory to the first ancestor containing `crates/`.

use std::path::PathBuf;
use std::process::ExitCode;

use hidet_analysis::diag::{has_errors, render_json, render_text};
use hidet_analysis::lint::run_lint;

fn detect_root() -> Option<PathBuf> {
    let mut dir = std::env::current_dir().ok()?;
    loop {
        if dir.join("crates").is_dir() && dir.join("Cargo.toml").is_file() {
            return Some(dir);
        }
        if !dir.pop() {
            return None;
        }
    }
}

fn main() -> ExitCode {
    let mut root: Option<PathBuf> = None;
    let mut json = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--json" => json = true,
            "--root" => match args.next() {
                Some(p) => root = Some(PathBuf::from(p)),
                None => {
                    eprintln!("hidet-lint: --root needs a path");
                    return ExitCode::from(2);
                }
            },
            "--help" | "-h" => {
                println!("usage: hidet-lint [--root <repo-root>] [--json]");
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("hidet-lint: unknown argument `{other}`");
                return ExitCode::from(2);
            }
        }
    }
    let Some(root) = root.or_else(detect_root) else {
        eprintln!("hidet-lint: no repo root found (run inside the repo or pass --root)");
        return ExitCode::from(2);
    };

    let diags = run_lint(&root);
    if json {
        println!("{}", render_json(&diags));
    } else if diags.is_empty() {
        println!("hidet-lint: clean ({} rules over {})", 5, root.display());
    } else {
        print!("{}", render_text(&diags));
    }
    if has_errors(&diags) {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
