//! The repo-invariant lint harness (`hidet-lint`): source-level rules that
//! `cargo test` cannot express as unit tests without grepping source from
//! inside a test — which is exactly the ad-hoc pattern this module absorbs
//! (PR 6's "zero mutexes on enqueue" test shipped as an `include_str!` grep
//! inside the ring's test suite, now `crates/trace/tests/ring.rs`).
//!
//! Five rules:
//!
//! * **HA101** — no blocking primitive (`Mutex`, `RwLock`, `Condvar`,
//!   `mpsc::`) anywhere in the lock-free ring file: the one ring the
//!   tracer's per-thread event rings and the server's ingress lanes share.
//! * **HA102** — no `unwrap()` / `expect()` / `panic!`-family macro in the
//!   runtime/decode/server hot-loop files and the simulator's executor, except sites justified in the
//!   allowlist (`crates/analysis/lint_allow.txt`). Test modules (everything
//!   from the first `#[cfg(test)]` down) and comment lines are exempt.
//! * **HA103** — every workspace crate's `lib.rs` carries
//!   `#![warn(missing_docs)]`.
//! * **HA104** — in every trace-instrumented file, bare `span_start(` call
//!   sites balance `span_end(` call sites. A span is pushed only when it
//!   closes, so a start without an end records nothing on early-return
//!   paths; the RAII `Tracer::span` guard closes on every path and is the
//!   endorsed form (it does not match either pattern, so guard-only files
//!   trivially pass).
//! * **HA105** — no `.rs` file under `crates/*/src` is longer than
//!   [`MAX_SOURCE_LINES`] lines, tests included: a file that large holds
//!   more than one subsystem and is split along its seams instead.
//!
//! A covered-set or allowlist entry names either one file or — when it ends
//! in `/` — a directory prefix covering every `.rs` file beneath it
//! ([`covers`]), so a hot file split into a module directory stays covered
//! without listing its parts.
//!
//! The harness reads sources relative to a repo root, so it runs identically
//! from CI (`cargo run -p hidet-analysis --bin hidet-lint`), from tests, and
//! from any checkout path.

use std::path::Path;

use crate::diag::{Diagnostic, Rule};

/// The lock-free ring files covered by HA101: the one MPSC ring, behind both
/// the tracer's per-thread event rings and the server's ingress lanes.
pub const RING_FILES: &[&str] = &["crates/trace/src/ring.rs"];

/// Blocking primitives banned from every file in [`RING_FILES`].
pub const BLOCKING_PATTERNS: &[&str] = &["Mutex", "RwLock", "Condvar", "mpsc::"];

/// Trace-instrumented files covered by HA104: everywhere spans are emitted,
/// bare `span_start`/`span_end` call sites must balance.
pub const INSTRUMENTED_FILES: &[&str] = &[
    "crates/core/src/compiler/",
    "crates/sim/src/interp/exec.rs",
    "crates/runtime/src/engine/",
    "crates/decode/src/engine/",
    "crates/server/src/server.rs",
    "crates/server/src/api.rs",
];

/// Hot-loop files covered by HA102. Steady-state request paths: a panic
/// here takes down a worker mid-batch instead of failing one request.
pub const HOT_PATH_FILES: &[&str] = &[
    "crates/core/src/compiler/",
    "crates/sim/src/interp/exec.rs",
    "crates/sim/src/interp/wide.rs",
    "crates/runtime/src/engine/",
    "crates/runtime/src/shard.rs",
    "crates/runtime/src/stats.rs",
    "crates/runtime/src/cache.rs",
    "crates/decode/src/engine/",
    "crates/decode/src/kv.rs",
    "crates/decode/src/placement.rs",
    "crates/server/src/server.rs",
    "crates/trace/src/ring.rs",
];

/// Panic-capable call patterns banned by HA102. Note `.unwrap_or(` /
/// `.unwrap_or_else(` do not match `.unwrap()` — converting a site to a
/// fallback is the usual fix.
pub const PANIC_PATTERNS: &[&str] = &[
    ".unwrap()",
    ".expect(",
    "panic!(",
    "unreachable!(",
    "todo!(",
    "unimplemented!(",
];

/// The longest a source file under `crates/*/src` may be (HA105).
pub const MAX_SOURCE_LINES: usize = 1000;

/// The attribute HA103 requires in every crate's `lib.rs`.
pub const DOC_ATTR: &str = "#![warn(missing_docs)]";

/// Relative path of the HA102 allowlist.
pub const ALLOWLIST_FILE: &str = "crates/analysis/lint_allow.txt";

/// Whether a covered-set or allowlist `entry` applies to the repo-relative
/// file `rel`: an exact path, or — ending in `/` — a directory prefix.
pub fn covers(entry: &str, rel: &str) -> bool {
    entry == rel || (entry.ends_with('/') && rel.starts_with(entry))
}

/// Expands one covered-set entry into the files it names, sorted: the file
/// itself, or every `.rs` file beneath a directory entry. A directory entry
/// that covers nothing is an error, like a missing file — a rule silently
/// skipping a renamed hot directory would hollow out the invariant.
fn expand(root: &Path, entry: &str) -> std::io::Result<Vec<String>> {
    if !entry.ends_with('/') {
        return Ok(vec![entry.to_string()]);
    }
    let mut files = Vec::new();
    let mut dirs = vec![entry.to_string()];
    while let Some(dir) = dirs.pop() {
        for item in std::fs::read_dir(root.join(&dir))? {
            let item = item?;
            let name = item.file_name().to_string_lossy().into_owned();
            if item.file_type()?.is_dir() {
                dirs.push(format!("{dir}{name}/"));
            } else if name.ends_with(".rs") {
                files.push(format!("{dir}{name}"));
            }
        }
    }
    if files.is_empty() {
        return Err(std::io::Error::new(
            std::io::ErrorKind::NotFound,
            "directory entry covers no .rs file",
        ));
    }
    files.sort();
    Ok(files)
}

/// One justified HA102 site: `path: needle` — suppresses findings in `path`
/// on lines containing `needle`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AllowEntry {
    /// Repo-relative file, or `/`-terminated directory prefix, the entry
    /// applies to.
    pub path: String,
    /// Substring of the tolerated line.
    pub needle: String,
}

/// Parses the allowlist format: one `path: needle` per line, `#` comments
/// and blank lines ignored. Malformed lines become entries matching nothing
/// (and will be reported unused).
pub fn parse_allowlist(text: &str) -> Vec<AllowEntry> {
    text.lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .filter_map(|l| {
            let (path, needle) = l.split_once(':')?;
            Some(AllowEntry {
                path: path.trim().to_string(),
                needle: needle.trim().to_string(),
            })
        })
        .collect()
}

/// HA101 over one source text.
pub fn scan_ring_source(rel_path: &str, content: &str) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    for (lineno, line) in content.lines().enumerate() {
        for pat in BLOCKING_PATTERNS {
            if line.contains(pat) {
                diags.push(Diagnostic::error(
                    Rule::LintBlockingPrimitive,
                    format!("{rel_path}:{}", lineno + 1),
                    format!("blocking primitive `{pat}` on the lock-free ingress path"),
                ));
            }
        }
    }
    diags
}

/// HA102 over one source text. `used[i]` is set when allowlist entry `i`
/// suppresses a finding. Scanning stops at the first `#[cfg(test)]` — hot
/// loops live above the test module, and tests may panic freely.
pub fn scan_hot_source(
    rel_path: &str,
    content: &str,
    allow: &[AllowEntry],
    used: &mut [bool],
) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    for (lineno, line) in content.lines().enumerate() {
        if line.contains("#[cfg(test)]") {
            break;
        }
        if line.trim_start().starts_with("//") {
            continue;
        }
        for pat in PANIC_PATTERNS {
            if !line.contains(pat) {
                continue;
            }
            let mut allowed = false;
            for (i, entry) in allow.iter().enumerate() {
                if covers(&entry.path, rel_path)
                    && !entry.needle.is_empty()
                    && line.contains(&entry.needle)
                {
                    allowed = true;
                    used[i] = true;
                }
            }
            if !allowed {
                diags.push(Diagnostic::error(
                    Rule::LintPanicInHotPath,
                    format!("{rel_path}:{}", lineno + 1),
                    format!(
                        "`{pat}` in a hot loop; return a typed error or add a \
                         justified entry to {ALLOWLIST_FILE}"
                    ),
                ));
            }
        }
    }
    diags
}

/// HA104 over one source text: counts bare `span_start(` and `span_end(`
/// call sites outside comments and test modules (same exemptions as HA102).
/// Unequal counts mean some return path loses a span it opened — it is
/// never recorded — or closes one it never opened.
pub fn scan_span_pairing(rel_path: &str, content: &str) -> Vec<Diagnostic> {
    let mut starts = 0usize;
    let mut ends = 0usize;
    for line in content.lines() {
        if line.contains("#[cfg(test)]") {
            break;
        }
        if line.trim_start().starts_with("//") {
            continue;
        }
        starts += line.matches("span_start(").count();
        ends += line.matches("span_end(").count();
    }
    if starts == ends {
        Vec::new()
    } else {
        vec![Diagnostic::error(
            Rule::LintSpanPairing,
            rel_path,
            format!(
                "{starts} `span_start(` call site(s) vs {ends} `span_end(` — every start \
                 needs a matching end on all return paths (prefer the RAII `span()` guard)"
            ),
        )]
    }
}

/// HA103 over one `lib.rs` text.
pub fn scan_lib_docs(rel_path: &str, content: &str) -> Vec<Diagnostic> {
    if content.lines().any(|l| l.trim() == DOC_ATTR) {
        Vec::new()
    } else {
        vec![Diagnostic::error(
            Rule::LintMissingDocsAttr,
            rel_path,
            format!("public crate root must carry `{DOC_ATTR}`"),
        )]
    }
}

/// HA105 over one source text.
pub fn scan_file_length(rel_path: &str, content: &str) -> Vec<Diagnostic> {
    let lines = content.lines().count();
    if lines <= MAX_SOURCE_LINES {
        Vec::new()
    } else {
        vec![Diagnostic::error(
            Rule::LintFileTooLong,
            rel_path,
            format!("{lines} lines (limit {MAX_SOURCE_LINES}): split the file along its seams"),
        )]
    }
}

/// Runs every lint rule against the repo rooted at `root`. Missing covered
/// files are themselves errors (a rule silently skipping a renamed hot file
/// would hollow out the invariant); unused allowlist entries are warnings so
/// stale justifications surface without gating.
pub fn run_lint(root: &Path) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    let read = |rel: &str| std::fs::read_to_string(root.join(rel));
    // A covered set as `(path, source)` pairs: entries expand to concrete
    // files first, and one that cannot be expanded or read is reported under
    // the rule it would have hollowed out.
    let sources = |entries: &[&str], rule: Rule, diags: &mut Vec<Diagnostic>| {
        let mut found = Vec::new();
        for entry in entries {
            let texts = expand(root, entry).and_then(|files| {
                files
                    .into_iter()
                    .map(|rel| read(&rel).map(|text| (rel, text)))
                    .collect::<std::io::Result<Vec<_>>>()
            });
            match texts {
                Ok(texts) => found.extend(texts),
                Err(e) => diags.push(Diagnostic::error(
                    rule,
                    *entry,
                    format!("cannot read covered file: {e}"),
                )),
            }
        }
        found
    };

    for (rel, text) in sources(RING_FILES, Rule::LintBlockingPrimitive, &mut diags) {
        diags.extend(scan_ring_source(&rel, &text));
    }
    for (rel, text) in sources(INSTRUMENTED_FILES, Rule::LintSpanPairing, &mut diags) {
        diags.extend(scan_span_pairing(&rel, &text));
    }
    let allow = match read(ALLOWLIST_FILE) {
        Ok(text) => parse_allowlist(&text),
        Err(_) => Vec::new(), // an absent allowlist allows nothing
    };
    let mut used = vec![false; allow.len()];
    for (rel, text) in sources(HOT_PATH_FILES, Rule::LintPanicInHotPath, &mut diags) {
        diags.extend(scan_hot_source(&rel, &text, &allow, &mut used));
    }
    for (entry, used) in allow.iter().zip(&used) {
        if !used {
            diags.push(Diagnostic::warning(
                Rule::LintPanicInHotPath,
                ALLOWLIST_FILE,
                format!(
                    "allowlist entry `{}: {}` matches nothing — remove it",
                    entry.path, entry.needle
                ),
            ));
        }
    }

    // HA103: every crates/*/src/lib.rs, plus the umbrella crate root.
    let mut lib_files: Vec<String> = Vec::new();
    match std::fs::read_dir(root.join("crates")) {
        Ok(entries) => {
            for entry in entries.flatten() {
                let lib = entry.path().join("src").join("lib.rs");
                if lib.is_file() {
                    if let Some(name) = entry.file_name().to_str() {
                        lib_files.push(format!("crates/{name}/src/lib.rs"));
                    }
                }
            }
        }
        Err(e) => diags.push(Diagnostic::error(
            Rule::LintMissingDocsAttr,
            "crates",
            format!("cannot enumerate workspace crates: {e}"),
        )),
    }
    lib_files.push("src/lib.rs".to_string());
    lib_files.sort();
    for rel in &lib_files {
        match read(rel) {
            Ok(text) => diags.extend(scan_lib_docs(rel, &text)),
            Err(e) => diags.push(Diagnostic::error(
                Rule::LintMissingDocsAttr,
                rel.as_str(),
                format!("cannot read crate root: {e}"),
            )),
        }
    }
    // HA105: every .rs file beneath a workspace crate's src/.
    let src_dirs: Vec<&str> = lib_files
        .iter()
        .filter(|lib| lib.starts_with("crates/"))
        .filter_map(|lib| lib.strip_suffix("lib.rs"))
        .collect();
    for (rel, text) in sources(&src_dirs, Rule::LintFileTooLong, &mut diags) {
        diags.extend(scan_file_length(&rel, &text));
    }
    diags
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diag::{has_errors, Severity};

    #[test]
    fn ring_rule_flags_each_blocking_primitive() {
        let clean = "use std::sync::atomic::AtomicUsize;\nlet x = 1;\n";
        assert_eq!(scan_ring_source("r.rs", clean), vec![]);
        let dirty = "use std::sync::Mutex;\nlet (tx, rx) = mpsc::channel();\n";
        let diags = scan_ring_source("r.rs", dirty);
        assert_eq!(diags.len(), 2, "{diags:?}");
        assert!(diags.iter().all(|d| d.rule == Rule::LintBlockingPrimitive));
        assert_eq!(diags[0].location, "r.rs:1");
    }

    #[test]
    fn hot_path_rule_respects_comments_tests_and_allowlist() {
        let src = "\
let a = x.unwrap();
// commented: y.unwrap() is fine
let b = y.unwrap_or(0);
let c = z.expect(\"justified because tested\");
#[cfg(test)]
mod tests { fn f() { q.unwrap(); } }
";
        // No allowlist: the unwrap and the expect are flagged; the comment,
        // the unwrap_or and the test module are not.
        let diags = scan_hot_source("h.rs", src, &[], &mut []);
        assert_eq!(diags.len(), 2, "{diags:?}");
        assert!(diags.iter().all(|d| d.rule == Rule::LintPanicInHotPath));
        assert_eq!(diags[0].location, "h.rs:1");
        assert_eq!(diags[1].location, "h.rs:4");

        // Allowlist suppresses by path + needle; wrong path does not.
        let allow = parse_allowlist(
            "# a comment\n\nh.rs: justified because tested\nother.rs: x.unwrap()\n",
        );
        assert_eq!(allow.len(), 2);
        let mut used = vec![false; allow.len()];
        let diags = scan_hot_source("h.rs", src, &allow, &mut used);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].location, "h.rs:1");
        assert_eq!(used, vec![true, false]);
    }

    #[test]
    fn directory_prefix_entries_cover_every_file_beneath_them() {
        assert!(covers("a/b.rs", "a/b.rs"));
        assert!(!covers("a/b.rs", "a/b.rs.bak"));
        assert!(!covers("a/b", "a/b/c.rs"), "no trailing slash: a file");
        assert!(covers("a/b/", "a/b/c.rs"));
        assert!(covers("a/b/", "a/b/d/e.rs"));
        assert!(!covers("a/b/", "a/bc/d.rs"));

        // An allowlist entry on a directory suppresses in any file below it
        // and is marked used; a sibling directory's entry is not.
        let src = "let c = z.expect(\"poisoned\");\n";
        let allow = parse_allowlist("eng/: poisoned\nengine/: poisoned\n");
        let mut used = vec![false; allow.len()];
        assert_eq!(
            scan_hot_source("eng/shard.rs", src, &allow, &mut used),
            vec![]
        );
        assert_eq!(used, vec![true, false]);

        // A covered-set directory expands to its sorted `.rs` files; a
        // directory covering nothing is an error, not a silent skip.
        let root = Path::new(env!("CARGO_MANIFEST_DIR"));
        let files = expand(root, "src/").unwrap();
        assert!(files.contains(&"src/lint.rs".to_string()), "{files:?}");
        assert!(files.contains(&"src/bin/hidet_lint.rs".to_string()));
        assert!(files.windows(2).all(|w| w[0] < w[1]), "sorted: {files:?}");
        assert_eq!(expand(root, "src/lint.rs").unwrap(), vec!["src/lint.rs"]);
        assert!(expand(root, "src/no_such_dir/").is_err());
    }

    #[test]
    fn span_pairing_rule_balances_bare_starts_and_ends() {
        // RAII guards and `span_closed` retro-spans don't match either
        // pattern; balanced bare calls pass.
        let clean = "\
let _g = tracer.span(SpanKind::HttpHandle, id);
tracer.span_closed(SpanKind::HttpQueue, id, a, b);
let t = tracer.span_start(SpanKind::Compile, id);
tracer.span_end(t);
// span_start( in a comment is ignored
#[cfg(test)]
mod tests { fn f() { tracer.span_start(SpanKind::Tune, 0); } }
";
        assert_eq!(scan_span_pairing("i.rs", clean), vec![]);

        let leaky = "let t = tracer.span_start(SpanKind::Compile, id);\nreturn;\n";
        let diags = scan_span_pairing("i.rs", leaky);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].rule, Rule::LintSpanPairing);
        assert_eq!(diags[0].location, "i.rs");
    }

    #[test]
    fn docs_rule_requires_the_attribute() {
        assert_eq!(
            scan_lib_docs("l.rs", "//! docs\n#![warn(missing_docs)]\npub fn f() {}\n"),
            vec![]
        );
        let diags = scan_lib_docs("l.rs", "pub fn f() {}\n");
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].rule, Rule::LintMissingDocsAttr);
    }

    #[test]
    fn length_rule_flags_the_first_line_over_the_limit() {
        let at_limit = "let x = 1;\n".repeat(MAX_SOURCE_LINES);
        assert_eq!(scan_file_length("f.rs", &at_limit), vec![]);
        let over = "let x = 1;\n".repeat(MAX_SOURCE_LINES + 1);
        let diags = scan_file_length("f.rs", &over);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].rule, Rule::LintFileTooLong);
        assert_eq!(diags[0].location, "f.rs");
        assert!(diags[0].message.contains("1001 lines"));
    }

    #[test]
    fn whole_repo_passes_the_lint() {
        // The crate sits at crates/analysis; the repo root is two up.
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let diags = run_lint(&root);
        let errors: Vec<_> = diags
            .iter()
            .filter(|d| d.severity == Severity::Error)
            .collect();
        assert!(errors.is_empty(), "{}", crate::diag::render_text(&diags));
        assert!(!has_errors(&diags));
        // Stale allowlist entries surface as warnings; the checked-in
        // allowlist must be tight.
        assert_eq!(diags, vec![], "{}", crate::diag::render_text(&diags));
    }
}
