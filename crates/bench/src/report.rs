//! Machine-readable benchmark output: `BENCH_*.json` emission.
//!
//! CI tracks the repository's performance trajectory per PR by uploading
//! these files as workflow artifacts ("From Profiling to Optimization",
//! PAPERS.md). Each acceptance binary contributes one named **section** to a
//! shared file (default `BENCH_serving.json` in the working directory), so
//! several binaries can run in any order without clobbering each other:
//! [`upsert_section`] re-reads the file, replaces the binary's own section
//! and leaves the others untouched.
//!
//! The format is deliberately flat — one top-level object whose keys are
//! section names and whose values are objects of numeric/string metrics —
//! parsed and escaped by `hidet_sched::json`, the workspace's one JSON
//! dialect (no crates.io access; see `vendor/README.md`).

use std::io;
use std::path::Path;

use hidet_sched::json::{json_string, Json};

/// One binary's named group of metrics.
#[derive(Debug, Clone)]
pub struct BenchSection {
    name: String,
    fields: Vec<(String, Json)>,
}

impl BenchSection {
    /// An empty section named `name` (the binary's name, by convention).
    pub fn new(name: &str) -> BenchSection {
        BenchSection {
            name: name.to_string(),
            fields: Vec::new(),
        }
    }

    /// Adds a float metric (non-finite values are recorded as `null`).
    pub fn field_f64(mut self, key: &str, value: f64) -> BenchSection {
        self.fields.push((key.to_string(), Json::Number(value)));
        self
    }

    /// Adds an integer metric.
    pub fn field_usize(self, key: &str, value: usize) -> BenchSection {
        self.field_f64(key, value as f64)
    }

    /// Adds a string metric.
    pub fn field_str(mut self, key: &str, value: &str) -> BenchSection {
        self.fields
            .push((key.to_string(), Json::String(value.to_string())));
        self
    }

    /// Appends the process's trace-metrics snapshot as a nested
    /// `"trace_metrics"` object (series name → value), so a trajectory diff
    /// of a gated number ships with the span/KV/ingress counters that
    /// explain *why* it moved. Drains the global tracer's rings first so
    /// the snapshot covers everything the run emitted.
    pub fn with_trace_metrics(mut self) -> BenchSection {
        let tracer = hidet_trace::global();
        tracer.drain();
        let samples = tracer.metrics().samples();
        let series = samples
            .into_iter()
            .map(|(name, value)| (name, Json::Number(value)))
            .collect();
        self.fields
            .push(("trace_metrics".to_string(), Json::Object(series)));
        self
    }

    /// Renders the section body as a JSON object.
    pub fn to_json(&self) -> String {
        render_object(&self.fields)
    }
}

/// Renders a value in the report's house style (`", "` / `": "` separators,
/// numbers in shortest round-trip form so integral metrics carry no `.0`,
/// non-finite numbers as `null`). Re-rendering a parsed report reproduces it
/// byte for byte, which is what keeps untouched sections stable in diffs.
fn render(value: &Json) -> String {
    match value {
        Json::Number(n) if n.is_finite() => format!("{n}"),
        Json::Null | Json::Number(_) => "null".to_string(),
        Json::Bool(b) => b.to_string(),
        Json::String(s) => json_string(s),
        Json::Array(items) => {
            let items: Vec<String> = items.iter().map(render).collect();
            format!("[{}]", items.join(", "))
        }
        Json::Object(fields) => render_object(fields),
    }
}

fn render_object(fields: &[(String, Json)]) -> String {
    let fields: Vec<String> = fields
        .iter()
        .map(|(key, value)| format!("{}: {}", json_string(key), render(value)))
        .collect();
    format!("{{{}}}", fields.join(", "))
}

/// Writes (or updates) `section` in the bench-report file at `path`.
///
/// The file holds one top-level JSON object keyed by section name. An
/// existing file has this binary's section replaced in place (other sections
/// and their order are preserved); a missing or unparsable file is
/// rewritten with just this section.
pub fn upsert_section(path: &Path, section: &BenchSection) -> io::Result<()> {
    let mut sections = match std::fs::read_to_string(path).map(|text| Json::parse(&text)) {
        Ok(Ok(Json::Object(sections))) => sections,
        _ => Vec::new(),
    };
    let body = Json::Object(section.fields.clone());
    match sections.iter_mut().find(|(name, _)| *name == section.name) {
        Some((_, existing)) => *existing = body,
        None => sections.push((section.name.clone(), body)),
    }
    let lines: Vec<String> = sections
        .iter()
        .map(|(name, body)| format!("  {}: {}", json_string(name), render(body)))
        .collect();
    std::fs::write(path, format!("{{\n{}\n}}\n", lines.join(",\n")))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn temp_path(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!(
            "hidet-bench-report-{tag}-{}-{:?}.json",
            std::process::id(),
            std::thread::current().id()
        ))
    }

    #[test]
    fn section_renders_flat_json() {
        let s = BenchSection::new("demo")
            .field_f64("rps", 1234.5)
            .field_usize("requests", 32)
            .field_str("mode", "batched");
        assert_eq!(
            s.to_json(),
            "{\"rps\": 1234.5, \"requests\": 32, \"mode\": \"batched\"}"
        );
    }

    #[test]
    fn trace_metrics_nest_as_a_json_object() {
        // Emit at least one span so the registry has series to snapshot.
        hidet_trace::global().instant(hidet_trace::SpanKind::Compile, 1);
        let s = BenchSection::new("demo")
            .field_usize("x", 1)
            .with_trace_metrics();
        let json = s.to_json();
        assert!(json.contains("\"trace_metrics\": {"), "{json}");
        assert!(json.contains("hidet_trace_events_total"), "{json}");
        // The nested object must parse as part of the section.
        let path = temp_path("trace-metrics");
        upsert_section(&path, &s).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let parsed = Json::parse(&text).unwrap();
        let sections = parsed.as_object("report").unwrap();
        assert_eq!(sections[0].0, "demo");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn non_finite_floats_become_null() {
        let s = BenchSection::new("demo").field_f64("bad", f64::NAN);
        assert_eq!(s.to_json(), "{\"bad\": null}");
    }

    #[test]
    fn upsert_creates_replaces_and_preserves() {
        let path = temp_path("upsert");
        let _ = std::fs::remove_file(&path);

        upsert_section(&path, &BenchSection::new("a").field_usize("x", 1)).unwrap();
        upsert_section(&path, &BenchSection::new("b").field_usize("y", 2)).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.contains("\"a\": {\"x\": 1}"), "{text}");
        assert!(text.contains("\"b\": {\"y\": 2}"), "{text}");

        // Re-emitting a section replaces it in place and keeps the other.
        upsert_section(&path, &BenchSection::new("a").field_usize("x", 9)).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.contains("\"a\": {\"x\": 9}"), "{text}");
        assert!(!text.contains("\"x\": 1"), "{text}");
        assert!(text.contains("\"b\": {\"y\": 2}"), "{text}");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn corrupt_files_are_rewritten() {
        let path = temp_path("corrupt");
        std::fs::write(&path, "not json at all {{{").unwrap();
        upsert_section(&path, &BenchSection::new("a").field_usize("x", 1)).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(text, "{\n  \"a\": {\"x\": 1}\n}\n");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn nested_values_and_strings_round_trip_through_an_upsert() {
        // Sections written by other tools — nested arrays, a string full of
        // structural characters, a bare number — survive byte for byte.
        let path = temp_path("nested");
        std::fs::write(
            &path,
            r#"{ "one": {"a": [1, 2, {"b": "},"}], "n": null},   "two": 3.5 }"#,
        )
        .unwrap();
        upsert_section(&path, &BenchSection::new("three").field_usize("x", 1)).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(
            text,
            "{\n  \"one\": {\"a\": [1, 2, {\"b\": \"},\"}], \"n\": null},\n  \"two\": 3.5,\n  \"three\": {\"x\": 1}\n}\n"
        );
        // And a second pass over its own output changes nothing.
        upsert_section(&path, &BenchSection::new("three").field_usize("x", 1)).unwrap();
        assert_eq!(std::fs::read_to_string(&path).unwrap(), text);
        let _ = std::fs::remove_file(&path);
    }
}
