//! Metrics registry: counters, gauges and log-bucketed latency histograms,
//! rendered in Prometheus text exposition format 0.0.4.
//!
//! The registry is the *cold* side of the tracer: instrumented threads
//! never touch it — the collector feeds it from drained span events, and
//! scrape handlers read it. A `Mutex` over `BTreeMap`s is therefore fine
//! here (and keeps rendering deterministic: families and label sets come
//! out sorted), while the hot path stays inside the lock-free [`crate::ring`].
//!
//! [`validate_exposition`] is the same checker CI runs against a live
//! `GET /v2/metrics` scrape: a malformed line is a bug, not a formatting
//! nit, because Prometheus silently drops what it cannot parse.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::Mutex;

/// A sample's label set: `(name, value)` pairs in declaration order.
type Labels = Vec<(String, String)>;

/// Histogram bucket upper bounds in seconds: 1µs doubling up to ~67s, the
/// log-bucketed ladder every latency family shares. 27 finite bounds; the
/// `+Inf` bucket is implicit.
pub const BUCKET_BOUNDS: [f64; 27] = {
    let mut bounds = [0.0f64; 27];
    let mut i = 0;
    let mut v = 1e-6f64;
    while i < 27 {
        bounds[i] = v;
        v *= 2.0;
        i += 1;
    }
    bounds
};

/// One log-bucketed latency histogram: counts per bucket, plus sum/count
/// for the `_sum`/`_count` series.
#[derive(Debug, Clone)]
pub struct Histogram {
    /// Cumulative-at-render, stored per-bucket here: `counts[i]` holds
    /// observations with `value <= BUCKET_BOUNDS[i]` (and above the
    /// previous bound); the final slot is the `+Inf` overflow.
    counts: [u64; 28],
    sum: f64,
    count: u64,
}

impl Histogram {
    fn new() -> Histogram {
        Histogram {
            counts: [0; 28],
            sum: 0.0,
            count: 0,
        }
    }

    fn observe(&mut self, value: f64) {
        let idx = BUCKET_BOUNDS
            .iter()
            .position(|&b| value <= b)
            .unwrap_or(BUCKET_BOUNDS.len());
        self.counts[idx] += 1;
        self.sum += value;
        self.count += 1;
    }

    /// Total observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of observed values (seconds).
    pub fn sum(&self) -> f64 {
        self.sum
    }
}

/// A metric family's type, as declared on its `# TYPE` line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricType {
    /// Monotonically increasing.
    Counter,
    /// Free-moving current value.
    Gauge,
    /// Log-bucketed distribution.
    Histogram,
}

impl MetricType {
    fn as_str(self) -> &'static str {
        match self {
            MetricType::Counter => "counter",
            MetricType::Gauge => "gauge",
            MetricType::Histogram => "histogram",
        }
    }
}

/// One family's series: each label set, sorted by name, with its value;
/// the series in label order.
type Series<T> = Vec<(Labels, T)>;

#[derive(Debug, Default)]
struct Inner {
    counters: BTreeMap<String, Series<u64>>,
    gauges: BTreeMap<String, Series<f64>>,
    histograms: BTreeMap<String, Series<Histogram>>,
    /// Family name → (type, help). First toucher fixes the type; `describe`
    /// sets the help text.
    families: BTreeMap<String, (MetricType, String)>,
}

impl Inner {
    /// Registers family `name` as `ty` unless it is known already.
    fn touch(&mut self, name: &str, ty: MetricType) {
        if !self.families.contains_key(name) {
            self.families.insert(name.to_string(), (ty, String::new()));
        }
    }
}

/// The registry: the single source every scrape renders from.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    inner: Mutex<Inner>,
}

/// Whether `stored` and `labels` hold the same pairs, in any order.
fn same_labels(stored: &[(String, String)], labels: &[(&str, &str)]) -> bool {
    let count = |pair: &(&str, &str)| labels.iter().filter(|p| *p == pair).count();
    stored.len() == labels.len()
        && labels.iter().all(|pair| {
            count(pair)
                == (stored.iter())
                    .filter(|(k, v)| (k.as_str(), v.as_str()) == *pair)
                    .count()
        })
}

/// The series of family `name` with `labels` in `map`, if there is one.
fn find<'m, T>(
    map: &'m BTreeMap<String, Series<T>>,
    name: &str,
    labels: &[(&str, &str)],
) -> Option<&'m T> {
    let series = map.get(name)?;
    let (_, value) = series.iter().find(|(l, _)| same_labels(l, labels))?;
    Some(value)
}

/// The series of family `name` with `labels` in `map`, made by `new` on
/// first sight — the only time a lookup allocates.
fn entry<'m, T>(
    map: &'m mut BTreeMap<String, Series<T>>,
    name: &str,
    labels: &[(&str, &str)],
    new: impl FnOnce() -> T,
) -> &'m mut T {
    if !map.contains_key(name) {
        map.insert(name.to_string(), Vec::new());
    }
    let series = map.get_mut(name).expect("inserted above");
    let at = match series.iter().position(|(l, _)| same_labels(l, labels)) {
        Some(at) => at,
        None => {
            let mut owned: Labels = (labels.iter())
                .map(|&(k, v)| (k.to_string(), v.to_string()))
                .collect();
            owned.sort();
            let at = series.partition_point(|(l, _)| *l < owned);
            series.insert(at, (owned, new()));
            at
        }
    };
    &mut series[at].1
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> MetricsRegistry {
        MetricsRegistry::default()
    }

    /// Sets a family's `# HELP` text (idempotent; also pins its type).
    pub fn describe(&self, name: &str, ty: MetricType, help: &str) {
        let mut inner = self.inner.lock().expect("metrics registry poisoned");
        inner
            .families
            .entry(name.to_string())
            .or_insert((ty, String::new()))
            .1 = help.to_string();
    }

    /// Adds `delta` to a counter series, creating it at zero first.
    pub fn counter_add(&self, name: &str, labels: &[(&str, &str)], delta: u64) {
        let mut inner = self.inner.lock().expect("metrics registry poisoned");
        inner.touch(name, MetricType::Counter);
        *entry(&mut inner.counters, name, labels, || 0) += delta;
    }

    /// Sets a gauge series to `value`.
    pub fn gauge_set(&self, name: &str, labels: &[(&str, &str)], value: f64) {
        let mut inner = self.inner.lock().expect("metrics registry poisoned");
        inner.touch(name, MetricType::Gauge);
        *entry(&mut inner.gauges, name, labels, || 0.0) = value;
    }

    /// Observes `seconds` into a histogram series.
    pub fn observe_seconds(&self, name: &str, labels: &[(&str, &str)], seconds: f64) {
        let mut inner = self.inner.lock().expect("metrics registry poisoned");
        inner.touch(name, MetricType::Histogram);
        entry(&mut inner.histograms, name, labels, Histogram::new).observe(seconds);
    }

    /// Reads one counter series (0 when absent).
    pub fn counter_value(&self, name: &str, labels: &[(&str, &str)]) -> u64 {
        let inner = self.inner.lock().expect("metrics registry poisoned");
        find(&inner.counters, name, labels).copied().unwrap_or(0)
    }

    /// Reads one histogram series (cloned).
    pub fn histogram(&self, name: &str, labels: &[(&str, &str)]) -> Option<Histogram> {
        let inner = self.inner.lock().expect("metrics registry poisoned");
        find(&inner.histograms, name, labels).cloned()
    }

    /// Renders the whole registry in Prometheus text exposition format
    /// 0.0.4. Deterministic: families and series in sorted order.
    pub fn render(&self) -> String {
        let inner = self.inner.lock().expect("metrics registry poisoned");
        let mut out = String::new();
        for (family, (ty, help)) in &inner.families {
            if !help.is_empty() {
                let _ = writeln!(out, "# HELP {family} {help}");
            }
            let _ = writeln!(out, "# TYPE {family} {}", ty.as_str());
            match ty {
                MetricType::Counter => {
                    for (labels, v) in inner.counters.get(family).into_iter().flatten() {
                        let _ = writeln!(out, "{} {v}", render_series_name(family, labels, &[]));
                    }
                }
                MetricType::Gauge => {
                    for (labels, v) in inner.gauges.get(family).into_iter().flatten() {
                        let _ = writeln!(
                            out,
                            "{} {}",
                            render_series_name(family, labels, &[]),
                            render_value(*v)
                        );
                    }
                }
                MetricType::Histogram => {
                    for (labels, h) in inner.histograms.get(family).into_iter().flatten() {
                        let mut cumulative = 0u64;
                        for (i, &c) in h.counts.iter().enumerate() {
                            cumulative += c;
                            let le = BUCKET_BOUNDS
                                .get(i)
                                .map(|b| b.to_string())
                                .unwrap_or_else(|| "+Inf".to_string());
                            let _ = writeln!(
                                out,
                                "{} {cumulative}",
                                render_series_name(
                                    &format!("{family}_bucket"),
                                    labels,
                                    &[("le", &le)]
                                )
                            );
                        }
                        let _ = writeln!(
                            out,
                            "{} {}",
                            render_series_name(&format!("{family}_sum"), labels, &[]),
                            render_value(h.sum)
                        );
                        let _ = writeln!(
                            out,
                            "{} {}",
                            render_series_name(&format!("{family}_count"), labels, &[]),
                            h.count
                        );
                    }
                }
            }
        }
        out
    }
}

/// `name{label="value",...}` with `extra` pairs appended (the `le` bucket
/// label). Label values are escaped per the exposition format.
fn render_series_name(name: &str, labels: &[(String, String)], extra: &[(&str, &str)]) -> String {
    if labels.is_empty() && extra.is_empty() {
        return name.to_string();
    }
    let mut out = format!("{name}{{");
    let mut first = true;
    for (k, v) in labels
        .iter()
        .map(|(k, v)| (k.as_str(), v.as_str()))
        .chain(extra.iter().copied())
    {
        if !first {
            out.push(',');
        }
        first = false;
        let _ = write!(out, "{k}=\"{}\"", escape_label_value(v));
    }
    out.push('}');
    out
}

fn escape_label_value(v: &str) -> String {
    v.replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', "\\n")
}

/// Renders an f64 sample value; Prometheus accepts Go-style floats, and
/// Rust's shortest-round-trip `Display` is a subset of that.
fn render_value(v: f64) -> String {
    if v == f64::INFINITY {
        "+Inf".to_string()
    } else if v == f64::NEG_INFINITY {
        "-Inf".to_string()
    } else {
        v.to_string()
    }
}

/// Validates Prometheus text exposition: every line is a well-formed
/// comment or sample, `# TYPE` precedes its family's samples and never
/// repeats, histogram families carry monotonic `_bucket` series ending in
/// `+Inf` that agrees with `_count`. Returns the first violation.
pub fn validate_exposition(text: &str) -> Result<(), String> {
    let mut typed: BTreeMap<String, String> = BTreeMap::new();
    let mut sampled: Vec<(String, Labels, f64)> = Vec::new();
    for (lineno, line) in text.lines().enumerate() {
        let at = |msg: String| format!("line {}: {msg}", lineno + 1);
        if line.is_empty() {
            return Err(at("empty line".to_string()));
        }
        if let Some(rest) = line.strip_prefix("# ") {
            let mut parts = rest.splitn(3, ' ');
            match parts.next() {
                Some("TYPE") => {
                    let name = parts.next().ok_or_else(|| at("TYPE without name".into()))?;
                    let ty = parts.next().ok_or_else(|| at("TYPE without type".into()))?;
                    if !["counter", "gauge", "histogram", "summary", "untyped"].contains(&ty) {
                        return Err(at(format!("unknown metric type `{ty}`")));
                    }
                    if !is_metric_name(name) {
                        return Err(at(format!("bad family name `{name}`")));
                    }
                    if typed.insert(name.to_string(), ty.to_string()).is_some() {
                        return Err(at(format!("duplicate TYPE for `{name}`")));
                    }
                    if sampled.iter().any(|(n, _, _)| family_of(n) == name) {
                        return Err(at(format!("TYPE for `{name}` after its samples")));
                    }
                }
                Some("HELP") => {
                    let name = parts.next().ok_or_else(|| at("HELP without name".into()))?;
                    if !is_metric_name(name) {
                        return Err(at(format!("bad family name `{name}`")));
                    }
                }
                _ => return Err(at("comment is neither HELP nor TYPE".to_string())),
            }
            continue;
        }
        if line.starts_with('#') {
            return Err(at("comment must start with `# `".to_string()));
        }
        let (name, labels, value) = parse_sample(line).map_err(at)?;
        sampled.push((name, labels, value));
    }

    // Histogram structure: per (family, non-le labels), buckets must be
    // cumulative-monotonic, end at +Inf, and agree with _count.
    for (family, ty) in &typed {
        if ty != "histogram" {
            continue;
        }
        let bucket_name = format!("{family}_bucket");
        let count_name = format!("{family}_count");
        let mut series: BTreeMap<Labels, Vec<(f64, f64)>> = BTreeMap::new();
        for (name, labels, value) in &sampled {
            if *name != bucket_name {
                continue;
            }
            let le = labels
                .iter()
                .find(|(k, _)| k == "le")
                .ok_or_else(|| format!("`{bucket_name}` sample without `le` label"))?;
            let bound = if le.1 == "+Inf" {
                f64::INFINITY
            } else {
                le.1.parse::<f64>()
                    .map_err(|_| format!("unparseable `le` bound `{}`", le.1))?
            };
            let rest: Labels = labels.iter().filter(|(k, _)| k != "le").cloned().collect();
            series.entry(rest).or_default().push((bound, *value));
        }
        for (rest, mut buckets) in series {
            buckets.sort_by(|a, b| a.0.total_cmp(&b.0));
            let mut prev = 0.0f64;
            for &(_, c) in &buckets {
                if c < prev {
                    return Err(format!("`{bucket_name}` counts not monotonic"));
                }
                prev = c;
            }
            let last = buckets
                .last()
                .ok_or_else(|| format!("histogram `{family}` has no buckets"))?;
            if last.0 != f64::INFINITY {
                return Err(format!("histogram `{family}` missing `+Inf` bucket"));
            }
            let count = sampled
                .iter()
                .find(|(n, l, _)| *n == count_name && *l == rest)
                .ok_or_else(|| format!("histogram `{family}` missing `_count`"))?;
            if count.2 != last.1 {
                return Err(format!(
                    "histogram `{family}` +Inf bucket {} != _count {}",
                    last.1, count.2
                ));
            }
        }
    }
    Ok(())
}

fn is_metric_name(s: &str) -> bool {
    let mut chars = s.chars();
    match chars.next() {
        Some(c) if c.is_ascii_alphabetic() || c == '_' || c == ':' => {}
        _ => return false,
    }
    chars.all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
}

fn is_label_name(s: &str) -> bool {
    let mut chars = s.chars();
    match chars.next() {
        Some(c) if c.is_ascii_alphabetic() || c == '_' => {}
        _ => return false,
    }
    chars.all(|c| c.is_ascii_alphanumeric() || c == '_')
}

/// Strips the histogram/summary suffixes a sample name may carry, giving
/// the family a `# TYPE` line would declare.
fn family_of(sample_name: &str) -> &str {
    for suffix in ["_bucket", "_sum", "_count"] {
        if let Some(stripped) = sample_name.strip_suffix(suffix) {
            return stripped;
        }
    }
    sample_name
}

/// Parses one sample line: `name[{labels}] value [timestamp]`.
fn parse_sample(line: &str) -> Result<(String, Labels, f64), String> {
    let (name_labels, rest) = match line.find('{') {
        Some(brace) => {
            let close = line
                .rfind('}')
                .ok_or_else(|| "unterminated label set".to_string())?;
            if close < brace {
                return Err("mismatched braces".to_string());
            }
            (
                (&line[..brace], parse_labels(&line[brace + 1..close])?),
                &line[close + 1..],
            )
        }
        None => {
            let sp = line
                .find(' ')
                .ok_or_else(|| "sample without value".to_string())?;
            ((&line[..sp], Vec::new()), &line[sp..])
        }
    };
    let (name, labels) = name_labels;
    if !is_metric_name(name) {
        return Err(format!("bad sample name `{name}`"));
    }
    let mut fields = rest.split_whitespace();
    let value_text = fields
        .next()
        .ok_or_else(|| "sample without value".to_string())?;
    let value = match value_text {
        "+Inf" => f64::INFINITY,
        "-Inf" => f64::NEG_INFINITY,
        "NaN" => f64::NAN,
        other => other
            .parse::<f64>()
            .map_err(|_| format!("unparseable value `{other}`"))?,
    };
    if let Some(ts) = fields.next() {
        ts.parse::<i64>()
            .map_err(|_| format!("unparseable timestamp `{ts}`"))?;
    }
    if fields.next().is_some() {
        return Err("trailing fields after timestamp".to_string());
    }
    Ok((name.to_string(), labels, value))
}

fn parse_labels(body: &str) -> Result<Vec<(String, String)>, String> {
    let mut out = Vec::new();
    let mut rest = body.trim_end_matches(',');
    while !rest.is_empty() {
        let eq = rest
            .find('=')
            .ok_or_else(|| format!("label without `=` in `{rest}`"))?;
        let name = &rest[..eq];
        if !is_label_name(name) {
            return Err(format!("bad label name `{name}`"));
        }
        let after = &rest[eq + 1..];
        if !after.starts_with('"') {
            return Err(format!("label `{name}` value not quoted"));
        }
        // Find the closing quote, honouring backslash escapes.
        let bytes = after.as_bytes();
        let mut i = 1;
        let mut value = String::new();
        loop {
            match bytes.get(i) {
                None => return Err(format!("label `{name}` value unterminated")),
                Some(b'"') => break,
                Some(b'\\') => {
                    match bytes.get(i + 1) {
                        Some(b'\\') => value.push('\\'),
                        Some(b'"') => value.push('"'),
                        Some(b'n') => value.push('\n'),
                        _ => return Err(format!("bad escape in label `{name}`")),
                    }
                    i += 2;
                }
                Some(&b) => {
                    value.push(b as char);
                    i += 1;
                }
            }
        }
        out.push((name.to_string(), value));
        rest = rest[eq + 1 + i + 1..].trim_start_matches(',');
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_gauges_histograms_render_and_validate() {
        let reg = MetricsRegistry::new();
        reg.describe(
            "hidet_spans_total",
            MetricType::Counter,
            "Completed spans by kind.",
        );
        reg.counter_add("hidet_spans_total", &[("kind", "decode_step")], 3);
        reg.counter_add("hidet_spans_total", &[("kind", "compile")], 1);
        reg.gauge_set("hidet_kv_blocks_in_use", &[], 12.0);
        reg.observe_seconds("hidet_span_seconds", &[("kind", "decode_step")], 3e-6);
        reg.observe_seconds("hidet_span_seconds", &[("kind", "decode_step")], 5e-3);
        let text = reg.render();
        assert!(text.contains("# TYPE hidet_spans_total counter"));
        assert!(text.contains("hidet_spans_total{kind=\"decode_step\"} 3"));
        assert!(text.contains("# TYPE hidet_span_seconds histogram"));
        assert!(text.contains("le=\"+Inf\"} 2"));
        assert!(text.contains("hidet_span_seconds_count{kind=\"decode_step\"} 2"));
        validate_exposition(&text).expect("rendered exposition validates");
    }

    #[test]
    fn histogram_buckets_are_log_spaced_and_cumulative() {
        let mut h = Histogram::new();
        h.observe(1.5e-6); // second bucket (2µs)
        h.observe(0.9e-6); // first bucket (1µs)
        h.observe(1e9); // +Inf overflow
        assert_eq!(h.count(), 3);
        assert_eq!(h.counts[0], 1);
        assert_eq!(h.counts[1], 1);
        assert_eq!(h.counts[27], 1);
        assert_eq!(BUCKET_BOUNDS[0], 1e-6);
        assert_eq!(BUCKET_BOUNDS[1], 2e-6);
        let top = BUCKET_BOUNDS.last().copied().unwrap();
        assert!(top > 60.0 && top < 70.0, "top finite bound {top}");
    }

    #[test]
    fn validator_rejects_malformed_lines() {
        let cases = [
            ("hidet_x\n", "sample without value"),
            ("hidet_x nope\n", "unparseable value"),
            ("2bad 1\n", "bad sample name"),
            ("# COMMENT hi\n", "neither HELP nor TYPE"),
            ("#bare\n", "must start with"),
            ("# TYPE hidet_x flavor\n", "unknown metric type"),
            (
                "# TYPE hidet_x counter\n# TYPE hidet_x counter\n",
                "duplicate TYPE",
            ),
            ("hidet_x 1\n# TYPE hidet_x counter\n", "after its samples"),
            ("hidet_x{le=} 1\n", "not quoted"),
            ("hidet_x{9bad=\"v\"} 1\n", "bad label name"),
            ("\n\n", "empty line"),
        ];
        for (text, needle) in cases {
            let err = validate_exposition(text).expect_err(text);
            assert!(err.contains(needle), "`{text}` → `{err}`");
        }
    }

    #[test]
    fn validator_checks_histogram_structure() {
        let missing_inf = "\
# TYPE h histogram
h_bucket{le=\"1\"} 2
h_sum 1.5
h_count 2
";
        assert!(validate_exposition(missing_inf)
            .expect_err("missing +Inf")
            .contains("+Inf"));
        let count_mismatch = "\
# TYPE h histogram
h_bucket{le=\"1\"} 2
h_bucket{le=\"+Inf\"} 2
h_sum 1.5
h_count 3
";
        assert!(validate_exposition(count_mismatch)
            .expect_err("count mismatch")
            .contains("_count"));
        let non_monotonic = "\
# TYPE h histogram
h_bucket{le=\"1\"} 5
h_bucket{le=\"2\"} 3
h_bucket{le=\"+Inf\"} 5
h_count 5
h_sum 1
";
        assert!(validate_exposition(non_monotonic)
            .expect_err("non-monotonic")
            .contains("monotonic"));
    }

    #[test]
    fn escaped_label_values_round_trip_through_the_validator() {
        let reg = MetricsRegistry::new();
        reg.gauge_set("g", &[("path", "a\\b\"c")], 1.0);
        let text = reg.render();
        assert!(text.contains(r#"g{path="a\\b\"c"} 1"#), "{text}");
        validate_exposition(&text).expect("escapes validate");
    }
}
