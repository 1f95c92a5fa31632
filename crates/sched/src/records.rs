//! Persistent tuning records: the paper's cheap-tuning story, amortized
//! across *processes*.
//!
//! Tuning a matmul anchor enumerates the ~200-candidate hardware-centric
//! space once (§4.3). Within one compilation the tuner already deduplicates
//! identical problems; this module extends that reuse across compilations and
//! across process restarts. A [`TuningCache`] maps `(device fingerprint,
//! batch, m, n, k)` to the winning [`MatmulConfig`] plus the cost that was
//! paid to find it, and round-trips through a JSON file — a cold process
//! started with a warm record file schedules every previously seen matmul
//! with **zero tuning trials**.
//!
//! The environment has no serde, so the (de)serializer is hand-rolled over
//! the workspace's shared [`crate::json`] module — the same parser the
//! compiled artifacts (`hidet::artifact`) and the HTTP API (`hidet-server`)
//! use. The format is versioned; unknown versions are rejected rather than
//! misread.
//!
//! ```json
//! {
//!   "version": 1,
//!   "records": [
//!     {
//!       "device": "NVIDIA GeForce RTX 3090 (simulated)|sm82x1536t16b|...",
//!       "batch": 1, "m": 64, "n": 48, "k": 64,
//!       "config": {
//!         "block_m": 64, "block_n": 64, "block_k": 8,
//!         "warps_m": 2, "warps_n": 2, "thread_m": 4, "thread_n": 4,
//!         "stages": 2, "split_k": 1
//!       },
//!       "trials": 198, "tuning_seconds": 39.6, "best_latency_us": 12.3
//!     }
//!   ]
//! }
//! ```

use std::collections::HashMap;
use std::fmt;
use std::fs;
use std::io;
use std::path::Path;

use crate::json::{self, json_f64, json_string, Json};
use crate::space::MatmulConfig;
use crate::templates::matmul::MatmulProblem;

/// Format version written by [`TuningCache::save`].
pub const RECORD_FORMAT_VERSION: i64 = 1;

/// One persisted tuning outcome.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TuningRecord {
    /// The tuned problem.
    pub problem: MatmulProblem,
    /// The winning configuration.
    pub config: MatmulConfig,
    /// Trials spent finding it (what a warm start saves).
    pub trials: usize,
    /// Simulated tuning wall-clock spent finding it.
    pub tuning_seconds: f64,
    /// Predicted latency of the winner, microseconds (diagnostic only).
    pub best_latency_us: f64,
}

/// Errors from loading a record file.
#[derive(Debug)]
pub enum RecordsError {
    /// Filesystem failure.
    Io(io::Error),
    /// Malformed JSON or schema mismatch.
    Parse(String),
}

impl fmt::Display for RecordsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RecordsError::Io(e) => write!(f, "tuning records io error: {e}"),
            RecordsError::Parse(msg) => write!(f, "tuning records parse error: {msg}"),
        }
    }
}

impl std::error::Error for RecordsError {}

impl From<io::Error> for RecordsError {
    fn from(e: io::Error) -> Self {
        RecordsError::Io(e)
    }
}

type Key = (String, i64, i64, i64, i64);

fn key(device: &str, p: MatmulProblem) -> Key {
    (device.to_string(), p.batch, p.m, p.n, p.k)
}

/// In-memory tuning-record store with JSON persistence.
#[derive(Debug, Default, Clone)]
pub struct TuningCache {
    records: HashMap<Key, TuningRecord>,
    /// Insertions since the last save/load (persistence is worth a write).
    dirty: bool,
}

impl TuningCache {
    /// An empty cache.
    pub fn new() -> TuningCache {
        TuningCache::default()
    }

    /// Loads a cache from `path`. A missing file yields an empty cache (the
    /// natural cold-start); any other error is reported.
    pub fn load(path: &Path) -> Result<TuningCache, RecordsError> {
        let text = match fs::read_to_string(path) {
            Ok(t) => t,
            Err(e) if e.kind() == io::ErrorKind::NotFound => {
                return Ok(TuningCache::new());
            }
            Err(e) => return Err(e.into()),
        };
        TuningCache::from_json(&text)
    }

    /// Writes the cache to `path` (atomically: temp file + rename) and clears
    /// the dirty flag.
    pub fn save(&mut self, path: &Path) -> Result<(), RecordsError> {
        let tmp = path.with_extension("json.tmp");
        fs::write(&tmp, self.to_json())?;
        fs::rename(&tmp, path)?;
        self.dirty = false;
        Ok(())
    }

    /// The record for `problem` tuned on `device`, if present.
    pub fn lookup(&self, device: &str, problem: MatmulProblem) -> Option<&TuningRecord> {
        self.records.get(&key(device, problem))
    }

    /// Inserts (or replaces) a record.
    pub fn insert(&mut self, device: &str, record: TuningRecord) {
        self.records.insert(key(device, record.problem), record);
        self.dirty = true;
    }

    /// Absorbs every record from `other` that this cache does not already
    /// hold. Existing records win — the in-memory store is at least as fresh
    /// as anything on disk. Marks the cache dirty only if records were added.
    pub fn merge(&mut self, other: TuningCache) {
        for (k, record) in other.records {
            if let std::collections::hash_map::Entry::Vacant(slot) = self.records.entry(k) {
                slot.insert(record);
                self.dirty = true;
            }
        }
    }

    /// Number of stored records.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Whether there are unsaved insertions.
    pub fn is_dirty(&self) -> bool {
        self.dirty
    }

    /// Serializes to the versioned JSON format, records sorted by key so the
    /// output is deterministic (and diffs are readable).
    pub fn to_json(&self) -> String {
        let mut keys: Vec<&Key> = self.records.keys().collect();
        keys.sort();
        let mut out = String::new();
        out.push_str("{\n");
        out.push_str(&format!("  \"version\": {RECORD_FORMAT_VERSION},\n"));
        out.push_str("  \"records\": [");
        for (i, k) in keys.iter().enumerate() {
            let r = &self.records[*k];
            if i > 0 {
                out.push(',');
            }
            out.push_str("\n    {");
            out.push_str(&format!("\"device\": {}, ", json_string(&k.0)));
            out.push_str(&format!(
                "{}, \"config\": {}, ",
                r.problem.to_json_members(),
                r.config.to_json()
            ));
            out.push_str(&format!(
                "\"trials\": {}, \"tuning_seconds\": {}, \"best_latency_us\": {}}}",
                r.trials,
                json_f64(r.tuning_seconds),
                json_f64(r.best_latency_us)
            ));
        }
        out.push_str("\n  ]\n}\n");
        out
    }

    /// Parses the versioned JSON format.
    pub fn from_json(text: &str) -> Result<TuningCache, RecordsError> {
        let value = Json::parse(text).map_err(RecordsError::Parse)?;
        let root = value.as_object("top level").map_err(RecordsError::Parse)?;
        let version = get(root, "version")?.as_i64("version").map_err(parse)?;
        if version != RECORD_FORMAT_VERSION {
            return Err(RecordsError::Parse(format!(
                "unsupported record format version {version} (expected {RECORD_FORMAT_VERSION})"
            )));
        }
        let mut cache = TuningCache::new();
        for (idx, rec) in get(root, "records")?
            .as_array("records")
            .map_err(parse)?
            .iter()
            .enumerate()
        {
            let ctx = format!("records[{idx}]");
            let rec = rec.as_object(&ctx).map_err(parse)?;
            let device = get(rec, "device")?
                .as_str("device")
                .map_err(parse)?
                .to_string();
            let problem = MatmulProblem::from_json_members(rec, &ctx).map_err(parse)?;
            let config = MatmulConfig::from_json(get(rec, "config")?, &ctx).map_err(parse)?;
            let trials = get(rec, "trials")?.as_i64("trials").map_err(parse)?;
            if trials < 0 {
                return Err(RecordsError::Parse(format!(
                    "{ctx}: \"trials\" must be >= 0, got {trials}"
                )));
            }
            let nonneg_f64 = |field: &str| -> Result<f64, RecordsError> {
                let v = get(rec, field)?.as_f64(field).map_err(parse)?;
                if !v.is_finite() || v < 0.0 {
                    return Err(RecordsError::Parse(format!(
                        "{ctx}: \"{field}\" must be a finite non-negative number, got {v}"
                    )));
                }
                Ok(v)
            };
            let record = TuningRecord {
                problem,
                config,
                trials: trials as usize,
                tuning_seconds: nonneg_f64("tuning_seconds")?,
                best_latency_us: nonneg_f64("best_latency_us")?,
            };
            cache.records.insert(key(&device, problem), record);
        }
        cache.dirty = false;
        Ok(cache)
    }
}

impl MatmulConfig {
    /// The configuration as a JSON object — the one statement of the
    /// encoding, embedded by the records file and by `hidet`'s compiled
    /// artifacts alike.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"block_m\": {}, \"block_n\": {}, \"block_k\": {}, \
             \"warps_m\": {}, \"warps_n\": {}, \"thread_m\": {}, \"thread_n\": {}, \
             \"stages\": {}, \"split_k\": {}}}",
            self.block_m,
            self.block_n,
            self.block_k,
            self.warps_m,
            self.warps_n,
            self.thread_m,
            self.thread_n,
            self.stages,
            self.split_k
        )
    }

    /// Parses [`MatmulConfig::to_json`]'s object, rejecting what a corrupted
    /// or hand-edited file could hold and the rest of the compiler could not
    /// survive: a tile size below 1, a `stages` that does not fit its `u32`.
    /// `ctx` names the enclosing element in errors.
    pub fn from_json(value: &Json, ctx: &str) -> Result<MatmulConfig, String> {
        let ctx = format!("{ctx}.config");
        let obj = value.as_object(&ctx)?;
        let positive = |field: &str| json::get_positive(obj, field, &ctx);
        let stages = positive("stages")?;
        Ok(MatmulConfig {
            block_m: positive("block_m")?,
            block_n: positive("block_n")?,
            block_k: positive("block_k")?,
            warps_m: positive("warps_m")?,
            warps_n: positive("warps_n")?,
            thread_m: positive("thread_m")?,
            thread_n: positive("thread_n")?,
            stages: u32::try_from(stages)
                .map_err(|_| format!("{ctx}: field \"stages\" out of range, got {stages}"))?,
            split_k: positive("split_k")?,
        })
    }
}

impl MatmulProblem {
    /// The problem's dimensions as JSON object *members* (no braces): both
    /// schemas inline them in the element that carries the problem.
    pub fn to_json_members(&self) -> String {
        format!(
            "\"batch\": {}, \"m\": {}, \"n\": {}, \"k\": {}",
            self.batch, self.m, self.n, self.k
        )
    }

    /// Reads [`MatmulProblem::to_json_members`]'s members back out of the
    /// object `obj`; every dimension must be at least 1. `ctx` names the
    /// object in errors.
    pub fn from_json_members(obj: &[(String, Json)], ctx: &str) -> Result<MatmulProblem, String> {
        let dim = |name: &str| json::get_positive(obj, name, ctx);
        Ok(MatmulProblem {
            batch: dim("batch")?,
            m: dim("m")?,
            n: dim("n")?,
            k: dim("k")?,
        })
    }
}

/// Wraps a shared-parser error into this schema's typed error.
fn parse(e: String) -> RecordsError {
    RecordsError::Parse(e)
}

fn get<'a>(obj: &'a [(String, Json)], field: &str) -> Result<&'a Json, RecordsError> {
    json::get(obj, field).map_err(parse)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_record(m: i64) -> TuningRecord {
        TuningRecord {
            problem: MatmulProblem::new(m, 64, 128),
            config: MatmulConfig::default(),
            trials: 198,
            tuning_seconds: 39.6,
            best_latency_us: 12.25,
        }
    }

    #[test]
    fn round_trips_through_json() {
        let mut cache = TuningCache::new();
        cache.insert("devA", sample_record(32));
        cache.insert("devA", sample_record(64));
        cache.insert("devB \"quoted\"\n", sample_record(32));
        let json = cache.to_json();
        let back = TuningCache::from_json(&json).unwrap();
        assert_eq!(back.len(), 3);
        assert_eq!(
            back.lookup("devA", MatmulProblem::new(64, 64, 128)),
            cache.lookup("devA", MatmulProblem::new(64, 64, 128))
        );
        assert_eq!(
            back.lookup("devB \"quoted\"\n", MatmulProblem::new(32, 64, 128)),
            cache.lookup("devB \"quoted\"\n", MatmulProblem::new(32, 64, 128))
        );
    }

    #[test]
    fn lookup_is_device_scoped() {
        let mut cache = TuningCache::new();
        cache.insert("devA", sample_record(32));
        assert!(cache
            .lookup("devA", MatmulProblem::new(32, 64, 128))
            .is_some());
        assert!(cache
            .lookup("devB", MatmulProblem::new(32, 64, 128))
            .is_none());
        assert!(cache
            .lookup("devA", MatmulProblem::new(33, 64, 128))
            .is_none());
    }

    #[test]
    fn save_and_load_file() {
        let dir = std::env::temp_dir().join(format!("hidet-records-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("tuning.json");
        let mut cache = TuningCache::new();
        cache.insert("dev", sample_record(48));
        assert!(cache.is_dirty());
        cache.save(&path).unwrap();
        assert!(!cache.is_dirty());
        let loaded = TuningCache::load(&path).unwrap();
        assert_eq!(loaded.len(), 1);
        let record = loaded.lookup("dev", MatmulProblem::new(48, 64, 128));
        assert_eq!(record.unwrap().trials, 198);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn missing_file_is_empty_cache() {
        let cache = TuningCache::load(Path::new("/nonexistent/hidet/tuning.json")).unwrap();
        assert!(cache.is_empty());
    }

    #[test]
    fn version_mismatch_rejected() {
        let err = TuningCache::from_json("{\"version\": 99, \"records\": []}").unwrap_err();
        assert!(matches!(err, RecordsError::Parse(_)), "{err}");
    }

    #[test]
    fn malformed_json_rejected() {
        for bad in ["", "{", "{\"version\": 1", "[1,2", "{\"a\" 1}", "nope"] {
            assert!(TuningCache::from_json(bad).is_err(), "{bad:?} parsed");
        }
    }

    #[test]
    fn corrupted_config_fields_rejected() {
        // Hand-edited records with non-positive tile sizes must fail the
        // load, not reach kernel generation (where they would divide by
        // zero).
        let mut cache = TuningCache::new();
        cache.insert("dev", sample_record(32));
        let sabotaged = cache.to_json().replace("\"block_k\": 8", "\"block_k\": 0");
        let err = TuningCache::from_json(&sabotaged).unwrap_err();
        assert!(err.to_string().contains("block_k"), "{err}");
        let negative = cache.to_json().replace("\"m\": 32", "\"m\": -32");
        assert!(TuningCache::from_json(&negative).is_err());
        // 2^32 + 2 must not wrap into a plausible `stages: 2`.
        let overflow = cache
            .to_json()
            .replace("\"stages\": 2", "\"stages\": 4294967298");
        let err = TuningCache::from_json(&overflow).unwrap_err();
        assert!(err.to_string().contains("stages"), "{err}");
        // Negative trials would wrap via `as usize` into ~1.8e19 saved
        // trials; negative/non-finite costs would corrupt savings stats.
        let bad_trials = cache.to_json().replace("\"trials\": 198", "\"trials\": -1");
        assert!(TuningCache::from_json(&bad_trials).is_err());
        let bad_seconds = cache
            .to_json()
            .replace("\"tuning_seconds\": 39.6", "\"tuning_seconds\": -39.6");
        assert!(TuningCache::from_json(&bad_seconds).is_err());
    }

    #[test]
    fn merge_prefers_existing_records() {
        let mut seed = TuningCache::new();
        let mut newer = sample_record(32);
        newer.trials = 7;
        seed.insert("dev", newer);
        // Round-trip through JSON to get a clean (non-dirty) starting cache.
        let mut a = TuningCache::from_json(&seed.to_json()).unwrap();
        assert!(!a.is_dirty());

        let mut b = TuningCache::new();
        b.insert("dev", sample_record(32)); // same key, trials = 198
        b.insert("dev", sample_record(64)); // new key
        a.merge(b);
        assert_eq!(a.len(), 2);
        assert_eq!(
            a.lookup("dev", MatmulProblem::new(32, 64, 128))
                .unwrap()
                .trials,
            7,
            "existing record must win"
        );
        assert!(a.is_dirty(), "merge added a record");

        // Merging nothing new leaves the cache clean.
        let mut clean = TuningCache::from_json(&a.to_json()).unwrap();
        clean.merge(TuningCache::from_json(&a.to_json()).unwrap());
        assert!(!clean.is_dirty());
    }

    #[test]
    fn deterministic_output() {
        let mut a = TuningCache::new();
        let mut b = TuningCache::new();
        for m in [64, 32, 96] {
            a.insert("dev", sample_record(m));
        }
        for m in [96, 64, 32] {
            b.insert("dev", sample_record(m));
        }
        assert_eq!(a.to_json(), b.to_json());
    }
}
