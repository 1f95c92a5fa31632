//! Serializable compile products: the cross-process half of a
//! [`CompiledGraph`](crate::CompiledGraph).
//!
//! A compiled graph splits into two parts. The **plan**
//! ([`crate::CompilePlan`]) — optimized graph plus generated kernels — is
//! device-executable state that is cheap to rebuild but meaningless on disk.
//! The **artifact** ([`CompiledArtifact`]) is everything that was *expensive*
//! to decide: the per-group schedules the tuner picked and what they cost to
//! find. Rebuilding a plan from an artifact
//! ([`compile_from_artifact`](crate::compile_from_artifact)) runs the graph
//! passes and kernel generation but **zero tuning trials**, so a process
//! restarted against a warm artifact store compiles nothing from scratch.
//!
//! Artifacts round-trip through a versioned JSON file (the workspace's shared
//! [`hidet_sched::json`] machinery — same discipline as the tuning records),
//! keyed exactly like the runtime's compiled-graph cache:
//! `Graph::structural_hash` × device fingerprint ×
//! [`CompilerOptions::cache_key_bits`](crate::CompilerOptions::cache_key_bits).
//! Loading validates the key and every schedule field; a corrupted,
//! truncated or version-mismatched file is rejected with a typed error and
//! the caller falls back to a fresh compile — never a panic, never a bad
//! kernel.
//!
//! ```json
//! {
//!   "version": 1,
//!   "graph_hash": "91f0c3a18e02b7d4",
//!   "device": "NVIDIA GeForce RTX 3090 (simulated)|sm82x1536t16b|...",
//!   "option_bits": "1",
//!   "tuning_trials": 198, "tuning_seconds": 39.6,
//!   "planned_peak_bytes": 65536,
//!   "schedules": [
//!     {"matmul": {"block_m": 64, "block_n": 64, "block_k": 8,
//!                 "warps_m": 2, "warps_n": 2, "thread_m": 4, "thread_n": 4,
//!                 "stages": 2, "split_k": 1},
//!      "reduce": {"threads_per_row": 1, "block_threads": 256}}
//!   ],
//!   "tuned": [
//!     {"batch": 1, "m": 64, "n": 48, "k": 64, "config": { ... }}
//!   ]
//! }
//! ```

use std::collections::HashMap;
use std::fmt;
use std::fs;
use std::io;
use std::path::Path;

use hidet_sched::json::{self, json_f64, json_string, Json};
use hidet_sched::{GroupSchedule, MatmulConfig, MatmulProblem, ReduceConfig};

/// Format version written by [`CompiledArtifact::save`]. Version 2 added
/// `planned_peak_bytes` (the memory planner's arena size); version-1 files
/// are rejected and recompile — schedules carry over via tuning records.
pub const ARTIFACT_FORMAT_VERSION: i64 = 2;

/// Errors from loading or validating an artifact file.
#[derive(Debug)]
pub enum ArtifactError {
    /// Filesystem failure.
    Io(io::Error),
    /// Malformed JSON, schema mismatch or corrupted fields.
    Parse(String),
    /// The artifact is well-formed but belongs to a different
    /// (graph, device, options) key or does not fit the target.
    Mismatch(String),
}

impl fmt::Display for ArtifactError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ArtifactError::Io(e) => write!(f, "artifact io error: {e}"),
            ArtifactError::Parse(msg) => write!(f, "artifact parse error: {msg}"),
            ArtifactError::Mismatch(msg) => write!(f, "artifact mismatch: {msg}"),
        }
    }
}

impl std::error::Error for ArtifactError {}

impl From<io::Error> for ArtifactError {
    fn from(e: io::Error) -> Self {
        ArtifactError::Io(e)
    }
}

/// One matmul problem's winning configuration, as recorded in an artifact.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TunedEntry {
    /// The tuned problem (`(batch, m, n, k)`).
    pub problem: MatmulProblem,
    /// The configuration the tuner picked for it.
    pub config: MatmulConfig,
}

/// The serializable product of one compilation: everything the tuner decided,
/// plus the key identifying what it was decided *for*.
///
/// See the [module docs](crate::artifact) for the file format and the
/// plan/artifact split rationale.
#[derive(Debug, Clone, PartialEq)]
pub struct CompiledArtifact {
    /// `Graph::structural_hash` of the *source* graph (before passes).
    pub graph_hash: u64,
    /// `GpuSpec::fingerprint` of the device the schedules were picked for.
    pub device: String,
    /// `CompilerOptions::cache_key_bits` of the compiling options.
    pub option_bits: u64,
    /// Per-fused-group schedule choices, in the partition's execution order.
    pub schedules: Vec<GroupSchedule>,
    /// Tuned matmul configurations by problem (diagnostic + records interop).
    pub tuned: Vec<TunedEntry>,
    /// Tuning trials spent producing this artifact — what a warm load saves.
    pub tuning_trials: usize,
    /// Simulated tuning seconds spent producing it.
    pub tuning_seconds: f64,
    /// The memory planner's arena size for one inference of this model, in
    /// bytes (`hidet::MemoryPlan::peak_bytes`) — recorded so capacity
    /// planning can read footprints without compiling.
    pub planned_peak_bytes: usize,
}

impl CompiledArtifact {
    /// Checks that this artifact was produced for exactly the given
    /// (graph, device, options) key.
    ///
    /// # Errors
    /// [`ArtifactError::Mismatch`] naming the differing component.
    pub fn validate_key(
        &self,
        graph_hash: u64,
        device: &str,
        option_bits: u64,
    ) -> Result<(), ArtifactError> {
        if self.graph_hash != graph_hash {
            return Err(ArtifactError::Mismatch(format!(
                "graph hash {:016x} != expected {graph_hash:016x}",
                self.graph_hash
            )));
        }
        if self.device != device {
            return Err(ArtifactError::Mismatch(format!(
                "device \"{}\" != expected \"{device}\"",
                self.device
            )));
        }
        if self.option_bits != option_bits {
            return Err(ArtifactError::Mismatch(format!(
                "option bits {:x} != expected {option_bits:x}",
                self.option_bits
            )));
        }
        Ok(())
    }

    /// The tuned configurations as the map [`crate::CompiledGraph::tuned_configs`]
    /// exposes.
    pub fn tuned_map(&self) -> HashMap<(i64, i64, i64, i64), MatmulConfig> {
        self.tuned
            .iter()
            .map(|e| {
                (
                    (e.problem.batch, e.problem.m, e.problem.n, e.problem.k),
                    e.config,
                )
            })
            .collect()
    }

    /// Loads an artifact from `path`. A missing file surfaces as
    /// [`ArtifactError::Io`] with [`io::ErrorKind::NotFound`] — callers that
    /// treat "no artifact yet" as a normal cold start should match on that.
    pub fn load(path: &Path) -> Result<CompiledArtifact, ArtifactError> {
        CompiledArtifact::from_json(&fs::read_to_string(path)?)
    }

    /// Writes the artifact to `path` (atomically: temp file + rename).
    pub fn save(&self, path: &Path) -> Result<(), ArtifactError> {
        let tmp = path.with_extension("json.tmp");
        fs::write(&tmp, self.to_json())?;
        fs::rename(&tmp, path)?;
        Ok(())
    }

    /// Serializes to the versioned JSON format.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        out.push_str(&format!("  \"version\": {ARTIFACT_FORMAT_VERSION},\n"));
        // Hashes travel as hex strings: u64 does not fit the f64 number
        // carrier of the shared JSON module past 2^53.
        out.push_str(&format!(
            "  \"graph_hash\": \"{:016x}\",\n",
            self.graph_hash
        ));
        out.push_str(&format!("  \"device\": {},\n", json_string(&self.device)));
        out.push_str(&format!("  \"option_bits\": \"{:x}\",\n", self.option_bits));
        out.push_str(&format!("  \"tuning_trials\": {},\n", self.tuning_trials));
        out.push_str(&format!(
            "  \"tuning_seconds\": {},\n",
            json_f64(self.tuning_seconds)
        ));
        out.push_str(&format!(
            "  \"planned_peak_bytes\": {},\n",
            self.planned_peak_bytes
        ));
        out.push_str("  \"schedules\": [");
        for (i, s) in self.schedules.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "\n    {{\"matmul\": {}, \"reduce\": {{\"threads_per_row\": {}, \
                 \"block_threads\": {}}}}}",
                s.matmul.to_json(),
                s.reduce.threads_per_row,
                s.reduce.block_threads
            ));
        }
        out.push_str("\n  ],\n  \"tuned\": [");
        for (i, e) in self.tuned.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "\n    {{{}, \"config\": {}}}",
                e.problem.to_json_members(),
                e.config.to_json()
            ));
        }
        out.push_str("\n  ]\n}\n");
        out
    }

    /// Parses the versioned JSON format, rejecting unknown versions and any
    /// schedule field a corrupted or hand-edited file could have damaged
    /// (non-positive tiles, invalid reduce shapes, negative costs).
    pub fn from_json(text: &str) -> Result<CompiledArtifact, ArtifactError> {
        let value = Json::parse(text).map_err(ArtifactError::Parse)?;
        let root = value.as_object("top level").map_err(ArtifactError::Parse)?;
        let version = field(root, "version")?.as_i64("version").map_err(parse)?;
        if version != ARTIFACT_FORMAT_VERSION {
            return Err(ArtifactError::Parse(format!(
                "unsupported artifact format version {version} \
                 (expected {ARTIFACT_FORMAT_VERSION})"
            )));
        }
        let graph_hash = hex_u64(field(root, "graph_hash")?, "graph_hash")?;
        let device = field(root, "device")?
            .as_str("device")
            .map_err(parse)?
            .to_string();
        let option_bits = hex_u64(field(root, "option_bits")?, "option_bits")?;
        let tuning_trials = field(root, "tuning_trials")?
            .as_i64("tuning_trials")
            .map_err(parse)?;
        if tuning_trials < 0 {
            return Err(ArtifactError::Parse(format!(
                "\"tuning_trials\" must be >= 0, got {tuning_trials}"
            )));
        }
        let tuning_seconds = field(root, "tuning_seconds")?
            .as_f64("tuning_seconds")
            .map_err(parse)?;
        if !tuning_seconds.is_finite() || tuning_seconds < 0.0 {
            return Err(ArtifactError::Parse(format!(
                "\"tuning_seconds\" must be a finite non-negative number, got {tuning_seconds}"
            )));
        }
        let planned_peak_bytes = field(root, "planned_peak_bytes")?
            .as_i64("planned_peak_bytes")
            .map_err(parse)?;
        if planned_peak_bytes < 0 {
            return Err(ArtifactError::Parse(format!(
                "\"planned_peak_bytes\" must be >= 0, got {planned_peak_bytes}"
            )));
        }

        let mut schedules = Vec::new();
        for (idx, item) in field(root, "schedules")?
            .as_array("schedules")
            .map_err(parse)?
            .iter()
            .enumerate()
        {
            let ctx = format!("schedules[{idx}]");
            let obj = item.as_object(&ctx).map_err(parse)?;
            let matmul = MatmulConfig::from_json(field(obj, "matmul")?, &ctx).map_err(parse)?;
            let reduce_obj = field(obj, "reduce")?
                .as_object(&format!("{ctx}.reduce"))
                .map_err(parse)?;
            let reduce = ReduceConfig {
                threads_per_row: json::get_positive(reduce_obj, "threads_per_row", &ctx)
                    .map_err(parse)?,
                block_threads: json::get_positive(reduce_obj, "block_threads", &ctx)
                    .map_err(parse)?,
            };
            if !reduce.is_valid() || reduce.rows_per_block() < 1 {
                return Err(ArtifactError::Parse(format!(
                    "{ctx}: invalid reduce config {reduce:?} \
                     (artifact file corrupted or hand-edited)"
                )));
            }
            schedules.push(GroupSchedule { matmul, reduce });
        }

        let mut tuned = Vec::new();
        for (idx, item) in field(root, "tuned")?
            .as_array("tuned")
            .map_err(parse)?
            .iter()
            .enumerate()
        {
            let ctx = format!("tuned[{idx}]");
            let obj = item.as_object(&ctx).map_err(parse)?;
            tuned.push(TunedEntry {
                problem: MatmulProblem::from_json_members(obj, &ctx).map_err(parse)?,
                config: MatmulConfig::from_json(field(obj, "config")?, &ctx).map_err(parse)?,
            });
        }

        Ok(CompiledArtifact {
            graph_hash,
            device,
            option_bits,
            schedules,
            tuned,
            tuning_trials: tuning_trials as usize,
            tuning_seconds,
            planned_peak_bytes: planned_peak_bytes as usize,
        })
    }
}

fn parse(e: String) -> ArtifactError {
    ArtifactError::Parse(e)
}

fn field<'a>(obj: &'a [(String, Json)], name: &str) -> Result<&'a Json, ArtifactError> {
    json::get(obj, name).map_err(parse)
}

fn hex_u64(value: &Json, ctx: &str) -> Result<u64, ArtifactError> {
    let text = value.as_str(ctx).map_err(parse)?;
    u64::from_str_radix(text, 16)
        .map_err(|_| ArtifactError::Parse(format!("{ctx}: expected hex u64, got \"{text}\"")))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> CompiledArtifact {
        CompiledArtifact {
            graph_hash: 0x91f0_c3a1_8e02_b7d4,
            device: "dev \"quoted\"\n|sm82".to_string(),
            option_bits: 0x5,
            schedules: vec![
                GroupSchedule::default(),
                GroupSchedule {
                    matmul: MatmulConfig {
                        block_m: 128,
                        stages: 2,
                        ..MatmulConfig::default()
                    },
                    reduce: ReduceConfig {
                        threads_per_row: 32,
                        block_threads: 256,
                    },
                },
            ],
            tuned: vec![TunedEntry {
                problem: MatmulProblem::new(64, 48, 64),
                config: MatmulConfig::default(),
            }],
            tuning_trials: 198,
            tuning_seconds: 39.6,
            planned_peak_bytes: 65536,
        }
    }

    #[test]
    fn round_trips_through_json() {
        let artifact = sample();
        let back = CompiledArtifact::from_json(&artifact.to_json()).unwrap();
        assert_eq!(back, artifact);
        assert_eq!(back.tuned_map().len(), 1);
    }

    #[test]
    fn save_and_load_file() {
        let dir = std::env::temp_dir().join(format!("hidet-artifact-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("artifact.json");
        let artifact = sample();
        artifact.save(&path).unwrap();
        assert_eq!(CompiledArtifact::load(&path).unwrap(), artifact);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn missing_file_is_a_typed_not_found() {
        let err = CompiledArtifact::load(Path::new("/nonexistent/hidet/artifact.json"));
        match err {
            Err(ArtifactError::Io(e)) => assert_eq!(e.kind(), io::ErrorKind::NotFound),
            other => panic!("expected Io(NotFound), got {other:?}"),
        }
    }

    #[test]
    fn version_mismatch_rejected() {
        let sabotaged = sample()
            .to_json()
            .replace("\"version\": 2", "\"version\": 99");
        let err = CompiledArtifact::from_json(&sabotaged).unwrap_err();
        assert!(err.to_string().contains("version 99"), "{err}");
    }

    #[test]
    fn truncated_and_malformed_files_rejected() {
        let json = sample().to_json();
        for cut in [0, 1, json.len() / 2, json.len() - 2] {
            assert!(
                CompiledArtifact::from_json(&json[..cut]).is_err(),
                "truncation at {cut} parsed"
            );
        }
        assert!(CompiledArtifact::from_json("not json").is_err());
        assert!(CompiledArtifact::from_json("{}").is_err());
    }

    #[test]
    fn corrupted_fields_rejected() {
        let json = sample().to_json();
        for (from, to) in [
            ("\"block_m\": 64", "\"block_m\": 0"),
            ("\"block_m\": 64", "\"block_m\": -64"),
            // 2^32 + 2 must not wrap into a plausible `stages: 2`.
            ("\"stages\": 2", "\"stages\": 4294967298"),
            ("\"threads_per_row\": 32", "\"threads_per_row\": 3"),
            ("\"tuning_trials\": 198", "\"tuning_trials\": -1"),
            ("\"tuning_seconds\": 39.6", "\"tuning_seconds\": -1.0"),
            (
                "\"planned_peak_bytes\": 65536",
                "\"planned_peak_bytes\": -4",
            ),
            (
                "\"graph_hash\": \"91f0c3a18e02b7d4\"",
                "\"graph_hash\": \"zzz\"",
            ),
        ] {
            let sabotaged = json.replace(from, to);
            assert_ne!(sabotaged, json, "substitution {from:?} missed");
            assert!(
                CompiledArtifact::from_json(&sabotaged).is_err(),
                "{to:?} accepted"
            );
        }
    }

    #[test]
    fn key_validation_names_the_component() {
        let artifact = sample();
        artifact
            .validate_key(artifact.graph_hash, &artifact.device, artifact.option_bits)
            .unwrap();
        let wrong_hash = artifact.validate_key(1, &artifact.device, artifact.option_bits);
        assert!(wrong_hash.unwrap_err().to_string().contains("graph hash"));
        let wrong_dev = artifact.validate_key(artifact.graph_hash, "other", artifact.option_bits);
        assert!(wrong_dev.unwrap_err().to_string().contains("device"));
        let wrong_opts = artifact.validate_key(artifact.graph_hash, &artifact.device, 0);
        assert!(wrong_opts.unwrap_err().to_string().contains("option bits"));
    }
}
