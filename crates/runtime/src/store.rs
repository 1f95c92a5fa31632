//! Artifact-store housekeeping: garbage collection of compiled-artifact
//! files.
//!
//! A long-lived artifact directory accretes files: models get unloaded,
//! graphs change structure (a new `structural_hash` means a new file while
//! the old one lingers), and a crashed writer can leave `*.json.tmp`
//! residue behind. None of that is ever read again, but it costs disk and
//! makes the store's contents misleading. [`ArtifactStore`] wraps a store
//! directory with the one removal the engine performs:
//! [`ArtifactStore::remove_model`] deletes exactly the files belonging to a
//! set of graph hashes (plus temp-file residue) — what
//! [`crate::ModelHandle::unload`] uses to drop an unloaded model's
//! artifacts.
//!
//! Hashes are parsed out of the file *names* (the
//! [`crate::CacheKey::artifact_path`] format:
//! `artifact-<graph_hash>-<options>-<device>.json`), never file contents,
//! so a sweep is O(directory) with no JSON parsing; unrecognized file names
//! are always left alone.
//!
//! Files named under an earlier graph-hash scheme are residue this sweep
//! never reaches. When `structural_hash` moved from `hidet-graph-v1` (every
//! constant element hashed) to `-v2` (each constant's digest), every model's
//! hash changed: the v1-named files of a store are never loaded again (no
//! key names them, and a renamed one would fail
//! [`hidet::CompiledArtifact::validate_key`]), and `remove_model`, which is
//! given the hashes of live models, does not remove them. Delete them by
//! hand.

use std::path::PathBuf;

/// A compiled-artifact directory with its garbage collection. See the
/// [module docs](self).
#[derive(Debug, Clone)]
pub struct ArtifactStore {
    dir: PathBuf,
}

impl ArtifactStore {
    /// Wraps `dir` (which need not exist yet — sweeps of a missing
    /// directory remove nothing).
    pub fn new(dir: impl Into<PathBuf>) -> ArtifactStore {
        ArtifactStore { dir: dir.into() }
    }

    /// Removes the artifact files of exactly the given graph hashes (every
    /// device and option variant), plus any `*.json.tmp` writer residue.
    /// Unparsable names are kept. Returns how many files were removed.
    pub fn remove_model(&self, graph_hashes: &[u64]) -> usize {
        let Ok(entries) = std::fs::read_dir(&self.dir) else {
            return 0; // missing or unreadable directory: nothing to collect
        };
        let mut removed = 0;
        for entry in entries.flatten() {
            let path = entry.path();
            let Some(name) = path.file_name().and_then(|n| n.to_str()) else {
                continue;
            };
            let stale_tmp = name.starts_with("artifact-") && name.ends_with(".json.tmp");
            let doomed = stale_tmp
                || artifact_graph_hash(name).is_some_and(|hash| graph_hashes.contains(&hash));
            if doomed && std::fs::remove_file(&path).is_ok() {
                removed += 1;
            }
        }
        removed
    }
}

/// Parses the graph hash out of an `artifact-<hash>-<options>-<device>.json`
/// file name; `None` for anything else.
fn artifact_graph_hash(file_name: &str) -> Option<u64> {
    let rest = file_name.strip_prefix("artifact-")?;
    let rest = rest.strip_suffix(".json")?;
    let mut parts = rest.split('-');
    let hash = parts.next()?;
    // The key format has exactly three '-'-separated fields.
    if hash.len() != 16 || parts.count() != 2 {
        return None;
    }
    u64::from_str_radix(hash, 16).ok()
}

#[cfg(test)]
mod tests {
    use std::path::Path;

    use super::*;
    use crate::cache::CacheKey;
    use hidet::CompilerOptions;
    use hidet_sim::Gpu;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "hidet-artifact-store-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn touch(dir: &Path, name: &str) {
        std::fs::write(dir.join(name), "{}").unwrap();
    }

    #[test]
    fn parses_real_cache_key_file_names() {
        let key =
            CacheKey::from_graph_hash(0xdead_beef, &Gpu::default(), &CompilerOptions::quick());
        let path = key.artifact_path(Path::new("store"));
        let name = path.file_name().unwrap().to_str().unwrap().to_string();
        assert_eq!(artifact_graph_hash(&name), Some(0xdead_beef));
    }

    #[test]
    fn unrecognized_names_are_never_parsed() {
        for name in [
            "artifact.json",
            "artifact-zzzz.json",
            "artifact-00000000deadbeef.json",       // missing fields
            "artifact-00000000deadbeef-1-2-3.json", // too many fields
            "records.json",
            "artifact-00000000deadbee-1-0000000000000002.json", // 15-digit hash
        ] {
            assert_eq!(artifact_graph_hash(name), None, "{name}");
        }
    }

    #[test]
    fn remove_model_deletes_exactly_the_named_hashes() {
        let dir = temp_dir("remove");
        let gpu = Gpu::default();
        let opts = CompilerOptions::quick();
        let doomed = CacheKey::from_graph_hash(0x1111, &gpu, &opts).artifact_path(&dir);
        let kept = CacheKey::from_graph_hash(0x2222, &gpu, &opts).artifact_path(&dir);
        std::fs::write(&doomed, "{}").unwrap();
        std::fs::write(&kept, "{}").unwrap();
        touch(&dir, "unrelated.txt");

        let store = ArtifactStore::new(&dir);
        assert_eq!(store.remove_model(&[0x1111]), 1);
        assert!(!doomed.exists());
        assert!(kept.exists());
        assert!(dir.join("unrelated.txt").exists());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn gc_keeps_live_hashes_and_sweeps_residue() {
        let dir = temp_dir("gc");
        let gpu = Gpu::default();
        let opts = CompilerOptions::quick();
        let live = CacheKey::from_graph_hash(0xaaaa, &gpu, &opts).artifact_path(&dir);
        let orphan = CacheKey::from_graph_hash(0xbbbb, &gpu, &opts).artifact_path(&dir);
        std::fs::write(&live, "{}").unwrap();
        std::fs::write(&orphan, "{}").unwrap();
        // Crashed-writer residue is always swept.
        let tmp = orphan.with_extension("json.tmp");
        std::fs::write(&tmp, "partial").unwrap();
        touch(&dir, "README.md");

        let store = ArtifactStore::new(&dir);
        assert_eq!(store.remove_model(&[0xbbbb]), 2);
        assert!(live.exists());
        assert!(!orphan.exists());
        assert!(!tmp.exists());
        assert!(dir.join("README.md").exists());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn missing_directory_collects_nothing() {
        let store = ArtifactStore::new("/nonexistent/hidet/store");
        assert_eq!(store.remove_model(&[1]), 0);
    }
}
