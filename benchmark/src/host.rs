//! What the run reads from the machine around it: core count, git
//! revision, peak memory, and where it may write.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Trainer threads and client connections: load comes from inside the one
/// benchmark process, so more than the cores only adds scheduling noise.
pub fn load_threads() -> usize {
    nproc().min(4)
}

/// Short git revision of the checkout, `unknown` outside a repository
/// (the acceptance driver's checkout is not one).
pub fn git_rev() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty() && s.chars().all(|c| c.is_ascii_alphanumeric()))
        .unwrap_or_else(|| "unknown".to_string())
}

/// `VmHWM` of this process, MB: the most memory it ever held resident.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kb| kb.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Where traces and scratch files go: under cargo's target directory,
/// which is inside the checkout and already ignored by git.
pub fn output_dir() -> PathBuf {
    let target =
        std::env::var_os("CARGO_TARGET_DIR").map_or_else(|| "target".into(), PathBuf::from);
    target.join("benchmark")
}

/// A per-run scratch directory, removed on drop: on success, on a failed
/// run, and when a panic unwinds.
#[derive(Debug)]
pub struct ScratchDir(PathBuf);

impl ScratchDir {
    pub fn create(parent: &Path, workload: &str) -> std::io::Result<Self> {
        // Unique per process and per call: tests run workloads side by side.
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let dir = parent.join(format!("run-{}-{n}-{workload}", std::process::id()));
        std::fs::create_dir_all(&dir)?;
        Ok(Self(dir))
    }

    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        // Nothing useful can be done with the error while dropping.
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scratch_dir_is_removed_on_drop_and_on_panic() {
        let parent = output_dir().join(format!("scratch-test-{}", std::process::id()));
        let kept = {
            let s = ScratchDir::create(&parent, "w").unwrap();
            std::fs::write(s.path().join("f"), b"x").unwrap();
            s.path().to_path_buf()
        };
        assert!(!kept.exists());
        let p2 = parent.clone();
        let unwound = std::panic::catch_unwind(move || {
            let _s = ScratchDir::create(&p2, "w").unwrap();
            panic!("boom");
        });
        assert!(unwound.is_err() && !kept.exists());
        let _ = std::fs::remove_dir_all(&parent);
    }

    #[test]
    fn peak_rss_reads_a_positive_number_on_linux() {
        if cfg!(target_os = "linux") {
            assert!(peak_rss_mb() > 0.0);
        }
    }
}
