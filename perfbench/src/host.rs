//! The host block every result carries: results whose host blocks differ
//! measure different machines and are never compared silently
//! (`compare.py` reports the mismatch).

use std::path::Path;

use apots_serde::{Json, Map};

/// Where a result was measured.
#[derive(Debug, Clone)]
pub struct Host {
    /// Hardware threads available to the process.
    pub nproc: usize,
    /// `model name` from `/proc/cpuinfo`.
    pub cpu_model: String,
    /// Whether `/proc/cpuinfo` lists `avx512f`.
    pub avx512f: bool,
    /// Whether `/proc/cpuinfo` lists `avx512_vnni`.
    pub avx512vnni: bool,
    /// The `APOTS_THREADS` environment variable as set (empty if unset).
    pub apots_threads_env: String,
    /// The thread count the pool actually resolved to.
    pub pool_threads: usize,
    /// Commit of the checkout, read from `.git` without running git.
    pub git_revision: String,
}

impl Host {
    /// Probes the running machine. `root` is the checkout root.
    pub fn probe(root: &Path) -> Self {
        let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
        let cpu_model = cpuinfo
            .lines()
            .find_map(|l| l.strip_prefix("model name"))
            .and_then(|rest| rest.split_once(':'))
            .map(|(_, v)| v.trim().to_string())
            .unwrap_or_else(|| "unknown".into());
        let flags: Vec<&str> = cpuinfo
            .lines()
            .find_map(|l| l.strip_prefix("flags"))
            .and_then(|rest| rest.split_once(':'))
            .map(|(_, v)| v.split_whitespace().collect())
            .unwrap_or_default();
        Host {
            nproc: nproc(),
            cpu_model,
            avx512f: flags.contains(&"avx512f"),
            avx512vnni: flags.contains(&"avx512_vnni"),
            apots_threads_env: std::env::var("APOTS_THREADS").unwrap_or_default(),
            pool_threads: apots_par::current_threads(),
            git_revision: git_revision(root).unwrap_or_else(|| "unavailable".into()),
        }
    }

    /// The host block as strict JSON.
    pub fn to_json(&self) -> Json {
        let mut m = Map::new();
        m.insert("nproc".into(), Json::Num(self.nproc as f64));
        m.insert("cpu_model".into(), Json::Str(self.cpu_model.clone()));
        m.insert("avx512f".into(), Json::Bool(self.avx512f));
        m.insert("avx512vnni".into(), Json::Bool(self.avx512vnni));
        m.insert(
            "apots_threads_env".into(),
            Json::Str(self.apots_threads_env.clone()),
        );
        m.insert("pool_threads".into(), Json::Num(self.pool_threads as f64));
        m.insert("git_revision".into(), Json::Str(self.git_revision.clone()));
        Json::Obj(m)
    }
}

/// Hardware threads available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Resolves `HEAD` through loose and packed refs, offline.
fn git_revision(root: &Path) -> Option<String> {
    let git = root.join(".git");
    let head = std::fs::read_to_string(git.join("HEAD")).ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(rev) = std::fs::read_to_string(git.join(reference)) {
        return Some(rev.trim().to_string());
    }
    let packed = std::fs::read_to_string(git.join("packed-refs")).ok()?;
    packed.lines().find_map(|l| {
        let (rev, name) = l.split_once(' ')?;
        (name == reference).then(|| rev.to_string())
    })
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn git_revision_reads_loose_and_packed_refs() {
        let dir = std::env::temp_dir().join(format!("perfbench-git-{}", std::process::id()));
        let git = dir.join(".git");
        std::fs::create_dir_all(git.join("refs/heads")).unwrap();
        std::fs::write(git.join("HEAD"), "ref: refs/heads/main\n").unwrap();
        std::fs::write(
            git.join("packed-refs"),
            "# pack-refs with: peeled\nabc123 refs/heads/main\n",
        )
        .unwrap();
        assert_eq!(git_revision(&dir).as_deref(), Some("abc123"));
        std::fs::write(git.join("refs/heads/main"), "def456\n").unwrap();
        assert_eq!(git_revision(&dir).as_deref(), Some("def456"));
        std::fs::write(git.join("HEAD"), "0123abcd\n").unwrap();
        assert_eq!(git_revision(&dir).as_deref(), Some("0123abcd"));
        std::fs::remove_dir_all(&dir).unwrap();
        assert_eq!(git_revision(&dir), None);
    }

    #[test]
    fn peak_rss_is_positive_on_linux() {
        assert!(peak_rss_mb() > 0.0);
    }
}
