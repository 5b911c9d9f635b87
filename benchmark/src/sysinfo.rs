//! What the run header records about the machine, and the process's
//! peak resident memory.

use std::process::Command;

/// `VmHWM` of this process in megabytes (10^6 bytes), from
/// `/proc/self/status`.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("procfs is mounted");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM line in /proc/self/status");
    kb * 1024.0 / 1e6
}

fn first_line_of(cmd: &str, args: &[&str]) -> String {
    Command::new(cmd)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".into())
}

/// Threads the hardware offers this process.
pub fn available_parallelism() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The run header: seed, commit, compiler, processors and the thread
/// counts the workloads use. `commit` reads `unknown` outside a git
/// checkout.
pub fn header(seed: u64, seconds: f64) -> String {
    let dir = env!("CARGO_MANIFEST_DIR");
    // Asked only where the repo's own `.git` is, so that git does not
    // go looking for one above an exported checkout.
    let commit = if std::path::Path::new(dir).join("../.git").exists() {
        first_line_of("git", &["-C", dir, "rev-parse", "--short", "HEAD"])
    } else {
        "unknown".into()
    };
    format!(
        "# seed {seed} | seconds {seconds} | commit {} | {} | nproc {} | available_parallelism {} | \
         MALLOC_ARENA_MAX {} | threads: 1 per batch workload; serve_tenants 2 clients + 2 workers + \
         1 dispatcher",
        commit,
        first_line_of("rustc", &["-V"]),
        first_line_of("nproc", &[]),
        available_parallelism(),
        std::env::var("MALLOC_ARENA_MAX").unwrap_or_else(|_| "unset".into()),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn peak_rss_is_positive_and_header_names_the_seed() {
        assert!(peak_rss_mb() > 0.0);
        let h = header(42, 2.0);
        assert!(h.contains("seed 42") && h.contains("available_parallelism"));
    }
}
