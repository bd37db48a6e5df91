//! What the numbers were measured on, and the two measurements that come
//! from the host rather than from a timer: peak resident memory and the
//! size of the code under test.

use crate::json::Json;
use std::path::Path;
use std::process::Command;

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|out| out.status.success())
        .map(|out| String::from_utf8_lossy(&out.stdout).trim().to_owned())
        .unwrap_or_else(|| "unknown".to_owned())
}

fn proc_field(path: &str, key: &str) -> Option<String> {
    std::fs::read_to_string(path)
        .ok()?
        .lines()
        .find_map(|line| {
            let (k, v) = line.split_once(':')?;
            (k.trim() == key).then(|| v.trim().to_owned())
        })
}

/// Host descriptor written into every result file. The git commit reads
/// "unknown" in the driver's checkout, which is not a repository.
pub fn descriptor(seed: u64) -> Json {
    Json::obj([
        (
            "nproc",
            Json::Num(std::thread::available_parallelism().map_or(1, |n| n.get()) as f64),
        ),
        (
            "cpu_model",
            Json::Str(
                proc_field("/proc/cpuinfo", "model name").unwrap_or_else(|| "unknown".into()),
            ),
        ),
        ("kernel", Json::Str(command_line("uname", &["-r"]))),
        ("rustc", Json::Str(command_line("rustc", &["--version"]))),
        (
            "git_commit",
            Json::Str(command_line("git", &["rev-parse", "HEAD"])),
        ),
        ("seed", Json::Num(seed as f64)),
    ])
}

/// Restarts the kernel's record of this process's peak resident set at
/// its current size, so that [`peak_rss_mb`] reads the peak of what runs
/// next. Where the kernel refuses, the record keeps running and the next
/// reading is the peak since the process began.
pub fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// `VmHWM` of this process in MiB: the peak resident set since the last
/// [`reset_peak_rss`].
pub fn peak_rss_mb() -> f64 {
    proc_field("/proc/self/status", "VmHWM")
        .and_then(|v| v.trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Seconds of CPU time the hypervisor has withheld from this machine's
/// processors since boot (`steal` in `/proc/stat`, in ticks of 10 ms); 0
/// where the kernel reports none.
pub fn stolen_cpu_s() -> f64 {
    std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|stat| stat.lines().next()?.split_whitespace().nth(8)?.parse().ok())
        .map_or(0.0, |ticks: f64| ticks / 100.0)
}

/// Returns the allocator's free memory to the kernel, so that the peak of
/// what runs next is its own and not what an earlier unit left cached.
pub fn release_free_heap() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn malloc_trim(pad: usize) -> i32;
        }
        // SAFETY: glibc's `malloc_trim` takes no pointer and may be called
        // at any time; it only releases free pages.
        unsafe {
            malloc_trim(0);
        }
    }
}

/// Lines and `pub` items of one crate's `src/` tree.
fn count_dir(dir: &Path) -> (u64, u64) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return (0, 0);
    };
    let mut total = (0, 0);
    for entry in entries.flatten() {
        let path = entry.path();
        let (lines, items) = if path.is_dir() {
            count_dir(&path)
        } else if path.extension().is_some_and(|e| e == "rs") {
            let text = std::fs::read_to_string(&path).unwrap_or_default();
            (
                text.lines().count() as u64,
                text.lines().filter(|l| is_pub_item(l)).count() as u64,
            )
        } else {
            (0, 0)
        };
        total = (total.0 + lines, total.1 + items);
    }
    total
}

/// A line that declares a public item (`pub(crate)` and friends are not
/// public surface).
fn is_pub_item(line: &str) -> bool {
    let Some(rest) = line.trim_start().strip_prefix("pub ") else {
        return false;
    };
    let rest = rest
        .trim_start_matches("unsafe ")
        .trim_start_matches("async ");
    [
        "fn ", "struct ", "enum ", "trait ", "type ", "const ", "static ", "mod ", "use ",
    ]
    .iter()
    .any(|kw| rest.starts_with(kw))
}

/// The crates whose size is trended: the 11 `crates/*` members (the
/// vendored shims are stand-ins for registry crates, not this code) plus
/// the facade.
pub const CRATES: [&str; 12] = [
    "bench",
    "compiler",
    "core",
    "ir",
    "models",
    "nn",
    "search",
    "serve",
    "store",
    "telemetry",
    "tensor",
    "facade",
];

/// `(crate, lines, pub items)` for each of [`CRATES`], read from `root`.
pub fn code_size(root: &Path) -> Vec<(&'static str, u64, u64)> {
    CRATES
        .iter()
        .map(|&name| {
            let dir = if name == "facade" {
                root.join("src")
            } else {
                root.join("crates").join(name).join("src")
            };
            let (lines, items) = count_dir(&dir);
            (name, lines, items)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pub_item_lines_are_recognised() {
        assert!(is_pub_item("pub fn run() {"));
        assert!(is_pub_item("    pub struct Store {"));
        assert!(is_pub_item("pub unsafe fn poke()"));
        assert!(is_pub_item("pub use journal::Store;"));
        assert!(!is_pub_item("pub(crate) fn hidden()"));
        assert!(!is_pub_item("    pub name: String,"));
        assert!(!is_pub_item("// pub fn commented()"));
    }

    #[test]
    fn peak_rss_is_positive_on_linux() {
        if Path::new("/proc/self/status").exists() {
            assert!(peak_rss_mb() > 0.0);
        }
    }
}
