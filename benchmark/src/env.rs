//! What the process can read about itself and its machine: peak RSS,
//! CPU time, and the environment fingerprint stored beside baselines.

use std::path::Path;

fn read(path: &str) -> Option<String> {
    std::fs::read_to_string(path).ok()
}

/// A `Key:   value kB` field of `/proc/self/status`, in KiB.
fn status_kib(key: &str) -> Option<f64> {
    read("/proc/self/status")?
        .lines()
        .find_map(|l| l.strip_prefix(key)?.strip_prefix(':'))
        .and_then(|rest| rest.split_whitespace().next()?.parse().ok())
}

/// Peak resident set size of this process (`VmHWM`), MiB.
pub fn peak_rss_mib() -> Option<f64> {
    status_kib("VmHWM").map(|kib| kib / 1024.0)
}

/// User + system CPU time this process has used, seconds
/// (`/proc/self/stat` fields 14 and 15 at the usual 100 ticks/s).
pub fn cpu_seconds() -> Option<f64> {
    let stat = read("/proc/self/stat")?;
    // The command name may contain spaces; fields resume after `)`.
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut fields = rest.split_whitespace().skip(11);
    let utime: f64 = fields.next()?.parse().ok()?;
    let stime: f64 = fields.next()?.parse().ok()?;
    Some((utime + stime) / 100.0)
}

fn cache_sizes() -> String {
    let dir = "/sys/devices/system/cpu/cpu0/cache";
    let mut levels: Vec<String> = (0..8)
        .filter_map(|i| {
            let level = read(&format!("{dir}/index{i}/level"))?;
            let kind = read(&format!("{dir}/index{i}/type"))?;
            let size = read(&format!("{dir}/index{i}/size"))?;
            Some(format!(
                "L{}{}={}",
                level.trim(),
                match kind.trim() {
                    "Data" => "d",
                    "Instruction" => "i",
                    _ => "",
                },
                size.trim()
            ))
        })
        .collect();
    levels.sort();
    if levels.is_empty() {
        "unknown".into()
    } else {
        levels.join(" ")
    }
}

/// Filesystem type holding `path`: the longest mount point that is a
/// prefix of it in `/proc/mounts`.
fn filesystem_of(path: &Path) -> String {
    let path = path.canonicalize().unwrap_or_else(|_| path.to_path_buf());
    read("/proc/mounts")
        .and_then(|mounts| {
            mounts
                .lines()
                .filter_map(|l| {
                    let mut f = l.split_whitespace();
                    let (_, mount, fstype) = (f.next()?, f.next()?, f.next()?);
                    path.starts_with(mount)
                        .then(|| (mount.len(), fstype.to_owned()))
                })
                .max_by_key(|&(len, _)| len)
                .map(|(_, fstype)| fstype)
        })
        .unwrap_or_else(|| "unknown".into())
}

/// `(key, value)` pairs describing where a result was measured.
pub fn fingerprint(segment_dir: &Path) -> Vec<(&'static str, String)> {
    let cpu_model = read("/proc/cpuinfo")
        .and_then(|c| {
            c.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_owned())
        })
        .unwrap_or_else(|| "unknown".into());
    let rustc = std::process::Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_owned())
        .unwrap_or_else(|| "unknown".into());
    vec![
        (
            "nproc",
            std::thread::available_parallelism()
                .map(|n| n.get().to_string())
                .unwrap_or_else(|_| "unknown".into()),
        ),
        ("cpu_model", cpu_model),
        ("caches", cache_sizes()),
        (
            "kernel",
            read("/proc/sys/kernel/osrelease")
                .map(|k| k.trim().to_owned())
                .unwrap_or_else(|| "unknown".into()),
        ),
        ("rustc", rustc),
        ("segment_fs", filesystem_of(segment_dir)),
    ]
}
