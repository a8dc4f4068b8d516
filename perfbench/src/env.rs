//! The environment header printed with every result, and the process
//! facts the metrics read (peak RSS, bytes on disk).

use std::path::Path;

/// `nproc`, build profile and the workload's own facts (spill-dir
/// filesystem, fsync policy) as one `key=value` string.
pub fn header(extra: &[(String, String)]) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, std::num::NonZeroUsize::get);
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    let mut out = format!("nproc={nproc} profile={profile}");
    for (k, v) in extra {
        out.push_str(&format!(" {k}={v}"));
    }
    out
}

/// The filesystem type of the mount holding `dir` (longest mount-point
/// prefix in `/proc/mounts`), or `unknown`.
pub fn fs_type(dir: &Path) -> String {
    let Ok(dir) = dir.canonicalize() else {
        return "unknown".to_owned();
    };
    let Ok(mounts) = std::fs::read_to_string("/proc/mounts") else {
        return "unknown".to_owned();
    };
    mounts
        .lines()
        .filter_map(|l| {
            let mut f = l.split_whitespace();
            let (_, point, fs) = (f.next()?, f.next()?, f.next()?);
            dir.starts_with(point).then(|| (point.len(), fs.to_owned()))
        })
        .max_by_key(|(len, _)| *len)
        .map_or("unknown".to_owned(), |(_, fs)| fs)
}

/// Peak resident set size of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kb / 1024.0)
}

/// Bytes of every regular file under `dir`.
pub fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .filter_map(Result::ok)
        .map(|e| match e.file_type() {
            Ok(t) if t.is_dir() => dir_bytes(&e.path()),
            Ok(t) if t.is_file() => e.metadata().map_or(0, |m| m.len()),
            _ => 0,
        })
        .sum()
}

/// CPU seconds (user + system, all threads) this process has used, from
/// `/proc/self/stat` at 100 ticks per second.
pub fn cpu_seconds() -> Option<f64> {
    let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
    let rest = stat.rsplit_once(')')?.1;
    let f: Vec<&str> = rest.split_whitespace().collect();
    let utime: f64 = f.get(11)?.parse().ok()?;
    let stime: f64 = f.get(12)?.parse().ok()?;
    Some((utime + stime) / 100.0)
}

/// Seconds the process's live threads have spent runnable but waiting
/// for a CPU (`/proc/self/task/*/schedstat`, second field).
pub fn runqueue_wait_seconds() -> f64 {
    let Ok(tasks) = std::fs::read_dir("/proc/self/task") else {
        return 0.0;
    };
    tasks
        .filter_map(Result::ok)
        .filter_map(|t| std::fs::read_to_string(t.path().join("schedstat")).ok())
        .filter_map(|s| s.split_whitespace().nth(1)?.parse::<f64>().ok())
        .sum::<f64>()
        / 1e9
}

/// Host speed probe: milliseconds a fixed single-threaded integer loop
/// takes (median of five). Printed in the header so a slow spell of a
/// shared host shows next to the figures it moved.
pub fn calibration_ms() -> f64 {
    let once = || {
        let t = std::time::Instant::now();
        let mut x = 0x9E37_79B9_7F4A_7C15_u64;
        for _ in 0..20_000_000 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
        }
        std::hint::black_box(x);
        t.elapsed().as_secs_f64() * 1e3
    };
    let v: Vec<f64> = (0..5).map(|_| once()).collect();
    crate::stats::median(&v).unwrap_or(0.0)
}

/// One set-up's cost.
#[derive(Debug, Clone, Copy)]
pub struct Setup {
    pub cpu_s: f64,
    pub wall_s: f64,
}

/// `setup_s` is the median CPU time of the set-ups (every thread of the
/// process); `setup_wall_s`, their median wall time, is printed beside
/// it. Set-up wall time on a shared host follows its fsync and wake-up
/// latency (the 256 WAL-logged creates of `serve_spill` went from 0.20 s
/// to 0.40 s within five minutes), while CPU time shows the work done.
pub fn report_setups(setups: &[Setup], report: &mut crate::report::Report) {
    let cpu: Vec<f64> = setups.iter().map(|s| s.cpu_s).collect();
    let wall: Vec<f64> = setups.iter().map(|s| s.wall_s).collect();
    report.set_n("setup_s", "s", crate::stats::median(&cpu), cpu.len());
    report.set_n("setup_wall_s", "s", crate::stats::median(&wall), wall.len());
}

/// CPU seconds of one schedstat file (its first field, in ns).
fn schedstat_s(path: &Path) -> Option<f64> {
    let s = std::fs::read_to_string(path).ok()?;
    Some(s.split_whitespace().next()?.parse::<f64>().ok()? / 1e9)
}

/// CPU seconds the calling thread has used so far.
pub fn own_cpu_s() -> f64 {
    schedstat_s(Path::new("/proc/thread-self/schedstat")).unwrap_or(0.0)
}

/// CPU seconds of every live thread of this process, by thread id.
pub fn thread_cpu_s() -> std::collections::BTreeMap<String, f64> {
    let Ok(tasks) = std::fs::read_dir("/proc/self/task") else {
        return std::collections::BTreeMap::new();
    };
    tasks
        .filter_map(Result::ok)
        .filter_map(|t| {
            let cpu = schedstat_s(&t.path().join("schedstat"))?;
            Some((t.file_name().to_string_lossy().into_owned(), cpu))
        })
        .collect()
}

/// CPU seconds the live threads used since `before` was taken; threads
/// born since then count in full. Threads that already exited are not
/// seen: callers add what those reported themselves.
pub fn cpu_s_since(before: &std::collections::BTreeMap<String, f64>) -> f64 {
    thread_cpu_s()
        .iter()
        .map(|(tid, now)| now - before.get(tid).copied().unwrap_or(0.0))
        .sum()
}
