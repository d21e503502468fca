//! Run metadata recorded next to every run's numbers: the workload seed,
//! the host (cores, CPU model, cache sizes), the compiler and the commit.
//! Everything is read from files; nothing outside the working directory is
//! written.

use std::fs;

/// JSON string literal with the characters JSON requires escaped.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn cpu_model() -> String {
    fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// `L1d 48K, L1i 32K, L2 2048K, ...` for cpu0.
fn cache_sizes() -> String {
    let mut parts = Vec::new();
    for index in 0..8 {
        let dir = format!("/sys/devices/system/cpu/cpu0/cache/index{index}");
        let read = |f: &str| fs::read_to_string(format!("{dir}/{f}")).map(|s| s.trim().to_string());
        let (Ok(level), Ok(kind), Ok(size)) = (read("level"), read("type"), read("size")) else {
            break;
        };
        let suffix = match kind.as_str() {
            "Data" => "d",
            "Instruction" => "i",
            _ => "",
        };
        parts.push(format!("L{level}{suffix} {size}"));
    }
    if parts.is_empty() {
        "unknown".to_string()
    } else {
        parts.join(", ")
    }
}

/// The checked-out commit, read from `.git` in the working directory
/// (`unknown` outside a git checkout).
fn git_commit() -> String {
    let Ok(head) = fs::read_to_string(".git/HEAD") else {
        return "unknown".to_string();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Ok(id) = fs::read_to_string(format!(".git/{reference}")) {
        return id.trim().to_string();
    }
    fs::read_to_string(".git/packed-refs")
        .ok()
        .and_then(|packed| {
            packed
                .lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next().map(str::to_string))
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// The metadata object of one run.
pub fn metadata_json(workload: &str, seed: u64, seconds: u64, trace: bool) -> String {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    format!(
        "{{\"workload\":{},\"seed\":{seed},\"seconds\":{seconds},\"trace\":{},\
         \"nproc\":{nproc},\"cpu_model\":{},\"caches\":{},\"rustc\":{},\"git_commit\":{}}}",
        json_str(workload),
        u8::from(trace),
        json_str(&cpu_model()),
        json_str(&cache_sizes()),
        json_str(env!("PERFBENCH_RUSTC_VERSION")),
        json_str(&git_commit()),
    )
}
