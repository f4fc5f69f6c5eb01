//! Process accounting over all threads, read from `/proc/self`.
//!
//! CPU comes from `/proc/self/stat`, which sums every thread the
//! process ever ran. Context switches are summed over
//! `/proc/self/task/*/status`: `/proc/self/status` counts only the main
//! thread, which hides the switches of the 64 CPE threads of a core
//! group. Threads that exited before a reading drop out of the sum; the
//! core groups and service workers measured here live for the whole
//! run.

use std::fs;

/// Linux reports `/proc` CPU times in USER_HZ ticks, 100 per second on
/// every architecture it supports.
const MS_PER_TICK: u64 = 10;

/// One reading of the process counters.
#[derive(Debug, Clone, Copy, Default)]
pub struct Snap {
    pub user_ms: u64,
    pub sys_ms: u64,
    pub ctxsw_vol: u64,
    pub ctxsw_invol: u64,
    pub threads: usize,
}

impl Snap {
    pub fn cpu_ms(&self) -> u64 {
        self.user_ms + self.sys_ms
    }
}

/// The value after `key` in a `/proc` status file.
fn status_field(text: &str, key: &str) -> Option<u64> {
    text.lines()
        .find_map(|l| l.strip_prefix(key))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|v| v.parse().ok())
}

pub fn snap() -> Snap {
    let mut s = Snap::default();
    if let Ok(stat) = fs::read_to_string("/proc/self/stat") {
        // Fields after the parenthesised command name, which may hold
        // spaces: state is field 3, utime 14, stime 15.
        if let Some((_, rest)) = stat.rsplit_once(')') {
            let f: Vec<&str> = rest.split_whitespace().collect();
            let ticks = |i: usize| f.get(i).and_then(|v| v.parse::<u64>().ok()).unwrap_or(0);
            s.user_ms = ticks(11) * MS_PER_TICK;
            s.sys_ms = ticks(12) * MS_PER_TICK;
        }
    }
    if let Ok(tasks) = fs::read_dir("/proc/self/task") {
        for task in tasks.flatten() {
            let Ok(text) = fs::read_to_string(task.path().join("status")) else {
                continue; // the thread exited meanwhile
            };
            s.threads += 1;
            s.ctxsw_vol += status_field(&text, "voluntary_ctxt_switches:").unwrap_or(0);
            s.ctxsw_invol += status_field(&text, "nonvoluntary_ctxt_switches:").unwrap_or(0);
        }
    }
    s
}

/// Peak resident set of this process, in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|t| status_field(&t, "VmHWM:"))
        .map_or(f64::NAN, |kb| kb as f64 / 1024.0)
}
