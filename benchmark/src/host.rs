//! What the operating system says about this process: peak resident set,
//! minor faults and CPU time, read from `/proc/self`.

use std::fs;

/// Linux reports `utime`/`stime` in clock ticks; `USER_HZ` is 100 on every
/// configuration this runs on.
const MS_PER_TICK: f64 = 10.0;

/// Cumulative counters of this process at one instant.
#[derive(Debug, Clone, Copy, Default)]
pub struct ProcStat {
    pub minor_faults: u64,
    pub user_ms: f64,
    pub sys_ms: f64,
}

impl ProcStat {
    /// Reads `/proc/self/stat`; all-zero if it cannot be read or parsed.
    pub fn now() -> Self {
        let Ok(text) = fs::read_to_string("/proc/self/stat") else { return ProcStat::default() };
        // The command name (field 2) may hold spaces; fields after its
        // closing parenthesis are space separated, starting at field 3.
        let Some(rest) = text.rfind(')').map(|i| &text[i + 1..]) else { return ProcStat::default() };
        let fields: Vec<&str> = rest.split_whitespace().collect();
        let field = |n: usize| fields.get(n - 3).and_then(|f| f.parse::<u64>().ok()).unwrap_or(0);
        ProcStat {
            minor_faults: field(10),
            user_ms: field(14) as f64 * MS_PER_TICK,
            sys_ms: field(15) as f64 * MS_PER_TICK,
        }
    }
}

/// Peak resident set (`VmHWM`) in MB; 0 if `/proc/self/status` is missing.
pub fn peak_rss_mb() -> f64 {
    let Ok(text) = fs::read_to_string("/proc/self/status") else { return 0.0 };
    text.lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}
