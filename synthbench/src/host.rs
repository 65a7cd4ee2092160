//! Host, build and process facts for the report header, read from
//! `/proc` (Linux). Times in `/proc` are in clock ticks of `USER_HZ`,
//! which Linux fixes at 100 per second for user space.

use std::fs;

const USER_HZ: f64 = 100.0;

/// Job threads the host offers.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The first CPU's model name.
pub fn cpu_model() -> String {
    fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_owned())
        })
        .unwrap_or_else(|| "unknown".to_owned())
}

/// Whole-host CPU ticks from `/proc/stat`: non-idle (steal included) and
/// steal, the time the hypervisor ran someone else while we were ready.
#[derive(Clone, Copy, Default)]
pub struct HostTicks {
    pub busy: u64,
    pub steal: u64,
}

impl HostTicks {
    pub fn now() -> HostTicks {
        let stat = fs::read_to_string("/proc/stat").unwrap_or_default();
        let Some(line) = stat.lines().find(|l| l.starts_with("cpu ")) else {
            return HostTicks::default();
        };
        let f: Vec<u64> = line
            .split_whitespace()
            .skip(1)
            .map(|v| v.parse().unwrap_or(0))
            .collect();
        let get = |i: usize| f.get(i).copied().unwrap_or(0);
        // user nice system idle iowait irq softirq steal …
        HostTicks {
            busy: get(0) + get(1) + get(2) + get(5) + get(6) + get(7),
            steal: get(7),
        }
    }

    /// Steal seconds and steal's share of busy ticks since `earlier`.
    pub fn steal_since(&self, earlier: &HostTicks) -> (f64, f64) {
        let steal = self.steal.saturating_sub(earlier.steal);
        let busy = self.busy.saturating_sub(earlier.busy);
        let share = if busy == 0 {
            0.0
        } else {
            steal as f64 / busy as f64
        };
        (steal as f64 / USER_HZ, share)
    }
}

/// This process's user + system CPU seconds, all threads.
pub fn process_cpu_s() -> f64 {
    let stat = fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // The command name (field 2) may hold spaces; fields resume after its
    // closing parenthesis, starting at field 3 (state).
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let f: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| f.get(i).and_then(|v| v.parse::<u64>().ok()).unwrap_or(0);
    // utime and stime are fields 14 and 15.
    (ticks(14 - 3) + ticks(15 - 3)) as f64 / USER_HZ
}

/// This process's high-water resident set, in bytes.
pub fn peak_rss_bytes() -> u64 {
    fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<u64>().ok())
        })
        .map_or(0, |kb| kb * 1024)
}

/// The build profile this binary was compiled with.
pub fn profile() -> &'static str {
    if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    }
}

/// Measurement probes compiled into the synthesizer. Timed runs refuse a
/// build that has any: they cost ~30% of guard time.
pub fn probe_features() -> Vec<&'static str> {
    let mut on = Vec::new();
    if rbsyn_lang::contention::enabled() {
        on.push("contention");
    }
    if rbsyn_lang::failpoint::enabled() {
        on.push("failpoints");
    }
    on
}
