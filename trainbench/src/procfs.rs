//! Readers for the Linux `/proc` files the benchmark samples: process CPU
//! time and page faults, peak resident memory, and host-wide steal time.

use std::fs;

/// `/proc` reports CPU time in `USER_HZ` ticks, fixed at 100 per second by
/// the kernel ABI on every architecture this benchmark runs on.
const TICKS_PER_SEC: f64 = 100.0;

/// The fields of `/proc/self/stat` after the command name, so that index
/// 0 is field 3 (state).
fn stat_fields(stat: &str) -> Option<Vec<&str>> {
    // The command name (field 2) is parenthesised and may itself hold
    // spaces or parentheses, so fields are counted from the last ')'.
    Some(stat[stat.rfind(')')? + 1..].split_whitespace().collect())
}

/// User plus system CPU seconds of the whole process, from the contents
/// of `/proc/self/stat`.
pub fn parse_cpu_seconds(stat: &str) -> Option<f64> {
    let fields = stat_fields(stat)?;
    // utime is field 14, stime field 15.
    let utime: u64 = fields.get(11)?.parse().ok()?;
    let stime: u64 = fields.get(12)?.parse().ok()?;
    Some((utime + stime) as f64 / TICKS_PER_SEC)
}

/// Minor page faults of the whole process (field 10 of
/// `/proc/self/stat`): first touches of freshly mapped memory.
pub fn parse_minor_faults(stat: &str) -> Option<u64> {
    stat_fields(stat)?.get(7)?.parse().ok()
}

/// Peak resident set size in KiB (`VmHWM`), from the contents of
/// `/proc/self/status`.
pub fn parse_peak_rss_kib(status: &str) -> Option<u64> {
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|v| v.split_whitespace().next())
        .and_then(|kib| kib.parse().ok())
}

/// Host-wide CPU tick counters from the aggregate `cpu` line of
/// `/proc/stat`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HostTicks {
    /// Ticks the hypervisor ran something else while a vCPU wanted to run.
    pub steal: u64,
    /// All ticks: user, nice, system, idle, iowait, irq, softirq, steal.
    pub total: u64,
}

impl HostTicks {
    /// Share of the ticks between `earlier` and `self` that were stolen.
    pub fn steal_share_since(&self, earlier: &HostTicks) -> f64 {
        let total = self.total.saturating_sub(earlier.total);
        if total == 0 {
            return 0.0;
        }
        self.steal.saturating_sub(earlier.steal) as f64 / total as f64
    }
}

/// Parses the aggregate `cpu` line of `/proc/stat`.
pub fn parse_host_ticks(stat: &str) -> Option<HostTicks> {
    let line = stat.lines().find(|l| l.starts_with("cpu "))?;
    let ticks: Vec<u64> = line
        .split_whitespace()
        .skip(1)
        .take(8)
        .map(str::parse)
        .collect::<Result<_, _>>()
        .ok()?;
    // Kernels before 2.6.11 have no steal column.
    let steal = ticks.get(7).copied().unwrap_or(0);
    Some(HostTicks {
        steal,
        total: ticks.iter().sum(),
    })
}

/// Process CPU seconds now.
pub fn cpu_seconds() -> Option<f64> {
    parse_cpu_seconds(&fs::read_to_string("/proc/self/stat").ok()?)
}

/// Process minor page faults so far.
pub fn minor_faults() -> Option<u64> {
    parse_minor_faults(&fs::read_to_string("/proc/self/stat").ok()?)
}

/// Peak resident set size so far, in KiB.
pub fn peak_rss_kib() -> Option<u64> {
    parse_peak_rss_kib(&fs::read_to_string("/proc/self/status").ok()?)
}

/// Host CPU tick counters now.
pub fn host_ticks() -> Option<HostTicks> {
    parse_host_ticks(&fs::read_to_string("/proc/stat").ok()?)
}

/// The CPU model name from `/proc/cpuinfo`.
pub fn cpu_model() -> Option<String> {
    fs::read_to_string("/proc/cpuinfo")
        .ok()?
        .lines()
        .find_map(|l| l.strip_prefix("model name"))
        .and_then(|l| l.split_once(':'))
        .map(|(_, name)| name.trim().to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_seconds_and_faults_from_self_stat_with_awkward_name() {
        let stat = "4242 (a b) c)) S 1 4242 4242 0 -1 4194560 2810 0 0 0 \
                    250 75 0 0 20 0 5 0 123 456789 1000 18446744073709551615";
        assert_eq!(parse_cpu_seconds(stat), Some(3.25));
        assert_eq!(parse_minor_faults(stat), Some(2810));
        assert_eq!(parse_cpu_seconds("4242 (x) S 1 2"), None);
        assert_eq!(parse_minor_faults("4242 (x) S 1 2"), None);
        assert_eq!(parse_cpu_seconds("no parenthesis"), None);
    }

    #[test]
    fn peak_rss_from_self_status() {
        let status = "Name:\tbench\nVmPeak:\t  900000 kB\nVmHWM:\t  123456 kB\nVmRSS:\t  1 kB\n";
        assert_eq!(parse_peak_rss_kib(status), Some(123_456));
        assert_eq!(parse_peak_rss_kib("Name:\tbench\n"), None);
    }

    #[test]
    fn steal_share_from_host_stat() {
        let before = "cpu  100 0 50 800 10 0 5 35 0 0\ncpu0 1 2 3 4 5 6 7 8 0 0\n";
        let after = "cpu  160 0 70 900 10 0 5 55 0 0\ncpu0 1 2 3 4 5 6 7 8 0 0\n";
        let (b, a) = (
            parse_host_ticks(before).unwrap(),
            parse_host_ticks(after).unwrap(),
        );
        assert_eq!(
            b,
            HostTicks {
                steal: 35,
                total: 1000
            }
        );
        assert_eq!(a.steal_share_since(&b), 20.0 / 200.0);
        assert_eq!(b.steal_share_since(&b), 0.0);
        assert_eq!(parse_host_ticks("cpu0 1 2 3\n"), None);
        assert_eq!(
            parse_host_ticks("cpu  1 2 3 4\n"),
            Some(HostTicks {
                steal: 0,
                total: 10
            })
        );
    }
}
