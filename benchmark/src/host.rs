//! What the benchmark knows about the machine it runs on: how much CPU
//! other tenants took during a pass, peak memory, and the header fields.

use std::path::Path;
use std::time::Instant;

/// Busy jiffies of the whole machine from the first line of `/proc/stat`:
/// everything except idle and iowait, so steal (time a hypervisor gave to
/// another guest) counts as busy.
pub fn parse_busy_jiffies(proc_stat: &str) -> Option<u64> {
    let line = proc_stat.lines().find(|l| l.starts_with("cpu "))?;
    let f: Vec<u64> = line
        .split_whitespace()
        .skip(1)
        .map(|x| x.parse().ok())
        .collect::<Option<_>>()?;
    // user nice system idle iowait irq softirq steal [guest guest_nice];
    // guest time is already inside user, so it is not added again.
    if f.len() < 8 {
        return None;
    }
    Some(f[0] + f[1] + f[2] + f[5] + f[6] + f[7])
}

/// This process's `utime + stime` jiffies from `/proc/self/stat`. The
/// command name may hold spaces and parentheses, so fields are counted
/// from the last `)`.
pub fn parse_own_jiffies(proc_self_stat: &str) -> Option<u64> {
    let rest = &proc_self_stat[proc_self_stat.rfind(')')? + 1..];
    let mut f = rest.split_whitespace();
    // After the name: state is field 3, utime 14, stime 15.
    let utime: u64 = f.nth(11)?.parse().ok()?;
    let stime: u64 = f.next()?.parse().ok()?;
    Some(utime + stime)
}

/// A reading of machine-busy and own-busy jiffies at one instant.
#[derive(Debug, Clone, Copy)]
pub struct CpuSample {
    busy: u64,
    own: u64,
    at: Instant,
}

impl CpuSample {
    /// `None` where `/proc` is absent; the pass then counts as clean,
    /// because nothing says otherwise.
    pub fn now() -> Option<CpuSample> {
        let stat = std::fs::read_to_string("/proc/stat").ok()?;
        let own = std::fs::read_to_string("/proc/self/stat").ok()?;
        Some(CpuSample {
            busy: parse_busy_jiffies(&stat)?,
            own: parse_own_jiffies(&own)?,
            at: Instant::now(),
        })
    }
}

/// Share of the machine's CPU capacity that went to anything but this
/// process between two samples.
pub fn foreign_cpu_share(from: &CpuSample, to: &CpuSample, nproc: usize, hz: f64) -> f64 {
    let wall_jiffies = to.at.duration_since(from.at).as_secs_f64() * hz * nproc as f64;
    if wall_jiffies <= 0.0 {
        return 0.0;
    }
    let busy = to.busy.saturating_sub(from.busy) as f64;
    let own = to.own.saturating_sub(from.own) as f64;
    ((busy - own) / wall_jiffies).max(0.0)
}

/// Linux reports jiffies to user space in `USER_HZ`, which is 100 on
/// every architecture this builds for.
pub const USER_HZ: f64 = 100.0;

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// Peak resident set of this process in MiB (`VmHWM`).
pub fn rss_peak_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

pub fn kernel() -> String {
    std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .map_or_else(|_| "unknown".into(), |s| s.trim().to_string())
}

/// Filesystem type of the mount that holds `path`.
pub fn filesystem_of(path: &Path, proc_mounts: &str) -> String {
    let path = path.canonicalize().unwrap_or_else(|_| path.to_path_buf());
    proc_mounts
        .lines()
        .filter_map(|l| {
            let mut f = l.split_whitespace();
            let (_, mount, fstype) = (f.next()?, f.next()?, f.next()?);
            path.starts_with(mount).then_some((mount.len(), fstype))
        })
        .max_by_key(|(len, _)| *len)
        .map_or_else(|| "unknown".into(), |(_, t)| t.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    const STAT: &str = "cpu  1915047 10 218372 3040782 37774 3 41087 265137 0 0\n\
                        cpu0 1590658 0 181659 748518 29277 0 32473 162365 0 0\n\
                        intr 12345\n";

    #[test]
    fn busy_jiffies_include_steal_and_exclude_idle_and_iowait() {
        assert_eq!(
            parse_busy_jiffies(STAT),
            Some(1915047 + 10 + 218372 + 3 + 41087 + 265137)
        );
        assert_eq!(parse_busy_jiffies("cpu 1 2 3\n"), None);
        assert_eq!(parse_busy_jiffies("intr 5\n"), None);
    }

    #[test]
    fn own_jiffies_survive_a_hostile_command_name() {
        let line = "4242 (cqc bench) x) R 1 4242 4242 0 -1 4194304 1500 0 0 0 731 29 0 0 20 0 3 0 \
                    998877 123456789 3000 18446744073709551615 1 1 0 0 0 0 0 0 0 0 0 0 17 1 0 0";
        assert_eq!(parse_own_jiffies(line), Some(731 + 29));
        assert_eq!(parse_own_jiffies("garbage"), None);
    }

    #[test]
    fn foreign_share_subtracts_own_time() {
        let t0 = Instant::now();
        let a = CpuSample {
            busy: 1000,
            own: 100,
            at: t0,
        };
        let b = CpuSample {
            busy: 1000 + 130,
            own: 100 + 100,
            at: t0 + std::time::Duration::from_secs(1),
        };
        // 30 foreign jiffies over 1 s × 2 CPUs × 100 Hz.
        let share = foreign_cpu_share(&a, &b, 2, 100.0);
        assert!((share - 0.15).abs() < 1e-9, "{share}");
        // Own time above machine-busy (tick skew) clamps at zero.
        let c = CpuSample {
            busy: 1050,
            own: 200,
            at: b.at,
        };
        assert_eq!(foreign_cpu_share(&a, &c, 2, 100.0), 0.0);
    }

    #[test]
    fn filesystem_is_the_longest_matching_mount() {
        let mounts =
            "/dev/vda / ext4 rw 0 0\ntmpfs /dev/shm tmpfs rw 0 0\nproc /proc proc rw 0 0\n";
        assert_eq!(filesystem_of(Path::new("/dev/shm"), mounts), "tmpfs");
        assert_eq!(filesystem_of(Path::new("/"), mounts), "ext4");
        assert_eq!(filesystem_of(Path::new("/"), ""), "unknown");
    }
}
