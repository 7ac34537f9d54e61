//! Process memory: the peak resident set size the kernel reports.

/// Parses the `VmHWM` line of `/proc/<pid>/status` into KiB.
pub fn parse_vmhwm_kib(status: &str) -> Option<u64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let mut fields = line["VmHWM:".len()..].split_whitespace();
    let value = fields.next()?.parse().ok()?;
    (fields.next()? == "kB").then_some(value)
}

/// Peak resident set size of this process so far, in MiB.
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    parse_vmhwm_kib(&status).map(|kib| kib as f64 / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_vmhwm_line() {
        let status =
            "Name:\tedgebench\nVmPeak:\t  300000 kB\nVmHWM:\t   51234 kB\nVmRSS:\t   40000 kB\n";
        assert_eq!(parse_vmhwm_kib(status), Some(51234));
    }

    #[test]
    fn rejects_missing_or_malformed_lines() {
        assert_eq!(parse_vmhwm_kib("VmRSS:\t 1 kB\n"), None);
        assert_eq!(parse_vmhwm_kib("VmHWM:\t abc kB\n"), None);
        assert_eq!(parse_vmhwm_kib("VmHWM:\t 12 MB\n"), None);
        assert_eq!(parse_vmhwm_kib("VmHWM:\n"), None);
    }

    #[test]
    fn reads_this_process() {
        let mib = peak_rss_mib().expect("/proc/self/status has VmHWM on Linux");
        assert!(mib > 0.0);
    }
}
