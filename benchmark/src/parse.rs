//! Parsers for the text the release binaries and the kernel print. The
//! benchmark sees the program only through argv, exit codes and this text.

/// Peak resident set size in kB from the contents of `/proc/<pid>/status`.
/// `None` once the process is a zombie (the `Vm*` lines are gone).
pub fn vm_hwm_kb(status: &str) -> Option<u64> {
    let rest = status.lines().find_map(|l| l.strip_prefix("VmHWM:"))?;
    rest.trim().strip_suffix("kB")?.trim().parse().ok()
}

/// The five counters of the `fedclustd: net-stats …` stderr line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NetStats {
    pub connects: u64,
    pub redispatched: u64,
    pub written_off: u64,
    pub busy: u64,
    pub dup: u64,
}

/// Find and parse the `net-stats` line in a server's stderr.
pub fn net_stats(stderr: &str) -> Option<NetStats> {
    let line = stderr
        .lines()
        .find_map(|l| l.strip_prefix("fedclustd: net-stats "))?;
    let field = |key: &str| -> Option<u64> {
        line.split_whitespace()
            .find_map(|kv| kv.strip_prefix(key)?.strip_prefix('='))?
            .parse()
            .ok()
    };
    Some(NetStats {
        connects: field("connects")?,
        redispatched: field("redispatched")?,
        written_off: field("written_off")?,
        busy: field("busy")?,
        dup: field("dup")?,
    })
}

/// The part of a growing log that ends in a newline. A process writes a
/// line in several pieces, so the tail of a file being polled may be half
/// a line (half an address).
pub fn complete_lines(text: &str) -> &str {
    &text[..text.rfind('\n').map_or(0, |i| i + 1)]
}

/// The address from the server's `fedclustd: listening on <addr>` line.
pub fn listen_addr(stderr: &str) -> Option<&str> {
    stderr
        .lines()
        .find_map(|l| l.strip_prefix("fedclustd: listening on "))
        .map(str::trim)
}

/// Units of work a worker delivered, from its
/// `fedclust-worker: run complete after N push(es)` line.
pub fn worker_pushes(stderr: &str) -> Option<u64> {
    stderr
        .lines()
        .find_map(|l| l.strip_prefix("fedclust-worker: run complete after "))?
        .split_whitespace()
        .next()?
        .parse()
        .ok()
}

/// The number stored under `"key":` in a JSON text whose keys are unique
/// (true of the CLI's `--json` result and of `fedbench-trace`'s metric
/// line). `None` when the key is absent or its value is not a number
/// (`null` marks a bypassed layer).
pub fn json_number(text: &str, key: &str) -> Option<f64> {
    let needle = format!("\"{}\":", key);
    let rest = text[text.find(&needle)? + needle.len()..].trim_start();
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || matches!(c, '+' | '-' | '.' | 'e' | 'E')))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `fedclust-cli run --json --method fedclust --dataset fmnist
    /// --partition skew50 --clients 4 --rounds 2 --epochs 1
    /// --samples-per-class 20 --seed 3`, captured at the parent commit.
    const CLI_JSON: &str = r#"{
  "method": "FedClust",
  "final_acc": 0.1339285746216774,
  "per_client_acc": [
    0.2857142984867096,
    0.0,
    0.25,
    0.0
  ],
  "history": [
    {
      "round": 2,
      "avg_acc": 0.1339285746216774,
      "cum_mb": 0.189408
    }
  ],
  "num_clusters": 1,
  "total_mb": 0.189408,
  "faults": {
    "faults_injected": 0,
    "updates_quarantined": 0,
    "retries": 0,
    "downlink_failures": 0,
    "uplink_losses": 0,
    "deadline_misses": 0
  }
}"#;

    #[test]
    fn json_fields_of_a_captured_cli_result() {
        assert_eq!(json_number(CLI_JSON, "final_acc"), Some(0.1339285746216774));
        assert_eq!(json_number(CLI_JSON, "total_mb"), Some(0.189408));
        assert_eq!(json_number(CLI_JSON, "num_clusters"), Some(1.0));
        assert_eq!(json_number(CLI_JSON, "deadline_misses"), Some(0.0));
        assert_eq!(json_number(CLI_JSON, "method"), None, "not a number");
        assert_eq!(json_number(CLI_JSON, "acc"), None, "whole keys only");
    }

    #[test]
    fn json_null_and_exponents() {
        let line = r#"{"cluster.hac_s":null,"fl.train_s":1.5e-3,"fl.evals":12}"#;
        assert_eq!(json_number(line, "cluster.hac_s"), None);
        assert_eq!(json_number(line, "fl.train_s"), Some(0.0015));
        assert_eq!(json_number(line, "fl.evals"), Some(12.0));
    }

    #[test]
    fn vm_hwm_line() {
        let status =
            "Name:\tfedclust-cli\nVmPeak:\t  123456 kB\nVmHWM:\t   21504 kB\nVmRSS:\t   20000 kB\n";
        assert_eq!(vm_hwm_kb(status), Some(21504));
        assert_eq!(vm_hwm_kb("Name:\tfedclust-cli\nState:\tZ (zombie)\n"), None);
    }

    #[test]
    fn half_written_lines_are_not_read() {
        assert_eq!(
            complete_lines("a\nfedclustd: listening on 127.0.0.1:35"),
            "a\n"
        );
        assert_eq!(complete_lines("fedclustd: listening on 127.0."), "");
        assert_eq!(complete_lines("a\nb\n"), "a\nb\n");
        assert_eq!(
            listen_addr(complete_lines("fedclustd: listening on 127.0.0.1:35")),
            None
        );
    }

    #[test]
    fn server_and_worker_lines() {
        let err = "fedclustd: listening on 127.0.0.1:40123\n\
                   fedclustd: 2 worker(s) connected, starting run\n\
                   fedclustd: net-stats connects=2 redispatched=1 written_off=0 busy=3 dup=4\n";
        assert_eq!(listen_addr(err), Some("127.0.0.1:40123"));
        assert_eq!(
            net_stats(err),
            Some(NetStats {
                connects: 2,
                redispatched: 1,
                written_off: 0,
                busy: 3,
                dup: 4
            })
        );
        assert_eq!(net_stats("fedclustd: listening on 127.0.0.1:1\n"), None);
        assert_eq!(
            worker_pushes("fedclust-worker: run complete after 146 push(es)\n"),
            Some(146)
        );
        assert_eq!(worker_pushes("fedclust-worker: gave up\n"), None);
    }
}
