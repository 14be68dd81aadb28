//! The `birds-serve` child process: building it, spawning it on a data
//! directory, killing it, and reading what it costs from `/proc/<pid>`.

use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::os::unix::process::CommandExt;
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};

/// Repository root: the parent of this package's directory.
pub fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("bench/ sits inside the repository")
        .to_owned()
}

/// Build `birds-serve` (release) from the repository's own workspace
/// into the target directory this benchmark was built into, and return
/// the binary's path. A no-op after the first call in a checkout.
pub fn build_birds_serve() -> std::io::Result<PathBuf> {
    let exe = std::env::current_exe()?;
    // <target>/release/bench → <target>
    let target_dir = exe
        .parent()
        .and_then(Path::parent)
        .ok_or_else(|| std::io::Error::other("bench binary is not inside a cargo target dir"))?;
    let cargo = std::env::var_os("CARGO").unwrap_or_else(|| "cargo".into());
    let status = Command::new(cargo)
        .args(["build", "--release", "--offline", "--quiet"])
        .args(["-p", "birds-service", "--bin", "birds-serve"])
        .arg("--manifest-path")
        .arg(repo_root().join("Cargo.toml"))
        .arg("--target-dir")
        .arg(target_dir)
        .stdout(Stdio::null())
        .status()?;
    if !status.success() {
        return Err(std::io::Error::other(format!(
            "cargo build of birds-serve failed ({status})"
        )));
    }
    let binary = target_dir.join("release").join("birds-serve");
    if !binary.is_file() {
        return Err(std::io::Error::other(format!(
            "{} missing after a successful build",
            binary.display()
        )));
    }
    Ok(binary)
}

/// A running `birds-serve --listen 127.0.0.1:0 --workers N --data-dir D
/// --fsync epoch --strategy CATALOGUE`; every other flag at its default,
/// `--checkpoint-every 1024` included — the flush policy on both sides
/// of any comparison. Killed (SIGKILL) and reaped on drop.
pub struct ServeChild {
    child: Child,
    /// Held so the child's stdout stays open (it prints nothing after
    /// the address, but a closed pipe would turn a `println!` into a
    /// panic).
    _stdout: BufReader<ChildStdout>,
    pub addr: SocketAddr,
}

impl ServeChild {
    /// Spawn and block until the child has recovered the data directory
    /// and printed `listening on ADDR`.
    pub fn spawn(
        binary: &Path,
        workers: usize,
        data_dir: &Path,
        catalogue: &Path,
    ) -> std::io::Result<ServeChild> {
        let mut command = Command::new(binary);
        command
            .args(["--listen", "127.0.0.1:0", "--fsync", "epoch"])
            .args(["--workers", &workers.to_string()])
            .arg("--data-dir")
            .arg(data_dir)
            .arg("--strategy")
            .arg(catalogue)
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit());
        // SAFETY: the hook runs between fork and exec and makes one
        // async-signal-safe system call on integer arguments.
        unsafe { command.pre_exec(die_with_parent) };
        let mut child = command.spawn()?;
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout was piped"));
        let Some(addr) = read_listen_addr(&mut stdout) else {
            let _ = child.kill();
            let _ = child.wait();
            return Err(std::io::Error::other(format!(
                "{} exited before printing its listen address",
                binary.display()
            )));
        };
        Ok(ServeChild {
            child,
            _stdout: stdout,
            addr,
        })
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// SIGKILL the child and wait until it is gone.
    pub fn kill(mut self) -> std::io::Result<()> {
        self.child.kill()?;
        self.child.wait().map(drop)
    }

    /// One reading of the child's resource counters.
    pub fn usage(&self) -> std::io::Result<Usage> {
        Usage::read(self.pid())
    }
}

/// Ask the kernel to SIGKILL the child when the benchmark dies, so that a
/// benchmark killed from outside (no `Drop` runs) leaves no server behind.
fn die_with_parent() -> std::io::Result<()> {
    extern "C" {
        fn prctl(option: i32, ...) -> i32;
    }
    const PR_SET_PDEATHSIG: i32 = 1;
    const SIGKILL: u64 = 9;
    // SAFETY: PR_SET_PDEATHSIG takes one integer argument and touches no
    // memory of ours.
    match unsafe { prctl(PR_SET_PDEATHSIG, SIGKILL) } {
        0 => Ok(()),
        _ => Err(std::io::Error::last_os_error()),
    }
}

/// Skip the child's recovery chatter up to `listening on ADDR`.
fn read_listen_addr(stdout: &mut impl BufRead) -> Option<SocketAddr> {
    let mut line = String::new();
    loop {
        line.clear();
        if stdout.read_line(&mut line).ok()? == 0 {
            return None;
        }
        if let Some(addr) = line.trim_end().strip_prefix("listening on ") {
            return addr.parse().ok();
        }
    }
}

impl Drop for ServeChild {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// Resource counters of one process, as `/proc` reports them.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Usage {
    /// User-mode CPU seconds (`utime`).
    pub cpu_user_s: f64,
    /// Kernel-mode CPU seconds (`stime`).
    pub cpu_sys_s: f64,
    pub threads: u64,
    /// `VmRSS`, MiB.
    pub rss_mb: f64,
    /// `VmHWM` (peak RSS), MiB.
    pub rss_peak_mb: f64,
    /// Voluntary + involuntary context switches, summed over threads.
    pub ctx_switches: u64,
    /// `write_bytes` of `/proc/<pid>/io`: bytes the process caused to be
    /// sent to the storage layer (WAL appends and checkpoint files).
    pub disk_write_bytes: u64,
}

impl Usage {
    pub fn read(pid: u32) -> std::io::Result<Usage> {
        let proc_dir = PathBuf::from(format!("/proc/{pid}"));
        let read = |name: &str| std::fs::read_to_string(proc_dir.join(name));
        let bad = |what: &str| std::io::Error::other(format!("cannot parse /proc/{pid}/{what}"));
        let (utime, stime, threads) = parse_stat(&read("stat")?).ok_or_else(|| bad("stat"))?;
        let status = read("status")?;
        let rss_kb = status_field(&status, "VmRSS").ok_or_else(|| bad("status"))?;
        let hwm_kb = status_field(&status, "VmHWM").ok_or_else(|| bad("status"))?;
        let mut ctx_switches = 0;
        for task in std::fs::read_dir(proc_dir.join("task"))? {
            // A thread may exit between the listing and the read.
            if let Ok(status) = std::fs::read_to_string(task?.path().join("status")) {
                ctx_switches += status_field(&status, "voluntary_ctxt_switches").unwrap_or(0)
                    + status_field(&status, "nonvoluntary_ctxt_switches").unwrap_or(0);
            }
        }
        let disk_write_bytes = io_field(&read("io")?, "write_bytes").ok_or_else(|| bad("io"))?;
        let tick = clock_tick_seconds();
        Ok(Usage {
            cpu_user_s: utime as f64 * tick,
            cpu_sys_s: stime as f64 * tick,
            threads,
            rss_mb: rss_kb as f64 / 1024.0,
            rss_peak_mb: hwm_kb as f64 / 1024.0,
            ctx_switches,
            disk_write_bytes,
        })
    }

    pub fn cpu_s(&self) -> f64 {
        self.cpu_user_s + self.cpu_sys_s
    }
}

/// CPU seconds (user + system) this benchmark process has used — shows
/// whether the load generator, not the server, was the bottleneck.
pub fn own_cpu_s() -> std::io::Result<f64> {
    let stat = std::fs::read_to_string("/proc/self/stat")?;
    let (utime, stime, _) =
        parse_stat(&stat).ok_or_else(|| std::io::Error::other("cannot parse /proc/self/stat"))?;
    Ok((utime + stime) as f64 * clock_tick_seconds())
}

/// `(utime, stime, num_threads)` from the text of `/proc/<pid>/stat`.
/// The command name (field 2) may itself contain spaces and
/// parentheses, so fields are counted from the *last* `)`.
pub fn parse_stat(stat: &str) -> Option<(u64, u64, u64)> {
    let after_comm = &stat[stat.rfind(')')? + 1..];
    // `after_comm` starts at field 3 (state).
    let fields: Vec<&str> = after_comm.split_whitespace().collect();
    let field = |n: usize| fields.get(n - 3)?.parse::<u64>().ok();
    Some((field(14)?, field(15)?, field(20)?))
}

/// A `Name:   123 kB`-style field of `/proc/<pid>/status`.
pub fn status_field(status: &str, name: &str) -> Option<u64> {
    status
        .lines()
        .find_map(|line| line.strip_prefix(name)?.strip_prefix(':'))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|value| value.parse().ok())
}

/// A `name: 123` field of `/proc/<pid>/io`.
pub fn io_field(io: &str, name: &str) -> Option<u64> {
    io.lines()
        .find_map(|line| line.strip_prefix(name)?.strip_prefix(':'))
        .and_then(|value| value.trim().parse().ok())
}

fn clock_tick_seconds() -> f64 {
    extern "C" {
        fn sysconf(name: i32) -> i64;
    }
    const SC_CLK_TCK: i32 = 2; // Linux, every architecture
                               // SAFETY: `sysconf` takes an integer selector, touches no memory we
                               // own, and reports an unknown selector by returning -1.
    let ticks = unsafe { sysconf(SC_CLK_TCK) };
    1.0 / if ticks > 0 { ticks as f64 } else { 100.0 }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_fields_survive_a_hostile_command_name() {
        let stat = "4242 (birds) serve (x) S 1 4242 4242 0 -1 4194560 2935 0 0 0 \
                    731 209 0 0 20 0 5 0 8513221 250933248 24531 18446744073709551615 \
                    1 1 0 0 0 0 0 4096 16386 0 0 0 17 1 0 0 0 0 0 0 0 0 0 0 0 0 0";
        assert_eq!(parse_stat(stat), Some((731, 209, 5)));
        assert_eq!(parse_stat("garbage"), None);
        assert_eq!(parse_stat("1 (x) S 1 2"), None);
    }

    #[test]
    fn status_and_io_fields() {
        let status = "Name:\tbirds-serve\nVmHWM:\t  123456 kB\nVmRSS:\t   99000 kB\n\
                      Threads:\t5\nvoluntary_ctxt_switches:\t17\nnonvoluntary_ctxt_switches:\t3\n";
        assert_eq!(status_field(status, "VmHWM"), Some(123456));
        assert_eq!(status_field(status, "VmRSS"), Some(99000));
        assert_eq!(status_field(status, "voluntary_ctxt_switches"), Some(17));
        assert_eq!(status_field(status, "nonvoluntary_ctxt_switches"), Some(3));
        assert_eq!(status_field(status, "VmSwap"), None);
        let io = "rchar: 3980\nwchar: 10\nread_bytes: 0\nwrite_bytes: 8192\ncancelled_write_bytes: 4096\n";
        assert_eq!(io_field(io, "write_bytes"), Some(8192));
        assert_eq!(io_field(io, "wchar"), Some(10));
        assert_eq!(io_field(io, "nope"), None);
    }

    #[test]
    fn reads_this_process() {
        let usage = Usage::read(std::process::id()).expect("own /proc entry");
        assert!(usage.threads >= 1);
        assert!(usage.rss_peak_mb >= usage.rss_mb && usage.rss_mb > 0.0);
        assert!(own_cpu_s().unwrap() >= 0.0);
    }
}
