//! Host measurements: CPU time and peak memory of this process or of a
//! child, read from `/proc`, and the calibration kernel that gauges how
//! fast the host is running.

use std::fs;
use std::hint::black_box;
use std::time::Instant;

/// Linux reports `utime`/`stime` in clock ticks of `USER_HZ`, which is
/// 100 on every mainstream architecture.
const USER_HZ: f64 = 100.0;

/// User + system CPU seconds consumed so far by process `pid`
/// (`"self"` for this process), summed over all of its threads.
pub fn cpu_s(pid: &str) -> Result<f64, String> {
    let path = format!("/proc/{pid}/stat");
    let stat = fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
    // The command name may hold spaces; fields restart after its ')'.
    let rest = stat
        .rfind(')')
        .map(|i| &stat[i + 1..])
        .ok_or_else(|| format!("{path}: no command field"))?;
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // After the name: state, ppid, pgrp, session, tty, tpgid, flags,
    // minflt, cminflt, majflt, cmajflt, utime, stime.
    let tick = |i: usize| -> Result<f64, String> {
        fields
            .get(i)
            .and_then(|v| v.parse::<u64>().ok())
            .map(|v| v as f64 / USER_HZ)
            .ok_or_else(|| format!("{path}: field {i} unreadable"))
    };
    Ok(tick(11)? + tick(12)?)
}

/// Peak resident set size of process `pid` in MiB (`VmHWM`).
pub fn peak_rss_mb(pid: &str) -> Result<f64, String> {
    let path = format!("/proc/{pid}/status");
    let status = fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<u64>().ok())
        .map(|kb| kb as f64 / 1024.0)
        .ok_or_else(|| format!("{path}: no VmHWM line"))
}

/// Wall time of [`calibrate`] on the reference host (a 2-vCPU shared
/// Intel Xeon VM) in its fast mode. Host times are reported in
/// reference seconds: `host seconds × CALIBRATION_REF_S / calibration
/// seconds`, with the calibration timed during the same run.
pub const CALIBRATION_REF_S: f64 = 0.1;

/// Block counts per calibration.
const CALIBRATION_COUNTS: usize = 3_500_000;

/// Run the calibration kernel once and return its wall time in seconds.
///
/// The shared host this benchmark was built on drifts between fast and
/// slow modes, within a minute and over an hour: the AlexNet sweep took
/// 7.7 s in one ten-run set and 4.9 s in the next. The kernel is a
/// frozen copy of the closed-form AuthBlock block counter (paper §4.2)
/// run on random tiles. Timed next to the program's sweeps across an
/// hour in which they ran 2× faster or slower, the ratio of sweep time
/// to this kernel's time stayed within ±10%, where a loop of bare
/// `i128` floor sums drifted by ±20% and a hash-map walk added jitter
/// of its own. It is the benchmark's own code, so a change to the
/// program cannot move it.
pub fn calibrate() -> f64 {
    let t0 = Instant::now();
    let mut state = 0x5eed_u64;
    let mut next = |bound: u64| crate::splitmix(&mut state) % bound;
    let mut blocks = 0u64;
    for _ in 0..CALIBRATION_COUNTS {
        let w = 8 + next(220);
        let cols = 1 + next(w);
        let rows = 1 + next(220);
        let (row0, col0, u) = (next(220), next(w - cols + 1), 1 + next(512));
        blocks = blocks.wrapping_add(count_blocks(w, row0, col0, rows, cols, u));
    }
    black_box(blocks);
    t0.elapsed().as_secs_f64()
}

/// Row-major AuthBlocks of `u` elements touched by a `rows × cols` tile
/// at `(row0, col0)` of a region `w` elements wide: the block-range
/// envelope minus the gaps between rows, by one linear-congruence count.
fn count_blocks(w: u64, row0: u64, col0: u64, rows: u64, cols: u64, u: u64) -> u64 {
    let uw = u as u128;
    let s0 = row0 as u128 * w as u128 + col0 as u128;
    let e0 = s0 + cols as u128 - 1;
    let envelope = (e0 + (rows as u128 - 1) * w as u128) / uw - s0 / uw + 1;
    let g = w - cols + 1;
    let (q, rem) = (g / u, g % u);
    let gaps = if rows < 2 || q == 0 {
        0
    } else {
        let pairs = rows - 1;
        let extra = if rem == 0 {
            0
        } else {
            pairs - count_residues_le(pairs, w % u, (e0 % uw) as u64, u, u - rem - 1)
        };
        pairs as u128 * (q as u128 - 1) + extra as u128
    };
    envelope.wrapping_sub(gaps) as u64
}

/// `#{i < n : (a·i + b) mod m <= t}`, from two floor sums.
fn count_residues_le(n: u64, a: u64, b: u64, m: u64, t: u64) -> u64 {
    if t >= m - 1 {
        return n;
    }
    let (n, a, b, m, t) = (
        n as i128,
        (a % m) as i128,
        (b % m) as i128,
        m as i128,
        t as i128,
    );
    (floor_sum(n, m, a, b) - floor_sum(n, m, a, b - t - 1)) as u64
}

/// `Σ_{i<n} ⌊(a·i + b) / m⌋` for `a >= 0`, by the Euclidean recurrence.
fn floor_sum(mut n: i128, mut m: i128, mut a: i128, mut b: i128) -> i128 {
    let mut ans = 0i128;
    if b < 0 {
        let b2 = b.rem_euclid(m);
        ans -= n * ((b2 - b) / m);
        b = b2;
    }
    loop {
        if a >= m {
            ans += n * (n - 1) / 2 * (a / m);
            a %= m;
        }
        if b >= m {
            ans += n * (b / m);
            b %= m;
        }
        let y = a * n + b;
        if y < m {
            return ans;
        }
        n = y / m;
        b = y % m;
        std::mem::swap(&mut m, &mut a);
    }
}
