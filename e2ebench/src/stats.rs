//! The benchmark's own arithmetic: order statistics, the tail rule,
//! error shares, open-loop due-time accounting, the attribution
//! remainder and the pi-plane digest. Everything here is pure so the
//! unit tests below pin it without running a workload.

/// Samples that must lie beyond the reported tail percentile.
pub const TAIL_BEYOND: usize = 10;

/// Median of `xs` (mean of the two middle values for even lengths).
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of an empty sample");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        0.5 * (v[n / 2 - 1] + v[n / 2])
    }
}

/// First and third quartile by the "exclusive" method (the default of
/// Python's `statistics.quantiles(xs, n=4)`). Needs two samples.
pub fn quartiles(xs: &[f64]) -> (f64, f64) {
    assert!(xs.len() >= 2, "quartiles need at least two samples");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let ld = v.len();
    let m = ld + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// A tail percentile chosen by the rule "the highest percentile with at
/// least [`TAIL_BEYOND`] samples beyond it".
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The sample value at that rank.
    pub value: f64,
    /// Percentile of the rank: share of samples at or below it, x100.
    pub percentile: f64,
    /// Samples ranked beyond it (always [`TAIL_BEYOND`]).
    pub beyond: usize,
    /// Sample count.
    pub count: usize,
}

/// Apply the tail rule to an unsorted sample. `None` when there are too
/// few samples to leave [`TAIL_BEYOND`] beyond any rank.
pub fn tail(xs: &[f64]) -> Option<Tail> {
    let n = xs.len();
    if n <= TAIL_BEYOND {
        return None;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = n - 1 - TAIL_BEYOND;
    Some(Tail {
        value: v[rank],
        percentile: 100.0 * (rank + 1) as f64 / n as f64,
        beyond: TAIL_BEYOND,
        count: n,
    })
}

/// Failed or refused operations over those attempted. A refused
/// request (503/429, or a shed connection) counts as failed.
pub fn error_share(attempted: u64, failed: u64) -> f64 {
    assert!(attempted > 0, "error share of zero attempts");
    assert!(failed <= attempted, "more failures than attempts");
    failed as f64 / attempted as f64
}

/// One scheduled operation of an open-loop generator, in nanoseconds
/// from the start of the schedule.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DueTimed {
    /// When the schedule said to issue it.
    pub due_ns: u64,
    /// When the generator actually issued it (never before `due_ns`).
    pub sent_ns: u64,
    /// When it completed.
    pub done_ns: u64,
}

impl DueTimed {
    /// Latency from the due time: includes any wait a stall of an
    /// earlier operation imposed on this one.
    pub fn latency_ns(&self) -> u64 {
        self.done_ns.saturating_sub(self.due_ns)
    }

    /// How late the generator issued it.
    pub fn lateness_ns(&self) -> u64 {
        self.sent_ns.saturating_sub(self.due_ns)
    }
}

/// Run `ops` on a fixed-period open-loop schedule with one issuer:
/// operation `i` is due at `i * period_ns`; the issuer waits for the due
/// time when early and issues at once when late. `now` reads the
/// schedule clock, `wait_until` sleeps until a clock value, and `op`
/// performs operation `i`.
pub fn run_schedule(
    ops: usize,
    period_ns: u64,
    mut now: impl FnMut() -> u64,
    mut wait_until: impl FnMut(u64),
    mut op: impl FnMut(usize),
) -> Vec<DueTimed> {
    let mut out = Vec::with_capacity(ops);
    for i in 0..ops {
        let due_ns = i as u64 * period_ns;
        if now() < due_ns {
            wait_until(due_ns);
        }
        let sent_ns = now().max(due_ns);
        op(i);
        out.push(DueTimed {
            due_ns,
            sent_ns,
            done_ns: now(),
        });
    }
    out
}

/// One row of a time-attribution table.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    /// Layer name.
    pub name: String,
    /// Self time of the layer, already normalised to wall-clock time
    /// (thread-summed busy time divided by the thread count).
    pub self_time: f64,
}

impl Row {
    /// A row named `name` with self time `self_time`.
    pub fn new(name: &str, self_time: f64) -> Self {
        Self {
            name: name.to_string(),
            self_time,
        }
    }
}

/// A total split into layer self times plus the unattributed remainder.
#[derive(Debug, Clone, PartialEq)]
pub struct Attribution {
    /// End-to-end total the rows are attributed against.
    pub total: f64,
    /// The layer rows.
    pub rows: Vec<Row>,
    /// `total - sum(rows)`; negative when the rows over-attribute.
    pub unattributed: f64,
}

impl Attribution {
    /// Attribute `total` over `rows`.
    pub fn new(total: f64, rows: Vec<Row>) -> Self {
        let sum: f64 = rows.iter().map(|r| r.self_time).sum();
        Self {
            total,
            rows,
            unattributed: total - sum,
        }
    }

    /// Normalise thread-summed busy time to wall-clock time.
    pub fn per_thread(thread_summed: f64, threads: usize) -> f64 {
        thread_summed / threads.max(1) as f64
    }

    /// The remainder as a share of the total.
    pub fn unattributed_share(&self) -> f64 {
        if self.total > 0.0 {
            self.unattributed / self.total
        } else {
            0.0
        }
    }

    /// Whether the rows sum to the total within `tolerance` (a share of
    /// the total) in both directions: no over-attribution, and no more
    /// than `tolerance` left unexplained.
    pub fn adds_up(&self, tolerance: f64) -> bool {
        self.unattributed_share().abs() <= tolerance
    }

    /// Whether the rows stay within the total, up to `tolerance` (a share
    /// of the total). The one-sided check for totals that hold time no
    /// layer records.
    pub fn within_total(&self, tolerance: f64) -> bool {
        self.unattributed_share() >= -tolerance
    }

    /// Whether the time the rows record beyond the total (`-unattributed`)
    /// lies in `[least, most]`, widened by `tolerance` of the total.
    pub fn hides_between(&self, (least, most): (f64, f64), tolerance: f64) -> bool {
        let hidden = -self.unattributed;
        let slack = tolerance * self.total;
        least - slack <= hidden && hidden <= most + slack
    }
}

/// Bounds on the modeled time one double-buffered lockstep iteration
/// hides, from the phase times recorded for it. The master's draw +
/// deploy runs beside the workers' window of neighbor sampling and
/// chunked load/compute, and inside the window each chunk's load overlaps
/// the previous chunk's compute, so the window lasts at least
/// `neighbors + max(load, compute)` and at most `neighbors + load +
/// compute`; the iteration is the longer of window and master, plus the
/// serial stages. Returns `(least, most)` hidden time.
pub fn pipelined_hidden_bounds(master: f64, neighbors: f64, load: f64, compute: f64) -> (f64, f64) {
    let recorded = master + neighbors + load + compute;
    let longest = master.max(neighbors + load + compute);
    let shortest = master.max(neighbors + load.max(compute));
    (recorded - longest, recorded - shortest)
}

/// 64-bit FNV-1a over the bit patterns of an f32 plane: equal digests
/// mean bitwise-equal planes (up to hash collisions).
pub fn digest_f32(plane: &[f32]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for x in plane {
        for b in x.to_bits().to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), (2.75, 8.25));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), (0.75, 2.25));
    }

    #[test]
    fn tail_leaves_exactly_ten_samples_beyond() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        let t = tail(&xs).expect("100 samples");
        assert_eq!(t.value, 90.0);
        assert_eq!(t.percentile, 90.0);
        assert_eq!(xs.iter().filter(|&&x| x > t.value).count(), TAIL_BEYOND);
        // More samples push the rule to a higher percentile.
        let ys: Vec<f64> = (1..=1000).rev().map(f64::from).collect();
        let t = tail(&ys).expect("1000 samples");
        assert_eq!(t.value, 990.0);
        assert_eq!(t.percentile, 99.0);
        assert_eq!(t.count, 1000);
    }

    #[test]
    fn tail_needs_more_than_ten_samples() {
        assert!(tail(&[1.0; 10]).is_none());
        let t = tail(&[5.0; 11]).expect("11 samples");
        assert_eq!((t.value, t.beyond), (5.0, 10));
    }

    #[test]
    fn error_share_counts_refusals_as_failures() {
        // 1000 requests: 990 answered 200, 7 shed with 503, 3 refused 429.
        let refused = 7 + 3;
        assert!((error_share(1000, refused) - 0.01).abs() < 1e-15);
        assert_eq!(error_share(5, 0), 0.0);
    }

    #[test]
    #[should_panic(expected = "more failures than attempts")]
    fn error_share_rejects_impossible_counts() {
        error_share(1, 2);
    }

    #[test]
    fn due_time_latency_includes_the_wait_a_stall_imposes() {
        // Period 10; operation 0 stalls for 35, the rest take 1.
        let clock = std::cell::Cell::new(0u64);
        let durations = [35u64, 1, 1, 1, 1];
        let timed = run_schedule(
            durations.len(),
            10,
            || clock.get(),
            |t| clock.set(t),
            |i| clock.set(clock.get() + durations[i]),
        );
        let lat: Vec<u64> = timed.iter().map(DueTimed::latency_ns).collect();
        let late: Vec<u64> = timed.iter().map(DueTimed::lateness_ns).collect();
        // Op 1 was due at 10 but could only go at 35: latency 26 = 25
        // late + 1 of service. Op 3 (due 30, sent 37) is still late; op 4
        // (due 40) finds the generator caught up.
        assert_eq!(late, vec![0, 25, 16, 7, 0]);
        assert_eq!(lat, vec![35, 26, 17, 8, 1]);
    }

    #[test]
    fn early_generator_waits_for_the_due_time() {
        let clock = std::cell::Cell::new(0u64);
        let timed = run_schedule(
            3,
            100,
            || clock.get(),
            |t| clock.set(t),
            |_| clock.set(clock.get() + 2),
        );
        assert_eq!(
            timed.iter().map(|t| t.sent_ns).collect::<Vec<_>>(),
            vec![0, 100, 200]
        );
        assert!(timed
            .iter()
            .all(|t| t.lateness_ns() == 0 && t.latency_ns() == 2));
    }

    #[test]
    fn attribution_remainder_is_its_own_row() {
        let a = Attribution::new(100.0, vec![Row::new("phi", 70.0), Row::new("pi", 26.0)]);
        assert!((a.unattributed - 4.0).abs() < 1e-12);
        assert!(a.adds_up(0.05));
        assert!(!a.adds_up(0.03));
    }

    #[test]
    fn thread_summed_time_is_normalised_before_summing() {
        // Two threads each busy 60 of a 100 step: summed 120 would
        // over-attribute; normalised it is 60 of 100.
        let summed = 120.0;
        let over = Attribution::new(100.0, vec![Row::new("read", summed)]);
        assert!(over.unattributed < 0.0 && !over.adds_up(0.05));
        let fixed = Attribution::new(
            100.0,
            vec![
                Row::new("read", Attribution::per_thread(summed, 2)),
                Row::new("compute", 38.0),
            ],
        );
        assert!((fixed.unattributed_share() - 0.02).abs() < 1e-12);
        assert!(fixed.adds_up(0.05));
    }

    #[test]
    fn one_sided_check_allows_unrecorded_time_only() {
        let under = Attribution::new(40.0, vec![Row::new("handler", 3.0)]);
        assert!(under.within_total(0.05) && !under.adds_up(0.05));
        let over = Attribution::new(40.0, vec![Row::new("handler", 43.0)]);
        assert!(!over.within_total(0.05));
    }

    /// The iteration the lockstep model charges: the double-buffered
    /// makespan of the chunks (`mmsb_dkv::pipeline::schedule`'s algebra)
    /// after neighbor sampling, beside the master, plus serial stages.
    fn modeled_iteration(
        master: f64,
        neighbors: f64,
        loads: &[f64],
        computes: &[f64],
        serial: f64,
    ) -> f64 {
        let mut t = loads[0];
        for i in 1..loads.len() {
            t += loads[i].max(computes[i - 1]);
        }
        t += computes[computes.len() - 1];
        master.max(neighbors + t) + serial
    }

    #[test]
    fn pipelined_phases_hide_between_the_bounds() {
        let (master, neighbors, serial) = (0.6, 0.1, 1.4);
        let loads = [1.0, 2.5, 3.0, 4.0];
        let computes = [0.2, 0.1, 0.2, 0.15];
        let (load, compute) = (loads.iter().sum::<f64>(), computes.iter().sum::<f64>());
        let total = modeled_iteration(master, neighbors, &loads, &computes, serial);
        // Bounds come from the recorded phases, as in a traced run.
        let check = |load_row: f64, total: f64, tolerance: f64| {
            let rows = vec![
                Row::new("draw + deploy", master),
                Row::new("sample neighbors", neighbors),
                Row::new("load pi", load_row),
                Row::new("update phi", compute),
                Row::new("serial stages", serial),
            ];
            let bounds = pipelined_hidden_bounds(master, neighbors, load_row, compute);
            Attribution::new(total, rows).hides_between(bounds, tolerance)
        };
        // The recorded phases hide the master and part of the compute.
        assert!(check(load, total, 0.0));
        // A load recorded twice, or not at all, falls outside.
        assert!(!check(2.0 * load, total, 0.05));
        assert!(!check(0.0, total, 0.05));
        // So does modeled time no phase records (a clock advanced twice).
        assert!(!check(load, total + load, 0.05));
    }

    #[test]
    fn digest_tells_bitwise_different_planes_apart() {
        let a = [0.25f32, 0.75, 0.5];
        let mut b = a;
        assert_eq!(digest_f32(&a), digest_f32(&b));
        b[1] = f32::from_bits(b[1].to_bits() + 1);
        assert_ne!(digest_f32(&a), digest_f32(&b));
        // -0.0 and 0.0 compare equal as floats but not as bits.
        assert_ne!(digest_f32(&[0.0]), digest_f32(&[-0.0]));
    }
}
