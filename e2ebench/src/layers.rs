//! Per-layer metrics: the fixed name/unit table printed by traced runs,
//! reads of the program's existing `mmsb-obs` registry, and the
//! attribution table printer.

use crate::stats::{self, Attribution};
use mmsb_obs::id;
use std::collections::BTreeMap;

/// Every per-layer metric a traced run reports, with its unit. A layer a
/// workload bypasses reads 0 there: that is the measured prediction
/// "flat on this workload", not a missing value.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("latency_tail_ms", "ms"),
    ("core.draw_minibatch_ms", "ms"),
    ("core.update_phi_ms", "ms"),
    ("core.update_pi_ms", "ms"),
    ("core.update_beta_theta_ms", "ms"),
    ("core.step_unattributed_ms", "ms"),
    ("core.perplexity_eval_ms", "ms"),
    ("core.checkpoint_save_ms", "ms"),
    ("core.sampler_build_ms", "ms"),
    ("core.recovery_eval_s", "s"),
    ("simd.phi_gradient_ns", "ns"),
    ("simd.phi_flops_per_step", "count"),
    ("graph.generate_ms", "ms"),
    ("graph.heldout_split_ms", "ms"),
    ("graph.minibatch_pairs", "count"),
    ("graph.minibatch_vertices", "count"),
    ("graph.neighbor_probes", "count"),
    ("ooc.build_s", "s"),
    ("ooc.verify_s", "s"),
    ("ooc.cache_hits", "count"),
    ("ooc.cache_misses", "count"),
    ("ooc.cache_evictions", "count"),
    ("ooc.hit_ratio", "ratio"),
    ("ooc.block_read_ms", "ms"),
    ("ooc.block_bytes_read", "B"),
    ("ooc.bytes_per_edge", "B"),
    ("pool.busy_ms", "ms"),
    ("pool.idle_ms", "ms"),
    ("pool.idle_share", "ratio"),
    ("pool.chunks", "count"),
    ("dkv.read_keys", "count"),
    ("dkv.read_batches", "count"),
    ("dkv.read_ms", "ms"),
    ("dkv.write_keys", "count"),
    ("dkv.write_ms", "ms"),
    ("dkv.prefetch_ms", "ms"),
    ("dkv.retries", "count"),
    ("comm.collectives", "count"),
    ("comm.collective_ms", "ms"),
    ("netsim.load_pi_ms", "ms"),
    ("netsim.deploy_minibatch_ms", "ms"),
    ("netsim.barrier_ms", "ms"),
    ("netsim.update_phi_ms", "ms"),
    ("serve.membership_us", "us"),
    ("serve.edge_us", "us"),
    ("serve.community_us", "us"),
    ("serve.community_listing_len", "count"),
    ("serve.parse_ns", "ns"),
    ("serve.write_ns", "ns"),
    ("serve.serial_qps", "1/s"),
    ("serve.max_qps", "1/s"),
    ("serve.snapshot_build_ms", "ms"),
    ("serve.checkpoint_load_ms", "ms"),
    ("serve.unattributed_us", "us"),
    ("serve.shed", "count"),
    ("serve.deadline_closes", "count"),
    ("serve.generator_lag_us", "us"),
    ("serve.reload_ms", "ms"),
    ("serve.reload_tail_ms", "ms"),
    ("obs.overhead_share", "ratio"),
    ("obs.overhead_iqr", "ratio"),
    ("obs.spans_dropped", "count"),
    ("attribution.unattributed_share", "ratio"),
    ("chain.heldout_perplexity", "perplexity"),
];

/// Values of the per-layer metrics, keyed by name. Unset metrics print
/// as 0.
#[derive(Debug, Default)]
pub struct Layers {
    values: BTreeMap<&'static str, f64>,
    counts: BTreeMap<&'static str, String>,
}

impl Layers {
    /// Set metric `name` (must be in [`PER_LAYER`]).
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            PER_LAYER.iter().any(|(n, _)| *n == name),
            "unknown per-layer metric {name}"
        );
        self.values.insert(name, value);
    }

    /// Set metric `name` and state what it is normalised by.
    pub fn set_per(&mut self, name: &'static str, value: f64, per: String) {
        self.set(name, value);
        self.counts.insert(name, per);
    }

    /// Set `obs.overhead_share` (median) and `obs.overhead_iqr` from
    /// per-pair shares `1 - traced rate / untraced rate`.
    pub fn set_overhead(&mut self, pairs: &[f64], rate: &str) {
        let n = pairs.len();
        self.set_per(
            "obs.overhead_share",
            stats::median(pairs),
            format!("{rate}, median of {n} pairs"),
        );
        if n >= 2 {
            let (q1, q3) = stats::quartiles(pairs);
            self.set_per("obs.overhead_iqr", q3 - q1, "q3 - q1 of the pairs".into());
        }
    }

    /// Value of `name`, 0 when unset.
    pub fn get(&self, name: &str) -> f64 {
        self.values.get(name).copied().unwrap_or(0.0)
    }

    /// Print every metric as a human-readable line.
    pub fn print(&self) {
        for (name, unit) in PER_LAYER {
            match (self.values.get(name), self.counts.get(name)) {
                (Some(v), Some(per)) => println!("  {name:<32} {v:>14.4} {unit:<6} {per}"),
                (Some(v), None) => println!("  {name:<32} {v:>14.4} {unit}"),
                (None, _) => println!("  {name:<32} {:>14} {unit:<6} (layer not on this path)", 0),
            }
        }
    }

    /// `(name, value, unit)` for every metric, in table order.
    pub fn all(&self) -> impl Iterator<Item = (&'static str, f64, &'static str)> + '_ {
        PER_LAYER.iter().map(|&(n, u)| (n, self.get(n), u))
    }
}

/// A copy of the registry values the benchmark reads, taken after a
/// traced segment.
#[derive(Debug, Clone, Copy, Default)]
pub struct ObsRead {
    counters: [u64; id::COUNTER_COUNT],
    hist_sum_ns: [u64; id::HIST_COUNT],
    hist_count: [u64; id::HIST_COUNT],
    /// Span records dropped because a ring was full.
    pub spans_dropped: u64,
}

impl ObsRead {
    /// Read the global registry (all zeros when obs never initialised).
    pub fn take() -> Self {
        let mut r = Self::default();
        if let Some(obs) = mmsb_obs::get() {
            for c in 0..id::COUNTER_COUNT {
                r.counters[c] = obs.metrics.counter_total(c);
            }
            for h in 0..id::HIST_COUNT {
                r.hist_sum_ns[h] = obs.metrics.hist_sum(h);
                r.hist_count[h] = obs.metrics.hist_count(h);
            }
            r.spans_dropped = obs.spans.dropped();
        }
        r
    }

    /// Element-wise sum of several reads.
    pub fn sum<'a>(reads: impl Iterator<Item = &'a ObsRead>) -> Self {
        let mut t = Self::default();
        for r in reads {
            t.counters
                .iter_mut()
                .zip(&r.counters)
                .for_each(|(a, b)| *a += b);
            t.hist_sum_ns
                .iter_mut()
                .zip(&r.hist_sum_ns)
                .for_each(|(a, b)| *a += b);
            t.hist_count
                .iter_mut()
                .zip(&r.hist_count)
                .for_each(|(a, b)| *a += b);
            t.spans_dropped += r.spans_dropped;
        }
        t
    }

    /// Zero the registry and the span rings before a traced segment.
    pub fn reset() {
        if let Some(obs) = mmsb_obs::get() {
            obs.metrics.clear();
            obs.spans.clear();
        }
    }

    /// Counter `c`.
    pub fn counter(&self, c: usize) -> f64 {
        self.counters[c] as f64
    }

    /// Sum of histogram `h` in milliseconds.
    pub fn hist_ms(&self, h: usize) -> f64 {
        self.hist_sum_ns[h] as f64 / 1e6
    }

    /// Samples in histogram `h`.
    pub fn hist_count(&self, h: usize) -> u64 {
        self.hist_count[h]
    }

    /// Mean of histogram `h` in microseconds (0 with no samples).
    pub fn hist_mean_us(&self, h: usize) -> f64 {
        if self.hist_count[h] == 0 {
            0.0
        } else {
            self.hist_sum_ns[h] as f64 / self.hist_count[h] as f64 / 1e3
        }
    }
}

/// Arm span capture (which includes metrics) or switch it off. The
/// registry is sized on first use, small enough to leave the RSS of a
/// traced run close to an untraced one.
pub fn set_traced(on: bool) {
    if on {
        mmsb_obs::init(mmsb_obs::ObsConfig {
            level: mmsb_obs::ObsLevel::Spans,
            shards: 8,
            span_capacity: 1 << 15,
        });
    } else {
        mmsb_obs::set_level(mmsb_obs::ObsLevel::Off);
    }
}

/// Print an attribution table: each row's self time, its share of the
/// total, the `unattributed` remainder as its own row, and the verdict
/// of the caller's check.
pub fn print_attribution(title: &str, unit: &str, a: &Attribution, check: &str, ok: bool) {
    println!("attribution: {title} (total {:.4} {unit})", a.total);
    for r in &a.rows {
        println!(
            "  {:<30} {:>12.4} {unit:<3} {:>7.2}%",
            r.name,
            r.self_time,
            100.0 * r.self_time / a.total
        );
    }
    println!(
        "  {:<30} {:>12.4} {unit:<3} {:>7.2}%",
        "unattributed",
        a.unattributed,
        100.0 * a.unattributed_share()
    );
    println!("  {check}: {}", if ok { "yes" } else { "NO" });
}
