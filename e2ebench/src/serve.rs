//! The `serve-mixed` workload: a one-worker `ServeHandle` serving a
//! checkpoint trained in setup, driven through `mmsb-serve`'s public
//! `loadgen` client (the only place the workspace lets sockets live).
//!
//! `loadgen` is closed-loop, so the client is too. Each round runs a
//! pipelined segment (depth [`DEPTH`], one connection) for the saturated
//! rate and a serial segment (one request in flight) for the latency a
//! synchronous caller sees. After the rounds, a reload segment runs
//! serial traffic while this process reloads the model on a fixed
//! open-loop schedule, each reload timed from its due time.

use crate::layers::{print_attribution, set_traced, Layers, ObsRead};
use crate::stats::{self, Attribution, Row};
use crate::train::planted_config;
use crate::{peak_rss_mb, threads_cpu_ns, Args, EndToEnd, Outcome};
use mmsb_core::{eval, Checkpoint, ParallelSampler, SamplerConfig};
use mmsb_graph::generate::planted::generate_planted;
use mmsb_graph::heldout::HeldOut;
use mmsb_obs::id;
use mmsb_rand::{Rng as _, Xoshiro256PlusPlus};
use mmsb_serve::{http, loadgen, ModelSnapshot, ServeConfig, ServeHandle};
use std::path::Path;
use std::time::{Duration, Instant};

/// Vertices of the served model; K below. The pi plane is
/// 50k x 64 x 4 B = 12.8 MB, three times the 4 MiB L2.
const N: u32 = 50_000;
const K: usize = 64;
/// Iterations trained in setup before the checkpoint is saved.
const TRAIN_ITERS: u64 = 10;
const SETUP_REPS: usize = 3;
/// Distinct requests in the seeded mix.
const MIX: usize = 4096;
/// Requests in flight per batch in the pipelined segment. Deep batches
/// keep cross-CPU wake-ups rare, which on a shared 2-vCPU host swing a
/// depth-64 segment between 100k and 300k q/s.
const DEPTH: usize = 512;
/// Requests per pipelined segment: eight passes over the mix, about half
/// a second of server time.
const PIPELINED: usize = 8 * MIX;
/// Round trips per serial segment.
const SERIAL: usize = 2_000;
/// Reloads in the reload segment, and their period. One reload (read and
/// verify the 12.8 MB checkpoint, rebuild the snapshot) takes about a
/// second on a 2-core x86-64 host, so the period leaves headroom; a
/// slower reload shows as generator lag.
const RELOADS: usize = 3;
const RELOAD_PERIOD_MS: u64 = 1_500;
/// Members the average community listing returns: `min_weight` is set
/// per run, from the trained model, to the weight at which the K
/// listings hold `K x MEAN_LISTING` members in all. Fixing the work
/// rather than the threshold keeps the listing cost, most of the
/// server's time, from varying with the seed (at a fixed 6/K the mean
/// listing ran from 293 to 366 members across seeds 21-25). An
/// assumption, as no usage data gives a listing size: listings of a few
/// hundred members do real work (at 6/K the mean over seeds 21-40 was
/// 334) while the longest stays well inside [`LISTING_LIMIT`].
const MEAN_LISTING: usize = 300;
/// Longest listing the run accepts. `loadgen` reads responses into a
/// 256 KiB buffer, which holds one listing of about 5,800 members.
const LISTING_LIMIT: usize = 5_000;
/// Shares of the mix, in percent: membership, then edge; the rest are
/// community listings. An assumption, not measured usage: point lookups
/// (the two endpoints `bench_serve` measures) are most requests, split
/// evenly; listings, each ~300 members, are a tenth of the requests
/// and most of the server's time.
const MEMBERSHIP_PCT: u64 = 45;
const EDGE_PCT: u64 = 45;
/// `k` of membership queries, as in `bench_serve`.
const TOP_K: usize = 5;
/// Seeded responses compared against a directly computed snapshot.
const CHECKED: usize = 512;
/// Tolerance of the no-over-attribution check.
const ATTRIBUTION_TOLERANCE: f64 = 0.05;
/// Name prefixes of the server's threads: `ServeHandle`'s driver and the
/// `mmsb-pool` worker it runs. No other pool is alive during the rounds
/// (the setup sampler is dropped first), so these count the server only.
const SERVER_THREADS: &[&str] = &["mmsb-serve", "mmsb-pool"];

/// One query of the seeded mix.
#[derive(Debug, Clone, Copy)]
enum Query {
    Membership(usize, usize),
    Edge(usize, usize),
    /// Community id and `min_weight`.
    Community(usize, f64),
}

impl Query {
    fn path(self) -> String {
        match self {
            Query::Membership(v, k) => format!("/v1/membership/{v}?k={k}"),
            Query::Edge(a, b) => format!("/v1/edge/{a}/{b}"),
            Query::Community(c, w) => format!("/v1/community/{c}?min_weight={w}"),
        }
    }
}

/// The seeded mix over uniform vertex ids. Community queries take the
/// communities in turn from a seeded offset, so every community is
/// listed equally often and the mix's listing work does not depend on
/// which communities a seed happens to draw.
fn query_mix(seed: u64, min_weight: f64) -> Vec<Query> {
    let mut rng = Xoshiro256PlusPlus::seed_from_u64(seed ^ 0x0005_E12E);
    let mut next_community = rng.below(K as u64) as usize;
    (0..MIX)
        .map(|_| {
            let r = rng.below(100);
            let v = rng.below(u64::from(N)) as usize;
            if r < MEMBERSHIP_PCT {
                Query::Membership(v, TOP_K)
            } else if r < MEMBERSHIP_PCT + EDGE_PCT {
                let mut b = rng.below(u64::from(N)) as usize;
                if b == v {
                    b = (b + 1) % N as usize;
                }
                Query::Edge(v, b)
            } else {
                next_community = (next_community + 1) % K;
                Query::Community(next_community, min_weight)
            }
        })
        .collect()
}

/// Train the served model from the seed and save it; returns its final
/// held-out perplexity and the `min_weight` of community queries. Fails
/// if a community listing would not fit the client's response buffer.
fn train_model(seed: u64, path: &Path) -> Result<(f64, f64), String> {
    let mut rng = Xoshiro256PlusPlus::seed_from_u64(seed);
    let g = generate_planted(&planted_config(N), &mut rng);
    let (graph, heldout) = HeldOut::split(&g.graph, 2_000, &mut rng);
    let config = SamplerConfig::new(K).with_seed(seed ^ 0x5EED);
    let mut sampler = ParallelSampler::with_threads(graph, heldout, config, 2)
        .map_err(|e| format!("build sampler: {e}"))?;
    sampler.run(TRAIN_ITERS);
    let ppl = sampler.evaluate_perplexity();
    let ckpt = sampler.checkpoint();
    drop(sampler);
    let min_weight = listing_threshold(ckpt.pi());
    if let Some((c, len)) = (0..K)
        .map(|c| (c, direct_members(ckpt.pi(), c, min_weight).len()))
        .find(|&(_, len)| len > LISTING_LIMIT)
    {
        return Err(format!(
            "community {c} lists {len} members at min_weight {min_weight}, over the {LISTING_LIMIT} that fit loadgen's response buffer"
        ));
    }
    ckpt.save(path)
        .map_err(|e| format!("save checkpoint: {e}"))?;
    Ok((ppl, min_weight))
}

/// The weight of rank `K x MEAN_LISTING` among all N x K weights: at that
/// `min_weight` the K listings hold that many members in all (more on
/// ties).
fn listing_threshold(pi: &[f32]) -> f64 {
    let mut weights = pi.to_vec();
    let (_, w, _) = weights.select_nth_unstable_by(K * MEAN_LISTING - 1, |a, b| b.total_cmp(a));
    f64::from(*w)
}

/// Community ids of vertex `v` by descending weight, ties by id.
fn direct_membership(pi: &[f32], v: usize) -> Vec<u32> {
    let row = &pi[v * K..(v + 1) * K];
    let mut ids: Vec<u32> = (0..K as u32).collect();
    ids.sort_by(|&a, &b| row[b as usize].total_cmp(&row[a as usize]).then(a.cmp(&b)));
    ids
}

/// Members of community `c` with weight at least `min_weight`, by
/// descending weight, ties by id.
fn direct_members(pi: &[f32], c: usize, min_weight: f64) -> Vec<u32> {
    let mut ids: Vec<u32> = (0..N)
        .filter(|&v| f64::from(pi[v as usize * K + c]) >= min_weight)
        .collect();
    ids.sort_by(|&a, &b| {
        pi[b as usize * K + c]
            .total_cmp(&pi[a as usize * K + c])
            .then(a.cmp(&b))
    });
    ids
}

/// Mean number of members a community query of the mix lists.
fn mean_listing_len(pi: &[f32], mix: &[Query]) -> f64 {
    let lens: Vec<f64> = mix
        .iter()
        .filter_map(|q| match *q {
            Query::Community(c, w) => Some(direct_members(pi, c, w).len() as f64),
            _ => None,
        })
        .collect();
    lens.iter().sum::<f64>() / lens.len().max(1) as f64
}

/// Compare a seeded sample of the mix against the snapshot the server
/// builds from the same checkpoint, answering each query directly from
/// the checkpoint planes. Returns the mismatches.
fn check_answers(snap: &ModelSnapshot, ckpt: &Checkpoint, mix: &[Query], seed: u64) -> Vec<String> {
    let (pi, beta) = (ckpt.pi(), ckpt.beta());
    let mut rng = Xoshiro256PlusPlus::seed_from_u64(seed ^ 0xC4EC);
    let mut bad = Vec::new();
    for _ in 0..CHECKED {
        let q = mix[rng.below(mix.len() as u64) as usize];
        match q {
            Query::Membership(v, k) => {
                let want = &direct_membership(pi, v)[..k];
                if &snap.communities_by_weight(v)[..k] != want {
                    bad.push(format!("{} top-{k} differs", q.path()));
                }
            }
            Query::Edge(a, b) => {
                let want = eval::edge_likelihood(
                    &pi[a * K..(a + 1) * K],
                    &pi[b * K..(b + 1) * K],
                    beta,
                    snap.delta(),
                );
                let got = snap.edge_likelihood(a, b);
                if (got - want).abs() > 1e-12 * want.abs().max(1e-300) + 1e-300 {
                    bad.push(format!("{}: {got} != {want}", q.path()));
                }
            }
            Query::Community(c, w) => {
                let want = direct_members(pi, c, w);
                let got = &snap.members_by_weight(c)[..want.len()];
                let next_below = snap
                    .members_by_weight(c)
                    .get(want.len())
                    .is_none_or(|&v| snap.weight(v as usize, c) < w);
                if got != want.as_slice() || !next_below {
                    bad.push(format!("{} listing differs", q.path()));
                }
            }
        }
    }
    bad
}

/// One query round: a pipelined segment, then a serial one.
struct Round {
    traced: bool,
    /// Pipelined completions per second.
    qps: f64,
    /// Pipelined segment wall time, ns.
    pipelined_ns: u64,
    /// CPU time the server's threads spent in the pipelined segment, ns.
    pipelined_cpu_ns: u64,
    /// Serial round trips per second of the serial segment's wall time.
    serial_rps: f64,
    serial_p50_ns: f64,
    serial_p99_ns: f64,
    requests: u64,
    errors: u64,
    obs: ObsRead,
}

impl Round {
    /// Pipelined completions per server CPU-second.
    fn cpu_rate(&self) -> f64 {
        self.qps * self.pipelined_ns as f64 / self.pipelined_cpu_ns.max(1) as f64
    }
}

fn round(handle: &ServeHandle, reqs: &[Vec<u8>], traced: bool) -> Result<Round, String> {
    let addr = handle.addr();
    if traced {
        ObsRead::reset();
        set_traced(true);
    }
    let io = |e: std::io::Error| format!("loadgen: {e}");
    let cpu0 = threads_cpu_ns(SERVER_THREADS);
    let tp = loadgen::throughput(addr, reqs, PIPELINED, DEPTH).map_err(io)?;
    let pipelined_cpu_ns = threads_cpu_ns(SERVER_THREADS).saturating_sub(cpu0);
    if pipelined_cpu_ns == 0 {
        return Err("no CPU time found on the server's threads".into());
    }
    let t = Instant::now();
    let lat = loadgen::latency(addr, reqs, SERIAL).map_err(io)?;
    let serial_s = t.elapsed().as_secs_f64();
    let obs = if traced {
        set_traced(false);
        ObsRead::take()
    } else {
        ObsRead::default()
    };
    Ok(Round {
        traced,
        qps: tp.qps,
        pipelined_ns: tp.elapsed_ns,
        pipelined_cpu_ns,
        serial_rps: lat.samples as f64 / serial_s,
        serial_p50_ns: lat.p50_ns as f64,
        serial_p99_ns: lat.p99_ns as f64,
        requests: tp.requests + lat.samples,
        errors: tp.errors + lat.errors,
        obs,
    })
}

/// The reload segment: serial traffic on a client thread while this
/// thread reloads the model on a fixed schedule (the in-process path of
/// `POST /v1/reload`).
struct Reloads {
    /// Each reload's latency from its due time, ms.
    latency_ms: Vec<f64>,
    /// How late the schedule issued each reload, us.
    lag_us: Vec<f64>,
    /// p99 of the serial client beside the reloads, ns.
    beside_p99_ns: f64,
    requests: u64,
    errors: u64,
    failures: u64,
}

fn reload_segment(
    handle: &ServeHandle,
    reqs: &[Vec<u8>],
    serial_p50_ns: f64,
) -> Result<Reloads, String> {
    let addr = handle.addr();
    let before = handle.generation();
    let mut generation = before;
    let mut failures = 0u64;
    let start = Instant::now();
    let now = || start.elapsed().as_nanos() as u64;
    // The serial client covers the whole reload window.
    let window_ns = (RELOADS as u64 * RELOAD_PERIOD_MS * 1_000_000) as f64;
    let samples = ((window_ns / serial_p50_ns.max(1.0)).ceil() as usize).max(SERIAL);
    let (beside, timed) = std::thread::scope(|s| {
        let client = s.spawn(|| loadgen::latency(addr, reqs, samples));
        let timed = stats::run_schedule(
            RELOADS,
            RELOAD_PERIOD_MS * 1_000_000,
            now,
            |t| std::thread::sleep(Duration::from_nanos(t.saturating_sub(now()))),
            |_| match handle.reload() {
                // Each reload must bump the generation exactly once.
                Ok(g) if g == generation + 1 => generation = g,
                _ => failures += 1,
            },
        );
        (client.join(), timed)
    });
    let beside = beside
        .map_err(|_| "reload-segment client panicked".to_string())?
        .map_err(|e| format!("loadgen: {e}"))?;
    if handle.generation() != before + RELOADS {
        failures += 1;
    }
    Ok(Reloads {
        latency_ms: timed.iter().map(|t| t.latency_ns() as f64 / 1e6).collect(),
        lag_us: timed.iter().map(|t| t.lateness_ns() as f64 / 1e3).collect(),
        beside_p99_ns: beside.p99_ns as f64,
        requests: beside.samples,
        errors: beside.errors,
        failures,
    })
}

/// A started server and the traffic built for the model it serves.
struct Served {
    handle: ServeHandle,
    /// Held-out perplexity of the served model.
    ppl: f64,
    min_weight: f64,
    mix: Vec<Query>,
    reqs: Vec<Vec<u8>>,
}

/// Run the `serve-mixed` workload.
pub fn run(args: &Args, work: &Path) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let model = work.join("model.ckpt");
    let cfg = ServeConfig {
        threads: 1,
        ..ServeConfig::default()
    };

    // ---- setup: train, save, start, warm; several times -------------
    let mut setup_s = Vec::with_capacity(SETUP_REPS);
    let mut kept: Option<Served> = None;
    for _ in 0..SETUP_REPS {
        if let Some(served) = kept.take() {
            served.handle.shutdown();
        }
        let t = Instant::now();
        let (ppl, min_weight) = train_model(args.seed, &model)?;
        let mix = query_mix(args.seed, min_weight);
        let reqs: Vec<Vec<u8>> = mix
            .iter()
            .map(|q| loadgen::get_request(&q.path()))
            .collect();
        let handle = ServeHandle::start(&model, &cfg).map_err(|e| format!("start server: {e}"))?;
        let warm =
            loadgen::latency(handle.addr(), &reqs, 500).map_err(|e| format!("warm-up: {e}"))?;
        if warm.errors > 0 {
            return Err(format!("{} warm-up requests failed", warm.errors));
        }
        setup_s.push(t.elapsed().as_secs_f64());
        kept = Some(Served {
            handle,
            ppl,
            min_weight,
            mix,
            reqs,
        });
    }
    let Served {
        handle,
        ppl,
        min_weight,
        mix,
        reqs,
    } = kept.ok_or("no setup ran")?;

    // ---- measured query rounds, then the reload segment ---------------
    // The reload window is reserved at the end of the run.
    let budget = args.seconds as f64 - (RELOADS as u64 * RELOAD_PERIOD_MS) as f64 / 1e3;
    let min_rounds = if args.trace { 8 } else { 6 };
    let t_run = Instant::now();
    let mut rounds: Vec<Round> = Vec::new();
    loop {
        let traced = args.trace && rounds.len() % 2 == 1;
        rounds.push(round(&handle, &reqs, traced)?);
        let spent = t_run.elapsed().as_secs_f64();
        if rounds.len() >= min_rounds && spent * (1.0 + 1.0 / rounds.len() as f64) > budget {
            break;
        }
    }
    let plain: Vec<&Round> = rounds.iter().filter(|r| !r.traced).collect();
    let pick =
        |f: &dyn Fn(&Round) -> f64| stats::median(&plain.iter().map(|r| f(r)).collect::<Vec<_>>());
    let reloads = reload_segment(&handle, &reqs, pick(&|r| r.serial_p50_ns))?;
    let stats_before_shutdown = handle.overload_stats();
    handle.shutdown();
    // The peak is read before the answer check below, which holds its own
    // copy of the model: the figure is the server's, not the check's.
    let rss_peak_mb = peak_rss_mb();

    // ---- answers: the served snapshot vs direct computation ----------
    let t = Instant::now();
    let ckpt = Checkpoint::load(&model).map_err(|e| format!("load checkpoint: {e}"))?;
    let load_ms = t.elapsed().as_secs_f64() * 1e3;
    let t = Instant::now();
    let snap = ModelSnapshot::from_checkpoint(&ckpt, cfg.delta, cfg.backend)
        .map_err(|e| format!("snapshot: {e}"))?;
    let build_ms = t.elapsed().as_secs_f64() * 1e3;
    out.failures
        .extend(check_answers(&snap, &ckpt, &mix, args.seed));
    let listing = mean_listing_len(ckpt.pi(), &mix);
    drop((snap, ckpt));

    for (i, r) in rounds.iter().enumerate() {
        println!(
            "round {i}{}: pipelined {:.0} q/s wall, {:.0} per server CPU-second; serial {:.0} q/s, p50 {:.1} us, p99 {:.1} us",
            if r.traced { " (traced)" } else { "" },
            r.qps,
            r.cpu_rate(),
            r.serial_rps,
            r.serial_p50_ns / 1e3,
            r.serial_p99_ns / 1e3,
        );
        out.attempted += r.requests;
        out.failed += r.errors;
    }
    out.attempted += reloads.requests + RELOADS as u64;
    out.failed += reloads.errors + reloads.failures;
    if out.failed > 0 {
        out.failures
            .push(format!("{} requests or reloads failed", out.failed));
    }
    if !(ppl.is_finite() && ppl > 0.0) {
        out.failures.push(format!(
            "served model perplexity {ppl} is not finite and positive"
        ));
    }

    let completed: f64 = plain
        .iter()
        .map(|r| r.qps * r.pipelined_ns as f64 / 1e9)
        .sum();
    out.e2e = EndToEnd {
        setup_s: stats::median(&setup_s),
        rss_peak_mb,
        // Pipelined completions per CPU-second of the server's threads,
        // median over rounds: the wall rate also counts time the
        // hypervisor stole and time the client held the CPU.
        throughput_per_s: pick(&|r| r.cpu_rate()),
        latency_p50_ms: pick(&|r| r.serial_p50_ns) / 1e6,
    };
    let max_qps = completed / (plain.iter().map(|r| r.pipelined_ns as f64).sum::<f64>() / 1e9);
    let tail_ms = pick(&|r| r.serial_p99_ns) / 1e6;
    let serial_rps = pick(&|r| r.serial_rps);
    println!(
        "setup: {SETUP_REPS} reps, {} s each (train {TRAIN_ITERS} iterations, save, start, warm)",
        setup_s
            .iter()
            .map(|s| format!("{s:.3}"))
            .collect::<Vec<_>>()
            .join(" ")
    );
    println!(
        "rounds: {} ({} untraced); closed loop, one connection at a time; assumed mix {MEMBERSHIP_PCT}% membership (k={TOP_K}), {EDGE_PCT}% edge, {}% community (min_weight {min_weight:.6}, set for {MEAN_LISTING} members per listing) over {MIX} seeded requests",
        rounds.len(),
        plain.len(),
        100 - MEMBERSHIP_PCT - EDGE_PCT
    );
    println!(
        "serve.community listing: {listing:.1} members per community query, mean over the mix"
    );
    println!(
        "serve.max_qps {max_qps:.1} 1/s wall, {:.1} per server CPU-second (pipelined depth {DEPTH}, {PIPELINED} requests per round; wall: total over rounds, CPU: median of rounds)",
        out.e2e.throughput_per_s
    );
    println!(
        "serve.low: {serial_rps:.1} q/s serial, p50 {:.3} us, tail p99 {:.3} us (one in flight; {SERIAL} samples per round, {} beyond; median of rounds)",
        out.e2e.latency_p50_ms * 1e3,
        tail_ms * 1e3,
        SERIAL / 100
    );
    println!(
        "serve.reload_ms {:.3} ms (median from due time, {RELOADS} reloads every {RELOAD_PERIOD_MS} ms), serve.reload.tail_us {:.3} us (serial p99 beside reloads), generator lag median {:.1} us",
        stats::median(&reloads.latency_ms),
        reloads.beside_p99_ns / 1e3,
        stats::median(&reloads.lag_us)
    );
    println!(
        "error_share {:.6} ({} failed of {} attempted requests and reloads)",
        stats::error_share(out.attempted, out.failed),
        out.failed,
        out.attempted
    );
    println!("served model heldout_perplexity {ppl:.6} after {TRAIN_ITERS} iterations");
    println!(
        "answers: {CHECKED} seeded queries checked against the checkpoint planes, {} mismatches",
        out.failures.iter().filter(|f| f.starts_with("/v1")).count()
    );

    if args.trace {
        let mut layers = Layers::default();
        traced_layers(&rounds, &reqs, &mut layers, &mut out);
        layers.set_per(
            "serve.community_listing_len",
            listing,
            "members per community query, mean over the mix".into(),
        );
        layers.set_per(
            "chain.heldout_perplexity",
            ppl,
            format!("served model after {TRAIN_ITERS} iterations"),
        );
        layers.set("serve.checkpoint_load_ms", load_ms);
        layers.set("serve.snapshot_build_ms", build_ms);
        layers.set_per(
            "latency_tail_ms",
            tail_ms,
            format!(
                "serial p99, {SERIAL} samples per round, median of rounds; demoted from end-to-end"
            ),
        );
        layers.set_per(
            "serve.serial_qps",
            serial_rps,
            "one in flight, median of rounds".into(),
        );
        layers.set_per(
            "serve.max_qps",
            max_qps,
            format!("wall, pipelined depth {DEPTH}, total over rounds"),
        );
        layers.set_per(
            "serve.reload_ms",
            stats::median(&reloads.latency_ms),
            format!("median of {RELOADS} reloads, from due time"),
        );
        layers.set_per(
            "serve.reload_tail_ms",
            reloads.beside_p99_ns / 1e6,
            "serial p99 beside reloads".into(),
        );
        layers.set_per(
            "serve.generator_lag_us",
            stats::median(&reloads.lag_us),
            "reload schedule lateness, median".into(),
        );
        layers.set(
            "serve.shed",
            (stats_before_shutdown.shed_conns + stats_before_shutdown.shed_requests) as f64,
        );
        out.layers = Some(layers);
    }
    Ok(out)
}

fn traced_layers(rounds: &[Round], reqs: &[Vec<u8>], layers: &mut Layers, out: &mut Outcome) {
    let traced: Vec<&Round> = rounds.iter().filter(|r| r.traced).collect();
    let plain: Vec<&Round> = rounds.iter().filter(|r| !r.traced).collect();
    let pairs: Vec<f64> = plain
        .iter()
        .zip(&traced)
        .map(|(u, t)| 1.0 - t.cpu_rate() / u.cpu_rate())
        .collect();
    layers.set_overhead(&pairs, "pipelined requests per server CPU-second");
    let mean = |h: usize| {
        let n: u64 = traced.iter().map(|r| r.obs.hist_count(h)).sum();
        let sum: f64 = traced
            .iter()
            .map(|r| r.obs.hist_mean_us(h) * r.obs.hist_count(h) as f64)
            .sum();
        (sum / n.max(1) as f64, n)
    };
    let (m_us, m_n) = mean(id::H_SERVE_MEMBERSHIP_NS);
    let (e_us, e_n) = mean(id::H_SERVE_EDGE_NS);
    let (c_us, c_n) = mean(id::H_SERVE_COMMUNITY_NS);
    layers.set_per(
        "serve.membership_us",
        m_us,
        format!("per request, {m_n} requests"),
    );
    layers.set_per(
        "serve.edge_us",
        e_us,
        format!("per request, {e_n} requests"),
    );
    layers.set_per(
        "serve.community_us",
        c_us,
        format!("per request, {c_n} requests"),
    );
    layers.set(
        "obs.spans_dropped",
        traced.iter().map(|r| r.obs.spans_dropped as f64).sum(),
    );
    layers.set(
        "serve.deadline_closes",
        traced
            .iter()
            .map(|r| r.obs.counter(id::C_SERVE_DEADLINE_CLOSES))
            .sum(),
    );
    let handler_us = (m_us * m_n as f64 + e_us * e_n as f64 + c_us * c_n as f64)
        / (m_n + e_n + c_n).max(1) as f64;
    let busy = [m_us * m_n as f64, e_us * e_n as f64, c_us * c_n as f64];
    let share = |x: f64| 100.0 * x / busy.iter().sum::<f64>().max(f64::MIN_POSITIVE);
    println!(
        "handler time by endpoint (traced rounds): membership {:.1}%, edge {:.1}%, community {:.1}%",
        share(busy[0]),
        share(busy[1]),
        share(busy[2])
    );

    // Replay the public HTTP codec on the workload's own bytes.
    let parse_ns = {
        let reps = 20usize;
        let t = Instant::now();
        let mut ok = 0usize;
        for _ in 0..reps {
            for r in reqs {
                ok += usize::from(matches!(
                    http::parse_request(std::hint::black_box(r)),
                    http::Parsed::Complete { .. }
                ));
            }
        }
        let ns = t.elapsed().as_secs_f64() * 1e9 / (reps * reqs.len()) as f64;
        if ok != reps * reqs.len() {
            out.failures
                .push("a workload request does not parse".into());
        }
        ns
    };
    let write_ns = {
        let body = br#"{"vertex":12345,"generation":1,"communities":[{"community":3,"weight":0.41},{"community":7,"weight":0.22}]}"#;
        let mut buf = Vec::with_capacity(512);
        let reps = 100_000usize;
        let t = Instant::now();
        for _ in 0..reps {
            buf.clear();
            http::write_response(
                &mut buf,
                200,
                "application/json",
                std::hint::black_box(body),
            );
            std::hint::black_box(&buf);
        }
        t.elapsed().as_secs_f64() * 1e9 / reps as f64
    };
    layers.set_per(
        "serve.parse_ns",
        parse_ns,
        format!("per request, {} replayed requests", 20 * reqs.len()),
    );
    layers.set_per(
        "serve.write_ns",
        write_ns,
        "per response, 100000 replayed writes".into(),
    );

    // Mean serial round trip against the mean of the layers the server
    // records. Only over-attribution is checked: the loopback socket and
    // syscall time of a round trip is recorded by no layer, so the
    // remainder has no expected size.
    let client_us = stats::median(
        &traced
            .iter()
            .map(|r| 1e6 / r.serial_rps)
            .collect::<Vec<_>>(),
    );
    let a = Attribution::new(
        client_us,
        vec![
            Row::new("handler (obs hist mean)", handler_us),
            Row::new("request parse (replayed)", parse_ns / 1e3),
            Row::new("response write (replayed)", write_ns / 1e3),
        ],
    );
    let ok = a.unattributed_share() >= -ATTRIBUTION_TOLERANCE;
    print_attribution(
        "mean serial round trip (median of traced rounds); the remainder is loopback socket + syscall time no layer records",
        "us",
        &a,
        "rows do not over-attribute the total by more than 5%",
        ok,
    );
    if !ok {
        out.failures
            .push("serve layers over-attribute the client latency".into());
    }
    layers.set("serve.unattributed_us", a.unattributed);
    layers.set("attribution.unattributed_share", a.unattributed_share());
}
