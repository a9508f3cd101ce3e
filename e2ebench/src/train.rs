//! The three training workloads: `train-resident`, `train-ooc` and
//! `simulate-cluster`. Each runs fixed-length chain episodes (build a
//! sampler, run a fixed number of iterations with periodic held-out
//! evaluation, save a checkpoint) until the run's time is spent, so the
//! final perplexity and pi digest are taken at a fixed iteration count
//! and must repeat bitwise from one episode to the next.

use crate::layers::{print_attribution, set_traced, Layers, ObsRead};
use crate::stats::{self, Attribution, Row};
use crate::{peak_rss_mb, Args, EndToEnd, Outcome};
use mmsb_core::{
    eval, Checkpoint, DistributedConfig, DistributedSampler, ParallelSampler, SamplerConfig,
};
use mmsb_dkv::pipeline::PipelineMode;
use mmsb_graph::generate::planted::{generate_planted, PlantedConfig};
use mmsb_graph::generate::stream::{for_each_edge, StreamConfig};
use mmsb_graph::generate::GroundTruth;
use mmsb_graph::heldout::HeldOut;
use mmsb_graph::minibatch::{MinibatchSampler, Strategy};
use mmsb_graph::Graph;
use mmsb_netsim::Phase;
use mmsb_obs::id;
use mmsb_ooc::{BlockCache, BuildOptions, GraphBackend, OocGraph, OocReader, StreamingBuilder};
use mmsb_rand::Xoshiro256PlusPlus;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Setups are repeated until they have taken this long (and at least
/// [`SETUP_MIN_REPS`] times); `setup_s` is their median. A window of
/// seconds rather than a fixed count keeps the short setups from
/// sampling only a moment of a host whose speed drifts.
const SETUP_WINDOW_S: f64 = 3.0;
const SETUP_MIN_REPS: usize = 3;
/// Iterations run after each setup before it counts as warm.
const WARMUP_ITERS: u64 = 2;
/// Tolerance of the attribution check, as a share of the total.
const ATTRIBUTION_TOLERANCE: f64 = 0.05;
const ADDS_UP: &str = "rows + remainder match the total, remainder within 5%";
/// Flops per (mini-batch vertex, neighbor, community) element of the phi
/// gradient: the fma that forms `r_c`, the fma of the Z chain, and the
/// divide-add of the accumulation.
const PHI_FLOPS_PER_ELEMENT: f64 = 6.0;

/// Which training path a workload drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TrainPath {
    /// `ParallelSampler` over the resident CSR.
    Resident,
    /// `ParallelSampler` over the out-of-core block-cached file.
    OutOfCore,
    /// Lockstep `DistributedSampler` on the modeled DAS5 cluster.
    Simulate,
}

/// Fixed sizes of one training workload.
struct Plan {
    /// Vertices of the generated graph.
    n: u32,
    /// Model communities.
    k: usize,
    /// Pool threads (resident and out-of-core paths).
    threads: usize,
    /// Iterations per episode.
    iters: u64,
    /// Held-out evaluation cadence, in iterations.
    eval_every: u64,
    /// Held-out links (and as many non-links).
    heldout_links: usize,
    /// Mini-batch strategy.
    minibatch: Strategy,
}

fn plan(path: TrainPath) -> Plan {
    match path {
        // pi plane 50k x 64 x 4 B = 12.8 MB, three times the 4 MiB L2.
        TrainPath::Resident => Plan {
            n: 50_000,
            k: 64,
            threads: 2,
            iters: 30,
            eval_every: 10,
            heldout_links: 2_000,
            minibatch: Strategy::StratifiedNode {
                partitions: 32,
                anchors: 32,
            },
        },
        // Partitions scale with N (N / 400) so a step stays well under a
        // second; K is small so block reads, not kernels, dominate.
        TrainPath::OutOfCore => Plan {
            n: 100_000,
            k: 8,
            threads: 2,
            iters: 20,
            eval_every: 10,
            heldout_links: 2_000,
            minibatch: Strategy::StratifiedNode {
                partitions: 6_250,
                anchors: 32,
            },
        },
        TrainPath::Simulate => Plan {
            n: 20_000,
            k: 64,
            threads: 1,
            iters: 60,
            eval_every: 20,
            heldout_links: 1_000,
            minibatch: Strategy::StratifiedNode {
                partitions: 32,
                anchors: 32,
            },
        },
    }
}

/// Out-of-core file layout: small blocks and a small per-worker cache,
/// so the file is many times the cache.
const OOC_BLOCK_SIZE: u32 = 4096;
const OOC_CACHE_BLOCKS: usize = 32;
const OOC_MIN_FILE_TO_CACHE: u64 = 16;

/// The planted graph family shared by `train-resident`, the
/// `simulate-cluster` graph and the model `serve-mixed` serves: mean
/// community size 30, mean degree 10, 1.3 memberships per vertex.
pub fn planted_config(n: u32) -> PlantedConfig {
    let (mean_size, degree, overlap) = (30.0, 10.0, 1.3);
    PlantedConfig {
        num_vertices: n,
        num_communities: ((n as f64 * overlap / mean_size).round() as usize).max(1),
        mean_community_size: mean_size,
        memberships_per_vertex: overlap,
        internal_degree: 0.8 * degree / overlap,
        background_degree: 0.2 * degree,
    }
}

/// The sampler configuration of a plan, seeded from the run seed.
fn sampler_config(p: &Plan, seed: u64) -> SamplerConfig {
    SamplerConfig::new(p.k)
        .with_seed(seed ^ 0x5EED)
        .with_minibatch(p.minibatch)
        .with_graph_cache_blocks(OOC_CACHE_BLOCKS)
}

/// The generated inputs of a training run.
struct Inputs {
    graph: Option<Graph>,
    ooc_path: Option<PathBuf>,
    heldout: HeldOut,
    truth: Option<GroundTruth>,
    generate_ms: f64,
    split_ms: f64,
    build_s: f64,
    verify_s: f64,
    bytes_per_edge: f64,
}

fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// Generate the workload's graph and held-out set from the seed.
fn prepare(path: TrainPath, p: &Plan, seed: u64, work: &Path) -> Result<Inputs, String> {
    let mut rng = Xoshiro256PlusPlus::seed_from_u64(seed);
    match path {
        TrainPath::Resident | TrainPath::Simulate => {
            let t = Instant::now();
            let g = generate_planted(&planted_config(p.n), &mut rng);
            let generate_ms = ms_since(t);
            let t = Instant::now();
            let (graph, heldout) = HeldOut::split(&g.graph, p.heldout_links, &mut rng);
            let split_ms = ms_since(t);
            Ok(Inputs {
                graph: Some(graph),
                ooc_path: None,
                heldout,
                truth: Some(g.ground_truth),
                generate_ms,
                split_ms,
                build_s: 0.0,
                verify_s: 0.0,
                bytes_per_edge: 0.0,
            })
        }
        TrainPath::OutOfCore => {
            let stream = StreamConfig {
                num_vertices: p.n,
                num_communities: p.n / 40,
                target_edges: u64::from(p.n) * 10,
                intra_fraction: 0.9,
                seed,
            };
            let file = work.join("graph.ooc");
            let t = Instant::now();
            let mut builder = StreamingBuilder::new(BuildOptions {
                block_size: OOC_BLOCK_SIZE,
                num_vertices: Some(p.n),
                temp_dir: Some(work.to_path_buf()),
                ..BuildOptions::default()
            })
            .map_err(|e| format!("create builder: {e}"))?;
            let mut add_err = None;
            for_each_edge(&stream, |a, b| {
                if add_err.is_none() {
                    add_err = builder.add_edge(a, b).err();
                }
            });
            if let Some(e) = add_err {
                return Err(format!("add edge: {e}"));
            }
            let stats = builder
                .finish(&file)
                .map_err(|e| format!("finish build: {e}"))?;
            let build_s = t.elapsed().as_secs_f64();
            let t = Instant::now();
            let graph = OocGraph::open(&file).map_err(|e| format!("open: {e}"))?;
            graph
                .verify_blocks()
                .map_err(|e| format!("verify blocks: {e}"))?;
            let verify_s = t.elapsed().as_secs_f64();
            let cache_bytes = OOC_CACHE_BLOCKS as u64 * u64::from(OOC_BLOCK_SIZE);
            if stats.file_bytes < OOC_MIN_FILE_TO_CACHE * cache_bytes {
                return Err(format!(
                    "out-of-core file {} B is under {OOC_MIN_FILE_TO_CACHE}x the {cache_bytes} B cache",
                    stats.file_bytes
                ));
            }
            let t = Instant::now();
            let mut cache = BlockCache::for_graph(&graph, OOC_CACHE_BLOCKS, seed);
            let heldout = HeldOut::sample_observed(
                OocReader::new(&graph, &mut cache),
                p.heldout_links,
                &mut rng,
            );
            let split_ms = ms_since(t);
            Ok(Inputs {
                graph: None,
                ooc_path: Some(file),
                heldout,
                truth: None,
                generate_ms: 0.0,
                split_ms,
                build_s,
                verify_s,
                bytes_per_edge: stats.bytes_per_edge(),
            })
        }
    }
}

/// One sampler, whichever driver the workload uses.
enum Chain {
    Parallel(Box<ParallelSampler>),
    Distributed(Box<DistributedSampler>),
}

impl Chain {
    fn build(path: TrainPath, p: &Plan, inputs: &Inputs, seed: u64) -> Result<Self, String> {
        let config = sampler_config(p, seed);
        let heldout = inputs.heldout.clone();
        let err = |e: mmsb_core::CoreError| format!("build sampler: {e}");
        match path {
            TrainPath::Resident => {
                let graph = inputs.graph.clone().ok_or("resident graph missing")?;
                ParallelSampler::with_threads(graph, heldout, config, p.threads)
                    .map(|s| Chain::Parallel(Box::new(s)))
                    .map_err(err)
            }
            TrainPath::OutOfCore => {
                let file = inputs.ooc_path.as_ref().ok_or("out-of-core file missing")?;
                let graph = OocGraph::open(file).map_err(|e| format!("open: {e}"))?;
                ParallelSampler::with_backend_threads(
                    GraphBackend::OutOfCore(graph),
                    heldout,
                    config,
                    p.threads,
                )
                .map(|s| Chain::Parallel(Box::new(s)))
                .map_err(err)
            }
            TrainPath::Simulate => {
                let graph = inputs.graph.clone().ok_or("simulated graph missing")?;
                let dcfg = DistributedConfig::das5(8).with_pipeline(PipelineMode::Double);
                DistributedSampler::new(graph, heldout, config, dcfg)
                    .map(|s| Chain::Distributed(Box::new(s)))
                    .map_err(err)
            }
        }
    }

    fn step(&mut self) {
        match self {
            Chain::Parallel(s) => s.step(),
            Chain::Distributed(s) => s.step(),
        }
    }

    fn perplexity(&mut self) -> f64 {
        match self {
            Chain::Parallel(s) => s.evaluate_perplexity(),
            Chain::Distributed(s) => s.evaluate_perplexity(),
        }
    }

    fn checkpoint(&self) -> Checkpoint {
        match self {
            Chain::Parallel(s) => s.checkpoint(),
            Chain::Distributed(s) => s.checkpoint(),
        }
    }

    /// Modeled cluster time so far, in ms (simulate only).
    fn virtual_ms(&self) -> f64 {
        match self {
            Chain::Parallel(_) => 0.0,
            Chain::Distributed(s) => s.virtual_time() * 1e3,
        }
    }

    fn communities(&self, threshold: f32) -> Vec<Vec<mmsb_graph::VertexId>> {
        match self {
            Chain::Parallel(s) => s.communities(threshold).members,
            Chain::Distributed(s) => s.communities(threshold).members,
        }
    }
}

/// What one episode measured.
struct Episode {
    traced: bool,
    build_ms: f64,
    step_ms: Vec<f64>,
    virtual_step_ms: Vec<f64>,
    eval_ms: Vec<f64>,
    save_ms: f64,
    wall_ms: f64,
    perplexities: Vec<(u64, f64)>,
    digest: u64,
    saved_digest: u64,
    obs: ObsRead,
    report: Option<mmsb_netsim::TraceReport>,
    chain: Option<Chain>,
}

fn run_episode(
    path: TrainPath,
    p: &Plan,
    inputs: &Inputs,
    seed: u64,
    ckpt_path: &Path,
    traced: bool,
) -> Result<Episode, String> {
    let t = Instant::now();
    let mut chain = Chain::build(path, p, inputs, seed)?;
    let build_ms = ms_since(t);
    if traced {
        ObsRead::reset();
        set_traced(true);
    }
    let mut step_ms = Vec::with_capacity(p.iters as usize);
    let mut virtual_step_ms = Vec::with_capacity(p.iters as usize);
    let mut eval_ms = Vec::new();
    let mut perplexities = Vec::new();
    let t0 = Instant::now();
    for i in 1..=p.iters {
        let v0 = chain.virtual_ms();
        let t = Instant::now();
        chain.step();
        step_ms.push(ms_since(t));
        virtual_step_ms.push(chain.virtual_ms() - v0);
        if i % p.eval_every == 0 {
            let t = Instant::now();
            let ppl = chain.perplexity();
            eval_ms.push(ms_since(t));
            perplexities.push((i, ppl));
        }
    }
    let t = Instant::now();
    let ckpt = chain.checkpoint();
    ckpt.save(ckpt_path)
        .map_err(|e| format!("save checkpoint: {e}"))?;
    let save_ms = ms_since(t);
    let wall_ms = ms_since(t0);
    let obs = if traced {
        set_traced(false);
        ObsRead::take()
    } else {
        ObsRead::default()
    };
    let report = match &chain {
        Chain::Distributed(s) => Some(s.report()),
        Chain::Parallel(_) => None,
    };
    let saved = Checkpoint::load(ckpt_path).map_err(|e| format!("reload checkpoint: {e}"))?;
    Ok(Episode {
        traced,
        build_ms,
        step_ms,
        virtual_step_ms,
        eval_ms,
        save_ms,
        wall_ms,
        perplexities,
        digest: stats::digest_f32(ckpt.pi()),
        saved_digest: stats::digest_f32(saved.pi()),
        obs,
        report,
        chain: Some(chain),
    })
}

/// Run a training workload.
pub fn run(path: TrainPath, args: &Args, work: &Path) -> Result<Outcome, String> {
    let p = plan(path);
    let mut out = Outcome::default();
    let mut layers = Layers::default();

    // ---- setup, several times; the median is `setup_s` ----------------
    let mut setup_s = Vec::new();
    let mut kept = None;
    while setup_s.len() < SETUP_MIN_REPS || setup_s.iter().sum::<f64>() < SETUP_WINDOW_S {
        drop(kept.take()); // free the previous inputs before generating anew
        let t = Instant::now();
        let inputs = prepare(path, &p, args.seed, work)?;
        let mut chain = Chain::build(path, &p, &inputs, args.seed)?;
        for _ in 0..WARMUP_ITERS {
            chain.step();
        }
        setup_s.push(t.elapsed().as_secs_f64());
        drop(chain);
        kept = Some(inputs);
    }
    let inputs = kept.ok_or("no setup ran")?;
    println!(
        "setup: {} reps, {} s each",
        setup_s.len(),
        setup_s
            .iter()
            .map(|s| format!("{s:.3}"))
            .collect::<Vec<_>>()
            .join(" ")
    );

    // ---- measured episodes ------------------------------------------
    let ckpt_path = work.join("model.ckpt");
    let budget = args.seconds as f64 * 1e3;
    let min_episodes = if args.trace { 4 } else { 2 };
    let t_run = Instant::now();
    let mut episodes: Vec<Episode> = Vec::new();
    loop {
        // Traced runs alternate untraced and traced episodes, so the
        // overhead pairs see the same machine state.
        let traced = args.trace && episodes.len() % 2 == 1;
        let mut ep = run_episode(path, &p, &inputs, args.seed, &ckpt_path, traced)?;
        // Only a traced run's first chain is kept, for the recovery check.
        if !(args.trace && episodes.is_empty()) {
            ep.chain = None;
        }
        episodes.push(ep);
        let spent = ms_since(t_run);
        let per_episode = spent / episodes.len() as f64;
        if episodes.len() >= min_episodes && spent + per_episode > budget {
            break;
        }
    }

    // ---- output checks ----------------------------------------------
    let first = &episodes[0];
    let final_ppl = first
        .perplexities
        .last()
        .map(|&(_, x)| x)
        .unwrap_or(f64::NAN);
    let mut check = |ok: bool, what: String| {
        if !ok {
            out.failures.push(what);
        }
    };
    check(
        final_ppl.is_finite() && final_ppl > 0.0,
        format!("final held-out perplexity {final_ppl} is not finite and positive"),
    );
    for (i, ep) in episodes.iter().enumerate() {
        check(
            ep.digest == first.digest,
            format!(
                "episode {i} pi digest {:016x} != {:016x}",
                ep.digest, first.digest
            ),
        );
        check(
            ep.saved_digest == ep.digest,
            format!("episode {i} saved checkpoint does not load back bitwise"),
        );
        check(
            ep.perplexities == first.perplexities,
            format!("episode {i} perplexity trajectory differs from episode 0"),
        );
    }

    // ---- end-to-end metrics (untraced episodes only) -----------------
    let plain: Vec<&Episode> = episodes.iter().filter(|e| !e.traced).collect();
    let steps: Vec<f64> = plain
        .iter()
        .flat_map(|e| e.step_ms.iter().copied())
        .collect();
    let iters: f64 = plain.iter().map(|e| e.step_ms.len() as f64).sum();
    let wall_s: f64 = plain.iter().map(|e| e.wall_ms).sum::<f64>() / 1e3;
    let ops = if path == TrainPath::Simulate {
        plain
            .iter()
            .flat_map(|e| e.virtual_step_ms.iter().copied())
            .collect()
    } else {
        steps.clone()
    };
    let tail = stats::tail(&ops).ok_or("too few steps for the tail rule")?;
    let episode_ips: Vec<f64> = plain
        .iter()
        .map(|e| 1e3 * e.step_ms.len() as f64 / e.wall_ms)
        .collect();
    out.e2e = EndToEnd {
        setup_s: stats::median(&setup_s),
        rss_peak_mb: peak_rss_mb(),
        // Simulate reports modeled cluster iterations per modeled second;
        // the training paths report wall-clock iterations per second,
        // the median over episodes.
        throughput_per_s: if path == TrainPath::Simulate {
            1e3 * ops.len() as f64 / ops.iter().sum::<f64>()
        } else {
            stats::median(&episode_ips)
        },
        latency_p50_ms: stats::median(&ops),
    };
    let evals: u64 = episodes.iter().map(|e| e.eval_ms.len() as u64).sum();
    let all_iters: u64 = episodes.iter().map(|e| e.step_ms.len() as u64).sum();
    out.attempted = all_iters + evals + episodes.len() as u64;
    out.failed = 0;

    let what = if path == TrainPath::Simulate {
        "modeled ms per iteration"
    } else {
        "wall ms per step"
    };
    println!(
        "error_share {:.6} (0 failed of {} attempted steps, evaluations and saves)",
        stats::error_share(out.attempted, out.failed),
        out.attempted
    );
    println!(
        "episodes: {} ({} untraced), {} iterations each, eval every {}",
        episodes.len(),
        plain.len(),
        p.iters,
        p.eval_every
    );
    println!(
        "iters_per_s {:.4} 1/s wall (median over episodes of iterations per episode wall time incl. evals and save; {:.4} pooled)",
        stats::median(&episode_ips),
        iters / wall_s
    );
    println!(
        "step_ms_p50 {:.4} ms, step_ms_tail p{:.2} {:.4} ms ({what}; {} samples, {} beyond)",
        out.e2e.latency_p50_ms, tail.percentile, tail.value, tail.count, tail.beyond
    );
    if path == TrainPath::Simulate {
        let wall_tail = stats::tail(&steps).ok_or("too few steps")?;
        println!(
            "virtual_ms_per_iter (modeled) {:.4} ms mean, {:.4} modeled iters/s; wall step p50 {:.4} ms, tail p{:.2} {:.4} ms",
            ops.iter().sum::<f64>() / ops.len() as f64,
            out.e2e.throughput_per_s,
            stats::median(&steps),
            wall_tail.percentile,
            wall_tail.value
        );
    }
    println!(
        "heldout_perplexity {final_ppl:.6} after {} iterations",
        p.iters
    );
    println!(
        "pi_digest {:016x} (iteration {}, identical across {} episodes)",
        first.digest,
        p.iters,
        episodes.len()
    );
    if path == TrainPath::Resident {
        let series: Vec<String> = first
            .perplexities
            .iter()
            .map(|(i, x)| format!("[{i},{x:.6}]"))
            .collect();
        println!(
            "chain_health_series {{\"heldout_perplexity\":[{}]}}",
            series.join(",")
        );
    }

    if args.trace {
        layers.set_per(
            "latency_tail_ms",
            tail.value,
            format!(
                "p{:.2} of {} samples, {} beyond; demoted from end-to-end",
                tail.percentile, tail.count, tail.beyond
            ),
        );
        layers.set_per(
            "chain.heldout_perplexity",
            final_ppl,
            format!(
                "after {} iterations; demoted from end-to-end, varies across seeds",
                p.iters
            ),
        );
        traced_layers(
            path,
            &p,
            &inputs,
            &episodes,
            args.seed,
            &mut layers,
            &mut out,
        )?;
        out.layers = Some(layers);
    }
    Ok(out)
}

/// Fill the per-layer metrics from the traced episodes and print the
/// attribution tables.
fn traced_layers(
    path: TrainPath,
    p: &Plan,
    inputs: &Inputs,
    episodes: &[Episode],
    seed: u64,
    layers: &mut Layers,
    out: &mut Outcome,
) -> Result<(), String> {
    let traced: Vec<&Episode> = episodes.iter().filter(|e| e.traced).collect();
    let plain: Vec<&Episode> = episodes.iter().filter(|e| !e.traced).collect();
    let steps: f64 = traced.iter().map(|e| e.step_ms.len() as f64).sum();
    let per_step = format!("per step, {steps} steps");
    let obs = ObsRead::sum(traced.iter().map(|e| &e.obs));
    let phase_ms = |ph: Phase| obs.hist_ms(mmsb_netsim::obs_bridge::phase_hist_id(ph));
    let step_total: f64 = traced.iter().flat_map(|e| e.step_ms.iter()).sum();
    let evals: f64 = traced.iter().map(|e| e.eval_ms.len() as f64).sum();
    let eval_total: f64 = traced.iter().flat_map(|e| e.eval_ms.iter()).sum();
    let save_total: f64 = traced.iter().map(|e| e.save_ms).sum();
    let wall_total: f64 = traced.iter().map(|e| e.wall_ms).sum();

    // Overhead: untraced vs traced throughput over adjacent pairs.
    let pairs: Vec<f64> = plain
        .iter()
        .zip(&traced)
        .map(|(u, t)| {
            let ips_u = u.step_ms.len() as f64 / u.wall_ms;
            let ips_t = t.step_ms.len() as f64 / t.wall_ms;
            1.0 - ips_t / ips_u
        })
        .collect();
    layers.set_overhead(&pairs, "iterations per episode wall second");
    layers.set("obs.spans_dropped", obs.spans_dropped as f64);

    // Graph / setup layers.
    layers.set("graph.generate_ms", inputs.generate_ms);
    layers.set("graph.heldout_split_ms", inputs.split_ms);
    let builds: Vec<f64> = episodes.iter().map(|e| e.build_ms).collect();
    layers.set_per(
        "core.sampler_build_ms",
        stats::median(&builds),
        format!("median of {} builds", builds.len()),
    );
    layers.set_per(
        "core.perplexity_eval_ms",
        eval_total / evals,
        format!("per eval, {evals} evals"),
    );
    layers.set_per(
        "core.checkpoint_save_ms",
        save_total / traced.len() as f64,
        format!("per save, {} saves", traced.len()),
    );
    let (pairs_mb, vertices_mb) = replay_minibatch(p, inputs, seed)?;
    layers.set_per(
        "graph.minibatch_pairs",
        pairs_mb,
        "per step, mean of 8 replayed draws".into(),
    );
    layers.set_per(
        "graph.minibatch_vertices",
        vertices_mb,
        "per step, mean of 8 replayed draws".into(),
    );
    let neighbor_sample = sampler_config(p, seed).neighbor_sample as f64;
    layers.set("graph.neighbor_probes", vertices_mb * neighbor_sample);
    layers.set(
        "simd.phi_flops_per_step",
        vertices_mb * neighbor_sample * p.k as f64 * PHI_FLOPS_PER_ELEMENT,
    );
    layers.set_per(
        "simd.phi_gradient_ns",
        replay_phi_gradient(p.k, neighbor_sample as usize),
        format!("per vertex call, K={}, {} neighbors", p.k, neighbor_sample),
    );

    // In-step phases recorded by the engine (leader-thread wall time).
    let draw = phase_ms(Phase::DrawMinibatch);
    let phi = phase_ms(Phase::UpdatePhi);
    let pi = phase_ms(Phase::UpdatePi);
    let bt = phase_ms(Phase::UpdateBetaTheta);
    let obs_step = obs.hist_ms(id::H_STEP_NS);
    let threads = p.threads;
    let block_read = Attribution::per_thread(obs.hist_ms(id::H_GRAPH_READ_NS), threads);

    let hits = obs.counter(id::C_GRAPH_CACHE_HITS);
    let misses = obs.counter(id::C_GRAPH_CACHE_MISSES);
    if path == TrainPath::OutOfCore {
        layers.set("ooc.build_s", inputs.build_s);
        layers.set("ooc.verify_s", inputs.verify_s);
        layers.set("ooc.bytes_per_edge", inputs.bytes_per_edge);
        layers.set_per("ooc.cache_hits", hits / steps, per_step.clone());
        layers.set_per("ooc.cache_misses", misses / steps, per_step.clone());
        layers.set_per(
            "ooc.cache_evictions",
            obs.counter(id::C_GRAPH_CACHE_EVICTIONS) / steps,
            per_step.clone(),
        );
        layers.set("ooc.hit_ratio", hits / (hits + misses).max(1.0));
        layers.set_per(
            "ooc.block_read_ms",
            block_read / steps,
            format!(
                "per step, fetch + CRC of missed blocks from the page cache (decode not timed; includes draw_minibatch's reads), busy time / {threads} threads"
            ),
        );
        layers.set(
            "ooc.block_bytes_read",
            misses / steps * f64::from(OOC_BLOCK_SIZE),
        );
    }

    let pool_busy = obs.hist_ms(id::H_POOL_BUSY_NS);
    let pool_idle = obs.hist_ms(id::H_POOL_IDLE_NS);
    if path != TrainPath::Simulate {
        let per_thread = format!("per step, busy time / {threads} threads");
        layers.set_per(
            "pool.busy_ms",
            Attribution::per_thread(pool_busy, threads) / steps,
            per_thread.clone(),
        );
        layers.set_per(
            "pool.idle_ms",
            Attribution::per_thread(pool_idle, threads) / steps,
            per_thread,
        );
        layers.set(
            "pool.idle_share",
            pool_idle / (pool_busy + pool_idle).max(f64::MIN_POSITIVE),
        );
        layers.set_per(
            "pool.chunks",
            obs.counter(id::C_POOL_CHUNKS) / steps,
            per_step.clone(),
        );
    }

    // Coverage of the episode by the benchmark's own back-to-back timers:
    // the remainder is only loop overhead, so this table is no check.
    let top = Attribution::new(
        wall_total,
        vec![
            Row::new("step (sampler.step)", step_total),
            Row::new("perplexity eval", eval_total),
            Row::new("checkpoint save", save_total),
        ],
    );
    print_attribution(
        "episode wall time over traced episodes (the benchmark's timers)",
        "ms",
        &top,
        "informational (not checked)",
        true,
    );

    let ok = if path == TrainPath::Simulate {
        simulate_layers(&traced, &obs, steps, layers);
        simulate_attribution(&traced, &obs, steps, layers)
    } else {
        // In-step: the engine's phase histograms (leader wall time)
        // against the engine's own step timer, plus the benchmark's call
        // overhead around it. Two independent sets of timers, checked
        // in both directions.
        let inner = Attribution::new(
            step_total,
            vec![
                Row::new("draw_minibatch", draw),
                Row::new("update_phi", phi),
                Row::new("update_pi", pi),
                Row::new("update_beta_theta", bt),
                Row::new(
                    "call overhead (bench timer - step_ns)",
                    step_total - obs_step,
                ),
            ],
        );
        let inner_ok = inner.adds_up(ATTRIBUTION_TOLERANCE);
        print_attribution("sampler step wall time", "ms", &inner, ADDS_UP, inner_ok);
        if path == TrainPath::OutOfCore {
            println!(
                "  block fetch + CRC of missed blocks: {block_read:.4} ms, {:.2}% of the step (busy time / {threads} threads; inside update_phi and the leader's draw_minibatch; decode is not timed)",
                100.0 * block_read / step_total
            );
        }
        layers.set_per("core.draw_minibatch_ms", draw / steps, per_step.clone());
        layers.set_per("core.update_phi_ms", phi / steps, per_step.clone());
        layers.set_per("core.update_pi_ms", pi / steps, per_step.clone());
        layers.set_per("core.update_beta_theta_ms", bt / steps, per_step.clone());
        layers.set_per(
            "core.step_unattributed_ms",
            inner.unattributed / steps,
            per_step,
        );
        layers.set("attribution.unattributed_share", inner.unattributed_share());
        inner_ok
    };
    if !ok {
        out.failures.push(format!(
            "layer self times do not add up within {ATTRIBUTION_TOLERANCE}"
        ));
    }

    // Recovery of the planted communities through the public eval API,
    // on the smaller simulate graph: at N = 50k one evaluation takes
    // about 20 s on a 2-core host, longer than a whole run.
    if let (TrainPath::Simulate, Some(truth), Some(chain)) =
        (path, &inputs.truth, episodes[0].chain.as_ref())
    {
        let t = Instant::now();
        let detected = chain.communities(2.0 / p.k as f32);
        let f1 = eval::best_match_f1(&detected, truth);
        let nmi = eval::overlapping_nmi(&detected, truth, p.n);
        layers.set_per(
            "core.recovery_eval_s",
            t.elapsed().as_secs_f64(),
            format!("best_match_f1 {f1:.4}, overlapping_nmi {nmi:.4}"),
        );
    }
    Ok(())
}

fn simulate_layers(traced: &[&Episode], obs: &ObsRead, steps: f64, layers: &mut Layers) {
    let per_step = format!("per step, {steps} steps");
    layers.set_per(
        "dkv.read_keys",
        obs.counter(id::C_DKV_READ_KEYS) / steps,
        per_step.clone(),
    );
    layers.set_per(
        "dkv.read_batches",
        obs.counter(id::C_DKV_READ_BATCHES) / steps,
        per_step.clone(),
    );
    layers.set_per(
        "dkv.read_ms",
        obs.hist_ms(id::H_DKV_READ_NS) / steps,
        per_step.clone(),
    );
    layers.set_per(
        "dkv.write_keys",
        obs.counter(id::C_DKV_WRITE_KEYS) / steps,
        per_step.clone(),
    );
    layers.set_per(
        "dkv.write_ms",
        obs.hist_ms(id::H_DKV_WRITE_NS) / steps,
        per_step.clone(),
    );
    layers.set(
        "dkv.retries",
        obs.counter(id::C_DKV_READ_RETRIES) + obs.counter(id::C_DKV_WRITE_RETRIES),
    );
    layers.set_per(
        "comm.collectives",
        obs.counter(id::C_COMM_COLLECTIVES) / steps,
        per_step.clone(),
    );
    layers.set_per(
        "comm.collective_ms",
        obs.hist_ms(id::H_COMM_COLLECTIVE_NS) / steps,
        "per step, modeled".into(),
    );
    // Modeled per-iteration phase times from the sampler's own report.
    let reports: Vec<&mmsb_netsim::TraceReport> =
        traced.iter().filter_map(|e| e.report.as_ref()).collect();
    let mean = |ph: Phase| {
        reports.iter().map(|r| r.ms_per_iter(ph)).sum::<f64>() / reports.len().max(1) as f64
    };
    layers.set_per(
        "dkv.prefetch_ms",
        mean(Phase::Prefetch),
        "per iteration, measured overlap".into(),
    );
    layers.set_per(
        "netsim.load_pi_ms",
        mean(Phase::LoadPi),
        "per iteration, modeled".into(),
    );
    layers.set_per(
        "netsim.deploy_minibatch_ms",
        mean(Phase::DeployMinibatch),
        "per iteration, modeled".into(),
    );
    layers.set_per(
        "netsim.barrier_ms",
        mean(Phase::Barrier),
        "per iteration, modeled".into(),
    );
    layers.set_per(
        "netsim.update_phi_ms",
        mean(Phase::UpdatePhi),
        "per iteration, modeled".into(),
    );
    layers.set_per(
        "core.draw_minibatch_ms",
        mean(Phase::DrawMinibatch),
        "per iteration, modeled".into(),
    );
    layers.set_per(
        "core.update_phi_ms",
        mean(Phase::UpdatePhi),
        "per iteration, modeled".into(),
    );
    layers.set_per(
        "core.update_pi_ms",
        mean(Phase::UpdatePi),
        "per iteration, modeled".into(),
    );
    layers.set_per(
        "core.update_beta_theta_ms",
        mean(Phase::UpdateBetaTheta),
        "per iteration, modeled".into(),
    );
    if let Some(r) = reports.first() {
        println!("modeled phases (netsim report of one traced episode):\n{r}");
    }
}

/// The simulate path's two attributions. Modeled: the virtual clocks'
/// time per iteration against the netsim phases the sampler records,
/// which must over-count it by exactly what the double-buffered pipeline
/// can hide. Wall: the engine's step timer against the layers that
/// record wall time; worker compute and cluster modeling record modeled
/// time only, so only over-attribution is checked. Returns whether both
/// checks pass.
fn simulate_attribution(
    traced: &[&Episode],
    obs: &ObsRead,
    steps: f64,
    layers: &mut Layers,
) -> bool {
    let reports: Vec<&mmsb_netsim::TraceReport> =
        traced.iter().filter_map(|e| e.report.as_ref()).collect();
    let per_report = reports.len().max(1) as f64;
    let ms = |ph: Phase| reports.iter().map(|r| r.ms_per_iter(ph)).sum::<f64>() / per_report;
    let total = reports.iter().map(|r| r.total_ms_per_iter()).sum::<f64>() / per_report;
    let master = ms(Phase::DrawMinibatch) + ms(Phase::DeployMinibatch);
    let (neighbors, load, compute) = (
        ms(Phase::SampleNeighbors),
        ms(Phase::LoadPi),
        ms(Phase::UpdatePhi),
    );
    let modeled = Attribution::new(
        total,
        vec![
            Row::new("draw_minibatch (master)", ms(Phase::DrawMinibatch)),
            Row::new("deploy_minibatch (master)", ms(Phase::DeployMinibatch)),
            Row::new("sample_neighbors", neighbors),
            Row::new("load_pi", load),
            Row::new("update_phi", compute),
            Row::new("barrier", ms(Phase::Barrier)),
            Row::new("update_pi", ms(Phase::UpdatePi)),
            Row::new("update_beta_theta", ms(Phase::UpdateBetaTheta)),
            Row::new("perplexity", ms(Phase::Perplexity)),
            Row::new("recovery", ms(Phase::Recovery)),
        ],
    );
    let bounds = stats::pipelined_hidden_bounds(master, neighbors, load, compute);
    let modeled_ok = modeled.hides_between(bounds, ATTRIBUTION_TOLERANCE);
    print_attribution(
        "modeled ms per iteration (virtual clocks, evaluations included); the negative remainder is what the double-buffered pipeline hides",
        "ms",
        &modeled,
        &format!(
            "hidden {:.4} ms within [{:.4}, {:.4}] ms, +/- 5% of the total",
            -modeled.unattributed, bounds.0, bounds.1
        ),
        modeled_ok,
    );

    let wall = Attribution::new(
        obs.hist_ms(id::H_STEP_NS),
        vec![
            Row::new(
                "draw_minibatch",
                obs.hist_ms(mmsb_netsim::obs_bridge::phase_hist_id(Phase::DrawMinibatch)),
            ),
            Row::new("dkv read", obs.hist_ms(id::H_DKV_READ_NS)),
            Row::new("dkv write", obs.hist_ms(id::H_DKV_WRITE_NS)),
        ],
    );
    let wall_ok = wall.within_total(ATTRIBUTION_TOLERANCE);
    print_attribution(
        "lockstep step wall time (engine step timer); the remainder is worker compute and cluster modeling, which record modeled time only",
        "ms",
        &wall,
        "rows stay within the total (one-sided), 5% tolerance",
        wall_ok,
    );
    layers.set_per(
        "core.step_unattributed_ms",
        wall.unattributed / steps,
        format!("per step, {steps} steps, wall"),
    );
    layers.set("attribution.unattributed_share", wall.unattributed_share());
    modeled_ok && wall_ok
}

/// Mean mini-batch pairs and distinct vertices over replayed draws of
/// the workload's strategy, through the graph crate's public sampler.
fn replay_minibatch(p: &Plan, inputs: &Inputs, seed: u64) -> Result<(f64, f64), String> {
    const DRAWS: usize = 8;
    let sampler = MinibatchSampler::new(p.minibatch);
    let mut rng = Xoshiro256PlusPlus::seed_from_u64(seed ^ 0xD1A3);
    let (mut pairs, mut vertices) = (0usize, 0usize);
    let mut draw =
        |g: &mut dyn FnMut(&mut Xoshiro256PlusPlus) -> mmsb_graph::minibatch::MiniBatch| {
            for _ in 0..DRAWS {
                let mb = g(&mut rng);
                pairs += mb.len();
                vertices += mb.vertices().len();
            }
        };
    if let Some(graph) = &inputs.graph {
        draw(&mut |rng| sampler.sample(graph, Some(&inputs.heldout), rng));
    } else {
        let file = inputs.ooc_path.as_ref().ok_or("no graph to replay")?;
        let graph = OocGraph::open(file).map_err(|e| format!("open: {e}"))?;
        let mut cache = BlockCache::for_graph(&graph, OOC_CACHE_BLOCKS, seed);
        draw(&mut |rng| {
            sampler.sample(
                OocReader::new(&graph, &mut cache),
                Some(&inputs.heldout),
                rng,
            )
        });
    }
    Ok((pairs as f64 / DRAWS as f64, vertices as f64 / DRAWS as f64))
}

/// Nanoseconds per `mmsb_simd::phi_gradient` call at the workload's K
/// and neighbor count, on the detected backend.
fn replay_phi_gradient(k: usize, neighbors: usize) -> f64 {
    let backend = mmsb_simd::Backend::detect();
    let mut rng = Xoshiro256PlusPlus::seed_from_u64(0xF1);
    use mmsb_rand::Rng as _;
    let phi_a: Vec<f64> = (0..k).map(|_| 0.1 + rng.next_f64()).collect();
    let beta: Vec<f64> = (0..k).map(|_| 0.05 + 0.9 * rng.next_f64()).collect();
    let rows: Vec<f32> = (0..k * neighbors)
        .map(|_| rng.next_f64() as f32 / k as f32)
        .collect();
    let linked: Vec<bool> = (0..neighbors).map(|i| i % 4 == 0).collect();
    let mut scratch = mmsb_simd::PhiScratch::new(k);
    let mut grad = vec![0.0f64; k];
    let calls = 20_000usize;
    let mut best = f64::INFINITY;
    for _ in 0..5 {
        let t = Instant::now();
        for _ in 0..calls {
            mmsb_simd::phi_gradient(
                backend,
                std::hint::black_box(&phi_a),
                &beta,
                &rows,
                k,
                &linked,
                1e-5,
                &mut scratch,
                &mut grad,
            );
            std::hint::black_box(&grad);
        }
        best = best.min(t.elapsed().as_secs_f64() * 1e9 / calls as f64);
    }
    best
}
