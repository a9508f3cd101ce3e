//! A *really concurrent* distributed driver: OS-thread workers, message
//! passing, shared one-sided state.
//!
//! The lockstep [`crate::DistributedSampler`] executes ranks serially so
//! per-rank compute can be measured cleanly; this driver runs the same
//! master–worker protocol with genuine concurrency, exactly the way the
//! paper's MPI processes do:
//!
//! * the master draws mini-batches and **scatters** each worker's vertex
//!   share *with the adjacency rows* (workers never hold the full edge
//!   set, paper §III-A) plus the current `beta`/`theta`, all through
//!   `mmsb-comm` messages,
//! * workers perform `update_phi` against the shared [`ShardedStore`]
//!   (shared memory standing in for RDMA: one-sided access, no remote
//!   CPU),
//! * stages are separated by real barriers; the `theta` gradient is
//!   combined with a real reduce; held-out probabilities are gathered.
//!
//! The chain it produces is **bit-identical** to the lockstep driver —
//! both run the worker stages of [`super::worker`] on the same
//! `(seed, iteration, vertex)` randomness — which the integration tests
//! assert. Use this driver for functional/concurrency validation; use the
//! lockstep driver when you need cluster timing.

use super::worker::{
    encode_pi_rows, heldout_probs, sample_neighbor_sets, split_contiguous, theta_gradient_share,
    update_phi_share, WorkerParams, WorkerScratch,
};
use super::Engine;
use crate::config::{SamplerConfig, StateLayout};
use crate::{CoreError, ModelState};
use mmsb_comm::message::{MessageReader, MessageWriter};
use mmsb_comm::{collectives, Endpoint, LocalCluster};
use mmsb_dkv::pipeline::{ChunkedReader, PipelineMode, PrefetchingReader};
use mmsb_dkv::{DkvStore, ShardedStore};
use mmsb_graph::access::link_flags;
use mmsb_graph::heldout::HeldOut;
use mmsb_graph::neighbor::NeighborSampler;
use mmsb_graph::{Edge, Graph, VertexId};
use mmsb_netsim::NetworkModel;
use std::sync::{Arc, RwLock};

/// Mini-batch vertices per load/compute chunk in the worker threads —
/// the granularity at which the prefetching reader overlaps store reads
/// with `update_phi` compute.
const CHUNK_VERTICES: usize = 16;

/// Result of a threaded training run.
#[derive(Debug)]
pub struct ThreadedOutcome {
    /// Final model state (pi synchronized back from the store; theta and
    /// beta from the master).
    pub state: ModelState,
    /// `(iteration, averaged perplexity)` at each evaluation point.
    pub perplexity_trace: Vec<(u64, f64)>,
    /// The final chain state as a restorable, servable
    /// [`crate::Checkpoint`] (the PR 4 format v1 artifact), captured after
    /// the pi sync-back.
    pub checkpoint: crate::Checkpoint,
}

/// One-shot threaded training run.
///
/// Spawns `workers` OS threads plus uses the calling thread as the
/// master; runs `iterations` iterations, evaluating held-out perplexity
/// every `perplexity_every` iterations (0 = never). `pipeline` selects
/// how each worker loads `pi`: [`PipelineMode::Single`] reads
/// synchronously; [`PipelineMode::Double`] overlaps the next chunk's
/// store read with the current chunk's compute on a per-worker
/// background thread — same chunks, same delivery order, bitwise-equal
/// chain.
pub fn train_threaded(
    graph: Graph,
    heldout: HeldOut,
    config: SamplerConfig,
    workers: usize,
    iterations: u64,
    perplexity_every: u64,
    pipeline: PipelineMode,
) -> Result<ThreadedOutcome, CoreError> {
    if workers == 0 {
        return Err(CoreError::InvalidConfig {
            reason: "threaded sampler needs at least one worker".into(),
        });
    }
    if config.layout != StateLayout::PiSumPhi {
        return Err(CoreError::InvalidConfig {
            reason: "threaded sampler requires the PiSumPhi layout".into(),
        });
    }
    let mut engine = Engine::with_backend(graph.into(), heldout, config)?;
    let n = engine.graph.num_vertices();
    let k = engine.config.k;
    let store = Arc::new(RwLock::new(engine.state.dkv_store(workers)?));

    let mut endpoints = LocalCluster::spawn(workers + 1);
    let master_ep = endpoints.remove(0);
    let heldout_shared = Arc::new(engine.heldout.clone());

    // ---------------- worker threads ----------------
    let mut handles = Vec::with_capacity(workers);
    for ep in endpoints {
        let store = Arc::clone(&store);
        let heldout = Arc::clone(&heldout_shared);
        let cfg = engine.config.clone();
        handles.push(std::thread::spawn(move || {
            worker_loop(ep, store, heldout, cfg, n, workers, iterations, pipeline)
        }));
    }

    // ---------------- master loop ----------------
    let mut trace = Vec::new();
    for t in 0..iterations {
        engine.refresh_minibatch();
        let do_perplexity = perplexity_every > 0 && (t + 1) % perplexity_every == 0;

        // Scatter shares: vertex ids + adjacency rows + pair share +
        // weights + the current global parameters.
        let v_shares = split_contiguous(&engine.mb_vertices, workers);
        let p_shares = split_contiguous(&engine.mb.pairs, workers);
        let w_shares = split_contiguous(&engine.mb.weights, workers);
        for w in 0..workers {
            let mut msg = MessageWriter::new();
            msg.put_f64_slice(engine.state.beta());
            msg.put_f64_slice(engine.state.theta());
            let ids: Vec<u32> = v_shares[w].iter().map(|v| v.0).collect();
            msg.put_u32_slice(&ids);
            for &v in v_shares[w] {
                let reader = engine.graph.reader(engine.master_cache.as_mut());
                msg.put_u32_slice(reader.into_neighbors(v));
            }
            let pair_words: Vec<u32> = p_shares[w]
                .iter()
                .flat_map(|&(e, y)| [e.lo().0, e.hi().0, u32::from(y)])
                .collect();
            msg.put_u32_slice(&pair_words);
            msg.put_f64_slice(w_shares[w]);
            msg.put_u32(u32::from(do_perplexity));
            master_ep
                .send(w + 1, msg.finish())
                .map_err(comm_error)?;
        }

        // Same barrier schedule as the workers.
        master_ep.barrier(); // after update_phi
        master_ep.barrier(); // after pi write-back

        // Reduce theta gradients (master contributes zeros).
        let zeros = vec![0.0f64; 2 * k];
        let grad = collectives::reduce_sum_f64(&master_ep, 0, &zeros)
            .map_err(comm_error)?
            .expect("master is the reduce root");
        engine.apply_theta_update(&grad);

        if do_perplexity {
            let gathered = collectives::gather_bytes(&master_ep, 0, Vec::new())
                .map_err(comm_error)?
                .expect("master is the gather root");
            let mut probs = Vec::with_capacity(engine.heldout.len());
            for payload in gathered.into_iter().skip(1) {
                let mut r = MessageReader::new(&payload);
                probs.extend(r.get_f64_slice().map_err(comm_error)?);
                r.finish().map_err(comm_error)?;
            }
            let perplexity = engine.record_perplexity_sample(&probs);
            trace.push((t + 1, perplexity));
        }
        engine.bump_iteration();
    }

    for h in handles {
        h.join().expect("worker thread panicked")?;
    }

    // Sync pi back from the store into the master's state.
    engine
        .state
        .read_dkv_rows(&*store.read().expect("store lock poisoned"))?;
    let checkpoint = crate::Checkpoint::capture(&engine);
    Ok(ThreadedOutcome {
        state: engine.state,
        perplexity_trace: trace,
        checkpoint,
    })
}

fn comm_error(e: mmsb_comm::CommError) -> CoreError {
    CoreError::InvalidConfig {
        reason: format!("communicator failure: {e}"),
    }
}

#[allow(clippy::too_many_arguments)]
fn worker_loop(
    ep: Endpoint,
    store: Arc<RwLock<ShardedStore>>,
    heldout: Arc<HeldOut>,
    config: SamplerConfig,
    n: u32,
    workers: usize,
    iterations: u64,
    pipeline: PipelineMode,
) -> Result<(), CoreError> {
    let k = config.k;
    let w = ep.rank() - 1; // worker index (0-based)
    let neighbor_sampler = NeighborSampler::new(n, config.neighbor_sample);

    // Chunked-load machinery, persistent across iterations: the worker
    // scratch (reader buffers, key staging, kernel scratch) and — in
    // Double mode — the prefetching reader whose background thread lives
    // as long as this worker. The cost model fed to the readers only
    // prices the modeled makespan, which this driver ignores (it
    // measures real wall-clock); any model works.
    let net = NetworkModel::fdr_infiniband();
    let backend = config.backend();
    let mut scratch = WorkerScratch::new(k, config.neighbor_sample);
    let sync = ChunkedReader::new(CHUNK_VERTICES, PipelineMode::Single);
    let mut prefetch = match pipeline {
        PipelineMode::Single => None,
        PipelineMode::Double => Some(PrefetchingReader::new(CHUNK_VERTICES)),
    };

    for t in 0..iterations {
        // ---- receive this iteration's share ----
        let payload = ep.recv(0).map_err(comm_error)?;
        let mut r = MessageReader::new(&payload);
        let beta = r.get_f64_slice().map_err(comm_error)?;
        let theta = r.get_f64_slice().map_err(comm_error)?;
        let share: Vec<VertexId> = r
            .get_u32_slice()
            .map_err(comm_error)?
            .into_iter()
            .map(VertexId)
            .collect();
        let adjacency: Vec<Vec<u32>> = (0..share.len())
            .map(|_| r.get_u32_slice())
            .collect::<Result<_, _>>()
            .map_err(comm_error)?;
        let pairs: Vec<(Edge, bool)> = r
            .get_u32_slice()
            .map_err(comm_error)?
            .chunks_exact(3)
            .map(|c| (Edge::new(VertexId(c[0]), VertexId(c[1])), c[2] != 0))
            .collect();
        let weights = r.get_f64_slice().map_err(comm_error)?;
        let do_perplexity = r.get_u32().map_err(comm_error)? != 0;
        r.finish().map_err(comm_error)?;

        let p = WorkerParams {
            config: &config,
            n,
            iteration: t,
            backend,
            beta: &beta,
            theta: &theta,
        };

        // ---- update_phi: one-sided chunked reads, local compute ----
        let mut tasks =
            sample_neighbor_sets(&p, &neighbor_sampler, &heldout, share.iter().copied());
        let mut phi = vec![0.0f64; share.len() * k];
        update_phi_share(
            &p,
            &mut tasks,
            &store.read().expect("store lock poisoned"),
            w,
            &net,
            sync,
            prefetch.as_mut(),
            &mut scratch,
            |i, _, others, linked| link_flags(&adjacency[i], others, linked),
            &mut phi,
        )?;
        ep.barrier(); // memory-consistency barrier before update_pi

        // ---- update_pi: write fresh rows through the store ----
        let (keys, vals) = encode_pi_rows(&share, &phi, k, &mut scratch);
        store
            .write()
            .expect("store lock poisoned")
            .write_batch(keys, vals)?;
        ep.barrier(); // fresh pi everywhere before update_beta

        // ---- update_beta_theta: local gradient, global reduce ----
        let mut grad = vec![0.0f64; 2 * k];
        {
            let store = store.read().expect("store lock poisoned");
            theta_gradient_share(
                &p,
                &pairs,
                &weights,
                |v| &store.row(v)[..k],
                &mut scratch.ws.theta_scratch,
                &mut grad,
            );
        }
        collectives::reduce_sum_f64(&ep, 0, &grad).map_err(comm_error)?;

        // ---- perplexity (gathered at the master) ----
        if do_perplexity {
            let share = heldout.partition(w, workers);
            let mut probs = vec![0.0f64; share.len()];
            {
                let store = store.read().expect("store lock poisoned");
                heldout_probs(
                    &beta,
                    config.delta,
                    share,
                    |v| &store.row(v)[..k],
                    &mut probs,
                );
            }
            let mut msg = MessageWriter::with_capacity(8 + probs.len() * 8);
            msg.put_f64_slice(&probs);
            collectives::gather_bytes(&ep, 0, msg.finish()).map_err(comm_error)?;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DistributedConfig, DistributedSampler};
    use mmsb_graph::generate::planted::{generate_planted, PlantedConfig};
    use mmsb_rand::Xoshiro256PlusPlus;

    fn setup(seed: u64) -> (Graph, HeldOut) {
        let mut rng = Xoshiro256PlusPlus::seed_from_u64(seed);
        let generated = generate_planted(
            &PlantedConfig {
                num_vertices: 150,
                num_communities: 3,
                mean_community_size: 55.0,
                memberships_per_vertex: 1.1,
                internal_degree: 8.0,
                background_degree: 0.5,
            },
            &mut rng,
        );
        HeldOut::split(&generated.graph, 50, &mut rng)
    }

    fn config() -> SamplerConfig {
        SamplerConfig::new(3)
            .with_seed(21)
            .with_minibatch(mmsb_graph::minibatch::Strategy::StratifiedNode {
                partitions: 8,
                anchors: 4,
            })
    }

    #[test]
    fn matches_lockstep_driver_bitwise() {
        let (g, h) = setup(1);
        let mut lockstep =
            DistributedSampler::new(g.clone(), h.clone(), config(), DistributedConfig::das5(3))
                .unwrap();
        lockstep.run(8);
        let threaded = train_threaded(g, h, config(), 3, 8, 0, PipelineMode::Double).unwrap();
        for a in 0..threaded.state.n() {
            assert_eq!(
                lockstep.state().pi_row(a),
                threaded.state.pi_row(a),
                "pi diverged at vertex {a}"
            );
        }
        assert_eq!(
            lockstep.state().theta(),
            threaded.state.theta(),
            "theta diverged"
        );
    }

    #[test]
    fn worker_count_does_not_change_threaded_numerics() {
        let (g, h) = setup(2);
        let a = train_threaded(g.clone(), h.clone(), config(), 2, 6, 0, PipelineMode::Single).unwrap();
        let b = train_threaded(g, h, config(), 5, 6, 0, PipelineMode::Double).unwrap();
        for v in 0..a.state.n() {
            assert_eq!(a.state.pi_row(v), b.state.pi_row(v), "vertex {v}");
        }
        // Theta matches up to the association order of the distributed
        // reduction (the per-worker partial sums differ with the count).
        for (x, y) in a.state.theta().iter().zip(b.state.theta()) {
            assert!(
                (x - y).abs() / x.abs().max(1e-12) < 1e-9,
                "theta diverged beyond reduction tolerance: {x} vs {y}"
            );
        }
    }

    #[test]
    fn perplexity_trace_is_recorded_and_finite() {
        let (g, h) = setup(3);
        let out = train_threaded(g, h, config(), 3, 9, 3, PipelineMode::Double).unwrap();
        assert_eq!(out.perplexity_trace.len(), 3);
        assert_eq!(out.perplexity_trace[0].0, 3);
        assert_eq!(out.perplexity_trace[2].0, 9);
        for (_, p) in out.perplexity_trace {
            assert!(p.is_finite() && p > 1.0);
        }
    }

    #[test]
    fn rejects_bad_configs() {
        let (g, h) = setup(4);
        assert!(train_threaded(g.clone(), h.clone(), config(), 0, 1, 0, PipelineMode::Single).is_err());
        let full = config().with_layout(StateLayout::FullPhi);
        assert!(train_threaded(g, h, full, 2, 1, 0, PipelineMode::Single).is_err());
    }
}
