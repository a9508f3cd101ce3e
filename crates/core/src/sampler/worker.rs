//! The worker side of the master–worker protocol (paper §III), written
//! once. [`crate::DistributedSampler`] (lockstep, virtual clocks) and
//! [`crate::train_threaded`] (OS threads over `mmsb-comm`) keep their own
//! master schedule and transport and run these stages, so their chains
//! agree bitwise by construction: neighbor sampling, the chunked
//! `update_phi` over DKV rows, the `update_pi` row encoding, the theta
//! gradient share and the held-out probabilities. What differs between
//! the drivers is passed in: where a task's adjacency row comes from
//! (lockstep reads the graph backend through a block cache, a threaded
//! worker holds the rows the master scattered) and where `pi` rows come
//! from.
//! The single-node drivers reach [`PhiStep`], [`theta_gradient_share`]
//! and [`heldout_probs`] through the engine.

use crate::config::SamplerConfig;
use crate::kernels::RowView;
use crate::perplexity::link_probability;
use crate::rngs;
use crate::state::{normalize_phi_row, PHI_MIN};
use crate::workspace::Workspace;
use mmsb_dkv::pipeline::{ChunkedReader, PrefetchRun, PrefetchingReader, ReaderScratch};
use mmsb_dkv::{DkvError, ShardedStore};
use mmsb_graph::heldout::HeldOut;
use mmsb_graph::neighbor::NeighborSampler;
use mmsb_graph::{Edge, VertexId};
use mmsb_netsim::NetworkModel;
use mmsb_rand::dist::Normal;
use mmsb_rand::Xoshiro256PlusPlus;
use mmsb_simd::{Backend, PhiScratch, ThetaScratch};

/// Per-iteration inputs of the worker stages: the configuration plus the
/// global parameters the master broadcasts.
#[derive(Debug, Clone, Copy)]
pub(crate) struct WorkerParams<'a> {
    pub config: &'a SamplerConfig,
    /// Number of vertices `N` (the phi gradient scale is `N / |V_n|`).
    pub n: u32,
    pub iteration: u64,
    /// The backend `config.simd` resolved to.
    pub backend: Backend,
    pub beta: &'a [f64],
    pub theta: &'a [f64],
}

/// A mini-batch vertex with its sampled neighbor set and the RNG stream
/// the phi noise continues from.
pub(crate) struct VertexTask {
    vertex: VertexId,
    neighbors: Vec<VertexId>,
    rng: Xoshiro256PlusPlus,
}

/// Buffers one worker reuses across iterations.
pub(crate) struct WorkerScratch {
    /// Row ping-pong buffers and per-chunk timings of the DKV readers.
    reader: ReaderScratch,
    /// DKV keys: the chunked `update_phi` loads, then the `update_pi` write.
    keys: Vec<u32>,
    seg_lens: Vec<usize>,
    /// The `update_pi` rows.
    vals: Vec<f32>,
    /// Kernel scratch: `phi_a`, `linked`, the noise and the SIMD planes.
    pub ws: Workspace,
}

impl WorkerScratch {
    pub fn new(k: usize, neighbor_sample: usize) -> Self {
        Self {
            reader: ReaderScratch::new(),
            keys: Vec::new(),
            seg_lens: Vec::new(),
            vals: Vec::new(),
            ws: Workspace::new(k, neighbor_sample),
        }
    }
}

/// Evenly split `items` into `parts` contiguous shares (the first shares
/// get the remainder).
pub(crate) fn split_contiguous<T>(items: &[T], parts: usize) -> Vec<&[T]> {
    let n = items.len();
    let base = n / parts;
    let extra = n % parts;
    let mut out = Vec::with_capacity(parts);
    let mut lo = 0;
    for p in 0..parts {
        let len = base + usize::from(p < extra);
        out.push(&items[lo..lo + len]);
        lo += len;
    }
    out
}

/// Sample the neighbor set of every vertex in `share`. Each vertex owns
/// its RNG stream, so the order of sampling is immaterial.
pub(crate) fn sample_neighbor_sets(
    p: &WorkerParams,
    sampler: &NeighborSampler,
    heldout: &HeldOut,
    share: impl IntoIterator<Item = VertexId>,
) -> Vec<VertexTask> {
    share
        .into_iter()
        .map(|vertex| {
            let mut rng = rngs::vertex_rng(p.config.seed, p.iteration, vertex.0);
            let neighbors = sampler.sample(vertex, Some(heldout), &mut rng);
            VertexTask {
                vertex,
                neighbors,
                rng,
            }
        })
        .collect()
}

/// The SGRLD phi step (Eq. 5/6) with its scratch — the `mmsb-simd`
/// gradient planes and the polar-normal buffers — reused across calls.
pub(crate) struct PhiStep {
    planes: PhiScratch,
    /// Accepted polar pairs `(u, s = u² + v²)` and the finished normals.
    u: Vec<f64>,
    s: Vec<f64>,
    z: Vec<f64>,
}

impl PhiStep {
    pub fn new(k: usize) -> Self {
        Self {
            planes: PhiScratch::new(k),
            u: Vec::with_capacity(k),
            s: Vec::with_capacity(k),
            z: Vec::with_capacity(k),
        }
    }

    /// One step on the `phi` row `phi_a`, written to `out`: the gradient
    /// over the neighbor rows, then `K` normals drawn from `rng` by polar
    /// rejection in coordinate order and finished vectorized, then the
    /// clamped update. Every backend, `Scalar` included, runs the
    /// `mmsb-simd` kernels.
    pub fn run(
        &mut self,
        p: &WorkerParams,
        phi_a: &[f64],
        neighbors: &RowView<'_>,
        linked: &[bool],
        rng: &mut Xoshiro256PlusPlus,
        out: &mut [f64],
    ) {
        let k = phi_a.len();
        let (delta, eps) = (p.config.delta, p.config.step.at(p.iteration));
        let (rows, stride) = (neighbors.flat(), neighbors.stride());
        let planes = &mut self.planes;
        mmsb_simd::phi_gradient(
            p.backend, phi_a, p.beta, rows, stride, linked, delta, planes, out,
        );
        self.u.clear();
        self.s.clear();
        for _ in 0..k {
            let (u, s) = Normal::standard_accept(rng);
            self.u.push(u);
            self.s.push(s);
        }
        self.z.clear();
        self.z.resize(k, 0.0);
        mmsb_simd::polar_normal(p.backend, &self.u, &self.s, &mut self.z);
        let grad_scale = p.n as f64 / linked.len().max(1) as f64;
        let (alpha, half_eps, noise_scale) = (p.config.alpha, 0.5 * eps, eps.sqrt());
        mmsb_simd::sgrld_step(
            p.backend,
            phi_a,
            &self.z,
            alpha,
            half_eps,
            grad_scale,
            noise_scale,
            PHI_MIN,
            out,
        );
    }
}

/// The `update_phi` stage of one worker: load the DKV rows of every
/// task's vertex and neighbors (own row first, stride `K + 1`:
/// `pi ++ sum(phi)`) in chunks of `sync.chunk_size()` vertices, and
/// write each vertex's new `phi` row into `out` (`K` per task, in task
/// order).
///
/// With `prefetch` the next chunk loads while the current one computes;
/// without it `sync` loads and computes back to back. Both deliver the
/// same chunks in the same order, so the results are identical; the
/// returned run carries the modeled makespan (and, prefetched, the
/// measured wall-clock). `probe(task, vertex, neighbors, linked)` fills
/// `linked` with the task's observations from one read of `vertex`'s row
/// (both drivers pass [`mmsb_graph::access::link_flags`] over their row
/// source); it runs inside the timed per-chunk compute.
#[allow(clippy::too_many_arguments)]
pub(crate) fn update_phi_share(
    p: &WorkerParams,
    tasks: &mut [VertexTask],
    store: &ShardedStore,
    rank: usize,
    net: &NetworkModel,
    sync: ChunkedReader,
    prefetch: Option<&mut PrefetchingReader>,
    scratch: &mut WorkerScratch,
    mut probe: impl FnMut(usize, VertexId, &[VertexId], &mut Vec<bool>),
    out: &mut [f64],
) -> Result<PrefetchRun, DkvError> {
    let k = p.config.k;
    let row_len = k + 1;
    assert_eq!(out.len(), tasks.len() * k, "one phi row per task");
    // Chunk boundaries follow vertices, so a chunk's key count varies
    // with the sampled neighbor sets — hence the segment API.
    let WorkerScratch {
        reader,
        keys,
        seg_lens,
        ws,
        ..
    } = scratch;
    keys.clear();
    seg_lens.clear();
    for chunk in tasks.chunks(sync.chunk_size()) {
        let before = keys.len();
        for task in chunk {
            keys.push(task.vertex.0);
            keys.extend(task.neighbors.iter().map(|b| b.0));
        }
        seg_lens.push(keys.len() - before);
    }

    let mut vi = 0usize;
    let on_chunk = |_start: usize, chunk_keys: &[u32], rows: &[f32]| {
        let mut offset = 0usize;
        while offset < chunk_keys.len() {
            let task = &mut tasks[vi];
            let nn = task.neighbors.len();
            let own = &rows[offset * row_len..(offset + 1) * row_len];
            let nrows = RowView::new(
                &rows[(offset + 1) * row_len..(offset + 1 + nn) * row_len],
                row_len,
            );
            probe(vi, task.vertex, &task.neighbors, &mut ws.linked);
            let sum = own[k] as f64;
            for (phi, &pi) in ws.phi_a.iter_mut().zip(&own[..k]) {
                *phi = (pi as f64 * sum).max(PHI_MIN);
            }
            let out = &mut out[vi * k..(vi + 1) * k];
            ws.phi
                .run(p, &ws.phi_a, &nrows, &ws.linked, &mut task.rng, out);
            offset += 1 + nn;
            vi += 1;
        }
    };
    match prefetch {
        Some(prefetch) => {
            assert_eq!(
                prefetch.chunk_size(),
                sync.chunk_size(),
                "reader chunk sizes differ"
            );
            prefetch.run_segments(store, rank, keys, seg_lens, net, reader, on_chunk)
        }
        None => sync
            .run_segments(store, rank, keys, seg_lens, net, reader, on_chunk)
            .map(|modeled| PrefetchRun { modeled, wall: 0.0 }),
    }
}

/// The `update_pi` write of a share: its keys and DKV rows
/// (`pi ++ sum(phi)`) from the new `phi` rows (`K` per vertex, in share
/// order), normalized by the encoding [`crate::ModelState::set_phi_row`]
/// uses, which rejects a zero or non-finite row sum.
pub(crate) fn encode_pi_rows<'s>(
    share: &[VertexId],
    phi: &[f64],
    k: usize,
    scratch: &'s mut WorkerScratch,
) -> (&'s [u32], &'s [f32]) {
    assert_eq!(phi.len(), share.len() * k, "one phi row per vertex");
    let WorkerScratch { keys, vals, .. } = scratch;
    keys.clear();
    keys.extend(share.iter().map(|v| v.0));
    vals.clear();
    vals.resize(share.len() * (k + 1), 0.0);
    for ((v, phi), row) in share
        .iter()
        .zip(phi.chunks_exact(k))
        .zip(vals.chunks_exact_mut(k + 1))
    {
        let (pi, sum) = row.split_at_mut(k);
        sum[0] = normalize_phi_row(v.0, phi, pi) as f32;
    }
    (keys, vals)
}

/// A share's weighted theta gradient (Eq. 4) against the current `pi`,
/// written to `grad` (`2K`). Pairs accumulate serially in share order
/// into one `mmsb-simd` begin/accumulate/finish pass; `pi_row(v)` returns
/// the first `K` entries of vertex `v`'s `pi`.
pub(crate) fn theta_gradient_share<'r>(
    p: &WorkerParams,
    pairs: &[(Edge, bool)],
    weights: &[f64],
    pi_row: impl Fn(u32) -> &'r [f32],
    scratch: &mut ThetaScratch,
    grad: &mut [f64],
) {
    assert_eq!(pairs.len(), weights.len(), "weights must align with pairs");
    mmsb_simd::theta_chunk_begin(p.beta, p.theta, p.config.delta, scratch);
    for (&(e, y), &w) in pairs.iter().zip(weights) {
        mmsb_simd::theta_accumulate_pair(
            p.backend,
            scratch,
            pi_row(e.lo().0),
            pi_row(e.hi().0),
            y,
            w,
        );
    }
    mmsb_simd::theta_chunk_finish(scratch, grad);
}

/// Per-pair probabilities (Eq. 7) of held-out `pairs`, written to `out`.
pub(crate) fn heldout_probs<'r>(
    beta: &[f64],
    delta: f64,
    pairs: &[(Edge, bool)],
    pi_row: impl Fn(u32) -> &'r [f32],
    out: &mut [f64],
) {
    assert_eq!(out.len(), pairs.len(), "one probability per pair");
    for (slot, &(e, y)) in out.iter_mut().zip(pairs) {
        *slot = link_probability(pi_row(e.lo().0), pi_row(e.hi().0), beta, delta, y);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::StateLayout;
    use crate::ModelState;

    #[test]
    fn encoded_rows_match_the_state_encoding() {
        let k = 4;
        let mut rng = Xoshiro256PlusPlus::seed_from_u64(5);
        let mut state =
            ModelState::init(6, k, StateLayout::PiSumPhi, 0.5, (1.0, 1.0), &mut rng).unwrap();
        let share = [VertexId(1), VertexId(4)];
        let phi = [0.3, 1.7, 1e-10, 2.5, 4.0, 0.25, 0.5, 1.0];
        let mut scratch = WorkerScratch::new(k, 4);
        let (keys, vals) = encode_pi_rows(&share, &phi, k, &mut scratch);
        assert_eq!(keys, [1, 4]);
        let mut expect = vec![0.0f32; k + 1];
        for (i, v) in share.iter().enumerate() {
            state.set_phi_row(v.0, &phi[i * k..(i + 1) * k]);
            state.encode_dkv_row(v.0, &mut expect);
            assert_eq!(
                &vals[i * (k + 1)..(i + 1) * (k + 1)],
                &expect[..],
                "vertex {v}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "invalid sum")]
    fn encoding_rejects_a_non_finite_row() {
        let mut scratch = WorkerScratch::new(2, 4);
        encode_pi_rows(&[VertexId(0)], &[1.0, f64::NAN], 2, &mut scratch);
    }
}
