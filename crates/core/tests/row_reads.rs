//! Out-of-core reads follow rows, not pairs (DESIGN.md §15).
//!
//! A mini-batch vertex's phi update and an anchor's non-link stratum read
//! that vertex's adjacency row once and answer all of its edge probes
//! from it, so a training step touches one or two blocks per row. The
//! file holds a single test because it reads the process-global obs
//! counters: no other test may read blocks while it counts.
//!
//! It checks, in order:
//! * `link_flags` over a row equals pairwise `has_edge` on the resident
//!   and the out-of-core backend, including rows that straddle a block
//!   seam and degree-0 vertices;
//! * block accesses (cache hits + misses) per training step stay within
//!   2 x (mini-batch vertices + anchors) for the sequential and the
//!   parallel sampler. A probe per sampled pair costs about 32x that.

use mmsb_core::{ModelState, ParallelSampler, SamplerConfig, SequentialSampler};
use mmsb_graph::access::{link_flags, GraphAccess};
use mmsb_graph::generate::planted::{generate_planted, PlantedConfig};
use mmsb_graph::heldout::HeldOut;
use mmsb_graph::minibatch::Strategy;
use mmsb_graph::{Graph, GraphBuilder, VertexId};
use mmsb_obs::{id, ObsConfig, ObsLevel};
use mmsb_ooc::{write_graph, BlockCache, BuildOptions, GraphBackend, OocGraph, OocReader};
use mmsb_rand::Xoshiro256PlusPlus;

const BLOCK_SIZE: u32 = 4096;
/// Trailing vertices with no edges.
const ISOLATED: u32 = 4;

/// A planted graph (multi-block at 4 KiB) plus `ISOLATED` degree-0
/// vertices, split into training graph and held-out set.
fn setup() -> (Graph, HeldOut) {
    let mut rng = Xoshiro256PlusPlus::seed_from_u64(71);
    let planted = generate_planted(
        &PlantedConfig {
            num_vertices: 900,
            num_communities: 9,
            mean_community_size: 105.0,
            memberships_per_vertex: 1.2,
            internal_degree: 26.0,
            background_degree: 1.0,
        },
        &mut rng,
    )
    .graph;
    let mut b = GraphBuilder::new(planted.num_vertices() + ISOLATED);
    b.add_edges(planted.edges().map(|e| (e.lo(), e.hi())))
        .unwrap();
    HeldOut::split(&b.build(), 80, &mut rng)
}

fn block_accesses() -> u64 {
    let m = &mmsb_obs::get().expect("obs initialized").metrics;
    m.counter_total(id::C_GRAPH_CACHE_HITS) + m.counter_total(id::C_GRAPH_CACHE_MISSES)
}

fn pi_rows(state: &ModelState) -> Vec<Vec<f32>> {
    (0..state.n()).map(|a| state.pi_row(a).to_vec()).collect()
}

/// Run `steps` steps, asserting each one's block accesses against the
/// row budget. `step` runs one step and returns the `pi` rows after it;
/// the mini-batch vertices are the rows it rewrote (each gets a fresh
/// noisy row, no other row changes).
fn assert_row_budget(
    name: &str,
    anchors: usize,
    steps: usize,
    mut before: Vec<Vec<f32>>,
    mut step: impl FnMut() -> Vec<Vec<f32>>,
) {
    for t in 0..steps {
        let reads0 = block_accesses();
        let after = step();
        let reads = block_accesses() - reads0;
        let vertices = before.iter().zip(&after).filter(|(a, b)| a != b).count();
        assert!(vertices > 0, "{name} step {t}: no vertex updated");
        let budget = 2 * (vertices + anchors) as u64;
        assert!(
            reads <= budget,
            "{name} step {t}: {reads} block accesses for {vertices} mini-batch \
             vertices + {anchors} anchors (budget {budget})"
        );
        before = after;
    }
}

#[test]
fn block_reads_follow_rows_and_link_flags_match_has_edge() {
    let (graph, heldout) = setup();
    let path = std::env::temp_dir().join(format!("mmsb-row-reads-{}.ooc", std::process::id()));
    write_graph(
        &graph,
        &path,
        BuildOptions {
            block_size: BLOCK_SIZE,
            ..BuildOptions::default()
        },
    )
    .unwrap();

    // --- link_flags == pairwise has_edge on both backends ---
    let ooc = OocGraph::open(&path).unwrap();
    let bs = u64::from(BLOCK_SIZE);
    let n = graph.num_vertices();
    let straddlers: Vec<u32> = (0..n)
        .filter(|&v| {
            let (start, end) = ooc.list_range(v);
            end > start && start / bs != (end - 1) / bs
        })
        .collect();
    let isolated: Vec<u32> = (0..n).filter(|&v| graph.degree(VertexId(v)) == 0).collect();
    assert!(
        !straddlers.is_empty(),
        "fixture has no row across a block seam"
    );
    assert!(
        isolated.len() >= ISOLATED as usize,
        "fixture lost its degree-0 vertices"
    );
    let probed: Vec<u32> = straddlers
        .iter()
        .chain(&isolated)
        .copied()
        .chain((0..n).step_by(37))
        .collect();
    let others: Vec<VertexId> = (0..n).map(VertexId).collect();
    // One 4-way set: fewer slots than the file has blocks, so rows are
    // read back through evictions.
    let mut cache = BlockCache::for_graph(&ooc, 1, 5);
    let mut reader = OocReader::new(&ooc, &mut cache);
    let mut resident = &graph;
    let (mut flags, mut pairwise) = (Vec::new(), Vec::new());
    for &v in &probed {
        let v = VertexId(v);
        let others: Vec<VertexId> = others.iter().copied().filter(|&o| o != v).collect();
        let truth: Vec<bool> = others.iter().map(|&o| graph.has_edge(v, o)).collect();
        for (name, backend) in [
            ("resident", &mut resident as &mut dyn GraphAccess),
            ("out-of-core", &mut reader as &mut dyn GraphAccess),
        ] {
            link_flags(backend.neighbors(v), &others, &mut flags);
            pairwise.clear();
            pairwise.extend(others.iter().map(|&o| backend.has_edge(v, o)));
            assert_eq!(flags, truth, "{name}: link_flags of vertex {v}");
            assert_eq!(pairwise, truth, "{name}: has_edge of vertex {v}");
        }
    }

    // --- block accesses per step stay within the row budget ---
    mmsb_obs::init(ObsConfig::at(ObsLevel::Metrics));
    let cfg = SamplerConfig::new(6)
        .with_seed(19)
        .with_graph_cache_blocks(8);
    let Strategy::StratifiedNode { anchors, .. } = cfg.minibatch else {
        panic!("default strategy is stratified");
    };
    let steps = 4;
    let backend = || GraphBackend::OutOfCore(OocGraph::open(&path).unwrap());

    let mut seq = SequentialSampler::with_backend(backend(), heldout.clone(), cfg.clone()).unwrap();
    assert_row_budget("sequential", anchors, steps, pi_rows(seq.state()), || {
        seq.step();
        pi_rows(seq.state())
    });
    let mut par = ParallelSampler::with_backend_threads(backend(), heldout, cfg, 2).unwrap();
    assert_row_budget("parallel", anchors, steps, pi_rows(par.state()), || {
        par.step();
        pi_rows(par.state())
    });

    let _ = std::fs::remove_file(&path);
}
