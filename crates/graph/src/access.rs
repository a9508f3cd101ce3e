//! The neighbor-access trait the samplers consume.
//!
//! Everything mini-batch training needs from the data side is four
//! queries: vertex count, degree, a sorted neighbor list, and an edge
//! membership test. [`GraphAccess`] abstracts exactly those, so the same
//! sampler code runs against the resident CSR ([`Graph`]) or an
//! out-of-core block-cached reader (`mmsb-ooc`'s `OocReader`).
//!
//! The unit of access is one row per vertex (paper §III-A ships each
//! worker the adjacency rows of its mini-batch vertices). The phi update
//! of a vertex and the non-link stratum of an anchor read that vertex's
//! row once and answer all of its edge probes from it ([`link_flags`],
//! or a binary search in the row). Pairwise [`GraphAccess::has_edge`] is
//! left to draws whose pairs share no endpoint: random-pair mini-batches
//! and held-out sampling. Out of core, a row costs one or two block
//! reads, where a probe per pair would load the random partner's block.
//!
//! The list- and membership-returning methods take `&mut self`: an
//! out-of-core reader mutates its block cache on every read. The resident
//! implementation (on `&Graph`) ignores the mutability. Crucially, the
//! *values* returned never depend on reader state — neighbor lists are
//! the same sorted, deduplicated ids whichever backend serves them —
//! which is what keeps sampling chains bitwise identical across backends
//! (DESIGN.md §15).

use crate::{Graph, VertexId};

/// Fill `out` with one flag per vertex of `others`: whether it appears
/// in `row`, the sorted neighbor list of some vertex `v`. With `v` not in
/// `others` (no self-loops), `out[i] == has_edge(v, others[i])`, so all of
/// `v`'s probes cost one row read. Reuses `out`'s capacity.
pub fn link_flags(row: &[u32], others: &[VertexId], out: &mut Vec<bool>) {
    out.clear();
    out.extend(others.iter().map(|b| row.binary_search(&b.0).is_ok()));
}

/// Read access to an undirected graph's adjacency structure.
pub trait GraphAccess {
    /// Number of vertices `N`.
    fn num_vertices(&self) -> u32;

    /// Number of undirected edges `|E|`.
    fn num_edges(&self) -> u64;

    /// Degree of `v` (resident metadata on every backend — no I/O).
    fn degree(&self, v: VertexId) -> u32;

    /// Maximum degree over all vertices.
    fn max_degree(&self) -> u32;

    /// The sorted neighbor list of `v` as raw ids. May touch the backing
    /// store; the slice borrows from `self` (the reader's decode scratch
    /// or the CSR itself).
    fn neighbors(&mut self, v: VertexId) -> &[u32];

    /// Whether the edge `{a, b}` exists. `a != b` is assumed. Each call
    /// reads a row; to probe many pairs sharing an endpoint, read that
    /// endpoint's [`GraphAccess::neighbors`] once and use [`link_flags`].
    fn has_edge(&mut self, a: VertexId, b: VertexId) -> bool;

    /// Number of unordered vertex pairs `|E*| = N (N - 1) / 2`.
    fn num_pairs(&self) -> u64 {
        let n = self.num_vertices() as u64;
        n * (n - 1) / 2
    }
}

impl<G: GraphAccess> GraphAccess for &mut G {
    fn num_vertices(&self) -> u32 {
        (**self).num_vertices()
    }

    fn num_edges(&self) -> u64 {
        (**self).num_edges()
    }

    fn degree(&self, v: VertexId) -> u32 {
        (**self).degree(v)
    }

    fn max_degree(&self) -> u32 {
        (**self).max_degree()
    }

    fn neighbors(&mut self, v: VertexId) -> &[u32] {
        (**self).neighbors(v)
    }

    fn has_edge(&mut self, a: VertexId, b: VertexId) -> bool {
        (**self).has_edge(a, b)
    }
}

impl GraphAccess for &Graph {
    fn num_vertices(&self) -> u32 {
        Graph::num_vertices(self)
    }

    fn num_edges(&self) -> u64 {
        Graph::num_edges(self)
    }

    fn degree(&self, v: VertexId) -> u32 {
        Graph::degree(self, v)
    }

    fn max_degree(&self) -> u32 {
        Graph::max_degree(self)
    }

    fn neighbors(&mut self, v: VertexId) -> &[u32] {
        Graph::neighbors(self, v)
    }

    fn has_edge(&mut self, a: VertexId, b: VertexId) -> bool {
        Graph::has_edge(self, a, b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GraphBuilder;

    fn sample_all<G: GraphAccess>(mut g: G) -> (u32, u64, Vec<u32>, bool, bool) {
        let ns = g.neighbors(VertexId(1)).to_vec();
        (
            g.num_vertices(),
            g.num_pairs(),
            ns,
            g.has_edge(VertexId(0), VertexId(1)),
            g.has_edge(VertexId(0), VertexId(3)),
        )
    }

    #[test]
    fn resident_impl_matches_inherent_methods() {
        let mut b = GraphBuilder::new(4);
        b.add_edge(VertexId(0), VertexId(1)).unwrap();
        b.add_edge(VertexId(1), VertexId(2)).unwrap();
        let g = b.build();
        let (n, pairs, ns, e01, e03) = sample_all(&g);
        assert_eq!(n, 4);
        assert_eq!(pairs, 6);
        assert_eq!(ns, vec![0, 2]);
        assert!(e01);
        assert!(!e03);
    }
}
