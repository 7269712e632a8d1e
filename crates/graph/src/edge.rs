//! Edge-list graph representation over pluggable storage.

use crate::bccsr::MappedCsr;
use std::fmt;
use std::sync::Arc;

/// An undirected edge between vertices `u` and `v`.
///
/// Edges are stored as given (not normalized); `normalized()` provides
/// the canonical `(min, max)` view used for deduplication and packing.
///
/// The layout is `#[repr(C)]` — two little-endian `u32`s — which is
/// exactly the `.bccsr` on-disk edge record, so a mapped file's edge
/// section is readable as `&[Edge]` without a copy.
#[repr(C)]
#[derive(Copy, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Edge {
    /// First endpoint.
    pub u: u32,
    /// Second endpoint.
    pub v: u32,
}

const _: () = assert!(std::mem::size_of::<Edge>() == 8 && std::mem::align_of::<Edge>() == 4);

impl Edge {
    /// Creates an edge.
    #[inline]
    pub fn new(u: u32, v: u32) -> Self {
        Edge { u, v }
    }

    /// The canonical `(min, max)` orientation.
    #[inline]
    pub fn normalized(self) -> Edge {
        if self.u <= self.v {
            self
        } else {
            Edge {
                u: self.v,
                v: self.u,
            }
        }
    }

    /// Packs the normalized edge into a sortable `u64` key.
    #[inline]
    pub fn key(self) -> u64 {
        let e = self.normalized();
        ((e.u as u64) << 32) | e.v as u64
    }

    /// The endpoint that is not `w` (panics if `w` is not an endpoint).
    #[inline]
    pub fn other(self, w: u32) -> u32 {
        if self.u == w {
            self.v
        } else {
            debug_assert_eq!(self.v, w);
            self.u
        }
    }

    /// True if the edge is a self loop.
    #[inline]
    pub fn is_loop(self) -> bool {
        self.u == self.v
    }
}

impl fmt::Debug for Edge {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({}, {})", self.u, self.v)
    }
}

impl From<(u32, u32)> for Edge {
    fn from((u, v): (u32, u32)) -> Self {
        Edge::new(u, v)
    }
}

/// Where a [`Graph`]'s edges live.
///
/// Algorithms never match on this — they go through the accessor
/// surface ([`Graph::edges`], [`Graph::degrees`], [`crate::Csr`]) —
/// but the storage determines cost: `InMemory` is a plain owned edge
/// list, while `Mapped` is a shared read-only view of a `.bccsr` file
/// whose edge list *and* adjacency arrays are served zero-copy from
/// the page cache.
#[derive(Clone, Debug)]
pub enum GraphData {
    /// An owned edge list (generator output, builder output).
    InMemory(Vec<Edge>),
    /// A shared mmap-backed `.bccsr` image (see [`crate::bccsr`]).
    Mapped(Arc<MappedCsr>),
}

/// An undirected graph as a vertex count plus edge storage — the input
/// representation of the Tarjan–Vishkin pipeline.
///
/// Construct in-memory graphs with [`crate::GraphBuilder`] (or the
/// generators in [`crate::gen`]); open on-disk graphs with
/// [`crate::io::load`]. Both arrive behind the same accessor surface,
/// so downstream crates are storage-agnostic.
#[derive(Clone, Debug)]
pub struct Graph {
    n: u32,
    data: GraphData,
}

impl Default for Graph {
    fn default() -> Self {
        Graph {
            n: 0,
            data: GraphData::InMemory(Vec::new()),
        }
    }
}

impl Graph {
    /// Internal constructor from pre-validated parts; the public paths
    /// are [`crate::GraphBuilder`] and [`Graph::from_mapped`].
    pub(crate) fn from_vec(n: u32, edges: Vec<Edge>) -> Self {
        Graph {
            n,
            data: GraphData::InMemory(edges),
        }
    }

    /// Wraps an opened `.bccsr` image. The `Arc` is shared by every
    /// clone of this graph and by CSR builds from it — a mapped graph
    /// never re-materializes its edges or adjacency in anonymous
    /// memory.
    pub fn from_mapped(mapped: Arc<MappedCsr>) -> Self {
        Graph {
            n: mapped.n(),
            data: GraphData::Mapped(mapped),
        }
    }

    /// Starts a strict [`crate::GraphBuilder`] over `n` vertices.
    pub fn builder(n: u32) -> crate::GraphBuilder {
        crate::GraphBuilder::new(n)
    }

    /// Number of vertices.
    #[inline]
    pub fn n(&self) -> u32 {
        self.n
    }

    /// Number of edges.
    #[inline]
    pub fn m(&self) -> usize {
        match &self.data {
            GraphData::InMemory(edges) => edges.len(),
            GraphData::Mapped(m) => m.m(),
        }
    }

    /// The backing storage.
    #[inline]
    pub fn data(&self) -> &GraphData {
        &self.data
    }

    /// The shared `.bccsr` image, if this graph is mapped.
    #[inline]
    pub fn mapped(&self) -> Option<&Arc<MappedCsr>> {
        match &self.data {
            GraphData::Mapped(m) => Some(m),
            GraphData::InMemory(_) => None,
        }
    }

    /// True if the graph is served from a mapped `.bccsr` file.
    #[inline]
    pub fn is_mapped(&self) -> bool {
        matches!(self.data, GraphData::Mapped(_))
    }

    /// The edge list. Zero-copy for both storages: a slice of the owned
    /// vector, or of the mapped file's edge section.
    #[inline]
    pub fn edges(&self) -> &[Edge] {
        match &self.data {
            GraphData::InMemory(edges) => edges,
            GraphData::Mapped(m) => m.edges(),
        }
    }

    /// Consumes the graph, returning its edge list (copied out of the
    /// mapping if the graph was mapped).
    pub fn into_edges(self) -> Vec<Edge> {
        match self.data {
            GraphData::InMemory(edges) => edges,
            GraphData::Mapped(m) => m.edges().to_vec(),
        }
    }

    /// Per-vertex degrees. On a mapped graph this is an O(n) diff of
    /// the stored CSR offsets — the edge list is never re-scanned (or
    /// even paged in).
    pub fn degrees(&self) -> Vec<u32> {
        match &self.data {
            GraphData::InMemory(edges) => {
                let mut deg = vec![0u32; self.n as usize];
                for e in edges {
                    deg[e.u as usize] += 1;
                    deg[e.v as usize] += 1;
                }
                deg
            }
            GraphData::Mapped(m) => {
                let offsets = m.offsets();
                (0..self.n as usize)
                    .map(|v| (offsets[v + 1] - offsets[v]) as u32)
                    .collect()
            }
        }
    }

    /// Saves the graph as a `.bccsr` file (see [`crate::bccsr`]).
    pub fn save_bccsr(
        &self,
        path: &std::path::Path,
    ) -> std::io::Result<crate::bccsr::WriteSummary> {
        crate::bccsr::write(path, self)
    }

    /// The graph with vertices renamed by the permutation `perm`
    /// (`perm[v]` is v's new id). Edge order is preserved, so per-edge
    /// results on the relabeled graph align index-for-index with the
    /// original — the test suite uses this to check that the algorithms
    /// are label-invariant. Always returns an in-memory graph.
    pub fn relabel(&self, perm: &[u32]) -> Graph {
        assert_eq!(perm.len(), self.n as usize);
        let mut seen = vec![false; self.n as usize];
        for &p in perm {
            assert!(
                p < self.n && !std::mem::replace(&mut seen[p as usize], true),
                "perm must be a permutation of 0..n"
            );
        }
        let edges = self
            .edges()
            .iter()
            .map(|e| Edge::new(perm[e.u as usize], perm[e.v as usize]))
            .collect();
        Graph::from_vec(self.n, edges)
    }

    /// The subgraph on the same vertex set keeping edges whose index
    /// satisfies `keep`. Always returns an in-memory graph.
    pub fn edge_subgraph(&self, keep: impl Fn(usize) -> bool) -> Graph {
        let edges = self
            .edges()
            .iter()
            .enumerate()
            .filter(|(i, _)| keep(*i))
            .map(|(_, &e)| e)
            .collect();
        Graph::from_vec(self.n, edges)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GraphBuilder;

    #[test]
    fn normalized_and_key_agree() {
        let e = Edge::new(9, 2);
        assert_eq!(e.normalized(), Edge::new(2, 9));
        assert_eq!(e.key(), Edge::new(2, 9).key());
        assert_eq!(e.key(), (2u64 << 32) | 9);
    }

    #[test]
    fn other_endpoint() {
        let e = Edge::new(3, 8);
        assert_eq!(e.other(3), 8);
        assert_eq!(e.other(8), 3);
    }

    #[test]
    fn graph_basics() {
        let g = GraphBuilder::new(4)
            .edges([(0, 1), (1, 2), (2, 3)])
            .build()
            .unwrap();
        assert_eq!(g.n(), 4);
        assert_eq!(g.m(), 3);
        assert_eq!(g.degrees(), vec![1, 2, 2, 1]);
        assert!(!g.is_mapped());
        assert!(g.mapped().is_none());
        assert!(matches!(g.data(), GraphData::InMemory(_)));
    }

    #[test]
    fn relabel_applies_permutation() {
        let g = GraphBuilder::new(3)
            .edges([(0, 1), (1, 2)])
            .build()
            .unwrap();
        let h = g.relabel(&[2, 0, 1]);
        assert_eq!(h.edges(), &[Edge::new(2, 0), Edge::new(0, 1)]);
    }

    #[test]
    #[should_panic]
    fn relabel_rejects_non_permutation() {
        let g = GraphBuilder::new(3).edges([(0, 1)]).build().unwrap();
        let _ = g.relabel(&[0, 0, 1]);
    }

    #[test]
    fn subgraph_keeps_selected_edges() {
        let g = GraphBuilder::new(4)
            .edges([(0, 1), (1, 2), (2, 3)])
            .build()
            .unwrap();
        let h = g.edge_subgraph(|i| i != 1);
        assert_eq!(h.m(), 2);
        assert_eq!(h.edges()[1], Edge::new(2, 3));
    }

    #[test]
    fn mapped_graph_serves_same_surface() {
        let g = crate::gen::random_connected(64, 160, 3);
        let mut path = std::env::temp_dir();
        path.push(format!("bcc-edge-test-{}.bccsr", std::process::id()));
        g.save_bccsr(&path).unwrap();
        let mg = crate::bccsr::MappedCsr::open_graph(&path).unwrap();
        assert!(mg.is_mapped());
        assert_eq!(mg.n(), g.n());
        assert_eq!(mg.m(), g.m());
        assert_eq!(mg.edges(), g.edges());
        assert_eq!(mg.degrees(), g.degrees());
        assert_eq!(mg.clone().into_edges(), g.edges());
        // Derived graphs fall back to in-memory storage.
        assert!(!mg.edge_subgraph(|i| i % 2 == 0).is_mapped());
        std::fs::remove_file(&path).unwrap();
    }
}
