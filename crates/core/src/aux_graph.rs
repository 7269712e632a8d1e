//! The Label-edge step: building the auxiliary graph (paper Alg. 1).
//!
//! In the paper, the vertices of the auxiliary graph G′ are the edges
//! of G: tree edge `(v, p(v))` maps to vertex `v`; the j-th nontree
//! edge maps to vertex `n + j`. Edges of G′ encode the relation R′_c,
//! tested per input edge:
//!
//! 1. nontree `(u, v)` with `pre(v) < pre(u)` → `{u, n + j}`;
//! 2. nontree `(u, v)` with u, v unrelated → `{u, v}`;
//! 3. tree `(u, p(u))` with `w = p(u) ≠ root` and some nontree edge
//!    leaving u's subtree above or around w
//!    (`low(u) < pre(w)` or `high(u) ≥ pre(w) + size(w)`) → `{u, w}`.
//!
//! Condition 1 is the only edge at a nontree vertex `n + j`, so that
//! vertex is a pendant of the tree-edge vertex `x` of its edge's
//! larger-preorder endpoint. Contracting every pendant leaves the
//! components on `0..n` unchanged and puts `n + j` in `x`'s component.
//! The pipelines therefore run on the contracted graph: `n` vertices
//! (the root's slot is isolated), conditions 2 and 3 only, and every
//! input edge — tree or not — takes the label of its larger-preorder
//! endpoint ([`larger_preorder_endpoint`]; a tree edge's child is
//! always that endpoint).
//!
//! Two constructions are provided:
//!
//! * [`build_aux_graph`] — the literal paper graph with its `n + j`
//!   vertices: discovered edges land in a 3m-slot scratch array (one
//!   region per condition, exactly as the paper allocates `L′`) and are
//!   compacted by prefix sums — no concurrent writes, EREW-style. Kept
//!   as the reference the contraction is checked against.
//! * [`build_aux_graph_fused`] — the contracted graph the pipelines
//!   run: a count pass evaluates conditions 2–3 per edge into
//!   **per-thread counters**, an O(P) serial exclusive scan assigns
//!   each thread its output range, and an emit pass writes an
//!   exactly-sized edge list directly. The count pass records each
//!   edge's decision — condition 2 for nontree edges, condition 3 for
//!   tree edges; they are mutually exclusive, so one bit per edge — in
//!   a [`Bitmap`] decision cache, and the emit pass visits only the set
//!   bits instead of re-touching the preorder/low/high/size arrays.
//!   Scratch is m/64 words + O(P).

use crate::low_high::LowHigh;
use bcc_euler::TreeInfo;
use bcc_graph::Edge;
use bcc_primitives::compact::compact_with;
use bcc_primitives::scan::exclusive_scan_par;
use bcc_smp::workspace::{alloc_cap, alloc_filled, give_opt};
use bcc_smp::{BccWorkspace, Bitmap, Pool, SharedSlice, NIL};

/// An auxiliary graph G′ as an edge list over `0..num_vertices`.
#[derive(Clone, Debug)]
pub struct AuxGraph {
    /// `n` for the contracted graph; `n + (number of nontree edges)`
    /// for the paper-literal reference.
    pub num_vertices: u32,
    /// Auxiliary edge list.
    pub edges: Vec<Edge>,
}

impl AuxGraph {
    /// Returns the graph's owned arrays to `ws` for reuse.
    pub fn recycle(self, ws: &BccWorkspace) {
        ws.give(self.edges);
    }
}

/// The endpoint of `e` with the larger preorder number: the
/// tree-edge vertex whose component is `e`'s component (the child for
/// a tree edge, the condition-1 partner for a nontree edge).
#[inline]
pub fn larger_preorder_endpoint(e: Edge, preorder: &[u32]) -> u32 {
    if preorder[e.u as usize] > preorder[e.v as usize] {
        e.u
    } else {
        e.v
    }
}

/// Builds the paper-literal auxiliary graph (Alg. 1, 3-region
/// realization) and returns it with the nontree numbering: entry `i`
/// is edge `i`'s ordinal `j` (`NIL` for tree edges), whose vertex is
/// `n + j`. Reference implementation — the pipelines run the
/// contracted [`build_aux_graph_fused`].
pub fn build_aux_graph(
    pool: &Pool,
    n: u32,
    edges: &[Edge],
    is_tree_edge: &[bool],
    info: &TreeInfo,
    lh: &LowHigh,
) -> (AuxGraph, Vec<u32>) {
    let m = edges.len();

    // Number the nontree edges by prefix sum.
    let mut nontree_index = vec![0u32; m];
    {
        let ni = SharedSlice::new(&mut nontree_index);
        pool.run(|ctx| {
            for i in ctx.block_range(m) {
                unsafe { ni.write(i, u32::from(!is_tree_edge[i])) };
            }
        });
    }
    let num_nontree = exclusive_scan_par(pool, &mut nontree_index);
    {
        // Blank out the slots of tree edges (their scan values are
        // meaningless).
        let ni = SharedSlice::new(&mut nontree_index);
        pool.run(|ctx| {
            for i in ctx.block_range(m) {
                if is_tree_edge[i] {
                    unsafe { ni.write(i, NIL) };
                }
            }
        });
    }

    // The 3m-slot scratch L′: regions [0,m), [m,2m), [2m,3m) hold the
    // candidates of conditions 1, 2, 3.
    const EMPTY: Edge = Edge { u: NIL, v: NIL };
    let mut scratch = vec![EMPTY; 3 * m];
    {
        let ls = SharedSlice::new(&mut scratch);
        let ni: &[u32] = &nontree_index;
        pool.run(|ctx| {
            for i in ctx.block_range(m) {
                let e = edges[i];
                if !is_tree_edge[i] {
                    // Condition 1: attach the nontree edge's aux vertex
                    // to the tree edge of its larger-preorder endpoint.
                    let x = larger_preorder_endpoint(e, &info.preorder);
                    unsafe { ls.write(i, Edge::new(x, n + ni[i])) };
                    if cond2_holds(e, info) {
                        unsafe { ls.write(m + i, e) };
                    }
                } else if let Some((c, w)) = cond3_emit(e, info, lh) {
                    unsafe { ls.write(2 * m + i, Edge::new(c, w)) };
                }
            }
        });
    }

    // Compact L′ into the aux edge list by prefix sums.
    let aux_edges = compact_with(pool, &scratch, |_, e| e.u != NIL);

    let aux = AuxGraph {
        num_vertices: n + num_nontree,
        edges: aux_edges,
    };
    (aux, nontree_index)
}

/// Condition 2: the nontree edge's endpoints are unrelated in the tree.
#[inline]
fn cond2_holds(e: Edge, info: &TreeInfo) -> bool {
    !info.is_ancestor(e.u, e.v) && !info.is_ancestor(e.v, e.u)
}

/// Condition 3: for tree edge `e = (c, w = p(c))` with `w ≠ root`,
/// returns `Some((c, w))` when a nontree edge escapes `c`'s subtree
/// past `w`.
#[inline]
fn cond3_emit(e: Edge, info: &TreeInfo, lh: &LowHigh) -> Option<(u32, u32)> {
    let c = larger_preorder_endpoint(e, &info.preorder);
    let w = info.parent[c as usize];
    if w == info.root {
        return None;
    }
    let pw = info.preorder[w as usize];
    let escapes = lh.low[c as usize] < pw || lh.high[c as usize] >= pw + info.size[w as usize];
    escapes.then_some((c, w))
}

/// Builds the contracted auxiliary graph (`n` vertices, conditions 2
/// and 3) in two fused passes: per-thread count → O(P) scan → direct
/// emit. Its components on `0..n` are the reference's components
/// restricted to `0..n`.
pub fn build_aux_graph_fused(
    pool: &Pool,
    n: u32,
    edges: &[Edge],
    is_tree_edge: &[bool],
    info: &TreeInfo,
    lh: &LowHigh,
) -> AuxGraph {
    build_aux_graph_fused_impl(pool, n, edges, is_tree_edge, info, lh, None)
}

/// [`build_aux_graph_fused`] with the result and scratch taken from
/// `ws`; return the result's arrays with [`AuxGraph::recycle`].
pub fn build_aux_graph_fused_ws(
    pool: &Pool,
    n: u32,
    edges: &[Edge],
    is_tree_edge: &[bool],
    info: &TreeInfo,
    lh: &LowHigh,
    ws: &BccWorkspace,
) -> AuxGraph {
    build_aux_graph_fused_impl(pool, n, edges, is_tree_edge, info, lh, Some(ws))
}

fn build_aux_graph_fused_impl(
    pool: &Pool,
    n: u32,
    edges: &[Edge],
    is_tree_edge: &[bool],
    info: &TreeInfo,
    lh: &LowHigh,
    ws: Option<&BccWorkspace>,
) -> AuxGraph {
    let m = edges.len();
    let p = pool.threads();

    // Count pass over the word-aligned contiguous block partition the
    // emit pass will walk. Each edge's decision — condition 2 (ancestry
    // test) for nontree edges, condition 3 (low/high escape test) for
    // tree edges — is recorded in `decisions` so the emit pass never
    // re-evaluates it; word-aligned ownership makes the bitmap stores
    // plain, not atomic.
    let decisions = match ws {
        Some(ws) => Bitmap::new_in(m, ws),
        None => Bitmap::new(m),
    };
    let mut emit_base = alloc_filled(ws, p + 1, 0u32);
    {
        let eb = SharedSlice::new(&mut emit_base);
        let decisions = &decisions;
        pool.run(|ctx| {
            let mut emit = 0u32;
            for w in ctx.block_range_of(Bitmap::word_range_of(0..m)) {
                let mut bits = 0u64;
                for i in w * 64..(w * 64 + 64).min(m) {
                    let hit = if is_tree_edge[i] {
                        cond3_emit(edges[i], info, lh).is_some()
                    } else {
                        cond2_holds(edges[i], info)
                    };
                    bits |= u64::from(hit) << (i % 64);
                }
                decisions.store_word_unsync(w, bits);
                emit += bits.count_ones();
            }
            // SAFETY: slot tid+1 is written by this thread only.
            unsafe { eb.write(ctx.tid() + 1, emit) };
        });
    }
    // Serial exclusive scan over P+1 counters.
    for t in 0..p {
        emit_base[t + 1] += emit_base[t];
    }

    // Emit pass: every thread owns the output range its count claimed.
    // Capacity is the *bound* m (every edge emits at most once), not
    // the emitted total: the total varies with the (racily chosen)
    // spanning tree, and a varying request would flake the zero-miss
    // steady state across reruns of the same graph.
    let mut aux_edges: Vec<Edge> = alloc_cap(ws, m);
    aux_edges.resize(emit_base[p] as usize, Edge { u: NIL, v: NIL });
    {
        let out = SharedSlice::new(&mut aux_edges);
        let emit_base: &[u32] = &emit_base;
        let decisions = &decisions;
        pool.run(|ctx| {
            let mut k = emit_base[ctx.tid()] as usize;
            for w in ctx.block_range_of(Bitmap::word_range_of(0..m)) {
                // One load answers 64 edges; only the hits are visited.
                let mut bits = decisions.load_word(w);
                while bits != 0 {
                    let i = w * 64 + bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    let e = edges[i];
                    let a = if is_tree_edge[i] {
                        // The cached bit already paid the escape test.
                        let c = larger_preorder_endpoint(e, &info.preorder);
                        Edge::new(c, info.parent[c as usize])
                    } else {
                        e
                    };
                    // SAFETY: k stays within the [emit_base[tid],
                    // emit_base[tid+1]) range the count pass reserved
                    // (both passes walk the same words).
                    unsafe { out.write(k, a) };
                    k += 1;
                }
            }
            debug_assert_eq!(k, emit_base[ctx.tid() + 1] as usize);
        });
    }
    if let Some(ws) = ws {
        decisions.recycle(ws);
    }
    give_opt(ws, emit_base);

    AuxGraph {
        num_vertices: n,
        edges: aux_edges,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::low_high::compute_low_high;
    use bcc_connectivity::bfs::bfs_tree_seq;
    use bcc_euler::{dfs_euler_tour, tree_computations};
    use bcc_graph::{gen, Csr, Graph};
    use bcc_smp::Pool;

    /// Tree inputs of a BFS spanning tree rooted at `root`.
    fn tree_inputs(pool: &Pool, g: &Graph, root: u32) -> (TreeInfo, Vec<bool>, LowHigh) {
        let csr = Csr::build(g);
        let bfs = bfs_tree_seq(&csr, root);
        let mut is_tree = vec![false; g.m()];
        for &e in &bfs.tree_edge_ids() {
            is_tree[e as usize] = true;
        }
        let tree_edges: Vec<Edge> = bfs
            .tree_edge_ids()
            .iter()
            .map(|&i| g.edges()[i as usize])
            .collect();
        let tour = dfs_euler_tour(pool, g.n(), tree_edges, &bfs.parent, root);
        let info = tree_computations(pool, &tour, root);
        let lh = compute_low_high(pool, g.edges(), &is_tree, &info);
        (info, is_tree, lh)
    }

    /// The reference graph, its nontree numbering, the tree, the flags.
    fn build_for(g: &Graph, root: u32, p: usize) -> (AuxGraph, Vec<u32>, TreeInfo, Vec<bool>) {
        let pool = Pool::new(p);
        let (info, is_tree, lh) = tree_inputs(&pool, g, root);
        let (aux, ni) = build_aux_graph(&pool, g.n(), g.edges(), &is_tree, &info, &lh);
        (aux, ni, info, is_tree)
    }

    #[test]
    fn tree_input_produces_no_aux_edges() {
        let g = gen::random_tree(40, 1);
        let (aux, _, _, _) = build_for(&g, 0, 2);
        assert!(aux.edges.is_empty());
        assert_eq!(aux.num_vertices, 40);
    }

    #[test]
    fn nontree_numbering_is_dense_and_disjoint() {
        let g = gen::random_connected(50, 120, 3);
        let (aux, ni, _, is_tree) = build_for(&g, 0, 3);
        let mut seen = vec![false; 120 - 49];
        for (i, &tree) in is_tree.iter().enumerate() {
            if tree {
                assert_eq!(ni[i], NIL);
            } else {
                let j = ni[i] as usize;
                assert!(!seen[j], "duplicate nontree ordinal {j}");
                seen[j] = true;
            }
        }
        assert!(seen.into_iter().all(|s| s));
        assert_eq!(aux.num_vertices, 50 + (120 - 49));
    }

    #[test]
    fn cycle_aux_graph_connects_everything() {
        // A cycle is one biconnected component: its aux graph (n-1 tree
        // edges + 1 nontree edge as vertices) must be connected.
        let g = gen::cycle(8);
        let (aux, _, info, _) = build_for(&g, 0, 2);
        // Vertices in play: 1..8 (tree-edge children) and 8 + 0.
        let comp = bcc_connectivity::seq::components_union_find(aux.num_vertices, &aux.edges);
        let mut labels: Vec<u32> = (1..8u32).map(|v| comp.label[v as usize]).collect();
        labels.push(comp.label[8]);
        labels.dedup();
        assert_eq!(labels.len(), 1, "aux graph of a cycle must be connected");
        assert_eq!(info.root, 0);
    }

    #[test]
    fn aux_edges_respect_vertex_bounds() {
        for seed in 0..4u64 {
            let g = gen::random_connected(60, 140, seed);
            let pool = Pool::new(4);
            let (info, is_tree, lh) = tree_inputs(&pool, &g, 0);
            let (reference, _) = build_aux_graph(&pool, g.n(), g.edges(), &is_tree, &info, &lh);
            let fused = build_aux_graph_fused(&pool, g.n(), g.edges(), &is_tree, &info, &lh);
            for aux in [reference, fused] {
                for e in &aux.edges {
                    assert!(e.u < aux.num_vertices && e.v < aux.num_vertices);
                    assert_ne!(e.u, e.v);
                }
            }
        }
    }

    #[test]
    fn paper_example_sizes_hold_for_small_biconnected_graph() {
        // For any biconnected graph the aux graph has m vertices in play
        // (n-1 tree + m-n+1 nontree) and they form one component.
        let g = gen::complete(5);
        let (aux, _, _, _) = build_for(&g, 0, 1);
        let comp = bcc_connectivity::seq::components_union_find(aux.num_vertices, &aux.edges);
        let mut reps: Vec<u32> = (1..5u32).map(|v| comp.label[v as usize]).collect();
        for j in 0..(10 - 4) as u32 {
            reps.push(comp.label[(5 + j) as usize]);
        }
        reps.sort_unstable();
        reps.dedup();
        assert_eq!(reps.len(), 1);
    }

    #[test]
    fn fused_is_the_contracted_reference() {
        use bcc_connectivity::seq::components_union_find;
        for seed in 0..5u64 {
            let g = gen::random_connected(80, 220, seed);
            for p in [1, 3, 4] {
                let pool = Pool::new(p);
                let (info, is_tree, lh) = tree_inputs(&pool, &g, 0);
                let (reference, ni) =
                    build_aux_graph(&pool, g.n(), g.edges(), &is_tree, &info, &lh);
                let fused = build_aux_graph_fused(&pool, g.n(), g.edges(), &is_tree, &info, &lh);
                assert_eq!(fused.num_vertices, g.n(), "seed={seed} p={p}");
                let rc = components_union_find(reference.num_vertices, &reference.edges);
                let fc = components_union_find(fused.num_vertices, &fused.edges);
                // Same partition of the tree-edge vertices 0..n.
                let mut r: Vec<u32> = rc.label[..g.n() as usize].to_vec();
                let mut f = fc.label.clone();
                crate::verify::canonicalize_edge_labels(&mut r);
                crate::verify::canonicalize_edge_labels(&mut f);
                assert_eq!(r, f, "seed={seed} p={p}");
                // Each nontree vertex n+j hangs off its larger-preorder
                // endpoint.
                for (i, &e) in g.edges().iter().enumerate() {
                    if !is_tree[i] {
                        let x = larger_preorder_endpoint(e, &info.preorder);
                        assert_eq!(rc.label[(g.n() + ni[i]) as usize], rc.label[x as usize]);
                    }
                }

                // ws rerun is all hits.
                let ws = bcc_smp::BccWorkspace::new();
                let warm =
                    build_aux_graph_fused_ws(&pool, g.n(), g.edges(), &is_tree, &info, &lh, &ws);
                warm.recycle(&ws);
                let before = ws.stats();
                let again =
                    build_aux_graph_fused_ws(&pool, g.n(), g.edges(), &is_tree, &info, &lh, &ws);
                assert_eq!(again.edges.len(), fused.edges.len());
                again.recycle(&ws);
                let delta = ws.stats().delta_since(&before);
                assert_eq!(delta.misses, 0, "steady-state rerun must not miss");
            }
        }
    }

    #[test]
    fn thread_count_invariance_of_the_partition() {
        // The aux graph itself is NOT identical across thread counts:
        // the parallel children-CSR build behind the DFS tour assigns
        // child order nondeterministically, so preorder numbers — and
        // with them the condition-1 edges — can differ. What must be
        // invariant is the *partition* the aux graph induces on the
        // input edges.
        let g = gen::random_connected(80, 200, 9);
        let (a1, n1, i1, t1) = build_for(&g, 0, 1);
        let (a4, n4, i4, t4) = build_for(&g, 0, 4);
        assert_eq!(a1.num_vertices, a4.num_vertices);
        assert_eq!(n1, n4);
        assert_eq!(t1, t4, "BFS tree is deterministic");

        let partition = |aux: &AuxGraph, ni: &[u32], info: &TreeInfo, is_tree: &[bool]| {
            let cc = bcc_connectivity::seq::components_union_find(aux.num_vertices, &aux.edges);
            let mut labels: Vec<u32> = (0..g.m())
                .map(|i| {
                    let e = g.edges()[i];
                    if is_tree[i] {
                        cc.label[larger_preorder_endpoint(e, &info.preorder) as usize]
                    } else {
                        cc.label[(g.n() + ni[i]) as usize]
                    }
                })
                .collect();
            crate::verify::canonicalize_edge_labels(&mut labels);
            labels
        };
        assert_eq!(partition(&a1, &n1, &i1, &t1), partition(&a4, &n4, &i4, &t4));
    }
}
