//! Property tests for the fused middle of the pipeline: the
//! single-sweep Low-high must agree with its literal-paper reference,
//! and the count→scan→emit Label-edge must be the paper's auxiliary
//! graph with its pendant nontree vertices contracted, on every input,
//! including edge lists with self-loops, duplicate edges, and nontree
//! candidates that leave most of the tree untouched (disconnected
//! candidate clusters).
//!
//! Both pairs share the inputs exactly, so the checks are well-defined
//! even on degenerate edges: whatever the reference computes, the fused
//! kernel must agree with. A final end-to-end property drives the
//! fused kernels through `run_any` on frequently *disconnected* random
//! graphs against the sequential oracle.

use bcc_connectivity::bfs::bfs_tree_seq;
use bcc_connectivity::seq::components_union_find;
use bcc_core::verify::canonicalize_edge_labels;
use bcc_core::{
    build_aux_graph, build_aux_graph_fused, compute_low_high, compute_low_high_two_pass,
    larger_preorder_endpoint, Algorithm, BccConfig,
};
use bcc_euler::{dfs_euler_tour, tree_computations, TreeInfo};
use bcc_graph::{gen, Csr, Edge, Graph};
use bcc_smp::Pool;
use proptest::prelude::*;

/// Strategy: a connected base graph plus extra raw pairs (possibly
/// self-loops or duplicates of existing edges) appended as nontree
/// candidates.
fn graph_with_messy_extras() -> impl Strategy<Value = (Graph, Vec<Edge>)> {
    (8u32..60, 0usize..200, any::<u64>()).prop_flat_map(|(n, extra, seed)| {
        let m = ((n as usize - 1) + extra / 2).min(gen::max_edges(n));
        let g = gen::random_connected(n, m, seed);
        let pairs = proptest::collection::vec((0..n, 0..n), 0..48);
        (Just(g), pairs).prop_map(|(g, pairs)| {
            let extras = pairs.into_iter().map(|(u, v)| Edge::new(u, v)).collect();
            (g, extras)
        })
    })
}

/// Rooted-tree inputs the tail kernels consume: the extended edge list
/// (base edges + extras, all extras nontree), the tree flags, and the
/// tree computations of a deterministic BFS spanning tree of the base.
fn tail_inputs(pool: &Pool, g: &Graph, extras: &[Edge]) -> (Vec<Edge>, Vec<bool>, TreeInfo) {
    let csr = Csr::build(g);
    let bfs = bfs_tree_seq(&csr, 0);
    let mut edges = g.edges().to_vec();
    edges.extend_from_slice(extras);
    let mut is_tree = vec![false; edges.len()];
    for &e in &bfs.tree_edge_ids() {
        is_tree[e as usize] = true;
    }
    let tree_edges: Vec<Edge> = bfs
        .tree_edge_ids()
        .iter()
        .map(|&i| g.edges()[i as usize])
        .collect();
    let tour = dfs_euler_tour(pool, g.n(), tree_edges, &bfs.parent, 0);
    let info = tree_computations(pool, &tour, 0);
    (edges, is_tree, info)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn fused_low_high_matches_two_pass_reference((g, extras) in graph_with_messy_extras()) {
        for p in [1usize, 3] {
            let pool = Pool::new(p);
            let (edges, is_tree, info) = tail_inputs(&pool, &g, &extras);
            let fused = compute_low_high(&pool, &edges, &is_tree, &info);
            let two_pass = compute_low_high_two_pass(&pool, &edges, &is_tree, &info);
            prop_assert_eq!(&fused.low, &two_pass.low, "low differs (p={})", p);
            prop_assert_eq!(&fused.high, &two_pass.high, "high differs (p={})", p);
        }
    }

    #[test]
    fn fused_label_edge_is_the_contracted_reference((g, extras) in graph_with_messy_extras()) {
        for p in [1usize, 2, 4] {
            let pool = Pool::new(p);
            let (edges, is_tree, info) = tail_inputs(&pool, &g, &extras);
            let lh = compute_low_high(&pool, &edges, &is_tree, &info);
            let (reference, nontree_index) =
                build_aux_graph(&pool, g.n(), &edges, &is_tree, &info, &lh);
            let fused = build_aux_graph_fused(&pool, g.n(), &edges, &is_tree, &info, &lh);
            prop_assert_eq!(fused.num_vertices, g.n(), "p={}", p);
            let rc = components_union_find(reference.num_vertices, &reference.edges);
            let fc = components_union_find(fused.num_vertices, &fused.edges);
            // The fused graph's components on 0..n are the reference's
            // restricted to 0..n ...
            let mut restricted = rc.label[..g.n() as usize].to_vec();
            let mut contracted = fc.label.clone();
            canonicalize_edge_labels(&mut restricted);
            canonicalize_edge_labels(&mut contracted);
            prop_assert_eq!(restricted, contracted, "partition of 0..n differs (p={})", p);
            // ... and every nontree vertex n + j lies in the component of
            // its edge's larger-preorder endpoint.
            for (i, &e) in edges.iter().enumerate() {
                if !is_tree[i] {
                    let x = larger_preorder_endpoint(e, &info.preorder);
                    let j = g.n() + nontree_index[i];
                    prop_assert_eq!(rc.label[j as usize], rc.label[x as usize], "edge {} (p={})", i, p);
                }
            }
        }
    }

    #[test]
    fn fused_pipeline_matches_sequential_on_disconnected_graphs(
        n in 6u32..70,
        m in 0usize..180,
        seed in any::<u64>(),
    ) {
        // random_gnm is frequently disconnected at these densities, so
        // the fused kernels run once per component inside run_any.
        let g = gen::random_gnm(n, m.min(gen::max_edges(n)), seed);
        let pool = Pool::new(2);
        let base = BccConfig::new(Algorithm::Sequential)
            .run_any(&pool, &g)
            .unwrap()
            .result;
        for alg in [
            Algorithm::TvSmp,
            Algorithm::TvOpt,
            Algorithm::TvFilter,
            Algorithm::FastBcc,
        ] {
            let r = BccConfig::new(alg).run_any(&pool, &g).unwrap().result;
            prop_assert_eq!(&r.edge_comp, &base.edge_comp, "{}", alg.name());
            prop_assert_eq!(r.num_components, base.num_components);
        }
    }
}
