//! Steady-state allocation counting for the whole pipeline, behind the
//! debug-only [`bcc_smp::CountingAlloc`].
//!
//! This is a dedicated single-`#[test]` binary: the counting allocator
//! wraps the *global* allocator, and `cargo test` runs tests of one
//! binary concurrently, so any second test here would pollute the
//! counters.
//!
//! The property: once a shared [`BccWorkspace`] is warm, a repeated
//! identical run through [`BccConfig::run`] performs **zero arena
//! misses** and sheds the scratch-allocation traffic entirely. The warm
//! run still allocates the structures that deliberately stay plain —
//! the escaping `edge_comp` result, the `PhaseReport`, and (for the
//! CSR-based pipelines) the adjacency structure and traversal internals
//! — so the calibrated bounds below assert a strict drop in allocator
//! *calls* and a bound on allocated *bytes*, not literal zero: at least
//! a 2x drop from the cold run for TV-SMP and TV-opt, 1.25x for
//! FAST-BCC, and an absolute cap of 43 bytes per input edge for
//! TV-filter. Measured at calibration time (n=2000, m=10000, p=4): warm
//! vs cold allocator calls were 43/80 (TV-SMP), 82/139 (TV-opt), 129/170
//! (TV-filter); warm bytes dropped 2.4x (TV-filter, plain CSR + three
//! m-sized output vectors) to 30x+ (TV-SMP). With the contracted
//! auxiliary graph: calls 42/77, 81/136, 119/158, 111/141 (FAST-BCC);
//! warm bytes 41,408 (TV-SMP, 9.7x drop), 418,744 (TV-opt, 2.1x),
//! 407,902 (TV-filter, 1.9x), 407,630 (FAST-BCC, 1.5x).

use bcc_core::{Algorithm, BccConfig, BccWorkspace};
use bcc_graph::gen;
use bcc_smp::{CountingAlloc, Pool};
use std::sync::Arc;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc::new();

#[test]
fn warmed_rerun_sheds_all_scratch_allocation() {
    let g = gen::random_connected(2_000, 10_000, 42);
    let pool = Pool::new(4);
    for alg in [
        Algorithm::TvSmp,
        Algorithm::TvOpt,
        Algorithm::TvFilter,
        Algorithm::FastBcc,
    ] {
        let ws = Arc::new(BccWorkspace::new());
        let cfg = BccConfig::new(alg).workspace(Arc::clone(&ws));

        // Cold run: populates the arena (every take is a miss).
        let cold_allocs_before = CountingAlloc::allocations();
        let cold_bytes_before = CountingAlloc::allocated_bytes();
        let cold = cfg.run(&pool, &g).unwrap();
        let cold_allocs = CountingAlloc::allocations() - cold_allocs_before;
        let cold_bytes = CountingAlloc::allocated_bytes() - cold_bytes_before;
        assert!(cold.report.alloc_bytes > 0);

        // Warm run: the arena serves every scratch take.
        let ws_before = ws.stats();
        let warm_allocs_before = CountingAlloc::allocations();
        let warm_bytes_before = CountingAlloc::allocated_bytes();
        let warm = cfg.run(&pool, &g).unwrap();
        let warm_allocs = CountingAlloc::allocations() - warm_allocs_before;
        let warm_bytes = CountingAlloc::allocated_bytes() - warm_bytes_before;
        let delta = ws.stats().delta_since(&ws_before);

        assert_eq!(
            delta.misses,
            0,
            "{}: arena miss on warmed rerun",
            alg.name()
        );
        assert_eq!(warm.report.alloc_bytes, 0, "{}", alg.name());
        assert_eq!(warm.result.edge_comp, cold.result.edge_comp);
        assert!(
            warm_allocs < cold_allocs,
            "{}: warm run made {warm_allocs} allocator calls vs {cold_allocs} cold",
            alg.name()
        );
        // FAST-BCC's cold side is already O(n)-lean (no tour arrays,
        // no ranking scratch, no O(m) candidate copies), so there is
        // far less to shed: the arena saves ~40% of bytes, not 2x+.
        // The plain remainder is the CSR, the BFS internals, and the
        // escaping m-sized output — same as TV-filter's warm run.
        //
        // TV-filter's cold side no longer holds O(m) id-remap tables
        // (placement is by endpoint), so a ratio to it measures how
        // lean the cold run is, not what the warm run allocates. Its
        // warm run is capped absolutely instead, at 43 bytes per input
        // edge: the warm run before the contraction allocated 423,882
        // bytes (42.4 per edge), where the 2x drop allowed 49. One more
        // plain m-sized u32 vector (4 bytes per edge) breaks the cap.
        if alg == Algorithm::TvFilter {
            let cap = 43 * g.m() as usize;
            assert!(
                warm_bytes <= cap,
                "{}: warm run allocated {warm_bytes} bytes — expected at most {cap}",
                alg.name()
            );
        } else {
            let required_drop_pct = if alg == Algorithm::FastBcc { 125 } else { 200 };
            assert!(
                warm_bytes * required_drop_pct <= cold_bytes * 100,
                "{}: warm run allocated {warm_bytes} bytes vs {cold_bytes} cold — \
                 expected at least a {required_drop_pct}% drop",
                alg.name()
            );
        }
    }
}
