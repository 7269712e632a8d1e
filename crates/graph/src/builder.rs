//! [`GraphBuilder`] — the one construction path for in-memory graphs,
//! with an explicit validation policy.
//!
//! **Strict** (the default) returns an error for any out-of-range
//! endpoint or self loop and preserves the edge list as given;
//! **lenient** drops self loops, normalizes orientation, and
//! deduplicates — the policy raw public edge lists need — while still
//! erroring on endpoints `>= n`.

use crate::edge::{Edge, Graph};

/// Why a [`GraphBuilder::build`] was rejected.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum GraphError {
    /// An edge references a vertex `>= n`.
    OutOfRange {
        /// The offending edge.
        edge: Edge,
        /// The declared vertex count.
        n: u32,
    },
    /// An edge joins a vertex to itself (strict policy only).
    SelfLoop {
        /// The offending edge.
        edge: Edge,
    },
}

impl std::fmt::Display for GraphError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GraphError::OutOfRange { edge, n } => {
                write!(f, "edge {edge:?} out of range (n = {n})")
            }
            GraphError::SelfLoop { edge } => write!(f, "self loop {edge:?} not allowed"),
        }
    }
}

impl std::error::Error for GraphError {}

/// Accumulates edges and builds an in-memory [`Graph`] under an
/// explicit validation policy.
///
/// ```
/// use bcc_graph::GraphBuilder;
///
/// let g = GraphBuilder::new(4).edges([(0, 1), (1, 2)]).build().unwrap();
/// assert_eq!(g.m(), 2);
///
/// // Lenient: loops dropped, duplicates merged.
/// let g = GraphBuilder::new(4)
///     .lenient()
///     .edges([(0, 1), (1, 0), (2, 2), (2, 3)])
///     .build()
///     .unwrap();
/// assert_eq!(g.m(), 2);
///
/// // Strict surfaces bad input as an error instead of panicking.
/// assert!(GraphBuilder::new(2).edge(0, 5).build().is_err());
/// ```
#[derive(Clone, Debug)]
pub struct GraphBuilder {
    n: Option<u32>,
    lenient: bool,
    edges: Vec<Edge>,
}

impl GraphBuilder {
    /// A strict builder over the fixed vertex set `0..n`.
    pub fn new(n: u32) -> Self {
        GraphBuilder {
            n: Some(n),
            lenient: false,
            edges: Vec::new(),
        }
    }

    /// A strict builder that infers `n` as `max endpoint + 1` at build
    /// time — the shape of headerless public edge lists.
    pub fn infer_n() -> Self {
        GraphBuilder {
            n: None,
            lenient: false,
            edges: Vec::new(),
        }
    }

    /// Strict policy (the default): any out-of-range endpoint or self
    /// loop is an error, and the edge list is preserved exactly as
    /// given — order, orientation, and duplicates.
    pub fn strict(mut self) -> Self {
        self.lenient = false;
        self
    }

    /// Lenient policy: self loops are dropped, edges are normalized to
    /// `(min, max)` orientation, sorted, and deduplicated. Endpoints
    /// `>= n` are still an error when `n` is explicit.
    pub fn lenient(mut self) -> Self {
        self.lenient = true;
        self
    }

    /// Appends one edge.
    pub fn edge(mut self, u: u32, v: u32) -> Self {
        self.edges.push(Edge::new(u, v));
        self
    }

    /// Appends edges from anything convertible (tuples, [`Edge`]s).
    pub fn edges<I>(mut self, edges: I) -> Self
    where
        I: IntoIterator,
        I::Item: Into<Edge>,
    {
        self.edges.extend(edges.into_iter().map(Into::into));
        self
    }

    /// Pre-allocates for `additional` more edges.
    pub fn reserve(mut self, additional: usize) -> Self {
        self.edges.reserve(additional);
        self
    }

    /// Validates under the chosen policy and builds the graph.
    pub fn build(self) -> Result<Graph, GraphError> {
        let GraphBuilder { n, lenient, edges } = self;
        let n = n.unwrap_or_else(|| {
            edges
                .iter()
                .map(|e| e.u.max(e.v).saturating_add(1))
                .max()
                .unwrap_or(0)
        });
        if !lenient {
            for e in &edges {
                if e.u >= n || e.v >= n {
                    return Err(GraphError::OutOfRange { edge: *e, n });
                }
                if e.is_loop() {
                    return Err(GraphError::SelfLoop { edge: *e });
                }
            }
            return Ok(Graph::from_vec(n, edges));
        }
        let mut keys: Vec<u64> = Vec::with_capacity(edges.len());
        for e in &edges {
            if e.u >= n || e.v >= n {
                return Err(GraphError::OutOfRange { edge: *e, n });
            }
            if !e.is_loop() {
                keys.push(e.key());
            }
        }
        keys.sort_unstable();
        keys.dedup();
        let edges = keys
            .into_iter()
            .map(|k| Edge::new((k >> 32) as u32, k as u32))
            .collect();
        Ok(Graph::from_vec(n, edges))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strict_preserves_order_and_orientation() {
        let g = GraphBuilder::new(5)
            .edge(3, 1)
            .edges([(0, 4), (1, 2)])
            .build()
            .unwrap();
        assert_eq!(
            g.edges(),
            &[Edge::new(3, 1), Edge::new(0, 4), Edge::new(1, 2)]
        );
    }

    #[test]
    fn strict_errors_carry_the_edge() {
        assert_eq!(
            GraphBuilder::new(3).edge(0, 3).build().unwrap_err(),
            GraphError::OutOfRange {
                edge: Edge::new(0, 3),
                n: 3
            }
        );
        assert_eq!(
            GraphBuilder::new(3).edge(1, 1).build().unwrap_err(),
            GraphError::SelfLoop {
                edge: Edge::new(1, 1)
            }
        );
    }

    #[test]
    fn lenient_dedups_and_drops_loops() {
        let g = GraphBuilder::new(4)
            .lenient()
            .edges([(0, 1), (1, 0), (2, 2), (2, 3)])
            .build()
            .unwrap();
        assert_eq!(g.m(), 2);
        assert_eq!(g.edges(), &[Edge::new(0, 1), Edge::new(2, 3)]);
    }

    #[test]
    fn lenient_still_range_checks() {
        assert!(matches!(
            GraphBuilder::new(2).lenient().edge(0, 9).build(),
            Err(GraphError::OutOfRange { .. })
        ));
    }

    #[test]
    fn infer_n_from_endpoints() {
        let g = GraphBuilder::infer_n()
            .edges([(0, 7), (2, 3)])
            .build()
            .unwrap();
        assert_eq!(g.n(), 8);
        let empty = GraphBuilder::infer_n().build().unwrap();
        assert_eq!(empty.n(), 0);
        assert_eq!(empty.m(), 0);
    }

    #[test]
    fn error_messages_match_legacy_panics() {
        let e = GraphBuilder::new(3).edge(0, 3).build().unwrap_err();
        assert_eq!(e.to_string(), "edge (0, 3) out of range (n = 3)");
        let e = GraphBuilder::new(3).edge(1, 1).build().unwrap_err();
        assert_eq!(e.to_string(), "self loop (1, 1) not allowed");
    }
}
