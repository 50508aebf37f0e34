//! The simple undirected graph representation.

use std::collections::HashMap;
use std::error::Error;
use std::fmt;

use crate::{EdgeId, VertexId};

/// One direction of an edge as stored in an adjacency list.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub struct Half {
    /// The neighbouring vertex.
    pub to: VertexId,
    /// The undirected edge this half belongs to.
    pub edge: EdgeId,
}

/// An undirected edge with its two endpoints (`u < v` is *not* guaranteed;
/// endpoints are stored in insertion order).
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub struct Edge {
    /// First endpoint.
    pub u: VertexId,
    /// Second endpoint.
    pub v: VertexId,
}

impl Edge {
    /// Returns both endpoints.
    pub fn endpoints(&self) -> (VertexId, VertexId) {
        (self.u, self.v)
    }

    /// Returns the endpoint that is not `x`.
    ///
    /// # Panics
    ///
    /// Panics if `x` is not an endpoint of this edge.
    pub fn other(&self, x: VertexId) -> VertexId {
        if x == self.u {
            self.v
        } else if x == self.v {
            self.u
        } else {
            panic!("{x} is not an endpoint of ({}, {})", self.u, self.v)
        }
    }

    /// Returns `true` if `x` is an endpoint of this edge.
    pub fn is_incident(&self, x: VertexId) -> bool {
        x == self.u || x == self.v
    }
}

/// Errors returned by [`Graph`] mutation methods.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum GraphError {
    /// The edge would be a self-loop, which simple graphs forbid.
    SelfLoop(VertexId),
    /// The edge already exists.
    DuplicateEdge(VertexId, VertexId),
    /// A vertex handle was out of range.
    UnknownVertex(VertexId),
}

impl fmt::Display for GraphError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GraphError::SelfLoop(v) => write!(f, "self-loop at {v} is not allowed"),
            GraphError::DuplicateEdge(u, v) => write!(f, "edge ({u}, {v}) already exists"),
            GraphError::UnknownVertex(v) => write!(f, "unknown vertex {v}"),
        }
    }
}

impl Error for GraphError {}

/// A simple undirected graph with dense vertex and edge indices.
///
/// Vertices are `0..n`; edges are `0..m` in insertion order. Parallel edges
/// and self-loops are rejected. The structure is append-only (no deletions),
/// which keeps all handles stable — the workspace builds *new* graphs (e.g.
/// completions) rather than mutating existing ones in place.
///
/// # Example
///
/// ```
/// use lanecert_graph::Graph;
///
/// # fn main() -> Result<(), lanecert_graph::GraphError> {
/// let mut g = Graph::new(3);
/// let e = g.add_edge(0.into(), 1.into())?;
/// assert_eq!(g.endpoints(e), (0.into(), 1.into()));
/// assert!(g.has_edge(1.into(), 0.into()));
/// assert_eq!(g.degree(2.into()), 0);
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Default)]
pub struct Graph {
    adj: Vec<Vec<Half>>,
    edges: Vec<Edge>,
    index: HashMap<(u32, u32), EdgeId>,
}

impl Graph {
    /// Creates a graph with `n` isolated vertices.
    pub fn new(n: usize) -> Self {
        Self {
            adj: vec![Vec::new(); n],
            edges: Vec::new(),
            index: HashMap::new(),
        }
    }

    /// Creates a graph from an edge list over `n` vertices.
    ///
    /// # Errors
    ///
    /// Returns an error on self-loops, duplicate edges, or out-of-range
    /// endpoints.
    pub fn from_edges<I>(n: usize, edges: I) -> Result<Self, GraphError>
    where
        I: IntoIterator<Item = (usize, usize)>,
    {
        let mut g = Self::new(n);
        for (u, v) in edges {
            g.add_edge(VertexId::new(u), VertexId::new(v))?;
        }
        Ok(g)
    }

    /// Number of vertices.
    pub fn vertex_count(&self) -> usize {
        self.adj.len()
    }

    /// Number of edges.
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// Iterates over all vertex handles in index order.
    pub fn vertices(&self) -> impl Iterator<Item = VertexId> + '_ {
        (0..self.adj.len()).map(VertexId::new)
    }

    /// Iterates over all edges in insertion order.
    pub fn edges(&self) -> impl Iterator<Item = (EdgeId, Edge)> + '_ {
        self.edges
            .iter()
            .enumerate()
            .map(|(i, e)| (EdgeId::new(i), *e))
    }

    /// Appends an isolated vertex and returns its handle.
    pub fn add_vertex(&mut self) -> VertexId {
        self.adj.push(Vec::new());
        VertexId::new(self.adj.len() - 1)
    }

    fn key(u: VertexId, v: VertexId) -> (u32, u32) {
        if u.0 <= v.0 {
            (u.0, v.0)
        } else {
            (v.0, u.0)
        }
    }

    /// Adds the edge `{u, v}`.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::SelfLoop`], [`GraphError::DuplicateEdge`], or
    /// [`GraphError::UnknownVertex`] when the edge is invalid.
    pub fn add_edge(&mut self, u: VertexId, v: VertexId) -> Result<EdgeId, GraphError> {
        if u == v {
            return Err(GraphError::SelfLoop(u));
        }
        for x in [u, v] {
            if x.index() >= self.adj.len() {
                return Err(GraphError::UnknownVertex(x));
            }
        }
        let key = Self::key(u, v);
        if self.index.contains_key(&key) {
            return Err(GraphError::DuplicateEdge(u, v));
        }
        let id = EdgeId::new(self.edges.len());
        self.edges.push(Edge { u, v });
        self.index.insert(key, id);
        self.adj[u.index()].push(Half { to: v, edge: id });
        self.adj[v.index()].push(Half { to: u, edge: id });
        Ok(id)
    }

    /// Adds the edge `{u, v}` if absent; returns the existing or new handle
    /// and whether the edge was newly inserted.
    ///
    /// # Errors
    ///
    /// Returns an error on self-loops or out-of-range endpoints.
    pub fn ensure_edge(&mut self, u: VertexId, v: VertexId) -> Result<(EdgeId, bool), GraphError> {
        if let Some(e) = self.edge_between(u, v) {
            return Ok((e, false));
        }
        self.add_edge(u, v).map(|e| (e, true))
    }

    /// Returns `true` if the edge `{u, v}` exists.
    pub fn has_edge(&self, u: VertexId, v: VertexId) -> bool {
        self.index.contains_key(&Self::key(u, v))
    }

    /// Returns the edge between `u` and `v`, if any.
    pub fn edge_between(&self, u: VertexId, v: VertexId) -> Option<EdgeId> {
        self.index.get(&Self::key(u, v)).copied()
    }

    /// Returns both endpoints of edge `e`.
    ///
    /// # Panics
    ///
    /// Panics if `e` is out of range.
    pub fn endpoints(&self, e: EdgeId) -> (VertexId, VertexId) {
        self.edges[e.index()].endpoints()
    }

    /// Returns the [`Edge`] record of `e`.
    ///
    /// # Panics
    ///
    /// Panics if `e` is out of range.
    pub fn edge(&self, e: EdgeId) -> Edge {
        self.edges[e.index()]
    }

    /// The degree of `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    pub fn degree(&self, v: VertexId) -> usize {
        self.adj[v.index()].len()
    }

    /// The adjacency list of `v` (neighbour + edge handle pairs).
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    pub fn incident(&self, v: VertexId) -> &[Half] {
        &self.adj[v.index()]
    }

    /// Iterates over the neighbours of `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    pub fn neighbors(&self, v: VertexId) -> impl Iterator<Item = VertexId> + '_ {
        self.adj[v.index()].iter().map(|h| h.to)
    }

    /// Total degree sum, i.e. `2m`. Exposed for sanity checks in tests.
    pub fn degree_sum(&self) -> usize {
        self.adj.iter().map(Vec::len).sum()
    }
}

impl fmt::Debug for Graph {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Graph")
            .field("n", &self.vertex_count())
            .field("m", &self.edge_count())
            .field("edges", &self.edges)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_triangle() {
        let g = Graph::from_edges(3, [(0, 1), (1, 2), (2, 0)]).unwrap();
        assert_eq!(g.vertex_count(), 3);
        assert_eq!(g.edge_count(), 3);
        assert_eq!(g.degree(VertexId(1)), 2);
        assert!(g.has_edge(VertexId(2), VertexId(0)));
        assert_eq!(g.degree_sum(), 6);
    }

    #[test]
    fn rejects_self_loop() {
        let mut g = Graph::new(2);
        assert_eq!(
            g.add_edge(VertexId(0), VertexId(0)),
            Err(GraphError::SelfLoop(VertexId(0)))
        );
    }

    #[test]
    fn rejects_duplicate_both_orders() {
        let mut g = Graph::new(2);
        g.add_edge(VertexId(0), VertexId(1)).unwrap();
        assert!(matches!(
            g.add_edge(VertexId(1), VertexId(0)),
            Err(GraphError::DuplicateEdge(_, _))
        ));
    }

    #[test]
    fn rejects_unknown_vertex() {
        let mut g = Graph::new(1);
        assert_eq!(
            g.add_edge(VertexId(0), VertexId(7)),
            Err(GraphError::UnknownVertex(VertexId(7)))
        );
    }

    #[test]
    fn ensure_edge_is_idempotent() {
        let mut g = Graph::new(2);
        let (e1, fresh1) = g.ensure_edge(VertexId(0), VertexId(1)).unwrap();
        let (e2, fresh2) = g.ensure_edge(VertexId(1), VertexId(0)).unwrap();
        assert_eq!(e1, e2);
        assert!(fresh1);
        assert!(!fresh2);
        assert_eq!(g.edge_count(), 1);
    }

    #[test]
    fn edge_other_endpoint() {
        let g = Graph::from_edges(2, [(0, 1)]).unwrap();
        let e = g.edge(EdgeId(0));
        assert_eq!(e.other(VertexId(0)), VertexId(1));
        assert_eq!(e.other(VertexId(1)), VertexId(0));
        assert!(e.is_incident(VertexId(0)));
    }

    #[test]
    fn add_vertex_appends() {
        let mut g = Graph::new(0);
        let a = g.add_vertex();
        let b = g.add_vertex();
        assert_eq!((a, b), (VertexId(0), VertexId(1)));
        g.add_edge(a, b).unwrap();
        assert_eq!(g.edge_count(), 1);
    }
}
