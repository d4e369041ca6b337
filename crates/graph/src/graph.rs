use primepar_partition::TensorKind;

use crate::{Axis, Operator};

/// A data dependency: `src`'s output feeds `dst`'s operand `dst_kind`
/// (`Input` for the activation operand, `Weight` for the second operand of a
/// batched matmul).
#[derive(Debug, Clone, PartialEq)]
pub struct Edge {
    /// Producing node index.
    pub src: usize,
    /// Consuming node index.
    pub dst: usize,
    /// Which operand of `dst` the tensor becomes.
    pub dst_kind: TensorKind,
    /// Fractional sub-range of the source's `Qkv` selector axis consumed by
    /// this edge (e.g. `(0.0, 1.0/3.0)` for the Q slice of a fused QKV
    /// projection). `None` consumes the whole output.
    pub selector: Option<(f64, f64)>,
    /// Axis renames applied to the *destination* side before intersecting
    /// (e.g. the V operand's `SeqKv` axis is the producer's `Seq` axis).
    pub renames: Vec<(Axis, Axis)>,
}

impl Edge {
    /// A plain edge feeding `dst`'s activation input.
    pub fn plain(src: usize, dst: usize) -> Self {
        Edge {
            src,
            dst,
            dst_kind: TensorKind::Input,
            selector: None,
            renames: Vec::new(),
        }
    }

    /// The destination axis after applying this edge's renames.
    pub fn rename(&self, axis: Axis) -> Axis {
        self.renames
            .iter()
            .find(|&&(from, _)| from == axis)
            .map(|&(_, to)| to)
            .unwrap_or(axis)
    }
}

/// A computation (sub-)graph: operators in topological order plus edges.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Graph {
    /// Nodes in topological order.
    pub ops: Vec<Operator>,
    /// Data dependencies.
    pub edges: Vec<Edge>,
}

impl Graph {
    /// Indices into [`Graph::edges`] of the edges arriving at node `dst`, in
    /// edge order.
    pub fn in_edge_ids(&self, dst: usize) -> impl Iterator<Item = usize> + '_ {
        (0..self.edges.len()).filter(move |&e| self.edges[e].dst == dst)
    }

    /// Indices into [`Graph::edges`] of the edges leaving node `src`, in edge
    /// order.
    pub fn out_edge_ids(&self, src: usize) -> impl Iterator<Item = usize> + '_ {
        (0..self.edges.len()).filter(move |&e| self.edges[e].src == src)
    }

    /// `true` when `(src, dst)` skips over intermediate nodes — the paper's
    /// *extended edges* (Fig. 6) that force segmentation.
    pub fn is_extended(&self, edge: &Edge) -> bool {
        edge.dst > edge.src + 1
    }

    /// The segmentation of §5.1: segments start at node 0 and at every source
    /// of an extended edge, so that Assumptions 1–2 hold *within* each
    /// segment and plain dynamic programming (Eqs. 11–12) applies there.
    /// Returns `(start, end)` node-index pairs covering `0..ops.len()-1`.
    pub fn segments(&self) -> Vec<(usize, usize)> {
        let mut boundaries: Vec<usize> = vec![0];
        for e in &self.edges {
            if self.is_extended(e) {
                boundaries.push(e.src);
            }
        }
        boundaries.sort_unstable();
        boundaries.dedup();
        let last = self.ops.len() - 1;
        let mut segments = Vec::new();
        for w in boundaries.windows(2) {
            segments.push((w[0], w[1]));
        }
        let tail = *boundaries.last().expect("at least node 0");
        if tail < last {
            segments.push((tail, last));
        }
        segments.retain(|&(s, e)| s != e);
        segments
    }

    /// Validates that the graph is solvable by segmented dynamic programming
    /// plus merging (§5.1): every non-chain edge must either stay inside the
    /// segment headed by its source (covered by the Bellman iteration,
    /// Eq. 12) or land on a segment endpoint (covered by the merge step,
    /// Eq. 13, like the paper's `e_{0,7}`).
    ///
    /// # Panics
    ///
    /// Panics with a description of the violating edge — used by tests and by
    /// the optimizer's debug assertions.
    pub fn validate_segmentation(&self) {
        let segments = self.segments();
        for e in &self.edges {
            if e.dst == e.src + 1 {
                continue;
            }
            let own_segment = segments.iter().find(|&&(s, _)| s == e.src);
            let within_own = own_segment.is_some_and(|&(_, end)| e.dst <= end);
            let lands_on_endpoint = segments.iter().any(|&(s, end)| e.dst == end || e.dst == s);
            assert!(
                within_own || lands_on_endpoint,
                "edge ({}, {}) violates segmented-DP assumptions: source segment {:?}, segments {:?}",
                e.src,
                e.dst,
                own_segment,
                segments
            );
        }
    }

    /// Total trainable parameters (elements) of the graph.
    pub fn param_elems(&self) -> f64 {
        self.ops.iter().map(|op| op.weight_elems()).sum()
    }

    /// Stacks `copies` of this graph end to end, gluing each copy's first
    /// node onto the previous copy's last node (the shared boundary operator
    /// of Fig. 6's layer stacking). Used to cross-validate the optimizer's
    /// min-plus layer composition against an explicit multi-layer graph.
    ///
    /// # Panics
    ///
    /// Panics if `copies == 0` or the boundary operators differ.
    pub fn stack(&self, copies: usize) -> Graph {
        assert!(copies > 0, "at least one copy");
        assert_eq!(
            self.ops.first().map(|o| (&o.kind, o.extents)),
            self.ops.last().map(|o| (&o.kind, o.extents)),
            "boundary operators must agree to stack layers"
        );
        let stride = self.ops.len() - 1;
        let mut ops = self.ops.clone();
        let mut edges = self.edges.clone();
        for copy in 1..copies {
            let base = copy * stride;
            ops.extend(self.ops[1..].iter().cloned());
            edges.extend(self.edges.iter().map(|e| {
                let mut e = e.clone();
                e.src += base;
                e.dst += base;
                e
            }));
        }
        Graph { ops, edges }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{OpKind, Operator};

    fn tiny_op(name: &str) -> Operator {
        Operator {
            name: name.into(),
            kind: OpKind::Elementwise,
            extents: [1, 2, 1, 4],
            axes: [
                vec![(Axis::Batch, 1)],
                vec![(Axis::Seq, 2)],
                vec![],
                vec![(Axis::Hidden, 4)],
            ],
        }
    }

    /// A 5-node chain with one skip edge 1 → 4.
    fn graph_with_skip() -> Graph {
        Graph {
            ops: (0..5).map(|i| tiny_op(&format!("op{i}"))).collect(),
            edges: vec![
                Edge::plain(0, 1),
                Edge::plain(1, 2),
                Edge::plain(2, 3),
                Edge::plain(3, 4),
                Edge::plain(1, 4),
            ],
        }
    }

    #[test]
    fn extended_edge_detection() {
        let g = graph_with_skip();
        assert!(!g.is_extended(&g.edges[0]));
        assert!(g.is_extended(&g.edges[4]));
    }

    #[test]
    fn segmentation_splits_at_extended_sources() {
        let g = graph_with_skip();
        assert_eq!(g.segments(), vec![(0, 1), (1, 4)]);
        g.validate_segmentation();
    }

    #[test]
    fn pure_chain_is_one_segment() {
        let g = Graph {
            ops: (0..4).map(|i| tiny_op(&format!("op{i}"))).collect(),
            edges: vec![Edge::plain(0, 1), Edge::plain(1, 2), Edge::plain(2, 3)],
        };
        assert_eq!(g.segments(), vec![(0, 3)]);
        g.validate_segmentation();
    }

    #[test]
    #[should_panic(expected = "violates segmented-DP assumptions")]
    fn invalid_cross_segment_skip_is_caught() {
        // Boundaries {0, 1}: segments (0, 1), (1, 4). Edge 0→3 leaves its
        // source's segment (0, 1) and lands mid-segment at node 3 — neither a
        // Bellman edge nor a merge edge can account for it.
        let g = Graph {
            ops: (0..5).map(|i| tiny_op(&format!("op{i}"))).collect(),
            edges: vec![
                Edge::plain(0, 1),
                Edge::plain(1, 2),
                Edge::plain(2, 3),
                Edge::plain(3, 4),
                Edge::plain(1, 4),
                Edge::plain(0, 3),
            ],
        };
        g.validate_segmentation();
    }

    #[test]
    fn merge_edges_landing_on_endpoints_are_valid() {
        // The paper's e_{0,7} pattern: an extended edge from one segment head
        // to another segment's endpoint is handled by the merge step.
        let g = Graph {
            ops: (0..5).map(|i| tiny_op(&format!("op{i}"))).collect(),
            edges: vec![
                Edge::plain(0, 1),
                Edge::plain(1, 2),
                Edge::plain(2, 3),
                Edge::plain(3, 4),
                Edge::plain(1, 3), // head 1, within segment (1, 3)
                Edge::plain(0, 4), // head 0, lands on endpoint 4
            ],
        };
        g.validate_segmentation();
    }

    #[test]
    fn stack_glues_boundary_nodes() {
        let single = Graph {
            ops: (0..4).map(|i| tiny_op(&format!("op{i}"))).collect(),
            edges: vec![Edge::plain(0, 1), Edge::plain(1, 2), Edge::plain(2, 3)],
        };
        let double = single.stack(2);
        assert_eq!(double.ops.len(), 7); // 4 + 3 (boundary shared)
        assert_eq!(double.edges.len(), 6);
        assert!(double.edges.iter().any(|e| e.src == 3 && e.dst == 4));
        assert_eq!(single.stack(1).ops.len(), 4);
    }

    #[test]
    fn edge_rename_lookup() {
        let e = Edge {
            renames: vec![(Axis::SeqKv, Axis::Seq)],
            ..Edge::plain(0, 1)
        };
        assert_eq!(e.rename(Axis::SeqKv), Axis::Seq);
        assert_eq!(e.rename(Axis::Batch), Axis::Batch);
    }
}
