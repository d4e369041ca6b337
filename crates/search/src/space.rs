//! Per-operator partition-space enumeration (paper §5.3).

use primepar_graph::Operator;
use primepar_partition::{Dim, PartitionSeq, Primitive};

/// Knobs restricting the enumerated space.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SpaceOptions {
    /// Include the novel `P_{2^k×2^k}` primitive (disable for the Alpa-style
    /// conventional-space baseline).
    pub allow_temporal: bool,
    /// Include batch splits (disabled in the controlled-`d` 3D-parallelism
    /// study, §6.4: "we disable partitioning batch dimension in PrimePar").
    pub allow_batch_split: bool,
    /// Largest temporal primitive, as `k` (2 ⇒ up to `P_{4×4}`).
    pub max_temporal_k: u32,
}

impl Default for SpaceOptions {
    fn default() -> Self {
        SpaceOptions {
            allow_temporal: true,
            allow_batch_split: true,
            max_temporal_k: 2,
        }
    }
}

/// Enumerates every partition sequence of `op` over `2^n_bits` devices:
/// ordered sequences of allowed `Split` primitives and at most one temporal
/// primitive, consuming exactly `n_bits`, and never slicing a dimension finer
/// than its extent.
///
/// # Example
///
/// ```
/// use primepar_graph::ModelConfig;
/// use primepar_search::{operator_space, SpaceOptions};
///
/// let graph = ModelConfig::opt_6_7b().layer_graph(8, 2048);
/// // A linear operator over 4 devices: 4^2 split orders + one P_{2x2}.
/// let space = operator_space(&graph.ops[9], 2, &SpaceOptions::default());
/// assert_eq!(space.len(), 17);
/// ```
pub fn operator_space(op: &Operator, n_bits: usize, opts: &SpaceOptions) -> Vec<PartitionSeq> {
    let (splits, temporal_ks) = tokens(op, n_bits, opts);
    let mut out = Vec::new();
    let mut current = Vec::new();
    rec(
        op,
        n_bits,
        &splits,
        &temporal_ks,
        false,
        [1; 4],
        &mut current,
        &mut out,
    );
    out
}

/// The split dimensions and temporal `k`s a sequence of `op` may use.
fn tokens(op: &Operator, n_bits: usize, opts: &SpaceOptions) -> (Vec<Dim>, Vec<u32>) {
    let mut splits: Vec<Dim> = op.allowed_splits();
    if !opts.allow_batch_split && op.sample_batch_dim() == Dim::B {
        // Attention operators keep their B (= heads) splits; their sample
        // batch hides inside M, which stays available because it also covers
        // the sequence — a mild leak documented in DESIGN.md.
        splits.retain(|&d| d != Dim::B);
    }
    let temporal_ks: Vec<u32> = if opts.allow_temporal && op.allows_temporal() {
        (1..=opts.max_temporal_k)
            .filter(|&k| 2 * k as usize <= n_bits)
            .collect()
    } else {
        Vec::new()
    };
    (splits, temporal_ks)
}

/// Depth-first enumeration in token order. `slices` holds the prefix's slice
/// count per [`Dim::index`]; slice counts only grow along a sequence, so a
/// prefix that already cuts a dimension finer than its extent is dropped
/// with its whole subtree — the same list, in the same order, as filtering
/// the complete sequences by extent (the `fits` test oracle).
#[allow(clippy::too_many_arguments)]
fn rec(
    op: &Operator,
    remaining: usize,
    splits: &[Dim],
    temporal_ks: &[u32],
    used_temporal: bool,
    slices: [u64; 4],
    current: &mut Vec<Primitive>,
    out: &mut Vec<PartitionSeq>,
) {
    if remaining == 0 {
        out.push(PartitionSeq::new(current.clone()).expect("at most one temporal by construction"));
        return;
    }
    for &d in splits {
        let token = Primitive::Split(d);
        if let Some(slices) = extend(op, slices, token) {
            current.push(token);
            rec(
                op,
                remaining - 1,
                splits,
                temporal_ks,
                used_temporal,
                slices,
                current,
                out,
            );
            current.pop();
        }
    }
    if !used_temporal {
        for &k in temporal_ks {
            let bits = 2 * k as usize;
            let token = Primitive::Temporal { k };
            if bits > remaining {
                continue;
            }
            if let Some(slices) = extend(op, slices, token) {
                current.push(token);
                rec(
                    op,
                    remaining - bits,
                    splits,
                    temporal_ks,
                    true,
                    slices,
                    current,
                    out,
                );
                current.pop();
            }
        }
    }
}

/// The slice counts after appending `token`, or `None` once a dimension is
/// sliced finer than its extent.
fn extend(op: &Operator, mut slices: [u64; 4], token: Primitive) -> Option<[u64; 4]> {
    for d in Dim::ALL {
        let n = &mut slices[d.index()];
        *n *= token.slice_factor(d) as u64;
        if *n > op.extent(d).max(1) {
            return None;
        }
    }
    Some(slices)
}

#[cfg(test)]
mod tests {
    use super::*;
    use primepar_graph::ModelConfig;

    /// `true` when no dimension is sliced finer than its extent.
    fn fits(op: &Operator, seq: &PartitionSeq) -> bool {
        Dim::ALL
            .iter()
            .all(|&d| seq.num_slices(d) as u64 <= op.extent(d).max(1))
    }

    /// The unpruned enumeration: every token sequence, filtered by [`fits`]
    /// only at the leaves.
    fn leaf_filter_space(op: &Operator, n_bits: usize, opts: &SpaceOptions) -> Vec<PartitionSeq> {
        fn walk(
            op: &Operator,
            remaining: usize,
            tokens: &(Vec<Dim>, Vec<u32>),
            used_temporal: bool,
            current: &mut Vec<Primitive>,
            out: &mut Vec<PartitionSeq>,
        ) {
            if remaining == 0 {
                let seq = PartitionSeq::new(current.clone()).unwrap();
                if fits(op, &seq) {
                    out.push(seq);
                }
                return;
            }
            for &d in &tokens.0 {
                current.push(Primitive::Split(d));
                walk(op, remaining - 1, tokens, used_temporal, current, out);
                current.pop();
            }
            if !used_temporal {
                for &k in &tokens.1 {
                    if 2 * k as usize <= remaining {
                        current.push(Primitive::Temporal { k });
                        walk(op, remaining - 2 * k as usize, tokens, true, current, out);
                        current.pop();
                    }
                }
            }
        }
        let mut out = Vec::new();
        walk(
            op,
            n_bits,
            &tokens(op, n_bits, opts),
            false,
            &mut Vec::new(),
            &mut out,
        );
        out
    }

    #[test]
    fn pruned_enumeration_matches_the_leaf_filter() {
        // Every `SpaceOptions` variant, 1–9 bits, one operator per kind (linear,
        // attention, pointwise, norm), on the default slab and on a small one
        // whose batch and sequence extents prune deep prefixes.
        let mut variants = Vec::new();
        for allow_batch_split in [true, false] {
            variants.push(SpaceOptions {
                allow_temporal: false,
                allow_batch_split,
                max_temporal_k: 2,
            });
            for max_temporal_k in 1..=3 {
                variants.push(SpaceOptions {
                    allow_temporal: true,
                    allow_batch_split,
                    max_temporal_k,
                });
            }
        }
        let mut pruned_some = false;
        for g in [graph(), ModelConfig::opt_6_7b().layer_graph(2, 64)] {
            for op in [&g.ops[9], &g.ops[3], &g.ops[10], &g.ops[0]] {
                for opts in &variants {
                    for n_bits in 1..=9 {
                        let oracle = leaf_filter_space(op, n_bits, opts);
                        let pure_splits = oracle.iter().filter(|s| s.temporal_k().is_none());
                        pruned_some |= pure_splits.count()
                            < tokens(op, n_bits, opts).0.len().pow(n_bits as u32);
                        assert_eq!(
                            operator_space(op, n_bits, opts),
                            oracle,
                            "{} at {n_bits} bits under {opts:?}",
                            op.name
                        );
                    }
                }
            }
        }
        assert!(pruned_some, "the fixtures must exercise extent pruning");
    }

    fn graph() -> primepar_graph::Graph {
        ModelConfig::opt_6_7b().layer_graph(8, 2048)
    }

    #[test]
    fn linear_space_size_matches_paper_scale() {
        // §5.3: P ≈ 1300 for 32 devices. Exact count with tokens
        // {B,M,N,K} (cost 1), P_{2x2} (cost 2), P_{4x4} (cost 4) and at most
        // one temporal: 4^5 + 4·4^3 + 2·4 = 1288, minus the 16 sequences with
        // more than three batch splits (batch extent 8 caps them).
        let g = graph();
        let space = operator_space(&g.ops[9], 5, &SpaceOptions::default());
        assert_eq!(space.len(), 1272);
    }

    #[test]
    fn conventional_space_is_pure_splits() {
        let g = graph();
        let opts = SpaceOptions {
            allow_temporal: false,
            ..SpaceOptions::default()
        };
        let space = operator_space(&g.ops[9], 3, &opts);
        assert_eq!(space.len(), 64); // 4^3
        assert!(space.iter().all(|s| s.temporal_k().is_none()));
    }

    #[test]
    fn batch_splits_can_be_disabled() {
        let g = graph();
        let opts = SpaceOptions {
            allow_batch_split: false,
            ..SpaceOptions::default()
        };
        let space = operator_space(&g.ops[9], 2, &opts);
        assert!(space
            .iter()
            .all(|s| !s.primitives().contains(&Primitive::Split(Dim::B))));
        // 3 splittable dims: 3^2 + one P2x2 = 10.
        assert_eq!(space.len(), 10);
    }

    #[test]
    fn pointwise_space_has_no_temporal() {
        let g = graph();
        let space = operator_space(&g.ops[10], 4, &SpaceOptions::default());
        assert!(space.iter().all(|s| s.temporal_k().is_none()));
        // {B,M,K}^4 minus the all-B sequence (batch extent 8 < 16 slices).
        assert_eq!(space.len(), 80);
    }

    #[test]
    fn attention_space_respects_embed_protection() {
        let g = graph();
        // qk: N is head-embed, never split; no temporal.
        let space = operator_space(&g.ops[3], 3, &SpaceOptions::default());
        assert!(space.iter().all(|s| s.num_slices(Dim::N) == 1));
        assert!(space.iter().all(|s| s.temporal_k().is_none()));
        assert_eq!(space.len(), 27); // {B,M,K}^3
    }

    #[test]
    fn extent_limits_prune_the_space() {
        // A tiny batch prevents deep batch splits.
        let g = ModelConfig::opt_6_7b().layer_graph(2, 2048);
        let space = operator_space(&g.ops[9], 3, &SpaceOptions::default());
        assert!(
            space.iter().all(|s| s.num_slices(Dim::B) <= 2),
            "batch=2 allows at most one B split"
        );
    }

    #[test]
    fn every_sequence_consumes_all_bits() {
        let g = graph();
        for op in [&g.ops[2], &g.ops[4], &g.ops[9]] {
            for seq in operator_space(op, 4, &SpaceOptions::default()) {
                assert_eq!(seq.bits(), 4);
            }
        }
    }

    #[test]
    fn space_cache_matches_direct_enumeration() {
        // The planner enumerates each signature once and shares the space
        // with every node of that signature, so equal signature ids must
        // enumerate equal spaces, across options and device counts.
        let g = graph();
        let ids = g.signature_ids();
        for opts in [
            SpaceOptions::default(),
            SpaceOptions {
                allow_temporal: false,
                ..SpaceOptions::default()
            },
            SpaceOptions {
                allow_batch_split: false,
                max_temporal_k: 1,
                ..SpaceOptions::default()
            },
        ] {
            for n_bits in [0usize, 2, 4] {
                let mut first: Vec<Option<Vec<PartitionSeq>>> = vec![None; g.ops.len()];
                for (op, &sig) in g.ops.iter().zip(&ids) {
                    let direct = operator_space(op, n_bits, &opts);
                    let shared = first[sig].get_or_insert_with(|| direct.clone());
                    assert_eq!(*shared, direct, "{} at {n_bits} bits", op.name);
                }
            }
        }
    }

    #[test]
    fn zero_bits_space_is_serial() {
        let g = graph();
        let space = operator_space(&g.ops[9], 0, &SpaceOptions::default());
        assert_eq!(space.len(), 1);
        assert_eq!(space[0], PartitionSeq::serial());
    }
}
