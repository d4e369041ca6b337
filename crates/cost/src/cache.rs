//! Structural memoization of the inter-operator cost model (Eqs. 8–9).
//!
//! [`edge_cost_matrix`](crate::edge_cost_matrix) rebuilds each endpoint's
//! boundary profiles from scratch per edge and evaluates every `(row, col)`
//! cell as a per-device product of eight axis-interval intersections. Both
//! are heavily redundant on a real transformer graph:
//!
//! * structurally identical operators (equal [`OpSignature`]s) produce the
//!   *same* profile vectors, so one build per unique `(signature, tensor
//!   role)` suffices — the [`EdgeCostCache`] interns them;
//! * within one side's profile vector, most per-device holdings repeat (a
//!   coarse split leaves many devices with identical slices), so the dense
//!   intervals are deduplicated. Each direction then gets one dense
//!   `|need uniques| × |hold uniques|` table of `total · overlap`, and each
//!   cell becomes a handful of lookups into it — see [`PreparedEdge::matrix`];
//! * the overlap is a product of per-axis factors, and on each axis a side
//!   holds only a few distinct intervals, so the dense table is filled from
//!   small per-axis factor tables rather than one eight-axis product per
//!   entry — unless the matrix is so small (a beam probe, a pair of
//!   beam-restricted spaces) that its device lookups are cheaper to price
//!   one eight-axis product at a time than the tables are to build;
//! * whole matrices repeat across edges whose endpoints share signatures and
//!   edge parameters (the residual adds, the stacked-layer boundary), keyed
//!   by [`MatrixKey`].
//!
//! Everything here is *bitwise-identical* to the direct path: deduplication
//! only reuses values that would have been recomputed from identical inputs,
//! and every floating-point accumulation keeps the original operation order
//! (axes ascending from `1.0` within an overlap, ascending device order with
//! `(v − overlap).max(0)` per device within a cell). Skipping an axis whose
//! factors are all exactly `1.0` is exact, since `x · 1.0 == x`.
//!
//! [`OpSignature`]: primepar_graph::OpSignature

use std::collections::HashMap;
use std::sync::Arc;

use primepar_graph::{Axis, Edge, Operator};
use primepar_partition::{PartitionSeq, Phase, TensorKind};
use primepar_topology::DeviceSpace;

use crate::inter::{profile_dedup_into, side_dims, ShapeMemo, Side};
use crate::{CostCtx, DenseIntervals};

/// Hit/miss telemetry of an [`EdgeCostCache`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Side-profile vectors served from the cache.
    pub profile_hits: u64,
    /// Side-profile vectors built from scratch.
    pub profile_misses: u64,
    /// Whole edge matrices reused via [`MatrixKey`] equality.
    pub matrix_hits: u64,
    /// Whole edge matrices actually computed.
    pub matrix_misses: u64,
}

/// Interning key of one side's profile vector: the operator signature id,
/// the tensor role and DSI phase/side, and the edge parameters that shape
/// the holdings. Valid within one planner run (fixed device count and
/// partition-space options).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct ProfileKey {
    sig: usize,
    kind: TensorKind,
    phase: Phase,
    side: Side,
    renames: Vec<(Axis, Axis)>,
    /// Selector endpoints as IEEE-754 bits (`f64` is not `Hash`).
    selector: Option<(u64, u64)>,
}

/// Identity of a whole edge-cost matrix: `(left signature, right signature,
/// tensor kind)` plus the edge's selector/rename parameters. Two edges with
/// equal keys have bitwise-identical matrices (given one shared
/// partition-space enumeration per signature).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct MatrixKey {
    src_sig: usize,
    dst_sig: usize,
    dst_kind: TensorKind,
    renames: Vec<(Axis, Axis)>,
    selector: Option<(u64, u64)>,
}

impl MatrixKey {
    /// The key of `edge` between operators with the given signature ids.
    pub fn new(edge: &Edge, src_sig: usize, dst_sig: usize) -> Self {
        MatrixKey {
            src_sig,
            dst_sig,
            dst_kind: edge.dst_kind,
            renames: edge.renames.clone(),
            selector: selector_bits(edge.selector),
        }
    }
}

fn selector_bits(selector: Option<(f64, f64)>) -> Option<(u64, u64)> {
    selector.map(|(a, b)| (a.to_bits(), b.to_bits()))
}

/// Dense first-seen matrix-job ids per edge: `ids[e] == ids[f]` exactly when
/// the two edges' [`MatrixKey`]s are equal. Building a `MatrixKey` per edge
/// clones the rename list and hashes it on every dedup lookup; this instead
/// interns the edge parameters `(dst_kind, renames, selector)` once by a
/// linear scan (edge lists are short) and dedups the remaining `Copy` tuple
/// `(src_sig, dst_sig, param_id)` the same way — no hashing, no clones.
pub fn matrix_job_ids(edges: &[Edge], sig_ids: &[usize]) -> Vec<usize> {
    type EdgeParams<'a> = (TensorKind, &'a [(Axis, Axis)], Option<(u64, u64)>);
    let mut params: Vec<EdgeParams> = Vec::new();
    let mut jobs: Vec<(usize, usize, usize)> = Vec::new();
    edges
        .iter()
        .map(|edge| {
            let sel = selector_bits(edge.selector);
            let p = (edge.dst_kind, edge.renames.as_slice(), sel);
            let param_id = params.iter().position(|&q| q == p).unwrap_or_else(|| {
                params.push(p);
                params.len() - 1
            });
            let job = (sig_ids[edge.src], sig_ids[edge.dst], param_id);
            jobs.iter().position(|&j| j == job).unwrap_or_else(|| {
                jobs.push(job);
                jobs.len() - 1
            })
        })
        .collect()
}

/// One side's boundary profiles over a whole partition-space vector, with
/// per-device holdings deduplicated: `ids[seq * devices + d]` indexes into
/// `uniques`, the distinct dense interval sets observed on this side.
#[derive(Debug, Clone)]
pub struct SideProfiles {
    /// Per-sequence block volume fraction (the `V` of Eq. 9, as a fraction).
    volume_fraction: Vec<f64>,
    /// Distinct per-device holdings, in first-seen order.
    uniques: Vec<DenseIntervals>,
    /// `[seq][device]` (row-major) indices into `uniques`.
    ids: Vec<u32>,
    devices: usize,
}

impl SideProfiles {
    /// Builds and deduplicates the holdings of every sequence on one side.
    ///
    /// `base` is an already-built profile vector over the *same* operator,
    /// sequence list, dimension family, renames and selector (the caller
    /// guarantees this — in practice the forward twin of a backward side).
    /// Sequences without temporal primitives have phase- and step-invariant
    /// DSIs, so their rows are copied from `base` instead of rebuilt; only
    /// temporal sequences are profiled from scratch.
    #[allow(clippy::too_many_arguments)]
    fn build(
        op: &Operator,
        seqs: &[PartitionSeq],
        space: DeviceSpace,
        kind: TensorKind,
        phase: Phase,
        side: Side,
        renames: &[(Axis, Axis)],
        selector: Option<(f64, f64)>,
        base: Option<&SideProfiles>,
    ) -> Self {
        let devices = space.devices().count();
        let mut volume_fraction = Vec::with_capacity(seqs.len());
        let mut uniques: Vec<DenseIntervals> = Vec::new();
        let mut ids = Vec::with_capacity(seqs.len() * devices);
        let mut by_bits: HashMap<[u64; 2 * Axis::COUNT], u32> = HashMap::new();
        // base unique id → this build's unique id, filled on demand.
        let mut translate = vec![u32::MAX; base.map_or(0, |b| b.uniques.len())];
        let mut memo = ShapeMemo::new();
        for (i, seq) in seqs.iter().enumerate() {
            if let Some(b) = base.filter(|_| seq.temporal_steps() == 1) {
                volume_fraction.push(b.volume_fraction[i]);
                for d in 0..devices {
                    let g = b.ids[i * devices + d] as usize;
                    if translate[g] == u32::MAX {
                        let dense = b.uniques[g];
                        translate[g] = *by_bits.entry(dense_bits(&dense)).or_insert_with(|| {
                            uniques.push(dense);
                            (uniques.len() - 1) as u32
                        });
                    }
                    ids.push(translate[g]);
                }
                continue;
            }
            // `profile_dedup_into` computes each distinct DSI-tuple holding
            // once per slice shape across the whole sequence list; only
            // those few are densified, hashed and interned here.
            let vf = profile_dedup_into(
                op,
                seq,
                space,
                kind,
                phase,
                side,
                renames,
                selector,
                &mut memo,
                &mut |holding| {
                    let dense = holding.to_dense();
                    *by_bits.entry(dense_bits(&dense)).or_insert_with(|| {
                        uniques.push(dense);
                        (uniques.len() - 1) as u32
                    })
                },
                &mut ids,
            );
            volume_fraction.push(vf);
        }
        SideProfiles {
            volume_fraction,
            uniques,
            ids,
            devices,
        }
    }

    /// Number of sequences profiled.
    pub fn len(&self) -> usize {
        self.volume_fraction.len()
    }

    /// `true` for an empty profile vector.
    pub fn is_empty(&self) -> bool {
        self.volume_fraction.is_empty()
    }

    /// Number of distinct per-device holdings (vs `len() × devices` built).
    pub fn unique_holdings(&self) -> usize {
        self.uniques.len()
    }
}

/// Exact bit pattern of a dense interval set, for hashing.
fn dense_bits(d: &DenseIntervals) -> [u64; 2 * Axis::COUNT] {
    let mut bits = [0u64; 2 * Axis::COUNT];
    for (i, (lo, hi)) in d.0.iter().enumerate() {
        bits[2 * i] = lo.to_bits();
        bits[2 * i + 1] = hi.to_bits();
    }
    bits
}

/// One edge's precomputed cell-pricing state — `Send + Sync`, so unique
/// matrices compute on worker threads against one shared [`CostCtx`].
#[derive(Debug, Clone)]
pub struct PreparedEdge {
    pricing: Pricing,
    /// Per-column needed volume (`V` of Eq. 9, elements) — forward.
    vc: Vec<f64>,
    /// Per-row needed volume — backward.
    vg: Vec<f64>,
    devices: usize,
    /// `|src_seqs|` — the matrix row count.
    pub rows: usize,
    /// `|dst_seqs|` — the matrix column count.
    pub cols: usize,
    /// Structural identity of the matrix this job computes.
    key: MatrixKey,
}

/// Relative cost of one [`Pricing::Direct`] device lookup (two eight-axis
/// overlap products) against building one [`DirectionTables`] cell: a
/// prepared edge prices directly only when its matrix makes fewer than
/// `1 / DIRECT_LOOKUP_COST` as many lookups as its tables would have cells.
const DIRECT_LOOKUP_COST: usize = 5;

/// How a [`PreparedEdge`] looks up `total · overlap(need, hold)`.
#[derive(Debug, Clone)]
enum Pricing {
    /// One [`DirectionTables`] per direction. Forward: consumer needs vs
    /// producer holds; backward: gradient needs vs gradient holds.
    Tables {
        fwd: Arc<DirectionTables>,
        bwd: Arc<DirectionTables>,
    },
    /// A matrix with few device lookups against the cells its two tables
    /// would have (a beam probe's anchored row against a small space, a
    /// pair of beam-restricted spaces) evaluates each overlap where it is
    /// needed instead.
    Direct {
        total_elems: f64,
        produce: Arc<SideProfiles>,
        consume: Arc<SideProfiles>,
        g_produce: Arc<SideProfiles>,
        g_consume: Arc<SideProfiles>,
    },
}

impl PreparedEdge {
    /// The structural [`MatrixKey`] this prepared job computes the matrix
    /// for. Keys are graph-order-relative (they embed first-seen signature
    /// ids), so they identify matrices across planner runs over graphs with
    /// the same ordered signature list — the handle cross-request warm
    /// caches index by.
    pub fn key(&self) -> &MatrixKey {
        &self.key
    }
    /// Computes the dense `rows × cols` edge-cost matrix, bitwise-identical
    /// to [`edge_cost_matrix`](crate::edge_cost_matrix) on the same inputs.
    ///
    /// The sweep writes each cell exactly once, accumulating both directions
    /// over devices ascending (the direct path's order) from the prepared
    /// overlap tables, or the overlaps themselves for a small matrix — a
    /// single pass over the output instead of one read-modify-write pass per
    /// device and direction.
    pub fn matrix(&self, ctx: &CostCtx<'_>) -> Vec<f64> {
        let (rows, cols, d) = (self.rows, self.cols, self.devices);
        ctx.note_inter_evals((rows * cols) as u64);
        let mut out = vec![0.0; rows * cols];
        let (fwd, bwd) = match &self.pricing {
            Pricing::Tables { fwd, bwd } => (&**fwd, &**bwd),
            Pricing::Direct {
                total_elems,
                produce,
                consume,
                g_produce,
                g_consume,
            } => {
                // `total · need.overlap_fraction(hold)` is the table entry's
                // expression: the same factors, in axis order from `1.0`.
                let entry = |needs: &SideProfiles, n: usize, holds: &SideProfiles, h: usize| {
                    let need = &needs.uniques[needs.ids[n] as usize];
                    total_elems * need.overlap_fraction(&holds.uniques[holds.ids[h] as usize])
                };
                for (i, out_row) in out.chunks_mut(cols).enumerate() {
                    for (j, slot) in out_row.iter_mut().enumerate() {
                        let mut f = 0.0;
                        let mut b = 0.0;
                        for k in 0..d {
                            let fe = entry(consume, j * d + k, produce, i * d + k);
                            f += (self.vc[j] - fe).max(0.0);
                            let be = entry(g_consume, i * d + k, g_produce, j * d + k);
                            b += (self.vg[i] - be).max(0.0);
                        }
                        *slot = ctx.redistribution_time(4.0 * (f + b));
                    }
                }
                return out;
            }
        };
        for (i, out_row) in out.chunks_mut(cols).enumerate() {
            let f_hold = &fwd.hold_rank[i * d..(i + 1) * d];
            let b_pre = &bwd.need_pre[i * d..(i + 1) * d];
            let vgi = self.vg[i];
            for (j, slot) in out_row.iter_mut().enumerate() {
                let f_pre = &fwd.need_pre[j * d..(j + 1) * d];
                let b_hold = &bwd.hold_rank[j * d..(j + 1) * d];
                let vcj = self.vc[j];
                let mut f = 0.0;
                let mut b = 0.0;
                for k in 0..d {
                    f += (vcj - fwd.table[(f_pre[k] + f_hold[k]) as usize]).max(0.0);
                    b += (vgi - bwd.table[(b_pre[k] + b_hold[k]) as usize]).max(0.0);
                }
                *slot = ctx.redistribution_time(4.0 * (f + b));
            }
        }
        out
    }
}

/// One direction's lookup state: the dense `|needs| × |holds|` table of
/// `total · overlap(need, hold)` over the two sides' unique holdings, plus
/// per-sequence per-device indices into it. `need_pre[s · devices + d]` is
/// the need's row offset (`id · |holds|`) and `hold_rank` the hold's id, so a
/// cell's product is `table[need_pre + hold_rank]`.
#[derive(Debug)]
struct DirectionTables {
    table: Vec<f64>,
    need_pre: Vec<u32>,
    hold_rank: Vec<u32>,
}

impl DirectionTables {
    /// Fills the table from per-axis factor tables. On each axis, both
    /// sides hold only a few distinct intervals: each distinct pair's factor
    /// is computed once with [`DenseIntervals::overlap_fraction`]'s exact
    /// expression and multiplied in axis order from `1.0`, so every entry is
    /// bitwise `total · need.overlap_fraction(hold)`. An axis whose factors
    /// are all exactly `1.0` is skipped (`x · 1.0 == x`).
    fn build(total_elems: f64, needs: &SideProfiles, holds: &SideProfiles) -> Self {
        let cols = holds.uniques.len();
        let mut table = vec![1.0f64; needs.uniques.len() * cols];
        for axis in 0..Axis::COUNT {
            let (need_ids, need_ivs) = intern_axis(&needs.uniques, axis);
            let (hold_ids, hold_ivs) = intern_axis(&holds.uniques, axis);
            // The argument order matches the direct path's
            // `need.overlap_fraction(hold)`.
            let factors: Vec<f64> = need_ivs
                .iter()
                .flat_map(|a| {
                    hold_ivs
                        .iter()
                        .map(move |b| (a.1.min(b.1) - a.0.max(b.0)).max(0.0))
                })
                .collect();
            if factors.iter().all(|f| f.to_bits() == 1.0f64.to_bits()) {
                continue;
            }
            // One full-width factor row per distinct need interval, so each
            // table row is a contiguous elementwise product.
            let gathered: Vec<f64> = factors
                .chunks(hold_ivs.len())
                .flat_map(|f_row| hold_ids.iter().map(move |&hi| f_row[hi]))
                .collect();
            for (row, &ni) in table.chunks_mut(cols).zip(&need_ids) {
                for (cell, f) in row.iter_mut().zip(&gathered[ni * cols..(ni + 1) * cols]) {
                    *cell *= f;
                }
            }
        }
        for cell in &mut table {
            *cell *= total_elems;
        }
        DirectionTables {
            table,
            need_pre: needs.ids.iter().map(|&n| n * cols as u32).collect(),
            hold_rank: holds.ids.clone(),
        }
    }
}

/// One axis of `uniques`, interned by bit pattern: each holding's index into
/// the distinct `(lo, hi)` intervals, in first-seen order.
fn intern_axis(uniques: &[DenseIntervals], axis: usize) -> (Vec<usize>, Vec<(f64, f64)>) {
    let mut distinct: Vec<(f64, f64)> = Vec::new();
    let mut by_bits: HashMap<(u64, u64), usize> = HashMap::new();
    let ids = uniques
        .iter()
        .map(|u| {
            let iv = u.0[axis];
            *by_bits
                .entry((iv.0.to_bits(), iv.1.to_bits()))
                .or_insert_with(|| {
                    distinct.push(iv);
                    distinct.len() - 1
                })
        })
        .collect();
    (ids, distinct)
}

/// Interning cache of side profiles and whole edge matrices, keyed by
/// operator signature ids. One cache serves one planner run (the keys assume
/// a fixed device count and one shared space enumeration per signature).
#[derive(Debug, Default)]
pub struct EdgeCostCache {
    profiles: HashMap<ProfileKey, Arc<SideProfiles>>,
    /// Direction tables keyed by the interned profile pair's identity plus
    /// the edge's element count — profile interning makes `Arc` pointer
    /// equality equivalent to [`ProfileKey`] equality within one cache.
    tables: HashMap<(usize, usize, u64), Arc<DirectionTables>>,
    stats: CacheStats,
}

impl EdgeCostCache {
    /// An empty cache.
    pub fn new() -> Self {
        EdgeCostCache::default()
    }

    /// Hit/miss counters accumulated so far.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Records a whole-matrix reuse (`hit`) or computation (miss) — the
    /// caller owns the [`MatrixKey`]-level dedup so it can batch the misses.
    pub fn note_matrix(&mut self, hit: bool) {
        if hit {
            self.stats.matrix_hits += 1;
        } else {
            self.stats.matrix_misses += 1;
        }
    }

    /// Interns the four side profiles of `edge` and returns the prepared
    /// cell evaluator. Profile builds are shared across edges whose endpoint
    /// signatures and edge parameters agree.
    #[allow(clippy::too_many_arguments)]
    pub fn prepare(
        &mut self,
        edge: &Edge,
        src_op: &Operator,
        dst_op: &Operator,
        src_seqs: &[PartitionSeq],
        dst_seqs: &[PartitionSeq],
        src_sig: usize,
        dst_sig: usize,
    ) -> PreparedEdge {
        let space = DeviceSpace::new(src_seqs[0].bits());
        assert_eq!(
            src_seqs[0].bits(),
            dst_seqs[0].bits(),
            "both operators span the same devices"
        );
        let total_elems: f64 = side_dims(dst_op, edge.dst_kind)
            .iter()
            .map(|&d| dst_op.extent(d).max(1) as f64)
            .product();
        let grad_kind = match edge.dst_kind {
            TensorKind::Weight => TensorKind::GradWeight,
            _ => TensorKind::GradInput,
        };
        let grad_phase = match grad_kind {
            TensorKind::GradWeight => Phase::Gradient,
            _ => Phase::Backward,
        };
        let produce = self.side(
            src_sig,
            src_op,
            src_seqs,
            space,
            TensorKind::Output,
            Phase::Forward,
            Side::Produce,
            &[],
            edge.selector,
            None,
        );
        let consume = self.side(
            dst_sig,
            dst_op,
            dst_seqs,
            space,
            edge.dst_kind,
            Phase::Forward,
            Side::Consume,
            &edge.renames,
            None,
            None,
        );
        let g_produce = self.side(
            dst_sig,
            dst_op,
            dst_seqs,
            space,
            grad_kind,
            grad_phase,
            Side::Produce,
            &edge.renames,
            None,
            Some(&consume),
        );
        let g_consume = self.side(
            src_sig,
            src_op,
            src_seqs,
            space,
            TensorKind::GradOutput,
            Phase::Backward,
            Side::Consume,
            &[],
            edge.selector,
            Some(&produce),
        );
        // Forward traffic: consumer needs (varies by column) vs producer
        // holds (varies by row). Backward: producer-side needs (rows) vs
        // consumer-side holds (cols).
        let vc = consume
            .volume_fraction
            .iter()
            .map(|f| total_elems * f)
            .collect();
        let vg = g_consume
            .volume_fraction
            .iter()
            .map(|f| total_elems * f)
            .collect();
        let (rows, cols) = (src_seqs.len(), dst_seqs.len());
        let d = produce.devices;
        let lookups = rows * cols * d;
        let table_cells = consume.uniques.len() * produce.uniques.len()
            + g_consume.uniques.len() * g_produce.uniques.len();
        let pricing = if DIRECT_LOOKUP_COST * lookups < table_cells {
            Pricing::Direct {
                total_elems,
                produce,
                consume,
                g_produce,
                g_consume,
            }
        } else {
            Pricing::Tables {
                fwd: self.direction(total_elems, &consume, &produce),
                bwd: self.direction(total_elems, &g_consume, &g_produce),
            }
        };
        PreparedEdge {
            pricing,
            vc,
            vg,
            devices: d,
            rows,
            cols,
            key: MatrixKey::new(edge, src_sig, dst_sig),
        }
    }

    /// Interned [`DirectionTables`] for one `(needs, holds, total)` triple.
    fn direction(
        &mut self,
        total_elems: f64,
        needs: &Arc<SideProfiles>,
        holds: &Arc<SideProfiles>,
    ) -> Arc<DirectionTables> {
        let key = (
            Arc::as_ptr(needs) as usize,
            Arc::as_ptr(holds) as usize,
            total_elems.to_bits(),
        );
        if let Some(tables) = self.tables.get(&key) {
            return tables.clone();
        }
        let built = Arc::new(DirectionTables::build(total_elems, needs, holds));
        self.tables.insert(key, built.clone());
        built
    }

    #[allow(clippy::too_many_arguments)]
    fn side(
        &mut self,
        sig: usize,
        op: &Operator,
        seqs: &[PartitionSeq],
        space: DeviceSpace,
        kind: TensorKind,
        phase: Phase,
        side: Side,
        renames: &[(Axis, Axis)],
        selector: Option<(f64, f64)>,
        base: Option<&Arc<SideProfiles>>,
    ) -> Arc<SideProfiles> {
        let key = ProfileKey {
            sig,
            kind,
            phase,
            side,
            renames: renames.to_vec(),
            selector: selector_bits(selector),
        };
        if let Some(cached) = self.profiles.get(&key) {
            self.stats.profile_hits += 1;
            return cached.clone();
        }
        self.stats.profile_misses += 1;
        let built = Arc::new(SideProfiles::build(
            op,
            seqs,
            space,
            kind,
            phase,
            side,
            renames,
            selector,
            base.map(Arc::as_ref),
        ));
        self.profiles.insert(key, built.clone());
        built
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::edge_cost_matrix;
    use primepar_graph::ModelConfig;
    use primepar_partition::{Dim, Primitive};
    use primepar_topology::Cluster;

    /// Every 2-bit spatial sequence plus the temporal primitive — a dense
    /// slice through the real 4-device partition space.
    fn seqs_4dev() -> Vec<PartitionSeq> {
        let dims = [Dim::B, Dim::M, Dim::N, Dim::K];
        let mut out = Vec::new();
        for a in dims {
            for b in dims {
                out.push(
                    PartitionSeq::new(vec![Primitive::Split(a), Primitive::Split(b)]).unwrap(),
                );
            }
        }
        out.push(PartitionSeq::new(vec![Primitive::Temporal { k: 1 }]).unwrap());
        out
    }

    #[test]
    fn matrix_job_ids_match_matrix_key_dedup() {
        // The interned ids must reproduce the first-seen dense numbering a
        // `HashMap<MatrixKey, usize>` dedup would assign, edge for edge —
        // including the QKV selector edges that share signatures but must
        // not collide.
        let g = ModelConfig::opt_6_7b().layer_graph(8, 512);
        let sig_ids = g.signature_ids();
        let ids = matrix_job_ids(&g.edges, &sig_ids);
        assert_eq!(ids.len(), g.edges.len());
        let mut by_key: HashMap<MatrixKey, usize> = HashMap::new();
        let mut next = 0usize;
        for (edge, &id) in g.edges.iter().zip(&ids) {
            let key = MatrixKey::new(edge, sig_ids[edge.src], sig_ids[edge.dst]);
            let expect = *by_key.entry(key).or_insert_with(|| {
                let fresh = next;
                next += 1;
                fresh
            });
            assert_eq!(id, expect);
        }
        assert_eq!(ids.iter().max().map(|m| m + 1), Some(next));
        assert!(next < g.edges.len(), "residual adds must dedup");
    }

    #[test]
    fn prepared_matrix_is_bitwise_identical_to_direct() {
        let cluster = Cluster::v100_like(4);
        let g = ModelConfig::opt_6_7b().layer_graph(8, 512);
        let sig_ids = g.signature_ids();
        let seqs = seqs_4dev();
        // Full spaces, a single anchored row or column (a beam probe) and a
        // two-state pair: both pricing modes must occur, and match.
        let shapes: [(&[PartitionSeq], &[PartitionSeq]); 4] = [
            (&seqs, &seqs),
            (&seqs[3..4], &seqs),
            (&seqs, &seqs[5..6]),
            (&seqs[..2], &seqs[7..9]),
        ];
        let mut modes = [0usize; 2];
        for (src_seqs, dst_seqs) in shapes {
            let mut cache = EdgeCostCache::new();
            for edge in &g.edges {
                let (src, dst) = (&g.ops[edge.src], &g.ops[edge.dst]);
                let direct_ctx = CostCtx::new(&cluster, 0.0);
                let direct = edge_cost_matrix(&direct_ctx, edge, src, dst, src_seqs, dst_seqs);
                let prepared = cache.prepare(
                    edge,
                    src,
                    dst,
                    src_seqs,
                    dst_seqs,
                    sig_ids[edge.src],
                    sig_ids[edge.dst],
                );
                modes[usize::from(matches!(prepared.pricing, Pricing::Direct { .. }))] += 1;
                let ctx = CostCtx::new(&cluster, 0.0);
                let fast = prepared.matrix(&ctx);
                assert_eq!(direct.len(), fast.len());
                for (i, (a, b)) in direct.iter().zip(&fast).enumerate() {
                    assert_eq!(
                        a.to_bits(),
                        b.to_bits(),
                        "edge ({}, {}) cell {i}: {a} vs {b}",
                        edge.src,
                        edge.dst
                    );
                }
                assert_eq!(ctx.inter_evaluations(), direct.len() as u64);
            }
        }
        assert!(modes.iter().all(|&m| m > 0), "tables/direct: {modes:?}");
    }

    /// Intervals `[lo, hi)` on the listed axes, `[0, 1)` elsewhere.
    fn dense(axes: &[(usize, f64, f64)]) -> DenseIntervals {
        let mut d = [(0.0, 1.0); Axis::COUNT];
        for &(a, lo, hi) in axes {
            d[a] = (lo, hi);
        }
        DenseIntervals(d)
    }

    /// One sequence over `uniques.len()` devices, device `d` holding
    /// `uniques[d]`.
    fn one_seq_side(uniques: Vec<DenseIntervals>) -> SideProfiles {
        SideProfiles {
            volume_fraction: vec![1.0],
            ids: (0..uniques.len() as u32).collect(),
            devices: uniques.len(),
            uniques,
        }
    }

    #[test]
    fn direction_tables_match_overlap_fraction_bitwise() {
        let full = dense(&[]);
        let third = 1.0 / 3.0;
        let cases = [
            // Disjoint intervals: every factor on axis 1 or 4 is zero.
            (
                vec![dense(&[(1, 0.0, 0.5)]), dense(&[(4, 0.5, 1.0)])],
                vec![dense(&[(1, 0.5, 1.0)]), dense(&[(4, 0.0, 0.25)])],
            ),
            // All-full axes: every axis is skipped, every entry is `total`.
            (vec![full, full], vec![full, full, full]),
            // Nested sub-intervals on several axes, with inexact factors.
            (
                vec![
                    full,
                    dense(&[(0, 0.25, 0.5), (3, third, 2.0 * third), (7, 0.1, 0.7)]),
                    dense(&[(0, 0.0, 0.5), (3, 0.0, 2.0 * third), (5, 0.2, 0.9)]),
                ],
                vec![
                    dense(&[(0, 0.0, 0.5)]),
                    dense(&[(3, 0.0, 2.0 * third), (7, 0.0, 0.5)]),
                    dense(&[
                        (0, 0.375, 0.5),
                        (3, third, 0.9),
                        (5, 0.3, 0.7),
                        (7, 0.2, 0.3),
                    ]),
                    full,
                ],
            ),
        ];
        let total = 3.0 * 7.0 * 11.0 * 4096.0;
        for (needs, holds) in cases {
            let (needs, holds) = (one_seq_side(needs), one_seq_side(holds));
            let t = DirectionTables::build(total, &needs, &holds);
            let cols = holds.uniques.len();
            assert_eq!(t.table.len(), needs.uniques.len() * cols);
            for (n, need) in needs.uniques.iter().enumerate() {
                assert_eq!(t.need_pre[n], (n * cols) as u32);
                for (h, hold) in holds.uniques.iter().enumerate() {
                    let expect = total * need.overlap_fraction(hold);
                    let got = t.table[t.need_pre[n] as usize + t.hold_rank[h] as usize];
                    assert_eq!(
                        got.to_bits(),
                        expect.to_bits(),
                        "({n}, {h}): {got} vs {expect}"
                    );
                }
            }
        }
    }

    #[test]
    fn profiles_are_shared_across_structurally_equal_edges() {
        let g = ModelConfig::opt_6_7b().layer_graph(8, 512);
        let sig_ids = g.signature_ids();
        let seqs = seqs_4dev();
        let mut cache = EdgeCostCache::new();
        // anchor→norm1 and add1→norm2 have equal endpoint signatures and
        // parameters: the second prepare must hit all four profile slots.
        let e01 = g.edges.iter().find(|e| e.src == 0 && e.dst == 1).unwrap();
        let e78 = g.edges.iter().find(|e| e.src == 7 && e.dst == 8).unwrap();
        assert_eq!(MatrixKey::new(e01, 0, 1), MatrixKey::new(e78, 0, 1));
        cache.prepare(e01, &g.ops[0], &g.ops[1], &seqs, &seqs, 0, 1);
        assert_eq!(cache.stats().profile_misses, 4);
        cache.prepare(e78, &g.ops[7], &g.ops[8], &seqs, &seqs, 0, 1);
        assert_eq!(cache.stats().profile_misses, 4);
        assert_eq!(cache.stats().profile_hits, 4);
        // QKV selector edges must NOT collide despite equal signatures.
        let q = g
            .edges
            .iter()
            .find(|e| e.src == 2 && e.dst == 3 && e.dst_kind == TensorKind::Input)
            .unwrap();
        let k = g
            .edges
            .iter()
            .find(|e| e.src == 2 && e.dst == 3 && e.dst_kind == TensorKind::Weight)
            .unwrap();
        assert_ne!(
            MatrixKey::new(q, sig_ids[2], sig_ids[3]),
            MatrixKey::new(k, sig_ids[2], sig_ids[3])
        );
    }

    #[test]
    fn deduplication_shrinks_holdings() {
        // A coarse B-split leaves many devices with repeated slices; the
        // interned uniques must be far fewer than len() × devices.
        let g = ModelConfig::opt_6_7b().layer_graph(8, 512);
        let seqs = seqs_4dev();
        let space = DeviceSpace::new(2);
        let side = SideProfiles::build(
            &g.ops[9],
            &seqs,
            space,
            TensorKind::Output,
            Phase::Forward,
            Side::Produce,
            &[],
            None,
            None,
        );
        assert_eq!(side.len(), seqs.len());
        assert!(
            side.unique_holdings() < seqs.len() * 4 / 2,
            "expected ≥2× dedup, got {} of {}",
            side.unique_holdings(),
            seqs.len() * 4
        );
    }
}
