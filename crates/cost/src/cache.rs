//! Structural memoization of the inter-operator cost model (Eqs. 8–9).
//!
//! The reference [`edge_cost_matrix`](crate::edge_cost_matrix) rebuilds
//! each side's holdings from scratch per sequence and evaluates every `(row,
//! col)` cell as a per-device product of eight axis-interval intersections.
//! Both are heavily redundant on a real transformer graph:
//!
//! * a side's profile vector depends on its *layout* alone, not on the
//!   operator that holds it: the sequence list, the side's ordered
//!   dimensions (each with its extent and its axis decomposition after the
//!   edge's renames) and the edge selector — plus the DSI phase and step
//!   side, but only when the list has a temporal sequence (without one every
//!   DSI is phase- and step-invariant). The [`EdgeCostCache`] interns
//!   profiles under exactly that key, so one layout builds once however
//!   many operators and tensor roles share it: a residual add's and a
//!   layernorm's activations, a pointwise operator's input and its
//!   gradient, a batched matmul's weight and its gradient. Sequence lists
//!   are interned by content, never by address, and a build whose bytes
//!   equal an earlier one's (the K and V slices of the fused QKV output
//!   when no cut reaches the Q/K/V axis) ends on that one's `Arc`;
//! * within one side's profile vector, most per-device holdings repeat (a
//!   coarse split leaves many devices with identical slices), so holdings
//!   are deduplicated, one build per distinct DSI tuple index, and each
//!   device's holding ids over the whole space are stored together
//!   (`[device][seq]`), written straight into their slots;
//! * Eq. 9's overlap is a product over axes, and on each axis a side holds
//!   only a few distinct intervals. So a profile stores, per axis, a short
//!   table of its distinct `(lo, hi)` intervals, and each unique holding as
//!   its tuple of axis ids, interned once while the profile builds. Each
//!   direction of a sweep reads those tables as they are: per axis whose
//!   factors are not all exactly `1.0`, one factor row per hold interval
//!   over the need side's unique holdings, and never a `|need uniques| ×
//!   |hold uniques|` table. The sweep builds its two directions from the
//!   plane's profiles and drops them when it ends; the cache never holds
//!   them;
//! * the sweep is device-major: per device and direction it builds one term
//!   row `(V − total·overlap)⁺` per distinct holding on the hold side, from
//!   the factor rows, and adds it into every cell that holds it — see
//!   [`PreparedEdge::volumes`]. Many sequences share each device's holding,
//!   so the entries number well under the terms they sum;
//! * a matrix's traffic is a function of its four profiles and its element
//!   count, never of the cluster: the sweep yields each cell's
//!   redistribution *volume* `4·(f + b)` in bytes (Eqs. 8–9), and Eq. 10's
//!   pricing, [`CostCtx::price`], turns it into seconds as a separate step.
//!   So the cache memoizes volume planes by that sweep identity, and every
//!   prepared edge reading the same four profiles at the same element count
//!   shares one plane ([`PreparedEdge::plane`]) — across the edges of one
//!   pass, and across clusters, `α` and runs when the cache outlives a pass.
//!   Before any prepare, [`matrix_job_ids`] numbers the edges whose
//!   endpoints share signatures and edge parameters (the residual adds, the
//!   stacked-layer boundary), so a repeated job is not even prepared.
//!
//! A cache lives for one planner pass, or for the lifetime of a
//! `PlannerWarmCache` that keeps it across runs, and holds two kinds of
//! entry: side profiles and volume planes. A plane's entry owns the four
//! profiles its key names by address, so no key in the cache can name a
//! profile that its own entry does not keep alive, and a prepared edge is a
//! handle on that one entry.
//!
//! Everything here is *bitwise-identical* to the direct path: deduplication
//! only reuses values that would have been recomputed from identical inputs,
//! and every floating-point accumulation keeps the original operation order
//! (axes ascending from `1.0` within an overlap, then `· total`; ascending
//! device order from `0.0` with `(v − overlap).max(0)` per device within a
//! cell, then `4·(f + b)` and the pricing). Skipping an axis whose factors
//! are all exactly `1.0` is exact, since `x · 1.0 == x`.

use std::collections::HashMap;
use std::mem::size_of;
use std::sync::{Arc, OnceLock, Weak};

use primepar_graph::{Axis, Edge, Operator};
use primepar_partition::{Dim, PartitionSeq, Phase, TensorKind};
use primepar_topology::DeviceSpace;

use crate::hash::WordHash;
use crate::inter::{renamed, EdgeSide, EdgeSides, ShapeMemo, Side};
use crate::{CostCtx, DenseIntervals};

/// Hit/miss telemetry of one run's use of an [`EdgeCostCache`]. The run
/// owns it and passes it to every call, so runs sharing one cache each count
/// their own work.
#[derive(Debug, Clone, Default)]
pub struct CacheStats {
    /// Side-profile vectors served from the cache.
    pub profile_hits: u64,
    /// Side-profile vectors built from scratch.
    pub profile_misses: u64,
    /// Distinct volume planes already swept when the run first read them.
    pub plane_hits: u64,
    /// Distinct volume planes the run found unswept.
    pub plane_misses: u64,
    /// The planes the run has read. A `Weak` keeps each one's address from
    /// being reused without keeping the plane, so pricing in place still
    /// works once the cache drops.
    read: Vec<Weak<PlaneEntry>>,
}

impl CacheStats {
    /// Counts the run's first read of `entry` as a hit when the cache
    /// already held it swept, as a miss otherwise; later reads count nothing.
    fn note_plane(&mut self, entry: &Arc<PlaneEntry>) {
        if self.read.iter().any(|p| p.as_ptr() == Arc::as_ptr(entry)) {
            return;
        }
        self.read.push(Arc::downgrade(entry));
        if entry.plane.get().is_some() {
            self.plane_hits += 1;
        } else {
            self.plane_misses += 1;
        }
    }
}

/// Interning key of one side's profile vector: everything its bytes depend
/// on, and nothing that merely names it (operator, signature, tensor role).
/// Valid within one [`EdgeCostCache`], whose sequence-list ids it embeds.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct ProfileKey {
    /// The content-interned sequence list (its device bits come with it).
    seqs: u32,
    /// The side's dimensions in order.
    dims: Vec<SideDim>,
    /// Selector endpoints as IEEE-754 bits (`f64` is not `Hash`).
    selector: Option<(u64, u64)>,
    /// The DSI phase and step side, only for a list with a temporal
    /// sequence: every other sequence's DSIs are phase- and step-invariant.
    steps: Option<(Phase, Side)>,
}

/// One dimension of a side's layout: the dimension, its extent and its axis
/// decomposition after the edge's renames.
type SideDim = (Dim, u64, Vec<(Axis, u64)>);

/// A sequence list interned by content within one [`EdgeCostCache`].
#[derive(Debug, Clone, Copy)]
struct SeqList {
    id: u32,
    /// Whether any sequence of the list has temporal steps.
    temporal: bool,
}

/// A partition-space vector as one [`EdgeCostCache`] has interned it: the
/// sequences and their list id, from [`EdgeCostCache::list`]. It is valid
/// only with the cache that listed it.
#[derive(Debug, Clone, Copy)]
pub struct ListedSpace<'a> {
    seqs: &'a [PartitionSeq],
    list: SeqList,
}

/// One sweep identity's cache entry: the four interned side profiles the
/// sweep reads, the edge's element count, and the volume plane, empty until
/// the first sweep.
#[derive(Debug)]
struct PlaneEntry {
    /// Forward: consumer needs (columns) against producer holds (rows).
    produce: Arc<SideProfiles>,
    consume: Arc<SideProfiles>,
    /// Backward: gradient needs (rows) against gradient holds (columns).
    g_produce: Arc<SideProfiles>,
    g_consume: Arc<SideProfiles>,
    total_elems: f64,
    plane: OnceLock<Vec<f64>>,
}

fn selector_bits(selector: Option<(f64, f64)>) -> Option<(u64, u64)> {
    selector.map(|(a, b)| (a.to_bits(), b.to_bits()))
}

/// Dense first-seen matrix-job ids per edge: `ids[e] == ids[f]` exactly when
/// the two edges join the same `(source signature, destination signature)`
/// with equal parameters `(dst_kind, renames, selector)`, so their matrices
/// are bitwise equal (given one shared partition-space enumeration per
/// signature). The parameters are interned once by a linear scan (edge
/// lists are short) and the remaining `Copy` tuple `(src_sig, dst_sig,
/// param_id)` dedups the same way — no hashing, no clones.
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

/// One holding as its interval id on every axis: an index into that axis's
/// table of [`SideProfiles`].
type AxisIds = [u16; Axis::COUNT];

/// One side's boundary profiles over a whole partition-space vector, with
/// per-device holdings deduplicated and interned per axis:
/// `ids[device * len() + seq]` indexes into `uniques`, the distinct holdings
/// observed on this side, and each unique names its interval on axis `a` by
/// an index into `intervals[a]`.
#[derive(Debug, Clone)]
pub struct SideProfiles {
    /// Per-sequence block volume fraction (the `V` of Eq. 9, as a fraction).
    volume_fraction: Vec<f64>,
    /// Per axis, the distinct `(lo, hi)` intervals the uniques hold on it, in
    /// first-seen order. Every entry is some unique's.
    intervals: [Vec<(f64, f64)>; Axis::COUNT],
    /// Distinct per-device holdings, in first-seen order.
    uniques: Vec<AxisIds>,
    /// `[device][seq]` (device-major) indices into `uniques`: one device's
    /// holdings over the whole space are contiguous, as the sweep reads them.
    ids: Vec<u32>,
    devices: usize,
}

/// The interning state of one [`SideProfiles`] build: holdings are equal
/// exactly when their intervals are bitwise equal on every axis, which is
/// exactly when their axis-id tuples are equal.
#[derive(Debug, Default)]
struct Interner {
    intervals: [Vec<(f64, f64)>; Axis::COUNT],
    uniques: Vec<AxisIds>,
    by_ids: HashMap<AxisIds, u32, WordHash>,
}

impl Interner {
    /// `holding`'s unique id: each axis's interval found in that axis's
    /// short table by a linear scan over bit patterns (or appended), then
    /// the id tuple interned.
    fn intern(&mut self, holding: &DenseIntervals) -> u32 {
        let mut key: AxisIds = [0; Axis::COUNT];
        for ((id, table), &(lo, hi)) in key.iter_mut().zip(&mut self.intervals).zip(&holding.0) {
            let bits = (lo.to_bits(), hi.to_bits());
            let at = match table
                .iter()
                .position(|&(a, b)| (a.to_bits(), b.to_bits()) == bits)
            {
                Some(at) => at,
                None => {
                    table.push((lo, hi));
                    table.len() - 1
                }
            };
            *id = u16::try_from(at).expect("at most 65,536 intervals per axis");
        }
        let uniques = &mut self.uniques;
        *self.by_ids.entry(key).or_insert_with(|| {
            uniques.push(key);
            (uniques.len() - 1) as u32
        })
    }
}

impl SideProfiles {
    /// Builds and deduplicates the holdings of every sequence on `side`.
    ///
    /// `base` is an already-built profile vector over the *same* layout —
    /// sequence list, dimensions, renames and selector — in another phase or
    /// step side (the caller guarantees this — in practice the forward twin
    /// of a backward side).
    /// Sequences without temporal primitives have phase- and step-invariant
    /// DSIs, so their rows are copied from `base` instead of rebuilt; only
    /// temporal sequences are profiled from scratch.
    fn build(
        side: &EdgeSide,
        seqs: &[PartitionSeq],
        space: DeviceSpace,
        base: Option<&SideProfiles>,
    ) -> Self {
        let devices = space.num_devices();
        let n = seqs.len();
        let mut volume_fraction = Vec::with_capacity(n);
        let mut interner = Interner::default();
        // `[device][seq]`: sequence `i`'s id on device `d` at `d * n + i`.
        let mut ids = vec![0u32; devices * n];
        // base unique id → this build's unique id, filled on demand.
        let mut translate = vec![u32::MAX; base.map_or(0, |b| b.uniques.len())];
        let mut memo = ShapeMemo::new();
        for (i, seq) in seqs.iter().enumerate() {
            let slots = ids.iter_mut().skip(i).step_by(n);
            if let Some(b) = base.filter(|_| seq.temporal_steps() == 1) {
                volume_fraction.push(b.volume_fraction[i]);
                for (slot, &g) in slots.zip(b.ids.iter().skip(i).step_by(n)) {
                    let g = g as usize;
                    if translate[g] == u32::MAX {
                        translate[g] = interner.intern(&b.holding(g));
                    }
                    *slot = translate[g];
                }
                continue;
            }
            // `profile_dedup_into` builds each distinct DSI-tuple holding
            // once per slice shape across the whole sequence list; only
            // those few are interned here.
            let vf = side.profile_dedup_into(
                seq,
                space,
                &mut memo,
                &mut |holding| interner.intern(&holding),
                slots,
            );
            volume_fraction.push(vf);
        }
        SideProfiles {
            volume_fraction,
            intervals: interner.intervals,
            uniques: interner.uniques,
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

    /// Unique `u` as dense intervals, bitwise the holding it was interned
    /// from.
    fn holding(&self, u: usize) -> DenseIntervals {
        let ids = &self.uniques[u];
        DenseIntervals(std::array::from_fn(|a| self.intervals[a][ids[a] as usize]))
    }

    /// Heap bytes of the profile vector's payload.
    fn heap_bytes(&self) -> usize {
        size_of::<f64>() * self.volume_fraction.len()
            + size_of::<(f64, f64)>() * self.intervals.iter().map(Vec::len).sum::<usize>()
            + size_of::<AxisIds>() * self.uniques.len()
            + size_of::<u32>() * self.ids.len()
    }

    /// Device `d`'s holding ids, one per sequence.
    fn on_device(&self, d: usize) -> &[u32] {
        let n = self.len();
        &self.ids[d * n..(d + 1) * n]
    }

    /// Every axis table as bit patterns, in table order, each led by its
    /// length.
    fn table_bits(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.intervals.iter().flat_map(|table| {
            let len = (table.len() as u64, 0);
            std::iter::once(len).chain(table.iter().map(|&(lo, hi)| (lo.to_bits(), hi.to_bits())))
        })
    }

    /// A hash of the bits [`same_bits`](Self::same_bits) compares, bar the
    /// `[device][seq]` ids: they are the bulk of a large space's profile,
    /// and `same_bits` settles any collision.
    fn content_hash(&self) -> u64 {
        use std::hash::{BuildHasher, Hash, Hasher};
        let mut h = WordHash::default().build_hasher();
        self.devices.hash(&mut h);
        for vf in &self.volume_fraction {
            vf.to_bits().hash(&mut h);
        }
        self.table_bits().for_each(|bits| bits.hash(&mut h));
        self.uniques.hash(&mut h);
        h.finish()
    }

    /// Whether the two vectors are bitwise equal: then every plane swept
    /// from one is bitwise the other's. Axis tables are in first-seen order
    /// over the uniques, so equal holdings make equal tables and tuples.
    fn same_bits(&self, other: &SideProfiles) -> bool {
        self.devices == other.devices
            && self.ids == other.ids
            && self.uniques == other.uniques
            && self.volume_fraction.len() == other.volume_fraction.len()
            && self
                .volume_fraction
                .iter()
                .zip(&other.volume_fraction)
                .all(|(a, b)| a.to_bits() == b.to_bits())
            && self.table_bits().eq(other.table_bits())
    }
}

/// A prepared edge: a handle on its cache's volume-plane entry, which every
/// prepared edge reading the same four profiles at the same element count
/// shares — `Send + Sync`, so distinct planes sweep on worker threads
/// against one shared [`CostCtx`].
#[derive(Debug, Clone)]
pub struct PreparedEdge {
    entry: Arc<PlaneEntry>,
}

impl PreparedEdge {
    /// Sweeps the dense `rows × cols` redistribution-volume matrix afresh:
    /// `4·(f + b)` bytes per cell (Eqs. 8–9). Priced by [`CostCtx::price`],
    /// it is bitwise [`edge_cost_matrix`](crate::edge_cost_matrix) on the
    /// same inputs.
    ///
    /// The sweep is device-major. For each device and direction it builds
    /// one term row `(V − ((G_a·G_b)·…)·total)⁺` per distinct holding on
    /// the hold side (rows forward, columns backward), across the need side,
    /// from the direction's per-axis factor rows, and adds it into every
    /// accumulator row that holds it with one contiguous loop: forward
    /// accumulates `[row][col]`, backward `[col][row]`. A one-sequence need
    /// side (a beam probe's anchor) is priced along the hold side instead,
    /// the accumulator's long side. Each cell thus sums its devices in
    /// ascending order from `0.0`, as the direct path does, and a cell is
    /// `4·(f + b)` once at the end. Each direction's factor rows are built
    /// here and dropped once it is summed. The entries built are counted in
    /// [`CostCtx::term_row_entries`], the cells in
    /// [`CostCtx::inter_evaluations`].
    pub fn volumes(&self, ctx: &CostCtx<'_>) -> Vec<f64> {
        let e = &*self.entry;
        let (rows, cols) = (e.produce.len(), e.consume.len());
        ctx.note_inter_evals((rows * cols) as u64);
        // One direction: the need side's per-sequence volume (`V` of Eq. 9,
        // elements) and its factor rows against the hold side.
        let sweep = |needs: &SideProfiles, holds: &SideProfiles, acc: &mut [f64]| {
            let v: Vec<f64> = needs
                .volume_fraction
                .iter()
                .map(|f| e.total_elems * f)
                .collect();
            Direction::build(e.total_elems, needs, holds).accumulate(needs, holds, &v, acc)
        };
        let mut out = vec![0.0; rows * cols];
        let mut bwd = vec![0.0; cols * rows];
        let built =
            sweep(&e.consume, &e.produce, &mut out) + sweep(&e.g_consume, &e.g_produce, &mut bwd);
        ctx.note_term_row_entries(built);
        for (i, out_row) in out.chunks_exact_mut(cols).enumerate() {
            for (j, slot) in out_row.iter_mut().enumerate() {
                *slot = 4.0 * (*slot + bwd[j * rows + i]);
            }
        }
        out
    }

    /// Whether the cache already holds this edge's volume plane swept.
    pub fn is_swept(&self) -> bool {
        self.entry.plane.get().is_some()
    }

    /// Whether the two prepared edges read one volume plane.
    pub fn shares_plane(&self, other: &PreparedEdge) -> bool {
        Arc::ptr_eq(&self.entry, &other.entry)
    }

    /// The memoized volume plane, swept by the first read of its identity.
    /// Concurrent first reads wait for that one sweep.
    pub fn plane(&self, ctx: &CostCtx<'_>) -> &[f64] {
        self.entry.plane.get_or_init(|| self.volumes(ctx))
    }

    /// The swept plane priced by [`CostCtx::price`]: in place when this
    /// edge holds the entry's last reference (its cache has dropped), else
    /// on a copy, leaving the cache its volumes.
    ///
    /// # Panics
    ///
    /// Panics if the plane was never swept.
    pub fn into_priced(self, ctx: &CostCtx<'_>) -> Vec<f64> {
        let mut plane = match Arc::try_unwrap(self.entry) {
            Ok(entry) => entry.plane.into_inner(),
            Err(shared) => shared.plane.get().cloned(),
        }
        .expect("plane swept before pricing");
        ctx.price(&mut plane);
        plane
    }
}

/// One direction's pricing state: for every axis whose factors are not all
/// exactly `1.0`, one factor row per distinct hold interval over the need
/// side's unique holdings. The product of an axis-ordered pick of those rows
/// times the element count is `total · need.overlap_fraction(hold)`, bitwise
/// (skipping an all-`1.0` axis is exact: `x · 1.0 == x`), so no `|needs| ×
/// |holds|` table is ever built. Both sides' axis tables come interned from
/// their profiles.
#[derive(Debug)]
struct Direction<'a> {
    total_elems: f64,
    /// The need side's unique holding count: every factor row's length.
    needs: usize,
    /// The hold side's uniques: each one's interval id per axis picks its
    /// factor row.
    holds: &'a [AxisIds],
    /// The live axes, ascending.
    axes: Vec<AxisFactors>,
}

/// One live axis of a [`Direction`].
#[derive(Debug)]
struct AxisFactors {
    axis: usize,
    /// `[hold interval][need unique]` factors `(min(hi) − max(lo))⁺` —
    /// [`DenseIntervals::overlap_fraction`]'s per-axis expression, with the
    /// need as its receiver.
    rows: Vec<f64>,
}

impl<'a> Direction<'a> {
    fn build(total_elems: f64, needs: &SideProfiles, holds: &'a SideProfiles) -> Self {
        let axes = (0..Axis::COUNT)
            .filter_map(|axis| {
                let (need_ivs, hold_ivs) = (&needs.intervals[axis], &holds.intervals[axis]);
                // Each distinct interval pair's factor, `[hold][need]`.
                let factors: Vec<f64> = hold_ivs
                    .iter()
                    .flat_map(|b| {
                        need_ivs
                            .iter()
                            .map(move |a| (a.1.min(b.1) - a.0.max(b.0)).max(0.0))
                    })
                    .collect();
                if factors.iter().all(|f| f.to_bits() == 1.0f64.to_bits()) {
                    return None;
                }
                let mut rows = Vec::with_capacity(hold_ivs.len() * needs.uniques.len());
                for f in factors.chunks_exact(need_ivs.len()) {
                    rows.extend(needs.uniques.iter().map(|u| f[u[axis] as usize]));
                }
                Some(AxisFactors { axis, rows })
            })
            .collect();
        Direction {
            total_elems,
            needs: needs.uniques.len(),
            holds: &holds.uniques,
            axes,
        }
    }

    /// The factor row of hold unique `hold` on live axis `a`, `needs` long.
    fn row(&self, a: &'a AxisFactors, hold: usize) -> &'a [f64] {
        &a.rows[self.holds[hold][a.axis] as usize * self.needs..][..self.needs]
    }

    /// `out[x] = finish(x, ((G_a·G_b)·…)·total)` for hold unique `hold`
    /// against need unique `need[x]`: the live axes' factors multiplied in
    /// axis order, as the overlap product does from `1.0`. Three live axes,
    /// the common count on the planner's graphs (every direction of the
    /// 512-device chain), run in one fused pass; any other count takes
    /// [`product`](Self::product) per entry. The fused pass is the fast
    /// one: gathering the first axis's row and multiplying each later axis
    /// in place, one pass per axis, made the chain's sweep about 30%
    /// slower, and a per-entry fold over pre-gathered rows about 70%.
    fn fill(&self, hold: usize, need: &[u32], out: &mut [f64], finish: impl Fn(usize, f64) -> f64) {
        let slots = out.iter_mut().zip(need).enumerate();
        if let [a, b, c] = self.axes.as_slice() {
            let [ga, gb, gc] = [a, b, c].map(|g| self.row(g, hold));
            for (x, (p, &u)) in slots {
                let u = u as usize;
                *p = finish(x, ga[u] * gb[u] * gc[u] * self.total_elems);
            }
        } else {
            for (x, (p, &u)) in slots {
                *p = finish(x, self.product(hold, u as usize));
            }
        }
    }

    /// `((G_a·G_b)·…)·total` for one hold unique against one need unique
    /// (`1.0 · total` with no live axis).
    fn product(&self, hold: usize, need: usize) -> f64 {
        let overlap = self.axes.iter().fold(1.0, |p, a| {
            p * a.rows[self.holds[hold][a.axis] as usize * self.needs + need]
        });
        overlap * self.total_elems
    }

    /// Adds this direction's per-device terms into `acc`, `[hold seq][need
    /// seq]`, devices ascending; `v` is the need side's per-sequence volume.
    /// Returns the number of term-row entries built.
    fn accumulate(
        &self,
        needs: &SideProfiles,
        holds: &SideProfiles,
        v: &[f64],
        acc: &mut [f64],
    ) -> u64 {
        let inner = needs.len();
        if inner == 1 {
            // A one-sequence need side (a beam probe's anchor): term rows of
            // one entry each would cost more to lay out and add than to
            // price, so each device prices the hold side's distinct holdings
            // in place and adds along the accumulator, which is contiguous
            // on the long side.
            let mut term = vec![(usize::MAX, 0.0); holds.uniques.len()];
            let mut built = 0;
            for d in 0..holds.devices {
                let (n, v) = (needs.on_device(d)[0] as usize, v[0]);
                for (a, &h) in acc.iter_mut().zip(holds.on_device(d)) {
                    let (seen, t) = &mut term[h as usize];
                    if *seen != d {
                        *seen = d;
                        *t = (v - self.product(h as usize, n)).max(0.0);
                        built += 1;
                    }
                    *a += *t;
                }
            }
            return built;
        }
        // Per hold unique: the last device that built its term row, and the
        // row's offset in `terms`.
        let mut slot = vec![(usize::MAX, 0); holds.uniques.len()];
        let mut terms: Vec<f64> = Vec::new();
        let mut built = 0;
        for d in 0..holds.devices {
            let need = needs.on_device(d);
            terms.clear();
            for (&h, acc_row) in holds.on_device(d).iter().zip(acc.chunks_exact_mut(inner)) {
                let (seen, at) = &mut slot[h as usize];
                if *seen != d {
                    *seen = d;
                    *at = terms.len();
                    terms.resize(*at + inner, 0.0);
                    self.fill(h as usize, need, &mut terms[*at..], |x, p| {
                        (v[x] - p).max(0.0)
                    });
                }
                for (a, t) in acc_row.iter_mut().zip(&terms[*at..]) {
                    *a += t;
                }
            }
            built += terms.len() as u64;
        }
        built
    }
}

/// Interning cache of sequence lists, side profiles and volume planes, keyed
/// by layout (see the module docs). A cache serves one planner pass or,
/// shared, many runs, and evicts nothing.
#[derive(Debug, Default)]
pub struct EdgeCostCache {
    /// Sequence lists by content. Addresses would not do: a freed beam
    /// subset can reuse one.
    lists: HashMap<Vec<PartitionSeq>, SeqList, WordHash>,
    profiles: HashMap<ProfileKey, Arc<SideProfiles>>,
    /// The distinct built profiles by content hash: every key whose build
    /// came out bitwise equal to an earlier one maps to that one's `Arc`.
    by_content: HashMap<u64, Vec<Arc<SideProfiles>>>,
    /// Plane entries by sweep identity: the four interned profiles'
    /// addresses, which the entry owns, plus the element count's bits.
    /// Profile interning makes `Arc` identity bitwise profile equality.
    planes: HashMap<([usize; 4], u64), Arc<PlaneEntry>>,
}

impl EdgeCostCache {
    /// An empty cache.
    pub fn new() -> Self {
        EdgeCostCache::default()
    }

    /// The swept volume planes held, and the heap bytes of everything held:
    /// profiles and swept planes (payloads only).
    pub fn footprint(&self) -> (usize, u64) {
        let swept: Vec<&Vec<f64>> = self.planes.values().filter_map(|e| e.plane.get()).collect();
        let bytes = self
            .by_content
            .values()
            .flatten()
            .map(|p| p.heap_bytes())
            .chain(swept.iter().map(|p| size_of::<f64>() * p.len()))
            .sum::<usize>();
        (swept.len(), bytes as u64)
    }

    /// Interns the four side profiles of `edge` and their plane entry, and
    /// returns the prepared edge. `src` and `dst` are the two operators'
    /// spaces as this cache listed them. Profile builds are shared across
    /// every side of every edge with the same layout; the profile hits and
    /// misses, and the run's first read of each plane, are counted in
    /// `stats`.
    pub fn prepare(
        &mut self,
        stats: &mut CacheStats,
        edge: &Edge,
        src_op: &Operator,
        dst_op: &Operator,
        src: ListedSpace<'_>,
        dst: ListedSpace<'_>,
    ) -> PreparedEdge {
        let sides = EdgeSides::new(edge, src_op, dst_op, src.seqs[0].bits(), dst.seqs[0].bits());
        let produce = self.side(stats, &sides.produce, src, sides.space, None);
        let consume = self.side(stats, &sides.consume, dst, sides.space, None);
        let g_produce = self.side(stats, &sides.g_produce, dst, sides.space, Some(&consume));
        let g_consume = self.side(stats, &sides.g_consume, src, sides.space, Some(&produce));
        let key = (
            [&produce, &consume, &g_produce, &g_consume].map(|p| Arc::as_ptr(p) as usize),
            sides.total_elems.to_bits(),
        );
        let entry = self
            .planes
            .entry(key)
            .or_insert_with(|| {
                Arc::new(PlaneEntry {
                    produce,
                    consume,
                    g_produce,
                    g_consume,
                    total_elems: sides.total_elems,
                    plane: OnceLock::new(),
                })
            })
            .clone();
        stats.note_plane(&entry);
        PreparedEdge { entry }
    }

    /// `seqs` interned by content, for [`prepare`](Self::prepare): the
    /// lookup hashes and compares the whole vector, so a caller preparing
    /// many edges over one space lists it once.
    pub fn list<'a>(&mut self, seqs: &'a [PartitionSeq]) -> ListedSpace<'a> {
        let list = match self.lists.get(seqs) {
            Some(&list) => list,
            None => {
                let list = SeqList {
                    id: self.lists.len() as u32,
                    temporal: seqs.iter().any(|s| s.temporal_steps() > 1),
                };
                self.lists.insert(seqs.to_vec(), list);
                list
            }
        };
        ListedSpace { seqs, list }
    }

    /// The interned profile vector of `side` over `seqs`. `base`, when
    /// given, is a profile over the same layout in another phase or step
    /// side (the forward twin of a backward side), whose non-temporal rows a
    /// fresh build copies.
    fn side(
        &mut self,
        stats: &mut CacheStats,
        side: &EdgeSide,
        seqs: ListedSpace<'_>,
        space: DeviceSpace,
        base: Option<&Arc<SideProfiles>>,
    ) -> Arc<SideProfiles> {
        let ListedSpace { seqs, list } = seqs;
        let op = side.op;
        let dims = side
            .dims
            .iter()
            .map(|&d| {
                let axes = op.axes[d.index()]
                    .iter()
                    .map(|&(axis, n)| (renamed(side.renames, axis), n))
                    .collect();
                (d, op.extent(d), axes)
            })
            .collect();
        let key = ProfileKey {
            seqs: list.id,
            dims,
            selector: selector_bits(side.selector),
            steps: list.temporal.then_some((side.phase, side.side)),
        };
        if let Some(cached) = self.profiles.get(&key) {
            stats.profile_hits += 1;
            return cached.clone();
        }
        stats.profile_misses += 1;
        let built = SideProfiles::build(side, seqs, space, base.map(Arc::as_ref));
        // Two keys can still build the same bytes (a selector that no
        // holding reaches, two lists that cut the same axes in the same
        // order): one `Arc` per distinct content lets the planes downstream
        // dedup them by identity too.
        let bucket = self.by_content.entry(built.content_hash()).or_default();
        let built = match bucket.iter().find(|p| p.same_bits(&built)) {
            Some(same) => same.clone(),
            None => {
                let built = Arc::new(built);
                bucket.push(built.clone());
                built
            }
        };
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
    use primepar_topology::{AppliedPerturbation, Cluster, PerturbationModel};

    /// Every `bits`-bit spatial sequence, then the temporal primitive after
    /// every spatial prefix that leaves it two bits — a dense slice through
    /// the real partition space.
    fn seqs_for(bits: usize) -> Vec<PartitionSeq> {
        let dims = [Dim::B, Dim::M, Dim::N, Dim::K];
        let splits = |n: usize| {
            (0..n).fold(vec![Vec::new()], |acc: Vec<Vec<Primitive>>, _| {
                acc.iter()
                    .flat_map(|p| dims.map(|d| [p.as_slice(), &[Primitive::Split(d)]].concat()))
                    .collect()
            })
        };
        let temporal = splits(bits - 2).into_iter().map(|mut p| {
            p.push(Primitive::Temporal { k: 1 });
            p
        });
        splits(bits)
            .into_iter()
            .chain(temporal)
            .map(|p| PartitionSeq::new(p).unwrap())
            .collect()
    }

    /// Every `bits`-bit sequence: splits of any dimension in any order,
    /// with at most one `P_{2×2}` at any position.
    fn every_seq(bits: usize) -> Vec<PartitionSeq> {
        fn grow(prefix: &[Primitive], left: usize, out: &mut Vec<PartitionSeq>) {
            if left == 0 {
                out.push(PartitionSeq::new(prefix.to_vec()).unwrap());
                return;
            }
            for d in [Dim::B, Dim::M, Dim::N, Dim::K] {
                grow(&[prefix, &[Primitive::Split(d)]].concat(), left - 1, out);
            }
            let temporal = Primitive::Temporal { k: 1 };
            if left >= 2 && !prefix.contains(&temporal) {
                grow(&[prefix, &[temporal]].concat(), left - 2, out);
            }
        }
        let mut out = Vec::new();
        grow(&[], bits, &mut out);
        out
    }

    #[test]
    fn axis_ids_rebuild_every_direct_holding_at_the_replan_point() {
        // Each interned profile of every edge of the replan point's layer
        // (OPT-6.7B, seq 1024, 8 devices), read back through its axis
        // tables, is bitwise the direct builder's holding on every device
        // under every sequence, and so is its block volume fraction.
        let g = ModelConfig::opt_6_7b().layer_graph(8, 1024);
        let seqs = every_seq(3);
        assert_eq!(seqs.len(), 4 * 4 * 4 + 2 * 4);
        let space = DeviceSpace::new(3);
        let mut cache = EdgeCostCache::new();
        let mut stats = CacheStats::default();
        let bits = |h: &DenseIntervals| h.0.map(|(lo, hi)| (lo.to_bits(), hi.to_bits()));
        let mut checked = 0;
        for edge in &g.edges {
            let (src, dst) = (&g.ops[edge.src], &g.ops[edge.dst]);
            let sides = EdgeSides::new(edge, src, dst, 3, 3);
            let listed = cache.list(&seqs);
            let prepared = cache.prepare(&mut stats, edge, src, dst, listed, listed);
            let e = &prepared.entry;
            for (profile, side) in [
                (&e.produce, &sides.produce),
                (&e.consume, &sides.consume),
                (&e.g_produce, &sides.g_produce),
                (&e.g_consume, &sides.g_consume),
            ] {
                for (i, seq) in seqs.iter().enumerate() {
                    let (fraction, direct) = side.profile(seq, space);
                    assert_eq!(profile.volume_fraction[i].to_bits(), fraction.to_bits());
                    for (d, want) in direct.iter().enumerate() {
                        let got = profile.holding(profile.on_device(d)[i] as usize);
                        assert_eq!(bits(&got), bits(want), "{seq} on device {d}");
                        checked += 1;
                    }
                }
            }
        }
        assert_eq!(checked, g.edges.len() * 4 * seqs.len() * 8);
    }

    #[test]
    fn matrix_job_ids_match_matrix_key_dedup() {
        // The interned ids must reproduce the first-seen dense numbering a
        // hash-map dedup over the whole key (both signatures, tensor kind,
        // renames, selector bits) would assign, edge for edge — including
        // the QKV selector edges that share signatures but must not collide.
        let g = ModelConfig::opt_6_7b().layer_graph(8, 512);
        let sig_ids = g.signature_ids();
        let ids = matrix_job_ids(&g.edges, &sig_ids);
        assert_eq!(ids.len(), g.edges.len());
        type Key = (
            usize,
            usize,
            TensorKind,
            Vec<(Axis, Axis)>,
            Option<(u64, u64)>,
        );
        let mut by_key: HashMap<Key, usize> = HashMap::new();
        let mut next = 0usize;
        for (edge, &id) in g.edges.iter().zip(&ids) {
            let key = (
                sig_ids[edge.src],
                sig_ids[edge.dst],
                edge.dst_kind,
                edge.renames.clone(),
                selector_bits(edge.selector),
            );
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
        let g = ModelConfig::opt_6_7b().layer_graph(8, 512);
        let sig_ids = g.signature_ids();
        // One cache prepares every edge at 4 and 8 devices, for full spaces,
        // a single anchored row or column (a beam probe) and a two-state
        // pair: every shape must match the direct path. The memoized volume
        // plane, priced under a harsh-perturbed cluster of the same size,
        // must match the direct path on that cluster too: volumes carry no
        // cluster.
        let mut cache = EdgeCostCache::new();
        let mut stats = CacheStats::default();
        // Interned profile → the signatures of the operators that read it.
        let mut readers: HashMap<usize, Vec<usize>> = HashMap::new();
        for bits in [2, 3] {
            let cluster = Cluster::v100_like(1 << bits);
            let harsh = AppliedPerturbation::draw(&PerturbationModel::harsh(), 7, 1 << bits);
            let perturbed = cluster.with_perturbation(harsh);
            let seqs = seqs_for(bits);
            let shapes: [(&[PartitionSeq], &[PartitionSeq]); 4] = [
                (&seqs, &seqs),
                (&seqs[3..4], &seqs),
                (&seqs, &seqs[5..6]),
                (&seqs[..2], &seqs[7..9]),
            ];
            for (src_seqs, dst_seqs) in shapes {
                for edge in &g.edges {
                    let (src, dst) = (&g.ops[edge.src], &g.ops[edge.dst]);
                    let direct_ctx = CostCtx::new(&cluster, 0.0);
                    let direct = edge_cost_matrix(&direct_ctx, edge, src, dst, src_seqs, dst_seqs);
                    let (src_list, dst_list) = (cache.list(src_seqs), cache.list(dst_seqs));
                    let prepared = cache.prepare(&mut stats, edge, src, dst, src_list, dst_list);
                    for (profile, op) in [
                        (&prepared.entry.produce, edge.src),
                        (&prepared.entry.consume, edge.dst),
                        (&prepared.entry.g_produce, edge.dst),
                        (&prepared.entry.g_consume, edge.src),
                    ] {
                        let sigs = readers.entry(Arc::as_ptr(profile) as usize).or_default();
                        if !sigs.contains(&sig_ids[op]) {
                            sigs.push(sig_ids[op]);
                        }
                    }
                    let ctx = CostCtx::new(&cluster, 0.0);
                    let mut fast = prepared.volumes(&ctx);
                    ctx.price(&mut fast);
                    let perturbed_ctx = CostCtx::new(&perturbed, 0.0);
                    let mut repriced = prepared.plane(&perturbed_ctx).to_vec();
                    perturbed_ctx.price(&mut repriced);
                    let perturbed_direct =
                        edge_cost_matrix(&perturbed_ctx, edge, src, dst, src_seqs, dst_seqs);
                    for (got, expect) in [(&fast, &direct), (&repriced, &perturbed_direct)] {
                        assert_eq!(expect.len(), got.len());
                        for (i, (a, b)) in expect.iter().zip(got).enumerate() {
                            assert_eq!(
                                a.to_bits(),
                                b.to_bits(),
                                "{bits} bits, edge ({}, {}) cell {i}: {a} vs {b}",
                                edge.src,
                                edge.dst
                            );
                        }
                    }
                    assert_eq!(ctx.inter_evaluations(), direct.len() as u64);
                    // At most one term-row entry per summed term.
                    let terms = (direct.len() as u64 * 2) << bits;
                    assert!((1..=terms).contains(&ctx.term_row_entries()));
                }
            }
        }
        assert!(
            readers.values().any(|sigs| sigs.len() > 1),
            "some layout must be shared across operator signatures"
        );
        assert!(stats.profile_hits > 0, "{stats:?}");
    }

    /// Intervals `[lo, hi)` on the listed axes, `[0, 1)` elsewhere.
    fn dense(axes: &[(usize, f64, f64)]) -> DenseIntervals {
        let mut d = [(0.0, 1.0); Axis::COUNT];
        for &(a, lo, hi) in axes {
            d[a] = (lo, hi);
        }
        DenseIntervals(d)
    }

    /// A side over `devices` devices whose `[device][seq]` holdings are
    /// `pool[at]` for each `at` of `ids`, interned as a build interns them.
    fn side_of(
        volume_fraction: Vec<f64>,
        devices: usize,
        pool: &[DenseIntervals],
        ids: impl Iterator<Item = usize>,
    ) -> SideProfiles {
        let mut interner = Interner::default();
        let pool_ids: Vec<u32> = pool.iter().map(|h| interner.intern(h)).collect();
        SideProfiles {
            volume_fraction,
            intervals: interner.intervals,
            uniques: interner.uniques,
            ids: ids.map(|at| pool_ids[at]).collect(),
            devices,
        }
    }

    /// One sequence over `holdings.len()` devices, device `d` holding
    /// `holdings[d]`.
    fn one_seq_side(holdings: Vec<DenseIntervals>) -> SideProfiles {
        side_of(vec![1.0], holdings.len(), &holdings, 0..holdings.len())
    }

    /// A pseudo-random side: `seqs` sequences over `devices` devices, each
    /// device holding one of `pool` sets of inexact intervals on axes 0, 3
    /// and 6, under an inexact volume fraction per sequence. The fractions
    /// exceed 1, so as a need side every term `(V − total·overlap)⁺` is
    /// positive and inexact, and a cell's sum depends on its device order.
    fn synthetic_side(seed: u64, seqs: usize, devices: usize, pool: usize) -> SideProfiles {
        let mut state = seed;
        let mut next = move |n: u64| {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            (state >> 33) % n
        };
        let pool: Vec<DenseIntervals> = (0..pool)
            .map(|_| {
                let mut d = [(0.0, 1.0); Axis::COUNT];
                for a in [0, 3, 6] {
                    let lo = next(7) as f64 / 11.0;
                    d[a] = (lo, (lo + (1 + next(5)) as f64 / 9.0).min(1.0));
                }
                DenseIntervals(d)
            })
            .collect();
        let volume_fraction = (0..seqs).map(|_| (8 + next(6)) as f64 / 7.0).collect();
        let ids: Vec<usize> = (0..seqs * devices)
            .map(|_| next(pool.len() as u64) as usize)
            .collect();
        side_of(volume_fraction, devices, &pool, ids.into_iter())
    }

    #[test]
    fn device_major_sweep_sums_each_cell_in_device_order() {
        // Inexact volumes and factors make every product and every sum
        // order-sensitive, so a sweep that reorders a cell's devices or an
        // entry's factors cannot match the cell-major reference below. The
        // shapes cover long and short term rows in both directions (5 × 400
        // and its mirror) and the one-sequence need sides of beam probes.
        let devices = 8;
        let cluster = Cluster::v100_like(devices);
        let total = 3.0 * 5.0 * 7.0;
        for (rows, cols) in [(5, 400), (400, 5), (1, 300), (300, 1)] {
            let produce = Arc::new(synthetic_side(1, rows, devices, 40));
            let g_consume = Arc::new(synthetic_side(2, rows, devices, 40));
            let consume = Arc::new(synthetic_side(3, cols, devices, 40));
            let g_produce = Arc::new(synthetic_side(4, cols, devices, 40));
            let entry = PlaneEntry {
                produce,
                consume,
                g_produce,
                g_consume,
                total_elems: total,
                plane: OnceLock::new(),
            };
            let volumes = |s: &SideProfiles| -> Vec<f64> {
                s.volume_fraction.iter().map(|f| total * f).collect()
            };
            let (vc, vg) = (volumes(&entry.consume), volumes(&entry.g_consume));
            let edge = PreparedEdge {
                entry: Arc::new(entry),
            };
            let e = &edge.entry;
            let fwd_dir = Direction::build(total, &e.consume, &e.produce);
            let bwd_dir = Direction::build(total, &e.g_consume, &e.g_produce);
            assert_eq!(fwd_dir.axes.len(), 3);
            let ctx = CostCtx::new(&cluster, 0.0);
            let mut swept = edge.volumes(&ctx);
            ctx.price(&mut swept);
            // The cell-major direct loop: devices ascending from `0.0`.
            let traffic =
                |needs: &SideProfiles, n: usize, holds: &SideProfiles, h: usize, v: f64| {
                    (0..devices).fold(0.0, |sum, d| {
                        let need = needs.holding(needs.on_device(d)[n] as usize);
                        let hold = holds.holding(holds.on_device(d)[h] as usize);
                        sum + (v - total * need.overlap_fraction(&hold)).max(0.0)
                    })
                };
            // Each direction's sums too, before the cost model rounds them.
            let mut fwd = vec![0.0; rows * cols];
            let mut bwd = vec![0.0; cols * rows];
            fwd_dir.accumulate(&e.consume, &e.produce, &vc, &mut fwd);
            bwd_dir.accumulate(&e.g_consume, &e.g_produce, &vg, &mut bwd);
            for (c, got) in swept.iter().enumerate() {
                let (i, j) = (c / cols, c % cols);
                let f = traffic(&e.consume, j, &e.produce, i, vc[j]);
                let b = traffic(&e.g_consume, i, &e.g_produce, j, vg[i]);
                let expect = ctx.redistribution_time(4.0 * (f + b));
                for (what, got, expect) in [
                    ("forward", fwd[c], f),
                    ("backward", bwd[j * rows + i], b),
                    ("cell", *got, expect),
                ] {
                    assert_eq!(
                        got.to_bits(),
                        expect.to_bits(),
                        "{rows}×{cols} {what} ({i}, {j}): {got} vs {expect}"
                    );
                }
            }
        }
    }

    #[test]
    fn direction_factor_rows_match_overlap_fraction_bitwise() {
        let full = dense(&[]);
        let third = 1.0 / 3.0;
        // (needs, holds, live axes): the products must be bitwise
        // `total · need.overlap_fraction(hold)` whatever the live-axis count.
        let cases = [
            // Disjoint intervals: every factor on axis 1 or 4 is zero.
            (
                vec![dense(&[(1, 0.0, 0.5)]), dense(&[(4, 0.5, 1.0)])],
                vec![dense(&[(1, 0.5, 1.0)]), dense(&[(4, 0.0, 0.25)])],
                2,
            ),
            // All-full axes: every axis is skipped, every entry is `total`.
            (vec![full, full], vec![full, full, full], 0),
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
                4,
            ),
            // Six live axes, each factor inexact: the general product path.
            (
                vec![
                    dense(&[(0, 0.1, 0.7), (1, third, 0.9), (2, 0.0, third)]),
                    dense(&[(3, 0.2, 0.6), (4, 0.15, 0.95), (6, third, 1.0)]),
                    dense(&[(0, 0.3, 0.9), (2, 0.05, 0.55), (4, 0.0, 0.7), (6, 0.1, 0.3)]),
                ],
                vec![
                    dense(&[
                        (0, 0.2, 0.8),
                        (1, 0.0, 0.6),
                        (2, 0.1, 0.3),
                        (3, 0.3, 0.9),
                        (4, 0.25, 0.75),
                        (6, 0.0, 2.0 * third),
                    ]),
                    dense(&[(0, 0.0, third), (3, 0.1, 0.4), (6, 0.2, 0.45)]),
                    full,
                ],
                6,
            ),
            // One live axis (the product path) and three (the fused pass).
            (
                vec![dense(&[(2, 0.1, 0.8)]), full],
                vec![dense(&[(2, third, 0.9)]), dense(&[(2, 0.0, 0.3)])],
                1,
            ),
            // The last pair's product rounds differently if reassociated.
            (
                vec![
                    dense(&[(1, 0.2, 0.7), (5, 0.0, third)]),
                    dense(&[(6, 0.4, 0.9)]),
                    dense(&[(1, 0.1, 0.7), (5, 0.1, 0.7), (6, 0.1, 0.7)]),
                ],
                vec![
                    dense(&[(1, 0.1, 0.5), (6, third, 1.0)]),
                    dense(&[(5, 0.25, 0.5)]),
                    dense(&[(1, 0.1, 0.7), (5, 0.15, 0.85), (6, third, 0.9)]),
                ],
                3,
            ),
        ];
        let total = 3.0 * 7.0 * 11.0 * 4096.0;
        for (needs, holds, live) in cases {
            let (needs, holds) = (one_seq_side(needs), one_seq_side(holds));
            let dir = Direction::build(total, &needs, &holds);
            assert_eq!(dir.axes.len(), live);
            let every_need: Vec<u32> = (0..needs.unique_holdings() as u32).collect();
            let mut got = vec![f64::NAN; every_need.len()];
            for h in 0..holds.unique_holdings() {
                dir.fill(h, &every_need, &mut got, |_, p| p);
                for (n, &filled) in got.iter().enumerate() {
                    let expect = total * needs.holding(n).overlap_fraction(&holds.holding(h));
                    for (path, p) in [("fill", filled), ("product", dir.product(h, n))] {
                        assert_eq!(
                            p.to_bits(),
                            expect.to_bits(),
                            "{live} live axes, {path} ({n}, {h}): {p} vs {expect}",
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn profiles_are_shared_across_structurally_equal_edges() {
        let g = ModelConfig::opt_6_7b().layer_graph(8, 512);
        let sig_ids = g.signature_ids();
        let seqs = seqs_for(2);
        let mut cache = EdgeCostCache::new();
        let mut stats = CacheStats::default();
        // anchor→norm1 and add1→norm2 have equal endpoint layouts and
        // parameters: the second prepare must hit all four profile slots
        // and share the first one's volume plane, which the run counts once.
        let e01 = g.edges.iter().find(|e| e.src == 0 && e.dst == 1).unwrap();
        let e78 = g.edges.iter().find(|e| e.src == 7 && e.dst == 8).unwrap();
        assert_eq!(
            matrix_job_ids(&[e01.clone(), e78.clone()], &sig_ids),
            vec![0, 0]
        );
        let listed = cache.list(&seqs);
        let first = cache.prepare(&mut stats, e01, &g.ops[0], &g.ops[1], listed, listed);
        assert_eq!(stats.profile_misses, 4);
        let second = cache.prepare(&mut stats, e78, &g.ops[7], &g.ops[8], listed, listed);
        assert_eq!(stats.profile_misses, 4);
        assert_eq!(stats.profile_hits, 4);
        assert!(first.shares_plane(&second));
        assert_eq!((stats.plane_hits, stats.plane_misses), (0, 1));
        // One sweep fills the shared plane for both.
        let cluster = Cluster::v100_like(4);
        let ctx = CostCtx::new(&cluster, 0.0);
        assert!(!second.is_swept());
        first.plane(&ctx);
        assert!(second.is_swept());
        assert_eq!(ctx.inter_evaluations(), (seqs.len() * seqs.len()) as u64);
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
        assert_eq!(
            matrix_job_ids(&[q.clone(), k.clone()], &sig_ids),
            vec![0, 1]
        );
        let listed = cache.list(&seqs);
        let q = cache.prepare(&mut stats, q, &g.ops[2], &g.ops[3], listed, listed);
        let k = cache.prepare(&mut stats, k, &g.ops[2], &g.ops[3], listed, listed);
        assert!(!q.shares_plane(&k));
    }

    /// A matmul's dO at backward step 0 holds what its output held at the
    /// last forward step (`M = r`, `K = c` in both), so the backward side —
    /// whose non-temporal rows are copied from the forward twin and whose
    /// temporal rows are built afresh — numbers its holdings as the twin
    /// did and ends on the twin's `Arc`.
    #[test]
    fn a_backward_side_equal_to_its_forward_twin_shares_its_profile() {
        let g = ModelConfig::opt_6_7b().layer_graph(8, 512);
        let seqs = seqs_for(4);
        let space = DeviceSpace::new(4);
        let (mut cache, mut stats) = (EdgeCostCache::new(), CacheStats::default());
        let list = cache.list(&seqs);
        let side = |kind, phase, side| EdgeSide::new(&g.ops[9], kind, phase, side, &[], None);
        let forward = side(TensorKind::Output, Phase::Forward, Side::Produce);
        let backward = side(TensorKind::GradOutput, Phase::Backward, Side::Consume);
        let twin = cache.side(&mut stats, &forward, list, space, None);
        let built = cache.side(&mut stats, &backward, list, space, Some(&twin));
        assert_eq!(stats.profile_misses, 2, "two keys, two builds");
        assert!(Arc::ptr_eq(&twin, &built));
    }

    #[test]
    fn layouts_that_differ_in_extent_rename_or_selector_never_share() {
        let g = ModelConfig::opt_6_7b().layer_graph(8, 512);
        let seqs = seqs_for(2);
        // The cache and the stats of its one run.
        let mut cache = (EdgeCostCache::new(), CacheStats::default());
        let list = cache.0.list(&seqs);
        let side = |(cache, stats): &mut (EdgeCostCache, CacheStats),
                    op: &Operator,
                    renames: &[(Axis, Axis)],
                    selector| {
            let side = EdgeSide::new(
                op,
                TensorKind::Output,
                Phase::Forward,
                Side::Produce,
                renames,
                selector,
            );
            cache.side(stats, &side, list, DeviceSpace::new(2), None)
        };
        let builds =
            |(_, stats): &(EdgeCostCache, CacheStats)| (stats.profile_misses, stats.profile_hits);
        let fc1 = &g.ops[9];
        let base = side(&mut cache, fc1, &[], None);
        // The same layout under another name and operator kind is a hit.
        let mut twin = fc1.clone();
        twin.name = "twin".into();
        twin.kind = primepar_graph::OpKind::Embedding;
        assert!(Arc::ptr_eq(&base, &side(&mut cache, &twin, &[], None)));
        assert_eq!(builds(&cache), (1, 1));
        // A key that differs is always a build of its own. One that builds
        // the same bytes (a larger extent no sequence cuts down to) still
        // ends on the same `Arc`, by content.
        let mut wider = fc1.clone();
        wider.extents[Dim::K.index()] *= 2;
        assert!(Arc::ptr_eq(&base, &side(&mut cache, &wider, &[], None)));
        assert_eq!(builds(&cache), (2, 1));
        // Each of these differs in one thing that changes the bytes: an
        // extent a 4-way cut exceeds, a renamed axis, a selector over an
        // operator whose cuts reach the selected axis.
        let mut narrow = fc1.clone();
        narrow.extents[Dim::K.index()] = 2;
        let mut fused = fc1.clone();
        fused.axes[Dim::K.index()] = vec![(Axis::Qkv, 4), (Axis::Ffn, 4096)];
        let variants = [
            side(&mut cache, &narrow, &[], None),
            side(&mut cache, fc1, &[(Axis::Ffn, Axis::Hidden)], None),
            side(&mut cache, &fused, &[], Some((0.0, 0.5))),
            side(&mut cache, &fused, &[], Some((0.5, 1.0))),
        ];
        for (i, a) in variants.iter().enumerate() {
            assert!(
                !Arc::ptr_eq(a, &base),
                "variant {i} shared the base profile"
            );
            for b in &variants[..i] {
                assert!(!Arc::ptr_eq(a, b), "variant {i} shared an earlier one");
            }
        }
        assert_eq!(builds(&cache), (6, 1));
    }

    #[test]
    fn deduplication_shrinks_holdings() {
        // A coarse B-split leaves many devices with repeated slices; the
        // interned uniques must be far fewer than len() × devices.
        let g = ModelConfig::opt_6_7b().layer_graph(8, 512);
        let seqs = seqs_for(2);
        let space = DeviceSpace::new(2);
        let fc1 = EdgeSide::new(
            &g.ops[9],
            TensorKind::Output,
            Phase::Forward,
            Side::Produce,
            &[],
            None,
        );
        let side = SideProfiles::build(&fc1, &seqs, space, None);
        assert_eq!(side.len(), seqs.len());
        assert!(
            side.unique_holdings() < seqs.len() * 4 / 2,
            "expected ≥2× dedup, got {} of {}",
            side.unique_holdings(),
            seqs.len() * 4
        );
    }
}
