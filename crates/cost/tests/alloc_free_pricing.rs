//! Eq. 7's per-state path allocates nothing: `CostCtx::price_intra` and
//! `CostCtx::price_phase` make no heap allocation once the context has fitted
//! its profiles, and `OpGeometry::new` makes at most one (its ring bytes).
//!
//! The counting allocator is the whole binary's, so this file holds a single
//! test; the counter itself is per thread, so the harness's own threads do
//! not disturb it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::hint::black_box;

use primepar_cost::{CostCtx, OpGeometry};
use primepar_graph::{ModelConfig, Operator};
use primepar_partition::{PartitionSeq, Phase, Primitive};
use primepar_topology::Cluster;

struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// The value `f` returns and the heap allocations it made on this thread.
fn counted<R>(f: impl FnOnce() -> R) -> (R, usize) {
    let before = ALLOCATIONS.with(Cell::get);
    let out = black_box(f());
    (out, ALLOCATIONS.with(Cell::get) - before)
}

/// Every sequence of `op`'s allowed primitives over `bits` device bits, with
/// at most one temporal primitive: a superset of its partition space (no
/// extent filter).
fn sequences(op: &Operator, bits: usize) -> Vec<PartitionSeq> {
    fn rec(
        op: &Operator,
        left: usize,
        temporal: bool,
        prefix: &mut Vec<Primitive>,
        out: &mut Vec<PartitionSeq>,
    ) {
        if left == 0 {
            out.push(PartitionSeq::new(prefix.clone()).expect("valid sequence"));
            return;
        }
        let splits = op.allowed_splits().into_iter().map(Primitive::Split);
        let temporals = (1..=2u32)
            .filter(|&k| !temporal && op.allows_temporal() && 2 * k as usize <= left)
            .map(|k| Primitive::Temporal { k });
        for prim in splits.chain(temporals) {
            let (bits, is_temporal) = match prim {
                Primitive::Split(_) => (1, false),
                Primitive::Temporal { k } => (2 * k as usize, true),
            };
            prefix.push(prim);
            rec(op, left - bits, temporal || is_temporal, prefix, out);
            prefix.pop();
        }
    }
    let mut out = Vec::new();
    rec(op, bits, false, &mut Vec::new(), &mut out);
    out
}

#[test]
fn eq7_pricing_allocates_nothing() {
    let graph = ModelConfig::opt_6_7b().layer_graph(8, 2048);
    let cluster = Cluster::v100_like(16);
    let ctx = CostCtx::new(&cluster, 1e-9);
    let states: Vec<(&Operator, PartitionSeq)> = graph
        .ops
        .iter()
        .flat_map(|op| sequences(op, 4).into_iter().map(move |seq| (op, seq)))
        .collect();
    let geometries: Vec<OpGeometry> = states
        .iter()
        .map(|(op, seq)| OpGeometry::new(op, seq))
        .collect();
    // Warm-up: fit every profile the states use.
    for g in &geometries {
        black_box(ctx.price_intra(g));
    }
    let temporal = states
        .iter()
        .filter(|(_, s)| s.temporal_k().is_some())
        .count();
    assert!(
        temporal > 0 && temporal < states.len(),
        "{temporal} temporal"
    );

    for ((op, seq), g) in states.iter().zip(&geometries) {
        let (fresh, n) = counted(|| OpGeometry::new(op, seq));
        assert!(
            n <= 1,
            "OpGeometry::new({}, {seq}) allocated {n} times",
            op.name
        );
        assert_eq!(&fresh, g);

        let (cost, n) = counted(|| ctx.price_intra(g));
        assert_eq!(n, 0, "price_intra({}, {seq}) allocated {n} times", op.name);
        assert_eq!(cost, ctx.price_intra(g));

        for phase in Phase::ALL {
            let (seconds, n) = counted(|| {
                let ev = ctx.price_phase(g, phase);
                let ring: f64 = ev.ring_steps().map(|r| r.seconds + r.bytes).sum();
                ring + ev.compute_step + ev.collective.map_or(0.0, |c| c.seconds)
            });
            assert_eq!(
                n, 0,
                "price_phase({}, {seq}, {phase}) allocated {n} times",
                op.name
            );
            assert!(seconds.is_finite());
        }
    }
}
