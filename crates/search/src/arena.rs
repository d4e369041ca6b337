//! Struct-of-arrays arenas behind the segmented DP.
//!
//! The seed planner kept its per-pair edge-cost matrices in a
//! `HashMap<(usize, usize), Vec<f64>>` and every backtrack step's argmin
//! plane in its own `Vec<u32>`. At 512+ devices those become thousands of
//! scattered allocations and a hash on every chain lookup of the Bellman
//! sweep. Both now live in flat arenas: [`EdgeTables`] packs every summed
//! `(src, dst)` cost plane into one contiguous `f64` buffer indexed by a
//! sorted slot table (binary search + index arithmetic, no hashing), and
//! [`ChoiceArena`] append-allocates every backtrack choice plane from one
//! contiguous `u32` buffer. Neither changes any value: the same sums fold in
//! the same order, so the planes are bitwise-identical to the seed maps.

use primepar_graph::Edge;

/// One `(src, dst)` pair's summed cost plane inside [`EdgeTables`].
#[derive(Debug, Clone, Copy)]
struct EdgeSlot {
    src: usize,
    dst: usize,
    offset: usize,
    rows: usize,
    cols: usize,
}

/// All per-pair edge-cost planes of one planner run, in one allocation.
#[derive(Debug, Clone)]
pub(crate) struct EdgeTables {
    plane: Vec<f64>,
    /// Sorted by `(src, dst)` for binary-search lookup.
    index: Vec<EdgeSlot>,
}

impl EdgeTables {
    /// Sums per-edge matrices into one plane per distinct `(src, dst)` pair.
    /// `matrix(e)` yields edge `e`'s `sizes[src] × sizes[dst]` matrix; a
    /// pair's first edge copies and later edges add, in edge order — the
    /// same fold the seed's `HashMap` entry path performed, so every plane
    /// is bitwise-identical to it.
    pub fn build<'m>(
        edges: &[Edge],
        sizes: &[usize],
        mut matrix: impl FnMut(usize) -> &'m [f64],
    ) -> Self {
        let mut index: Vec<EdgeSlot> = Vec::new();
        let mut offset = 0usize;
        for edge in edges {
            if !index.iter().any(|s| s.src == edge.src && s.dst == edge.dst) {
                let (rows, cols) = (sizes[edge.src], sizes[edge.dst]);
                index.push(EdgeSlot {
                    src: edge.src,
                    dst: edge.dst,
                    offset,
                    rows,
                    cols,
                });
                offset += rows * cols;
            }
        }
        let mut plane = vec![0.0; offset];
        let mut seen = vec![false; index.len()];
        for (e, edge) in edges.iter().enumerate() {
            let slot = index
                .iter()
                .position(|s| s.src == edge.src && s.dst == edge.dst)
                .expect("slot exists");
            let s = index[slot];
            let m = matrix(e);
            assert_eq!(m.len(), s.rows * s.cols, "matrix shape mismatch");
            let out = &mut plane[s.offset..s.offset + m.len()];
            if seen[slot] {
                out.iter_mut().zip(m).for_each(|(a, b)| *a += b);
            } else {
                out.copy_from_slice(m);
                seen[slot] = true;
            }
        }
        index.sort_by_key(|s| (s.src, s.dst));
        EdgeTables { plane, index }
    }

    /// The summed plane of pair `(src, dst)` (row-major
    /// `sizes[src] × sizes[dst]`), if any edge connects it.
    pub fn get(&self, src: usize, dst: usize) -> Option<&[f64]> {
        let i = self
            .index
            .binary_search_by_key(&(src, dst), |s| (s.src, s.dst))
            .ok()?;
        let s = self.index[i];
        Some(&self.plane[s.offset..s.offset + s.rows * s.cols])
    }

    /// Iterates every pair's `(src, dst, rows, cols, plane)`.
    pub fn slots(&self) -> impl Iterator<Item = (usize, usize, usize, usize, &[f64])> {
        self.index.iter().map(move |s| {
            (
                s.src,
                s.dst,
                s.rows,
                s.cols,
                &self.plane[s.offset..s.offset + s.rows * s.cols],
            )
        })
    }

    /// Compacts the arena in place, keeping, per node, only the states listed
    /// in `kept[node]` (`None` keeps the node's full space). Rows filter by
    /// the pair's `src`, columns by its `dst`. Slots are rewritten in
    /// ascending `offset` order: a kept entry only ever moves towards the
    /// front, so every read lands at or after the write cursor and no value
    /// is overwritten before it is copied. The plane is then truncated and
    /// shrunk, so no second plane is ever allocated.
    pub fn compact(mut self, kept: &[Option<Vec<u32>>]) -> EdgeTables {
        let mut order: Vec<usize> = (0..self.index.len()).collect();
        order.sort_by_key(|&i| self.index[i].offset);
        let mut write = 0usize;
        for i in order {
            let s = self.index[i];
            let rows: Vec<u32> = kept[s.src]
                .clone()
                .unwrap_or_else(|| (0..s.rows as u32).collect());
            let offset = write;
            for &r in &rows {
                let row = s.offset + r as usize * s.cols;
                match &kept[s.dst] {
                    None => {
                        self.plane.copy_within(row..row + s.cols, write);
                        write += s.cols;
                    }
                    Some(cols) => {
                        for &c in cols {
                            self.plane[write] = self.plane[row + c as usize];
                            write += 1;
                        }
                    }
                }
            }
            self.index[i] = EdgeSlot {
                offset,
                rows: rows.len(),
                cols: kept[s.dst].as_ref().map_or(s.cols, Vec::len),
                ..s
            };
        }
        self.plane.truncate(write);
        self.plane.shrink_to_fit();
        // Slot order in the index is untouched, so it stays sorted.
        self
    }
}

/// Append-only arena of backtrack choice planes: every Bellman extension and
/// segment merge allocates its `u32` argmin plane from one shared buffer and
/// addresses it by `(offset, len)`.
#[derive(Debug, Default)]
pub(crate) struct ChoiceArena {
    data: Vec<u32>,
}

impl ChoiceArena {
    pub fn new() -> Self {
        ChoiceArena::default()
    }

    /// Reserves a zero-filled plane of `len` entries, returning its offset.
    pub fn alloc(&mut self, len: usize) -> usize {
        let offset = self.data.len();
        self.data.resize(offset + len, 0);
        offset
    }

    /// Entry `idx` of the plane at `offset`.
    pub fn at(&self, offset: usize, idx: usize) -> u32 {
        self.data[offset + idx]
    }

    pub fn slice_mut(&mut self, offset: usize, len: usize) -> &mut [u32] {
        &mut self.data[offset..offset + len]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    fn edge(src: usize, dst: usize) -> Edge {
        Edge::plain(src, dst)
    }

    #[test]
    fn build_matches_hashmap_fold() {
        // Three edges, one duplicated pair (like the residual adds): the
        // arena plane must equal the HashMap or_insert/and_modify fold.
        let edges = [edge(0, 1), edge(1, 2), edge(0, 1)];
        let sizes = [2usize, 3, 2];
        let mats: Vec<Vec<f64>> = vec![
            (0..6).map(|i| i as f64).collect(),
            (0..6).map(|i| 10.0 + i as f64).collect(),
            (0..6).map(|i| 0.5 * i as f64).collect(),
        ];
        let arena = EdgeTables::build(&edges, &sizes, |e| &mats[e]);

        let mut map: HashMap<(usize, usize), Vec<f64>> = HashMap::new();
        for (e, m) in edges.iter().zip(&mats) {
            map.entry((e.src, e.dst))
                .and_modify(|acc| acc.iter_mut().zip(m).for_each(|(a, b)| *a += b))
                .or_insert_with(|| m.clone());
        }
        for (&(s, d), expect) in &map {
            let got = arena.get(s, d).unwrap();
            assert_eq!(got.len(), expect.len());
            for (a, b) in got.iter().zip(expect) {
                assert_eq!(a.to_bits(), b.to_bits());
            }
        }
        assert!(arena.get(2, 0).is_none());
        assert_eq!(arena.slots().count(), 2);
    }

    #[test]
    fn compact_filters_rows_and_columns() {
        let edges = [edge(0, 1)];
        let sizes = [3usize, 4];
        let mat: Vec<f64> = (0..12).map(|i| i as f64).collect();
        let arena = EdgeTables::build(&edges, &sizes, |_| &mat);
        let kept = vec![Some(vec![0u32, 2]), Some(vec![1u32, 3])];
        let small = arena.clone().compact(&kept);
        // Rows {0, 2} × cols {1, 3} of the 3×4 plane.
        assert_eq!(small.get(0, 1).unwrap(), &[1.0, 3.0, 9.0, 11.0]);
        let untouched = arena.compact(&[None, None]);
        assert_eq!(untouched.get(0, 1).unwrap(), mat.as_slice());
    }

    #[test]
    fn compact_in_place_moves_later_slots_forward() {
        // Slot offsets follow first-edge order (2→3 before 0→1), not the
        // sorted index order, and an untouched slot sits behind a shrunk
        // one: every plane must survive the in-place rewrite.
        let edges = [edge(2, 3), edge(0, 1), edge(1, 2)];
        let sizes = [2usize, 3, 3, 2];
        let mats: Vec<Vec<f64>> = (0..3)
            .map(|e| {
                let (s, d) = (edges[e].src, edges[e].dst);
                (0..sizes[s] * sizes[d])
                    .map(|i| (100 * e + i) as f64)
                    .collect()
            })
            .collect();
        let arena = EdgeTables::build(&edges, &sizes, |e| &mats[e]);
        let kept = vec![None, Some(vec![0u32, 2]), None, None];
        let small = arena.compact(&kept);
        // 0→1 keeps columns {0, 2} of its 2×3 plane.
        assert_eq!(small.get(0, 1).unwrap(), &[100.0, 102.0, 103.0, 105.0]);
        // 1→2 keeps rows {0, 2} of its 3×3 plane.
        assert_eq!(
            small.get(1, 2).unwrap(),
            &[200.0, 201.0, 202.0, 206.0, 207.0, 208.0]
        );
        // 2→3 is untouched.
        assert_eq!(small.get(2, 3).unwrap(), mats[0].as_slice());
        assert_eq!(small.plane.len(), 4 + 6 + 6);
    }

    #[test]
    fn choice_arena_allocates_disjoint_planes() {
        let mut a = ChoiceArena::new();
        let p1 = a.alloc(4);
        let p2 = a.alloc(3);
        a.slice_mut(p1, 4).copy_from_slice(&[1, 2, 3, 4]);
        a.slice_mut(p2, 3).copy_from_slice(&[7, 8, 9]);
        assert_eq!(
            (0..4).map(|i| a.at(p1, i)).collect::<Vec<_>>(),
            [1, 2, 3, 4]
        );
        assert_eq!((0..3).map(|i| a.at(p2, i)).collect::<Vec<_>>(), [7, 8, 9]);
    }
}
