//! The edge-plane arena behind the segmented DP.
//!
//! The seed planner kept its per-pair edge-cost matrices in a
//! `HashMap<(usize, usize), Vec<f64>>`: a hash on every chain lookup of the
//! Bellman sweep, and a copy of a matrix for every pair that reads it. At
//! 512 devices the planes, not the search, bound the problem that fits.
//!
//! [`EdgeTables`] indexes every `(src, dst)` pair's cost plane by a sorted
//! slot table (binary search + index arithmetic, no hashing). A pair with
//! one edge *shares* its unique matrix with every other such pair of the
//! same matrix sweep instead of copying it; only a pair with parallel edges
//! holds a plane of its own, summed in edge order. That changes no value:
//! the same sums fold in the same order, so every plane is bitwise-identical
//! to the seed maps. The DP stores no backtrack choices beside these
//! planes: its backtrack recomputes each argmin it needs.

use std::sync::Arc;

use primepar_graph::Edge;

/// One `(src, dst)` pair's cost plane inside [`EdgeTables`].
#[derive(Debug, Clone, Copy)]
struct EdgeSlot {
    src: usize,
    dst: usize,
    /// Index into [`EdgeTables::planes`].
    plane: usize,
    rows: usize,
    cols: usize,
}

/// Every `(src, dst)` pair's edge-cost plane of one planner run. Distinct
/// planes are held once, however many pairs read them.
#[derive(Debug, Clone)]
pub(crate) struct EdgeTables {
    planes: Vec<Arc<Vec<f64>>>,
    /// Sorted by `(src, dst)` for binary-search lookup.
    index: Vec<EdgeSlot>,
}

impl EdgeTables {
    /// One plane per distinct `(src, dst)` pair. `matrices[ids[e]]` is edge
    /// `e`'s `sizes[src] × sizes[dst]` matrix. A pair with one edge
    /// references that matrix, shared with every pair of the same id; a
    /// pair's parallel edges sum into a plane of its own, the first edge
    /// copied and later ones added in edge order — the fold the seed's
    /// `HashMap` entry path performed, so every plane is bitwise-identical
    /// to it. Matrices no pair references are dropped here.
    pub fn build(
        edges: &[Edge],
        sizes: &[usize],
        ids: &[usize],
        matrices: Vec<Arc<Vec<f64>>>,
    ) -> Self {
        let mut pairs: Vec<(usize, usize, Vec<usize>)> = Vec::new();
        for (e, edge) in edges.iter().enumerate() {
            match pairs
                .iter_mut()
                .find(|p| (p.0, p.1) == (edge.src, edge.dst))
            {
                Some(pair) => pair.2.push(e),
                None => pairs.push((edge.src, edge.dst, vec![e])),
            }
        }
        let mut planes: Vec<Arc<Vec<f64>>> = Vec::new();
        let mut shared: Vec<Option<usize>> = vec![None; matrices.len()];
        let mut index = Vec::with_capacity(pairs.len());
        for (src, dst, pair_edges) in pairs {
            let plane = match pair_edges[..] {
                [e] => *shared[ids[e]].get_or_insert_with(|| {
                    planes.push(matrices[ids[e]].clone());
                    planes.len() - 1
                }),
                _ => {
                    let mut sum = matrices[ids[pair_edges[0]]].to_vec();
                    for &e in &pair_edges[1..] {
                        sum.iter_mut()
                            .zip(matrices[ids[e]].iter())
                            .for_each(|(a, b)| *a += b);
                    }
                    planes.push(Arc::new(sum));
                    planes.len() - 1
                }
            };
            let (rows, cols) = (sizes[src], sizes[dst]);
            assert_eq!(planes[plane].len(), rows * cols, "matrix shape mismatch");
            index.push(EdgeSlot {
                src,
                dst,
                plane,
                rows,
                cols,
            });
        }
        index.sort_by_key(|s| (s.src, s.dst));
        EdgeTables { planes, index }
    }

    /// The plane of pair `(src, dst)` (row-major `sizes[src] × sizes[dst]`),
    /// if any edge connects it.
    pub fn get(&self, src: usize, dst: usize) -> Option<&[f64]> {
        let i = self
            .index
            .binary_search_by_key(&(src, dst), |s| (s.src, s.dst))
            .ok()?;
        Some(self.planes[self.index[i].plane].as_slice())
    }

    /// Iterates every pair's `(src, dst, rows, cols, plane)`.
    pub fn slots(&self) -> impl Iterator<Item = (usize, usize, usize, usize, &[f64])> {
        self.index.iter().map(move |s| {
            (
                s.src,
                s.dst,
                s.rows,
                s.cols,
                self.planes[s.plane].as_slice(),
            )
        })
    }

    /// Distinct planes held.
    pub fn planes(&self) -> usize {
        self.planes.len()
    }

    /// Bytes the distinct planes hold (their allocated capacity).
    pub fn bytes(&self) -> usize {
        self.planes
            .iter()
            .map(|p| p.capacity() * std::mem::size_of::<f64>())
            .sum()
    }

    /// The planes [`compact`](Self::compact) keeps under `kept`: one per
    /// distinct `(plane, kept[src], kept[dst])`, as the index slot of its
    /// first pair, plus every slot's class.
    fn classes(&self, kept: &[Option<Vec<u32>>]) -> (Vec<usize>, Vec<usize>) {
        let mut firsts: Vec<usize> = Vec::new();
        let class = self
            .index
            .iter()
            .enumerate()
            .map(|(i, s)| {
                let key = (s.plane, &kept[s.src], &kept[s.dst]);
                firsts
                    .iter()
                    .position(|&f| {
                        let t = &self.index[f];
                        (t.plane, &kept[t.src], &kept[t.dst]) == key
                    })
                    .unwrap_or_else(|| {
                        firsts.push(i);
                        firsts.len() - 1
                    })
            })
            .collect();
        (firsts, class)
    }

    /// Bytes [`compact`](Self::compact)`(kept)` will hold, in closed form:
    /// `|kept[src]| × |kept[dst]|` `f64`s per distinct compacted plane.
    pub fn compacted_bytes(&self, kept: &[Option<Vec<u32>>]) -> usize {
        let len = |node: usize, full: usize| kept[node].as_ref().map_or(full, Vec::len);
        self.classes(kept)
            .0
            .iter()
            .map(|&f| {
                let s = &self.index[f];
                len(s.src, s.rows) * len(s.dst, s.cols) * std::mem::size_of::<f64>()
            })
            .sum()
    }

    /// Keeps, per node, only the states listed in `kept[node]` (`None`
    /// keeps the node's full space): rows filter by a pair's `src`, columns
    /// by its `dst`. Each distinct `(plane, kept[src], kept[dst])` gathers
    /// once into a plane every pair of it shares; a plane that loses no row
    /// and no column is kept as it is. The old planes drop on return.
    pub fn compact(self, kept: &[Option<Vec<u32>>]) -> EdgeTables {
        let (firsts, class) = self.classes(kept);
        let planes = firsts
            .iter()
            .map(|&f| {
                let s = self.index[f];
                let plane = &self.planes[s.plane];
                if kept[s.src].is_none() && kept[s.dst].is_none() {
                    return plane.clone();
                }
                let rows: Vec<usize> = match &kept[s.src] {
                    Some(rows) => rows.iter().map(|&r| r as usize).collect(),
                    None => (0..s.rows).collect(),
                };
                let cols = kept[s.dst].as_ref().map_or(s.cols, Vec::len);
                let mut out = Vec::with_capacity(rows.len() * cols);
                for r in rows {
                    let row = &plane[r * s.cols..][..s.cols];
                    match &kept[s.dst] {
                        None => out.extend_from_slice(row),
                        Some(keep) => out.extend(keep.iter().map(|&c| row[c as usize])),
                    }
                }
                Arc::new(out)
            })
            .collect();
        let index = self
            .index
            .iter()
            .zip(class)
            .map(|(s, plane)| EdgeSlot {
                plane,
                rows: kept[s.src].as_ref().map_or(s.rows, Vec::len),
                cols: kept[s.dst].as_ref().map_or(s.cols, Vec::len),
                ..*s
            })
            .collect();
        EdgeTables { planes, index }
    }
}

#[cfg(test)]
impl EdgeTables {
    /// [`EdgeTables::build`] with every edge its own matrix job.
    pub(crate) fn per_edge(edges: &[Edge], sizes: &[usize], mats: &[Vec<f64>]) -> Self {
        let jobs: Vec<usize> = (0..edges.len()).collect();
        let mats = mats.iter().cloned().map(Arc::new).collect();
        EdgeTables::build(edges, sizes, &jobs, mats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    fn edge(src: usize, dst: usize) -> Edge {
        Edge::plain(src, dst)
    }

    fn assert_bitwise(got: &[f64], expect: &[f64]) {
        assert_eq!(got.len(), expect.len());
        for (a, b) in got.iter().zip(expect) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    /// The seed's copy-and-fold: one plane per pair, the first edge copied,
    /// later ones added in edge order.
    fn hashmap_fold(
        edges: &[Edge],
        jobs: &[usize],
        mats: &[Vec<f64>],
    ) -> HashMap<(usize, usize), Vec<f64>> {
        let mut map: HashMap<(usize, usize), Vec<f64>> = HashMap::new();
        for (e, &job) in edges.iter().zip(jobs) {
            let m = &mats[job];
            map.entry((e.src, e.dst))
                .and_modify(|acc| acc.iter_mut().zip(m).for_each(|(a, b)| *a += b))
                .or_insert_with(|| m.clone());
        }
        map
    }

    /// The reference compaction of one `rows × cols` plane: rows `kept_src`
    /// by columns `kept_dst`, gathered cell by cell.
    fn gather(
        plane: &[f64],
        rows: usize,
        cols: usize,
        kept_src: &Option<Vec<u32>>,
        kept_dst: &Option<Vec<u32>>,
    ) -> Vec<f64> {
        let pick = |kept: &Option<Vec<u32>>, n: usize| -> Vec<usize> {
            kept.as_ref().map_or((0..n).collect(), |k| {
                k.iter().map(|&i| i as usize).collect()
            })
        };
        let (rs, cs) = (pick(kept_src, rows), pick(kept_dst, cols));
        rs.iter()
            .flat_map(|&r| cs.iter().map(move |&c| plane[r * cols + c]))
            .collect()
    }

    /// Builds and compacts the shared tables, then checks every pair's
    /// plane bitwise against the seed's fold and gather, and the byte
    /// prediction against what the compacted tables hold.
    fn check_shared(
        edges: &[Edge],
        sizes: &[usize],
        jobs: &[usize],
        mats: &[Vec<f64>],
        kept: &[Option<Vec<u32>>],
    ) -> EdgeTables {
        let shared = mats.iter().cloned().map(Arc::new).collect();
        let tables = EdgeTables::build(edges, sizes, jobs, shared);
        let folded = hashmap_fold(edges, jobs, mats);
        for (&(s, d), expect) in &folded {
            assert_bitwise(tables.get(s, d).unwrap(), expect);
        }
        let predicted = tables.compacted_bytes(kept);
        let small = tables.compact(kept);
        assert_eq!(small.bytes(), predicted);
        for (&(s, d), expect) in &folded {
            let want = gather(expect, sizes[s], sizes[d], &kept[s], &kept[d]);
            assert_bitwise(small.get(s, d).unwrap(), &want);
        }
        assert_eq!(small.slots().count(), folded.len());
        small
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
        let arena = EdgeTables::per_edge(&edges, &sizes, &mats);
        for (&(s, d), expect) in &hashmap_fold(&edges, &[0, 1, 2], &mats) {
            assert_bitwise(arena.get(s, d).unwrap(), expect);
        }
        assert!(arena.get(2, 0).is_none());
        assert_eq!(arena.slots().count(), 2);
    }

    #[test]
    fn compact_filters_rows_and_columns() {
        let edges = [edge(0, 1)];
        let sizes = [3usize, 4];
        let mat: Vec<f64> = (0..12).map(|i| i as f64).collect();
        let arena = EdgeTables::per_edge(&edges, &sizes, std::slice::from_ref(&mat));
        let kept = vec![Some(vec![0u32, 2]), Some(vec![1u32, 3])];
        let small = arena.clone().compact(&kept);
        // Rows {0, 2} × cols {1, 3} of the 3×4 plane.
        assert_eq!(small.get(0, 1).unwrap(), &[1.0, 3.0, 9.0, 11.0]);
        let untouched = arena.compact(&[None, None]);
        assert_eq!(untouched.get(0, 1).unwrap(), mat.as_slice());
    }

    #[test]
    fn compact_keeps_every_slot_whatever_its_build_order() {
        // Planes are built in first-edge order (2→3 before 0→1), not the
        // sorted index order, and an untouched plane sits beside shrunk
        // ones: every plane must survive the compaction.
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
        let arena = EdgeTables::per_edge(&edges, &sizes, &mats);
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
        assert_eq!(small.bytes(), (4 + 6 + 6) * std::mem::size_of::<f64>());
    }

    #[test]
    fn summed_pair_compacts_like_the_fold() {
        // Pair 0→1 carries two edges of different jobs, summed in edge
        // order; 1→2 is a single edge.
        let edges = [edge(0, 1), edge(1, 2), edge(0, 1)];
        let sizes = [3usize, 4, 2];
        let mats = vec![
            (0..12).map(|i| 0.1 * i as f64).collect(),
            (0..8).map(|i| 7.0 - i as f64).collect(),
            (0..12).map(|i| 1.0 / (1.0 + i as f64)).collect(),
        ];
        let kept = vec![None, Some(vec![0u32, 3]), None];
        let small = check_shared(&edges, &sizes, &[0, 1, 2], &mats, &kept);
        assert_eq!(small.planes(), 2);
    }

    #[test]
    fn pairs_sharing_a_job_compact_per_kept_set() {
        // Four single-edge pairs of one job: 0→1 and 2→3 see the same kept
        // sets and share one compacted plane; 4→5 keeps other rows, and
        // 6→7 has an endpoint left whole (`kept = None`).
        let edges: Vec<Edge> = (0..4).map(|i| edge(2 * i, 2 * i + 1)).collect();
        let sizes = [3usize, 4, 3, 4, 3, 4, 3, 4];
        let mats = vec![(0..12).map(|i| (i * i) as f64 + 0.25).collect()];
        let (rows_a, cols_a) = (Some(vec![0u32, 2]), Some(vec![1u32, 2, 3]));
        let kept = vec![
            rows_a.clone(),
            cols_a.clone(),
            rows_a,
            cols_a.clone(),
            Some(vec![1u32]),
            cols_a,
            None,
            Some(vec![0u32, 3]),
        ];
        let small = check_shared(&edges, &sizes, &[0; 4], &mats, &kept);
        assert_eq!(small.planes(), 3);
        // Nothing pruned: all four pairs read the one unique matrix.
        let whole = check_shared(&edges, &sizes, &[0; 4], &mats, &vec![None; 8]);
        assert_eq!(whole.planes(), 1);
    }

    #[test]
    fn the_chain_shape_ends_with_four_compacted_planes() {
        // The benchmark's 512-device chain: 97 alternating nodes, linear
        // and pointwise, whose 96 edges are two matrix jobs. Both linear
        // endpoints keep their full space, every interior node of a kind
        // keeps the same survivors — so each job compacts once with and
        // once without an endpoint.
        let nodes = 97;
        let (lin, pw) = (6usize, 3usize);
        let sizes: Vec<usize> = (0..nodes)
            .map(|i| if i % 2 == 0 { lin } else { pw })
            .collect();
        let edges: Vec<Edge> = (1..nodes).map(|i| edge(i - 1, i)).collect();
        let jobs: Vec<usize> = (1..nodes).map(|i| (i - 1) % 2).collect();
        let mats = vec![
            (0..lin * pw).map(|i| i as f64).collect(),
            (0..pw * lin).map(|i| 100.0 - i as f64).collect(),
        ];
        let kept: Vec<Option<Vec<u32>>> = (0..nodes)
            .map(|i| match i {
                0 | 96 => None,
                _ if i % 2 == 0 => Some(vec![1, 4, 5]),
                _ => Some(vec![0, 2]),
            })
            .collect();
        let small = check_shared(&edges, &sizes, &jobs, &mats, &kept);
        assert!(small.planes() <= 4, "{} planes", small.planes());
    }
}
