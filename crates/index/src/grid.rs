//! The side-`ε/√d` uniform grid shared by the paper's exact (Section 3.2) and
//! ρ-approximate (Section 4.4) algorithms.
//!
//! Besides bucketing points into cells, the index precomputes, for every non-empty
//! cell, the list of non-empty *ε-neighbor* cells (cells whose minimum distance is
//! at most ε). In 2D one can enumerate the fixed 21-cell pattern; for general `d`
//! the offset pattern has `Θ((2√d+3)^d)` entries (over a million for d = 7), so we
//! instead find non-empty neighbors with a kd-tree over cell centers — the lists
//! only ever contain cells that actually exist.
//!
//! Point storage is structure-of-arrays: the point ids grouped by cell in one
//! global array (no per-cell `Vec` growth), and one contiguous `f64` lane per
//! dimension per cell, so neighborhood scans run the blocked kernels of
//! [`dbscan_geom::kernels`] over unit-stride data.
//!
//! Every cell also keeps its exact preimage box ([`CellCoord::preimage`]),
//! the set of points the bucketing puts in it. An ε-query
//! ([`GridIndex::count_within_eps`], and border assignment through
//! [`GridIndex::ball_cover`]) settles a cell that lies wholly inside or
//! wholly outside the ball from the box alone, with no distance computed,
//! and scans only the cells that straddle the sphere.
//!
//! # Chunked build
//!
//! [`GridIndex::try_build_chunked`] builds the grid in passes of `chunks`
//! independent tasks, which a caller-supplied runner may execute on any
//! threads ([`GridIndex::try_build`] is the one-chunk case, run inline):
//!
//! 1. *bucket*: each task computes the cell of every point of one contiguous
//!    id range. Consecutive points usually share a cell, so the task keeps
//!    the last two cells' exact preimage boxes ([`CellCoord::preimage`]): a
//!    point inside one costs at most `4·D` comparisons instead of `D`
//!    divisions and floors. Any other point goes through
//!    [`CellCoord::try_of`] and a chunk-local hash map;
//! 2. *merge* (on the caller): cells, with their boxes, are numbered in
//!    global first-occurrence order — chunk by chunk, each chunk's cells in
//!    its own first-occurrence order — and per-(chunk, cell) prefix sums
//!    give every chunk a disjoint sub-slice of each of its cells' id
//!    ranges, earlier chunks first;
//! 3. *scatter*: each task writes its ids into those sub-slices (so ids stay
//!    ascending within a cell) and rewrites its points' chunk-local cell
//!    numbers to global ones;
//! 4. *fill*: each task owns a contiguous range of cells, about `n / chunks`
//!    points, and gathers their coordinates into the cells' lanes.
//!
//! Every task writes only through `split_at_mut` sub-slices handed to it, so
//! the result is the same at every chunk count, bit for bit.

use crate::error::{check_budget, BuildError};
use crate::kdtree::KdTree;
use dbscan_geom::kernels::{self, SoaBlock};
use dbscan_geom::{BallCover, CellCoord, CellError, CellPreimage, FastHashMap, Point};
use std::mem::{size_of, take};
use std::ops::Range;
use std::sync::{Mutex, PoisonError};

/// One non-empty grid cell: its integer coordinates, its exact preimage box
/// and the range it owns in the grid's point-id array and SoA coordinate
/// lanes.
pub struct Cell<const D: usize> {
    pub coord: CellCoord<D>,
    start: u32,
    len: u32,
    preimage: Option<CellPreimage<D>>,
}

impl<const D: usize> Cell<D> {
    /// Number of points in the cell.
    pub fn len(&self) -> usize {
        self.len as usize
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

/// A uniform grid over a point set with cell side `ε/√d` and precomputed
/// ε-neighbor lists.
pub struct GridIndex<const D: usize> {
    eps: f64,
    side: f64,
    cells: Vec<Cell<D>>,
    /// Point ids grouped by cell: cell `c` owns
    /// `point_ids[c.start .. c.start + c.len]`, ids ascending within a cell
    /// until [`GridIndex::partition_cells`] reorders them.
    point_ids: Vec<u32>,
    /// SoA coordinate lanes, one contiguous `len*D`-float region per cell
    /// starting at `start*D`; within it, lane `d` spans `[d*len, (d+1)*len)`.
    /// `soa` position `j` of a cell holds the coordinates of
    /// `point_ids[start + j]`.
    soa: Vec<f64>,
    /// For each point, the index of its cell in `cells`.
    cell_of_point: Vec<u32>,
    /// Flattened ε-neighbor lists (cell indices, excluding the cell itself).
    neighbors: Vec<u32>,
    neighbor_ranges: Vec<(u32, u32)>,
}

/// The runner of [`GridIndex::try_build`]: every task inline, in order.
fn run_inline(tasks: usize, task: &(dyn Fn(usize) + Sync)) -> Result<(), BuildError> {
    (0..tasks).for_each(task);
    Ok(())
}

/// Runs `f` on every item of `work` — item `t` as task `t` of one `run`
/// call — and returns the outputs in item order. `run` must run every task
/// before it returns `Ok`.
fn run_chunks<W: Send, O: Send, E>(
    run: &impl Fn(usize, &(dyn Fn(usize) + Sync)) -> Result<(), E>,
    work: Vec<W>,
    f: impl Fn(W) -> O + Sync,
) -> Result<Vec<O>, E> {
    let slots: Vec<Mutex<(Option<W>, Option<O>)>> = work
        .into_iter()
        .map(|w| Mutex::new((Some(w), None)))
        .collect();
    // A slot is only ever (work, none), (none, none) or (none, output), so
    // a guard poisoned by a panicking task still holds a valid slot.
    let lock = |t: usize| slots[t].lock().unwrap_or_else(PoisonError::into_inner);
    run(slots.len(), &|t| {
        let work = lock(t).0.take();
        if let Some(w) = work {
            let out = f(w);
            lock(t).1 = Some(out);
        }
    })?;
    Ok(slots
        .into_iter()
        .map(|s| {
            let (_, out) = s.into_inner().unwrap_or_else(PoisonError::into_inner);
            out.expect("a chunk runner must run every task")
        })
        .collect())
}

/// One bucket task's result: its cells in first-occurrence order, each with
/// its point count in the chunk and its preimage box, and the map that
/// numbered them.
struct Buckets<const D: usize> {
    cells: Vec<Cell<D>>,
    map: FastHashMap<CellCoord<D>, u32>,
}

/// Buckets the points of one chunk: writes each point's chunk-local cell
/// number into `local`. A point inside one of the last two cells' exact
/// preimage boxes ([`CellCoord::preimage`], computed once per chunk-local
/// cell) costs comparisons only; any other point, including a NaN, infinite
/// or overflowing one, goes through [`CellCoord::try_of`] and the map. Stops
/// at the chunk's first unrepresentable coordinate, which is its lowest
/// offending id.
fn bucket<const D: usize>(
    points: &[Point<D>],
    side: f64,
    local: &mut [u32],
) -> Result<Buckets<D>, CellError> {
    let mut map: FastHashMap<CellCoord<D>, u32> = FastHashMap::default();
    let mut cells: Vec<Cell<D>> = Vec::new();
    // The boxes of the last two cells met, the latest first.
    let mut recent: [Option<(CellPreimage<D>, u32)>; 2] = [None, None];
    for (p, slot) in points.iter().zip(local.iter_mut()) {
        let idx = match &recent {
            [Some((b, idx)), _] if b.contains(p) => *idx,
            [_, Some((b, idx))] if b.contains(p) => {
                let idx = *idx;
                recent.swap(0, 1);
                idx
            }
            _ => {
                let coord = CellCoord::try_of(p, side)?;
                let idx = *map.entry(coord).or_insert_with(|| {
                    cells.push(Cell {
                        coord,
                        start: 0,
                        len: 0,
                        preimage: coord.preimage(side),
                    });
                    (cells.len() - 1) as u32
                });
                recent = [cells[idx as usize].preimage.map(|b| (b, idx)), recent[0]];
                idx
            }
        };
        cells[idx as usize].len += 1;
        *slot = idx;
    }
    Ok(Buckets { cells, map })
}

/// Id range of chunk `t` of `chunks` over `n` points.
fn chunk_range(n: usize, chunks: usize, t: usize) -> Range<usize> {
    n * t / chunks..n * (t + 1) / chunks
}

/// Splits `cells` into `tasks` contiguous ranges of about `n / tasks` points
/// each (a cell is never split).
fn balanced_cell_ranges<const D: usize>(
    cells: &[Cell<D>],
    n: usize,
    tasks: usize,
) -> Vec<Range<usize>> {
    let mut lo = 0;
    (1..=tasks)
        .map(|t| {
            let target = n * t / tasks;
            let hi = cells
                .partition_point(|c| (c.start as usize) < target)
                .max(lo);
            let r = lo..if t == tasks { cells.len() } else { hi };
            lo = r.end;
            r
        })
        .collect()
}

/// Splits off the first `len` elements of `*rest`.
fn split_front<'a, T>(rest: &mut &'a mut [T], len: usize) -> &'a mut [T] {
    let (head, tail) = take(rest).split_at_mut(len);
    *rest = tail;
    head
}

/// The `D` lanes of one cell's `len`-point SoA region.
fn lanes_of<const D: usize>(region: &mut [f64], len: usize) -> [&mut [f64]; D] {
    let mut lanes = region.chunks_exact_mut(len);
    std::array::from_fn(|_| lanes.next().expect("a region holds D lanes"))
}

impl<const D: usize> GridIndex<D> {
    /// Approximate resident heap footprint of the built index in bytes,
    /// counting the backing buffers (cells with their preimage boxes, point
    /// buckets, SoA lanes, neighbor lists). Used by hosts that cache built
    /// indexes under a byte budget; the estimate deliberately ignores
    /// allocator slack.
    pub fn approx_bytes(&self) -> u64 {
        (self.cells.len() * std::mem::size_of::<Cell<D>>()
            + self.point_ids.len() * std::mem::size_of::<u32>()
            + self.soa.len() * std::mem::size_of::<f64>()
            + self.cell_of_point.len() * std::mem::size_of::<u32>()
            + self.neighbors.len() * std::mem::size_of::<u32>()
            + self.neighbor_ranges.len() * std::mem::size_of::<(u32, u32)>()) as u64
    }

    /// Builds the grid for radius `eps` over `points`. Expected O(n) for the
    /// bucketing plus O(m log m) for the neighbor discovery over the `m ≤ n`
    /// non-empty cells.
    ///
    /// Panics on invalid `eps` or unrepresentable cell coordinates; callers
    /// with untrusted input should use [`GridIndex::try_build`].
    pub fn build(points: &[Point<D>], eps: f64) -> Self {
        Self::try_build(points, eps, None).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible twin of [`GridIndex::build`]: [`GridIndex::try_build_chunked`]
    /// with one chunk, run inline.
    ///
    /// Rejects, with a typed [`BuildError`] instead of a panic or a silent
    /// wrap: non-positive/non-finite `eps` (which would produce a degenerate
    /// cell side), coordinates whose integer cell index overflows `i64`
    /// (an `as i64` saturation would silently merge distant points into one
    /// boundary cell; a NaN coordinate is refused the same way), and — when
    /// `max_bytes` is given — builds whose estimated footprint (point
    /// buckets, SoA lanes, cell table, kd-tree over centers, neighbor lists)
    /// exceeds the budget, *before* the large allocations happen.
    pub fn try_build(
        points: &[Point<D>],
        eps: f64,
        max_bytes: Option<u64>,
    ) -> Result<Self, BuildError> {
        Self::try_build_chunked(points, eps, max_bytes, 1, run_inline)
    }

    /// [`GridIndex::try_build`] in `chunks` tasks per pass (see the module
    /// docs). `run(tasks, task)` must call `task(t)` exactly once for every
    /// `t` in `0..tasks` — on any threads, in any order — before it returns
    /// `Ok`, or return `Err` to abandon the build; it is called once per
    /// pass. The grid, and a refusal, are the same at every chunk count: an
    /// unrepresentable coordinate is reported for the lowest offending id.
    pub fn try_build_chunked<E: From<BuildError>>(
        points: &[Point<D>],
        eps: f64,
        max_bytes: Option<u64>,
        chunks: usize,
        run: impl Fn(usize, &(dyn Fn(usize) + Sync)) -> Result<(), E>,
    ) -> Result<Self, E> {
        if !(eps > 0.0 && eps.is_finite()) {
            // Surface the same wording as the historical `assert!`: the side
            // is bad because eps is.
            return Err(BuildError::Cell(CellError::BadSide {
                side: dbscan_geom::grid::base_side::<D>(eps),
            })
            .into());
        }
        let side = dbscan_geom::grid::base_side::<D>(eps);
        let chunks = chunks.max(1);

        // Fixed per-point cost of the bucketing phase: one u32 each in
        // `cell_of_point` and `point_ids`, plus D f64 coordinate lanes.
        let n = points.len();
        let per_point = (8 + 8 * D) as u64;
        check_budget(
            "grid index",
            (n as u64).saturating_mul(per_point),
            max_bytes,
        )?;

        // Pass 1, bucket: chunk-local cell numbers go into `cell_of_point`.
        let mut cell_of_point = vec![0u32; n];
        let mut rest = &mut cell_of_point[..];
        let work: Vec<_> = (0..chunks)
            .map(|t| {
                let r = chunk_range(n, chunks, t);
                (&points[r.clone()], split_front(&mut rest, r.len()))
            })
            .collect();
        let mut buckets = run_chunks(&run, work, |(pts, local)| bucket(pts, side, local))?
            .into_iter()
            .collect::<Result<Vec<Buckets<D>>, CellError>>()
            .map_err(BuildError::Cell)?
            .into_iter();

        // Merge: number cells in global first-occurrence order. Chunk 0's
        // numbering is already global, and its cells and map grow into the
        // global ones. `counts[t][l]` is how many points chunk `t` has in
        // its cell `l`, and `global_of[t][l]` that cell's global number.
        let first = buckets.next().expect("at least one chunk");
        let (mut map, mut cells) = (first.map, first.cells);
        let mut counts: Vec<Vec<u32>> = vec![cells.iter().map(|c| c.len).collect()];
        let mut global_of: Vec<Vec<u32>> = vec![(0..cells.len() as u32).collect()];
        for b in buckets {
            drop(b.map);
            let (count, global) = b
                .cells
                .into_iter()
                .map(|cell| {
                    let count = cell.len;
                    let g = *map.entry(cell.coord).or_insert_with(|| {
                        cells.push(Cell { len: 0, ..cell });
                        (cells.len() - 1) as u32
                    });
                    cells[g as usize].len += count;
                    (count, g)
                })
                .unzip();
            counts.push(count);
            global_of.push(global);
        }
        drop(map);
        let mut running = 0u32;
        for cell in &mut cells {
            cell.start = running;
            running += cell.len;
        }

        // The neighbor-discovery phase allocates per *cell*: a center point,
        // roughly one kd-tree node, and a (start, end) range — plus the
        // neighbor lists themselves, accounted incrementally below.
        let m = cells.len() as u64;
        let per_cell = (size_of::<Cell<D>>() + size_of::<Point<D>>() + 48 + 8) as u64;
        let fixed_bytes = (n as u64)
            .saturating_mul(per_point)
            .saturating_add(m.saturating_mul(per_cell));
        check_budget("grid index", fixed_bytes, max_bytes)?;

        // Pass 2, scatter: each (chunk, cell) pair gets the next `count` ids
        // of the cell's range, chunks in order.
        let mut point_ids = vec![0u32; n];
        let mut cell_rest: Vec<&mut [u32]> = Vec::with_capacity(cells.len());
        let mut rest = &mut point_ids[..];
        for cell in &cells {
            cell_rest.push(split_front(&mut rest, cell.len()));
        }
        let mut rest = &mut cell_of_point[..];
        let work: Vec<_> = counts
            .iter()
            .zip(global_of)
            .enumerate()
            .map(|(t, (count, global))| {
                let r = chunk_range(n, chunks, t);
                let targets: Vec<&mut [u32]> = count
                    .iter()
                    .zip(&global)
                    .map(|(&count, &g)| split_front(&mut cell_rest[g as usize], count as usize))
                    .collect();
                (r.start, split_front(&mut rest, r.len()), targets, global)
            })
            .collect();
        drop(counts);
        run_chunks(&run, work, |(lo, local, mut targets, global)| {
            for (i, slot) in (lo as u32..).zip(local.iter_mut()) {
                let l = *slot as usize;
                *split_front(&mut targets[l], 1)
                    .first_mut()
                    .expect("counted") = i;
                *slot = global[l];
            }
        })?;
        drop(cell_rest);

        // Pass 3, fill: each task gathers the coordinates of a range of cells.
        let mut soa = vec![0.0f64; n * D];
        let (mut rest, mut ids_rest) = (&mut soa[..], &point_ids[..]);
        let work: Vec<_> = balanced_cell_ranges(&cells, n, chunks)
            .into_iter()
            .map(|r| {
                let cs = &cells[r];
                let len: usize = cs.iter().map(Cell::len).sum();
                let (ids, tail) = ids_rest.split_at(len);
                ids_rest = tail;
                (cs, ids, split_front(&mut rest, len * D))
            })
            .collect();
        run_chunks(&run, work, |(cs, mut ids, mut soa)| {
            for cell in cs {
                let len = cell.len();
                let (cell_ids, tail) = ids.split_at(len);
                ids = tail;
                let lanes = lanes_of::<D>(split_front(&mut soa, len * D), len);
                for (j, &id) in cell_ids.iter().enumerate() {
                    let p = &points[id as usize];
                    for d in 0..D {
                        lanes[d][j] = p[d];
                    }
                }
            }
        })?;

        // Discover non-empty ε-neighbors via a kd-tree over cell centers. Two
        // cells with min-distance ≤ ε have centers within ε + diagonal = 2ε
        // (the diagonal of a side-ε/√d cell is exactly ε).
        let centers: Vec<Point<D>> = cells.iter().map(|c| c.coord.center(side)).collect();
        let tree = KdTree::build(&centers);
        let reach = eps + side * (D as f64).sqrt() + 1e-9 * eps;
        let mut neighbors = Vec::new();
        let mut neighbor_ranges = Vec::with_capacity(cells.len());
        let mut buf: Vec<u32> = Vec::new();
        for (i, cell) in cells.iter().enumerate() {
            buf.clear();
            tree.for_each_within(&centers[i], reach, |j, _| {
                if j as usize != i
                    && cell
                        .coord
                        .eps_neighbors(&cells[j as usize].coord, side, eps)
                {
                    buf.push(j);
                }
                true
            });
            buf.sort_unstable();
            let start = neighbors.len() as u32;
            neighbors.extend_from_slice(&buf);
            neighbor_ranges.push((start, neighbors.len() as u32));
            // Neighbor lists dominate memory on dense grids (up to ~(2√d+3)^d
            // entries per cell); re-check the budget as they grow.
            check_budget(
                "grid index",
                fixed_bytes.saturating_add(neighbors.len() as u64 * 4),
                max_bytes,
            )?;
        }

        Ok(GridIndex {
            eps,
            side,
            cells,
            point_ids,
            soa,
            cell_of_point,
            neighbors,
            neighbor_ranges,
        })
    }

    /// Stably moves, within every cell, the points for which `first(id)`
    /// holds ahead of the others, reordering the cell's ids and SoA lanes
    /// together, and returns per cell how many such points it has. The ids of
    /// each part stay in their previous order. Runs one pass of `chunks`
    /// tasks through `run`, under the contract of
    /// [`GridIndex::try_build_chunked`]; cells that need no move cost one
    /// `first` call per point.
    pub fn partition_cells<E>(
        &mut self,
        first: impl Fn(u32) -> bool + Sync,
        chunks: usize,
        run: impl Fn(usize, &(dyn Fn(usize) + Sync)) -> Result<(), E>,
    ) -> Result<Vec<u32>, E> {
        let mut counts = vec![0u32; self.cells.len()];
        let (mut ids_rest, mut soa_rest) = (&mut self.point_ids[..], &mut self.soa[..]);
        let mut counts_rest = &mut counts[..];
        let work: Vec<_> =
            balanced_cell_ranges(&self.cells, self.cell_of_point.len(), chunks.max(1))
                .into_iter()
                .map(|r| {
                    let cs = &self.cells[r];
                    let len: usize = cs.iter().map(Cell::len).sum();
                    (
                        cs,
                        split_front(&mut ids_rest, len),
                        split_front(&mut soa_rest, len * D),
                        split_front(&mut counts_rest, cs.len()),
                    )
                })
                .collect();
        run_chunks(&run, work, |(cs, mut ids, mut soa, counts)| {
            let (mut kept_ids, mut kept_xs) = (Vec::new(), Vec::new());
            for (cell, count) in cs.iter().zip(counts) {
                let len = cell.len();
                let cell_ids = split_front(&mut ids, len);
                let region = split_front(&mut soa, len * D);
                let Some(f) = cell_ids.iter().position(|&p| !first(p)) else {
                    *count = len as u32;
                    continue;
                };
                // Points from `f` on: `first` ones slide down to `k`, the
                // others wait in `kept_*` and go after them.
                kept_ids.clear();
                kept_xs.clear();
                let mut k = f;
                for j in f..len {
                    let id = cell_ids[j];
                    if first(id) {
                        cell_ids[k] = id;
                        for d in 0..D {
                            region[d * len + k] = region[d * len + j];
                        }
                        k += 1;
                    } else {
                        kept_ids.push(id);
                        kept_xs.extend((0..D).map(|d| region[d * len + j]));
                    }
                }
                cell_ids[k..].copy_from_slice(&kept_ids);
                for (j, xs) in (k..).zip(kept_xs.chunks_exact(D)) {
                    for d in 0..D {
                        region[d * len + j] = xs[d];
                    }
                }
                *count = k as u32;
            }
        })?;
        Ok(counts)
    }

    /// The radius the grid was built for.
    pub fn eps(&self) -> f64 {
        self.eps
    }

    /// The cell side length `ε/√d`.
    pub fn side(&self) -> f64 {
        self.side
    }

    /// All non-empty cells.
    pub fn cells(&self) -> &[Cell<D>] {
        &self.cells
    }

    /// Number of non-empty cells.
    pub fn num_cells(&self) -> usize {
        self.cells.len()
    }

    /// Number of points in cell `cell_idx` — the payload size a per-cell
    /// task (labeling, border assignment) reports to observability layers.
    pub fn cell_population(&self, cell_idx: u32) -> usize {
        self.cells[cell_idx as usize].len()
    }

    /// Ids of the points in cell `cell_idx`: ascending after the build, and
    /// ascending within each part after [`GridIndex::partition_cells`].
    pub fn points_of(&self, cell_idx: u32) -> &[u32] {
        let c = &self.cells[cell_idx as usize];
        &self.point_ids[c.start as usize..(c.start + c.len) as usize]
    }

    /// SoA view of cell `cell_idx`'s coordinates; position `j` corresponds to
    /// `points_of(cell_idx)[j]`.
    pub fn cell_block(&self, cell_idx: u32) -> SoaBlock<'_, D> {
        let c = &self.cells[cell_idx as usize];
        let (s, l) = (c.start as usize, c.len as usize);
        SoaBlock::from_contiguous(&self.soa[s * D..(s + l) * D], l)
    }

    /// Index (into [`Self::cells`]) of the cell containing point `p_idx`.
    pub fn cell_of_point(&self, p_idx: u32) -> u32 {
        self.cell_of_point[p_idx as usize]
    }

    /// Indices of the non-empty ε-neighbor cells of `cell_idx` (excluding itself).
    pub fn neighbors_of(&self, cell_idx: u32) -> &[u32] {
        let (s, e) = self.neighbor_ranges[cell_idx as usize];
        &self.neighbors[s as usize..e as usize]
    }

    /// How the closed ball `B(q, √eps_sq)` meets the points of cell
    /// `cell_idx`, from the cell's preimage box alone
    /// ([`CellPreimage::ball_cover`]); a cell without a box straddles.
    #[inline]
    pub fn ball_cover(&self, cell_idx: u32, q: &Point<D>, eps_sq: f64) -> BallCover {
        match &self.cells[cell_idx as usize].preimage {
            Some(b) => b.ball_cover(q, eps_sq),
            None => BallCover::Straddles,
        }
    }

    /// Counts dataset points within the closed ball `B(q, ε)`, where `q` is the
    /// dataset point with index `q_idx`, stopping early at `cap`.
    ///
    /// `q`'s own cell and its ε-neighbor cells are first settled whole from
    /// their preimage boxes ([`GridIndex::ball_cover`]): a cell inside the
    /// ball adds its size, a cell outside it adds nothing, neither at the
    /// cost of a distance. The own cell is inside unless `q` sits at a corner
    /// of it, or the cell has no box. Only if those fall short of `cap` are
    /// the cells that straddle the sphere scanned, with the blocked SoA
    /// kernel (branchless within a block, cap check between blocks). The
    /// count is the one a scan of every cell would give. With `cap = MinPts`
    /// this is the paper's labeling step: O(MinPts) work per neighbor cell,
    /// O(1) neighbor cells.
    pub fn count_within_eps(&self, points: &[Point<D>], q_idx: u32, cap: usize) -> EpsCount {
        let q = &points[q_idx as usize];
        let own = self.cell_of_point[q_idx as usize];
        let eps_sq = self.eps * self.eps;
        let cells = || std::iter::once(&own).chain(self.neighbors_of(own));
        let mut out = EpsCount::default();
        for &c in cells() {
            if out.count >= cap {
                break;
            }
            if self.ball_cover(c, q, eps_sq) == BallCover::Covered {
                out.count += self.cells[c as usize].len();
            }
        }
        for &c in cells() {
            if out.count >= cap {
                break;
            }
            if self.ball_cover(c, q, eps_sq) == BallCover::Straddles {
                let (n, ex) = kernels::count_within_block_capped(
                    q,
                    &self.cell_block(c),
                    eps_sq,
                    cap - out.count,
                );
                out.count += n;
                out.examined += ex;
                out.scans += 1;
            }
        }
        out.count = out.count.min(cap);
        out
    }
}

/// What one [`GridIndex::count_within_eps`] call found, and what it cost.
#[derive(Clone, Copy, Default, PartialEq, Eq, Debug)]
pub struct EpsCount {
    /// Points within ε of the query, itself included, clamped to the cap.
    pub count: usize,
    /// Points whose distance to the query was computed.
    pub examined: usize,
    /// Cells scanned with the blocked kernel.
    pub scans: usize,
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbscan_geom::point::p2;

    #[test]
    fn buckets_points_correctly() {
        let eps = 2.0f64.sqrt(); // side = 1.0 in 2D
        let pts = vec![p2(0.5, 0.5), p2(0.7, 0.7), p2(5.5, 0.5), p2(-0.5, -0.5)];
        let g = GridIndex::build(&pts, eps);
        assert_eq!(g.num_cells(), 3);
        assert_eq!(g.cell_of_point(0), g.cell_of_point(1));
        assert_ne!(g.cell_of_point(0), g.cell_of_point(2));
        assert_eq!(g.points_of(g.cell_of_point(0)), &[0, 1]);
    }

    #[test]
    fn soa_lanes_mirror_point_ids() {
        let pts = vec![p2(0.5, 0.5), p2(0.7, 0.1), p2(5.5, 0.5), p2(-0.5, -0.5)];
        let g = GridIndex::build(&pts, 2.0f64.sqrt());
        let mut seen = 0;
        for ci in 0..g.num_cells() as u32 {
            let ids = g.points_of(ci);
            let block = g.cell_block(ci);
            assert_eq!(block.len(), ids.len());
            for (j, &id) in ids.iter().enumerate() {
                assert_eq!(block.point(j), pts[id as usize], "cell {ci} slot {j}");
                assert_eq!(g.cell_of_point(id), ci);
            }
            seen += ids.len();
        }
        assert_eq!(seen, pts.len(), "the build is a permutation");
    }

    #[test]
    fn neighbor_lists_are_symmetric_and_correct() {
        let eps = 1.0;
        let pts = vec![p2(0.1, 0.1), p2(0.9, 0.1), p2(3.0, 3.0)];
        let g = GridIndex::build(&pts, eps);
        for i in 0..g.num_cells() as u32 {
            for &j in g.neighbors_of(i) {
                assert!(
                    g.neighbors_of(j).contains(&i),
                    "neighbor lists must be symmetric"
                );
                assert!(g.cells()[i as usize].coord.eps_neighbors(
                    &g.cells()[j as usize].coord,
                    g.side(),
                    eps
                ));
            }
        }
        // The far-away cell is no one's neighbor.
        let far = g.cell_of_point(2);
        assert!(g.neighbors_of(far).is_empty());
    }

    #[test]
    fn count_within_eps_matches_brute_force() {
        // Deterministic pseudo-random points via a simple LCG, no rand dependency.
        let mut state = 0x12345678u64;
        let mut next = || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as f64 / (1u64 << 31) as f64 * 10.0
        };
        let pts: Vec<Point<2>> = (0..300).map(|_| p2(next(), next())).collect();
        let eps = 1.3;
        let g = GridIndex::build(&pts, eps);
        for q in 0..pts.len() as u32 {
            let brute = pts
                .iter()
                .filter(|p| p.dist_sq(&pts[q as usize]) <= eps * eps)
                .count();
            let full = g.count_within_eps(&pts, q, usize::MAX);
            assert_eq!(full.count, brute, "q={q}");
            // The capped count agrees up to the cap and costs no more.
            let capped = g.count_within_eps(&pts, q, 3);
            assert_eq!(capped.count, brute.min(3));
            assert!(
                capped.examined <= full.examined,
                "the cap can only reduce work"
            );
        }
    }

    /// On a side-1 line, `q = 1` has cell 0 = [0, 1) at a far gap of exactly
    /// ε = 1 and cell 2 = [2, 3) at a near gap of exactly ε. Cell 0 is
    /// counted whole without a distance; cell 2 must be scanned, because
    /// its point at 2 is in the closed ball.
    #[test]
    fn count_within_eps_settles_ties_for_the_ball() {
        let pts: Vec<Point<1>> = [1.0, 0.0, 0.5, 0.75, 2.0, 2.5].map(|x| Point([x])).to_vec();
        let g = GridIndex::build(&pts, 1.0);
        assert_eq!(g.side(), 1.0);
        let eps_sq = 1.0;
        let cell = |x: f64| g.cell_of_point(pts.iter().position(|p| p[0] == x).unwrap() as u32);
        assert_eq!(g.ball_cover(cell(0.0), &pts[0], eps_sq), BallCover::Covered);
        assert_eq!(
            g.ball_cover(cell(2.0), &pts[0], eps_sq),
            BallCover::Straddles
        );
        assert_eq!(
            g.count_within_eps(&pts, 0, usize::MAX),
            EpsCount {
                count: 5,
                examined: 2,
                scans: 1
            }
        );
        // Cell 0 alone reaches a cap of 4, so nothing is scanned.
        assert_eq!(
            g.count_within_eps(&pts, 0, 4),
            EpsCount {
                count: 4,
                examined: 0,
                scans: 0
            }
        );
    }

    #[test]
    fn single_point_counts_itself() {
        let pts = vec![p2(4.0, 4.0)];
        let g = GridIndex::build(&pts, 1.0);
        assert_eq!(g.count_within_eps(&pts, 0, usize::MAX).count, 1);
    }

    #[test]
    #[should_panic(expected = "eps must be positive")]
    fn zero_eps_rejected() {
        let pts = vec![p2(0.0, 0.0)];
        let _ = GridIndex::build(&pts, 0.0);
    }

    #[test]
    fn empty_input() {
        let pts: Vec<Point<2>> = vec![];
        let g = GridIndex::build(&pts, 1.0);
        assert_eq!(g.num_cells(), 0);
    }

    #[test]
    fn try_build_rejects_bad_eps() {
        let pts = vec![p2(0.0, 0.0)];
        for eps in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            assert!(matches!(
                GridIndex::try_build(&pts, eps, None),
                Err(BuildError::Cell(dbscan_geom::CellError::BadSide { .. }))
            ));
        }
    }

    #[test]
    fn try_build_rejects_cell_overflow() {
        // 1e308 / (1/sqrt(2)) overflows any i64 cell coordinate.
        let pts = vec![p2(0.0, 0.0), p2(1e308, 1e308)];
        assert!(matches!(
            GridIndex::try_build(&pts, 1.0, None),
            Err(BuildError::Cell(dbscan_geom::CellError::Overflow {
                dim: 0,
                ..
            }))
        ));
    }

    #[test]
    fn try_build_respects_byte_budget() {
        let pts: Vec<Point<2>> = (0..100).map(|i| p2(i as f64, 0.0)).collect();
        assert!(matches!(
            GridIndex::try_build(&pts, 1.0, Some(64)),
            Err(BuildError::Budget {
                structure: "grid index",
                ..
            })
        ));
        // A generous budget admits the same build.
        assert!(GridIndex::try_build(&pts, 1.0, Some(1 << 20)).is_ok());
    }
}
