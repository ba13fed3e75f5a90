//! Per-processor storage of one array version.
//!
//! A version's local block on processor `p` holds, for each array
//! dimension, the sorted list of global indices `p` owns along it; the
//! elements are stored row-major over those lists. Replicated mappings
//! store a full projection on every replica. This matches the local
//! addressing scheme the mapping layer's structural equality guarantees
//! (see `hpfc-mapping`), so two equal mappings have byte-identical
//! local layouts — the property live-copy reuse relies on.
//!
//! Data movement has one engine: a compiled [`crate::CopyProgram`],
//! whose positions were all resolved at plan time, replayed by
//! [`VersionData::copy_values_from_program`] — whole contiguous runs
//! with `copy_from_slice`, zero allocations per copy, optionally
//! parallel per caterpillar round (see [`crate::exec`]).
//! [`VersionData::copy_values_from`] is the uncached form: plan,
//! schedule, compile, replay. Per-point [`VersionData::get`] /
//! [`VersionData::set`] remain as the value oracle tests compare
//! against. Result extraction ([`VersionData::to_dense`]) walks
//! canonical blocks the same run-level way — no per-element owner
//! computation.

use hpfc_mapping::NormalizedMapping;

/// One processor's slice of a version.
#[derive(Debug, Clone, PartialEq)]
pub struct LocalBlock {
    /// Owned global indices per dimension (sorted).
    pub dims: Vec<Vec<u64>>,
    /// Row-major element data over `dims`.
    pub data: Vec<f64>,
}

impl LocalBlock {
    fn position(&self, point: &[u64]) -> Option<usize> {
        let mut idx = 0usize;
        for (d, list) in self.dims.iter().enumerate() {
            let k = list.binary_search(&point[d]).ok()?;
            idx = idx * list.len() + k;
        }
        Some(idx)
    }
}

/// The distributed storage of one array version.
#[derive(Debug, Clone, PartialEq)]
pub struct VersionData {
    /// The placement this storage realizes.
    pub mapping: NormalizedMapping,
    /// One optional block per processor rank (None = holds nothing).
    pub blocks: Vec<Option<LocalBlock>>,
    /// Element size in bytes (for accounting; data is simulated as f64).
    pub elem_size: u64,
}

impl VersionData {
    /// Allocate (zero-filled) storage for `mapping`.
    pub fn new(mapping: NormalizedMapping, elem_size: u64) -> Self {
        let nprocs = mapping.grid_shape.volume();
        let rank = mapping.array_extents.rank();
        let mut blocks = Vec::with_capacity(nprocs as usize);
        for r in 0..nprocs {
            let coords = mapping.grid_shape.delinearize(r);
            if !mapping.holds_anything(&coords) {
                blocks.push(None);
                continue;
            }
            let dims: Vec<Vec<u64>> =
                (0..rank).map(|d| mapping.owned_indices_along(d, &coords)).collect();
            let len: usize = dims.iter().map(|l| l.len()).product();
            blocks.push(Some(LocalBlock { dims, data: vec![0.0; len] }));
        }
        VersionData { mapping, blocks, elem_size }
    }

    /// Bytes allocated on processor `rank`.
    pub fn bytes_on(&self, rank: u64) -> u64 {
        self.blocks[rank as usize]
            .as_ref()
            .map(|b| b.data.len() as u64 * self.elem_size)
            .unwrap_or(0)
    }

    /// Total bytes across all processors (replicas count).
    pub fn total_bytes(&self) -> u64 {
        (0..self.blocks.len() as u64).map(|r| self.bytes_on(r)).sum()
    }

    /// Read an element (from its canonical owner).
    pub fn get(&self, point: &[u64]) -> f64 {
        let owner = crate::redist::canonical_owner(&self.mapping, point);
        let block = self.blocks[owner as usize].as_ref().expect("owner holds the element");
        block.data[block.position(point).expect("owned element")]
    }

    /// Write an element (to every replica).
    pub fn set(&mut self, point: &[u64], value: f64) {
        for owner in self.mapping.owners(point) {
            let block = self.blocks[owner as usize].as_mut().expect("owner holds the element");
            let pos = block.position(point).expect("owned element");
            block.data[pos] = value;
        }
    }

    /// Fill from a function of the global point.
    ///
    /// Walks every block's local storage in order (sequential data
    /// index, no per-element owner computation or position search).
    /// Replicated blocks are each filled from the same function, so it
    /// must be a pure function of the point — `impl Fn` (not `FnMut`)
    /// makes stateful closures a compile error rather than a silent
    /// replica-coherence bug.
    pub fn fill(&mut self, f: impl Fn(&[u64]) -> f64) {
        let rank = self.mapping.array_extents.rank();
        let mut point = vec![0u64; rank];
        let mut pos = vec![0usize; rank];
        for block in self.blocks.iter_mut().flatten() {
            if block.data.is_empty() {
                continue;
            }
            if rank == 0 {
                block.data[0] = f(&point);
                continue;
            }
            pos.iter_mut().for_each(|p| *p = 0);
            for (p, dim) in point.iter_mut().zip(block.dims.iter()) {
                *p = dim[0];
            }
            let len = block.data.len();
            for i in 0..len {
                block.data[i] = f(&point);
                // Row-major advance, last dimension fastest.
                let mut d = rank;
                while d > 0 {
                    d -= 1;
                    pos[d] += 1;
                    if pos[d] < block.dims[d].len() {
                        point[d] = block.dims[d][pos[d]];
                        break;
                    }
                    pos[d] = 0;
                    point[d] = block.dims[d][0];
                }
            }
        }
    }

    /// Copy all values from another version of the same array — the
    /// data movement a redistribution performs (traffic is accounted
    /// separately, from the plan). Returns `(runs, elements)` copied.
    ///
    /// The uncached path: plans the pair, schedules it, compiles the
    /// [`crate::CopyProgram`] and replays it serially. When a compiled
    /// program is already at hand (the cached remap path),
    /// [`VersionData::copy_values_from_program`] replays it without
    /// re-deriving anything.
    pub fn copy_values_from(&mut self, other: &VersionData) -> (u64, u64) {
        let plan = crate::redist::plan_redistribution(&other.mapping, &self.mapping, self.elem_size);
        let schedule = crate::CommSchedule::from_plan(&plan);
        let program = crate::CopyProgram::try_compile(&plan, &schedule)
            .expect("closed-form plans always compile");
        program.execute(self, other, crate::ExecMode::Serial);
        (program.n_runs(), program.n_elements())
    }

    /// Replay a compiled [`crate::CopyProgram`]: every `(src_pos,
    /// dst_pos, len)` run was resolved at plan time, so this is a
    /// bare `copy_from_slice` loop — zero heap allocations in
    /// [`crate::ExecMode::Serial`], scoped worker threads per
    /// caterpillar round in [`crate::ExecMode::Parallel`]. Returns
    /// `(runs, elements)` copied.
    ///
    /// A program compiled for a different (source, destination)
    /// mapping pair would apply its precompiled positions to the wrong
    /// block layouts, so the copy then goes through
    /// [`VersionData::copy_values_from`] instead. The check is an
    /// allocation-free structural comparison, so the replay stays
    /// allocation-free.
    pub fn copy_values_from_program(
        &mut self,
        other: &VersionData,
        program: &crate::CopyProgram,
        mode: crate::ExecMode,
    ) -> (u64, u64) {
        if !program.compiled_for(other, self) {
            return self.copy_values_from(other);
        }
        program.execute(self, other, mode);
        (program.n_runs(), program.n_elements())
    }

    /// Gather the full array into a dense row-major vector (verification
    /// helper, and the interpreter's result-extraction path).
    ///
    /// Walks each canonical block's storage directly — outer dimensions
    /// index by index, the contiguous innermost runs with
    /// `copy_from_slice` — instead of routing every element through
    /// [`VersionData::get`] (per-point owner computation plus a binary
    /// search per dimension). Extraction is O(runs) per local row and
    /// allocates nothing per element. Replicas beyond the canonical one
    /// (coordinate 0 on replicated axes) hold identical values by the
    /// storage invariants and are skipped.
    pub fn to_dense(&self) -> Vec<f64> {
        let ext = &self.mapping.array_extents;
        let rank = ext.rank();
        let mut out = vec![0.0; ext.volume() as usize];
        if rank == 0 {
            if !out.is_empty() {
                out[0] = self.get(&[]);
            }
            return out;
        }
        // Dense row-major strides of the global array.
        let mut stride = vec![1u64; rank];
        for d in (0..rank - 1).rev() {
            stride[d] = stride[d + 1] * ext.extent(d + 1);
        }
        let last = rank - 1;
        for (r, block) in self.blocks.iter().enumerate() {
            let Some(block) = block else { continue };
            if block.data.is_empty() {
                continue;
            }
            // Skip non-canonical replicas (identical contents).
            let coords = self.mapping.grid_shape.delinearize(r as u64);
            let canonical = self.mapping.axes.iter().enumerate().all(|(a, ax)| {
                !matches!(ax.source, hpfc_mapping::DimSource::Replicated) || coords[a] == 0
            });
            if !canonical {
                continue;
            }
            let rows: usize = block.dims[..last].iter().map(|l| l.len()).product();
            let row_len = block.dims[last].len();
            let list = &block.dims[last];
            let mut pos = vec![0usize; last];
            for row in 0..rows {
                let base: u64 =
                    (0..last).map(|d| block.dims[d][pos[d]] * stride[d]).sum();
                let data = &block.data[row * row_len..(row + 1) * row_len];
                // Copy maximal contiguous stretches of the innermost
                // owned-index list as whole runs.
                let mut i = 0usize;
                while i < row_len {
                    let mut j = i + 1;
                    while j < row_len && list[j] == list[j - 1] + 1 {
                        j += 1;
                    }
                    let at = (base + list[i]) as usize;
                    out[at..at + (j - i)].copy_from_slice(&data[i..j]);
                    i = j;
                }
                for d in (0..last).rev() {
                    pos[d] += 1;
                    if pos[d] < block.dims[d].len() {
                        break;
                    }
                    pos[d] = 0;
                }
            }
        }
        out
    }
}

/// The rollback record of one transactional remap: everything needed to
/// put the destination version back to its byte-identical pre-remap
/// state when the recovery ladder is exhausted mid-write.
///
/// A replay only ever writes inside the compiled program's destination
/// runs (the cached program, a recompiled one, a poisoned one whose
/// `src_pos`es were zeroed, and the corruption scribble all target the
/// same destination positions), so the snapshot is bounded by the
/// bytes the remap would move, not the array size. When the program
/// was compiled for another version pair, the full destination blocks
/// are saved instead.
///
/// Lives in a per-[`crate::Machine`] scratch arena
/// (`std::mem::take`/put-back around the replay): the vectors keep
/// their capacity across remaps, so the armed snapshot allocates
/// nothing in steady state on the compiled path.
#[derive(Debug, Clone, Default)]
pub struct TxnScratch {
    /// The array's status before the remap.
    pub(crate) status: Option<u32>,
    /// The live flags before the remap.
    pub(crate) live: Vec<bool>,
    /// Whether the target copy existed before the remap — if not,
    /// rollback frees it instead of restoring bytes.
    pub(crate) target_preallocated: bool,
    /// Strided capture entries: `(receiver rank, dst_base, count,
    /// dst_step, len)` — one entry covers `count` destination runs of
    /// `len` words each, `dst_step` apart (a stride family's write
    /// set); a residual triple is the degenerate `count = 1, step = 0`
    /// case. One entry per family keeps the capture metadata O(pairs)
    /// like the artifact itself.
    ranges: Vec<(u64, u64, u64, u64, u64)>,
    /// The saved words, concatenated in `ranges` expansion order.
    words: Vec<f64>,
    /// Full-block fallback: `(rank, data)` clones of every destination
    /// block (used when no compiled program bounds the write set).
    full: Vec<(usize, Vec<f64>)>,
    /// Whether this scratch currently holds a capture; cleared by
    /// rollback and by the commit path.
    pub(crate) captured: bool,
}

impl TxnScratch {
    /// Record the rollback point's array state, before anything
    /// executes: `status`, `live`, and whether the target copy
    /// pre-existed (if not, rollback frees it instead of restoring
    /// bytes).
    pub(crate) fn begin(&mut self, status: Option<u32>, live: &[bool], target_preallocated: bool) {
        self.status = status;
        self.live.clear();
        self.live.extend_from_slice(live);
        self.target_preallocated = target_preallocated;
        self.ranges.clear();
        self.words.clear();
        self.full.clear();
        self.captured = true;
    }

    /// Add the destination bytes a replay of `program` from `src` into
    /// `dst` may overwrite — called by each mover right before it
    /// replays. A program compiled for exactly this `(src, dst)` pair
    /// bounds the snapshot to its destination runs; otherwise the full
    /// destination blocks are cloned. A fresh target needs no bytes.
    pub(crate) fn capture_bytes(
        &mut self,
        src: &VersionData,
        dst: &VersionData,
        program: &crate::CopyProgram,
    ) {
        if !self.target_preallocated {
            return; // rollback frees the fresh copy; no bytes to save
        }
        if program.compiled_for(src, dst) && self.capture_runs(program, dst) {
            return;
        }
        self.ranges.clear();
        self.words.clear();
        for (r, b) in dst.blocks.iter().enumerate() {
            if let Some(b) = b {
                self.full.push((r, b.data.clone()));
            }
        }
    }

    /// Save the words under every destination run of `p` — stride
    /// families and residual triples alike. Returns `false` (caller
    /// falls back to full blocks) if a referenced block is unallocated
    /// or a run is out of bounds — states the guarded replay rejects
    /// with a typed error before writing, but the snapshot must never
    /// panic on them.
    fn capture_runs(&mut self, p: &crate::CopyProgram, dst: &VersionData) -> bool {
        for unit in p.local.iter().chain(p.rounds.iter().flatten()) {
            let Some(block) = dst.blocks[unit.receiver as usize].as_ref() else {
                return false;
            };
            for f in &p.fams[unit.fams.0..unit.fams.1] {
                let mut at = f.dst_base as usize;
                let (step, len) = (f.dst_step as usize, f.len as usize);
                let words_start = self.words.len();
                for _ in 0..f.count {
                    let Some(words) = block.data.get(at..at + len) else {
                        self.words.truncate(words_start);
                        return false;
                    };
                    self.words.extend_from_slice(words);
                    at += step;
                }
                self.ranges.push((unit.receiver, f.dst_base, f.count, f.dst_step, f.len));
            }
            for run in &p.runs[unit.runs.0..unit.runs.1] {
                let (at, len) = (run.dst_pos as usize, run.len as usize);
                let Some(words) = block.data.get(at..at + len) else {
                    return false;
                };
                self.ranges.push((unit.receiver, run.dst_pos, 1, 0, run.len));
                self.words.extend_from_slice(words);
            }
        }
        true
    }

    /// Write the saved destination bytes back (strided capture entries
    /// or full blocks, whichever was captured), expanding each entry in
    /// the order it was captured. Array-level state (`status`, `live`,
    /// freeing a fresh copy) is the caller's half of the rollback — see
    /// `ArrayRt::rollback_remap`.
    pub(crate) fn restore_bytes(&self, dst: &mut VersionData) {
        for (rank, data) in &self.full {
            if let Some(b) = dst.blocks[*rank].as_mut() {
                b.data.copy_from_slice(data);
            }
        }
        let mut off = 0usize;
        for &(rank, base, count, step, len) in &self.ranges {
            let (step, len) = (step as usize, len as usize);
            let mut at = base as usize;
            if let Some(b) = dst.blocks[rank as usize].as_mut() {
                for _ in 0..count {
                    b.data[at..at + len].copy_from_slice(&self.words[off..off + len]);
                    at += step;
                    off += len;
                }
            } else {
                off += count as usize * len;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpfc_mapping::{
        Alignment, DimFormat, Distribution, Extents, GridId, Mapping, ProcGrid, Template,
        TemplateId,
    };

    fn mk2d(n: u64, p: u64, fmts: Vec<DimFormat>) -> NormalizedMapping {
        let t = Template { id: TemplateId(0), name: "T".into(), shape: Extents::new(&[n, n]) };
        let g = ProcGrid { id: GridId(0), name: "P".into(), shape: Extents::new(&[p]) };
        Mapping {
            align: Alignment::identity(TemplateId(0), 2),
            dist: Distribution::new(GridId(0), fmts),
        }
        .normalize(&Extents::new(&[n, n]), &t, &g)
        .unwrap()
    }

    #[test]
    fn get_set_roundtrip_rowblock() {
        let nm = mk2d(8, 4, vec![DimFormat::Block(None), DimFormat::Collapsed]);
        let mut v = VersionData::new(nm, 8);
        v.set(&[3, 5], 42.0);
        assert_eq!(v.get(&[3, 5]), 42.0);
        assert_eq!(v.get(&[0, 0]), 0.0);
    }

    #[test]
    fn fill_and_dense_are_consistent_across_mappings() {
        let row = mk2d(8, 4, vec![DimFormat::Block(None), DimFormat::Collapsed]);
        let col = mk2d(8, 4, vec![DimFormat::Collapsed, DimFormat::Cyclic(None)]);
        let f = |p: &[u64]| (p[0] * 8 + p[1]) as f64;
        let mut a = VersionData::new(row, 8);
        let mut b = VersionData::new(col, 8);
        a.fill(f);
        b.fill(f);
        assert_eq!(a.to_dense(), b.to_dense());
    }

    #[test]
    fn copy_values_preserves_content() {
        let row = mk2d(6, 3, vec![DimFormat::Block(None), DimFormat::Collapsed]);
        let col = mk2d(6, 3, vec![DimFormat::Collapsed, DimFormat::Block(None)]);
        let mut a = VersionData::new(row, 8);
        a.fill(|p| (p[0] * 100 + p[1]) as f64);
        let mut b = VersionData::new(col, 8);
        b.copy_values_from(&a);
        assert_eq!(a.to_dense(), b.to_dense());
    }

    #[test]
    fn replicated_version_stores_everywhere() {
        let repl = mk2d(4, 4, vec![DimFormat::Collapsed, DimFormat::Collapsed]);
        let mut v = VersionData::new(repl.clone(), 8);
        v.set(&[1, 1], 7.0);
        // All four processors hold the element.
        let full = 4 * 4 * 8;
        assert_eq!(v.total_bytes(), 4 * full);
        assert_eq!(v.get(&[1, 1]), 7.0);
    }

    #[test]
    fn bytes_accounting_partition() {
        let nm = mk2d(8, 4, vec![DimFormat::Cyclic(None), DimFormat::Collapsed]);
        let v = VersionData::new(nm, 8);
        assert_eq!(v.total_bytes(), 8 * 8 * 8);
        assert_eq!(v.bytes_on(0), 2 * 8 * 8);
    }
}
