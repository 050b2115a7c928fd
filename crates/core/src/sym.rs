//! The multithreaded symmetric SpMV engine (§III + §IV).
//!
//! [`SymSpmv`] binds a symmetric matrix (stored as SSS or CSX-Sym), a
//! static nnz-balanced row partition and a [`ReductionStrategy`] borrowed
//! from the shared [`ExecutionContext`], and executes `y = A·x` in two
//! timed phases:
//!
//! 1. **multiply** — each thread computes its partition; transposed writes
//!    that would cross partition boundaries go to local vectors (where they
//!    go depends on the strategy's layout);
//! 2. **reduce** — the local vectors are folded into `y` in parallel by the
//!    strategy.
//!
//! Three of the four built-in strategies implement Fig. 3 of the paper (see
//! `symspmv_runtime::reduction` for the details), the fourth is the race
//! schedule; [`ReductionMethod`] names them (`"naive"`, `"eff"`, `"idx"`,
//! `"race"`). The kernel space is closed — two formats × four methods, and
//! [`unsupported_pair`] is the one rule for which pairs build. The local
//! vectors themselves are leased from the context's buffer arena per call,
//! so consecutive invocations — and different kernels sharing one context —
//! recycle the same first-touch-initialized pages.

use crate::csx_sym::{sym_stream, CsxSymMatrix};
use crate::error::SymSpmvError;
use crate::plan::{CachedSymPlan, GroupSchedule};
use crate::shared::SharedBuf;
use crate::symbolic::ConflictIndex;
use crate::traits::ParallelSpmv;
use std::borrow::Cow;
use std::sync::Arc;
use symspmv_csx::detect::DetectConfig;
use symspmv_runtime::reduction::ReduceJob;
use symspmv_runtime::timing::{time_into, Stopwatch};
use symspmv_runtime::{ExecutionContext, ParallelSpmm, PhaseTimes, Range, ReductionStrategy};
use symspmv_sparse::block::VectorBlock;
use symspmv_sparse::symmetry::{SymmetryKind, SymmetryOps};
use symspmv_sparse::{with_lanes, with_symmetry_ops, CooMatrix, SparseError, SssMatrix, Val};

/// How local vectors are organized and reduced (Fig. 3 b/c/d).
///
/// Each variant names one of the four strategies every
/// [`ExecutionContext`] holds; the set is closed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ReductionMethod {
    /// Full-length local vector per thread (Alg. 3).
    Naive,
    /// Effective ranges (Batista et al., ref. 7 of the paper).
    EffectiveRanges,
    /// Local-vectors indexing (§III-C — the paper's scheme).
    Indexing,
    /// RACE-style coloring schedule (Alappat et al.): distance-2-disjoint
    /// row groups run one barrier apart with direct writes — no local
    /// vectors, no reduction phase at all. SSS format only.
    Race,
}

impl ReductionMethod {
    /// Every method, in the order lineups and search tables list them.
    pub const ALL: [ReductionMethod; 4] = [
        ReductionMethod::Naive,
        ReductionMethod::EffectiveRanges,
        ReductionMethod::Indexing,
        ReductionMethod::Race,
    ];

    /// Short name used in kernel identifiers, reports, plan files, and as
    /// the context's lookup tag of the corresponding [`ReductionStrategy`].
    pub fn tag(self) -> &'static str {
        match self {
            ReductionMethod::Naive => "naive",
            ReductionMethod::EffectiveRanges => "eff",
            ReductionMethod::Indexing => "idx",
            ReductionMethod::Race => "race",
        }
    }

    /// Parses a [`ReductionMethod::tag`] name back; `None` for unknown names.
    pub fn from_tag(tag: &str) -> Option<ReductionMethod> {
        Self::ALL.into_iter().find(|m| m.tag() == tag)
    }
}

/// Storage format of the symmetric matrix.
#[derive(Debug, Clone)]
pub enum SymFormat {
    /// Sparse Skyline storage (§II-B): dense diagonal plus the strict
    /// lower triangle in CSR layout. Despite the traditional "Symmetric
    /// Sparse Skyline" name, it carries any [`SymmetryKind`] — skew
    /// matrices mirror with a sign flip, structurally symmetric ones
    /// through a paired upper-value array.
    Sss,
    /// CSX-Sym with the given detection configuration (§IV-B).
    CsxSym(DetectConfig),
}

/// Serializable handle for the two [`SymFormat`] families. [`SymFormat`]
/// itself carries a full [`DetectConfig`], which is the wrong thing to
/// persist in a plan store; the tag round-trips through its [`str`] name
/// and materializes with the experiment-default detection configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FormatTag {
    /// Sparse Skyline storage.
    Sss,
    /// CSX-Sym delta/run compression.
    CsxSym,
}

impl FormatTag {
    /// Both formats, in the order lineups and search tables list them.
    pub const ALL: [FormatTag; 2] = [FormatTag::Sss, FormatTag::CsxSym];

    /// Stable short name (`"sss"`, `"csxsym"`) used in plan files and
    /// search tables.
    pub fn tag(&self) -> &'static str {
        match self {
            FormatTag::Sss => "sss",
            FormatTag::CsxSym => "csxsym",
        }
    }

    /// Parses a [`FormatTag::tag`] name back; `None` for unknown names.
    pub fn parse(name: &str) -> Option<FormatTag> {
        Self::ALL.into_iter().find(|f| f.tag() == name)
    }

    /// Materializes the tag as a buildable [`SymFormat`] with the default
    /// detection configuration (the same one the experiment drivers use).
    pub fn to_format(self) -> SymFormat {
        match self {
            FormatTag::Sss => SymFormat::Sss,
            FormatTag::CsxSym => SymFormat::CsxSym(DetectConfig::default()),
        }
    }
}

impl SymFormat {
    /// The format's family tag (the detection configuration dropped).
    pub fn tag(&self) -> FormatTag {
        match self {
            SymFormat::Sss => FormatTag::Sss,
            SymFormat::CsxSym(_) => FormatTag::CsxSym,
        }
    }
}

/// The one rule for which `(format, method)` pairs build: why `method`
/// cannot drive `format`, if it cannot. Every constructor,
/// `PlanSpec::is_valid` and the harness's `KernelSpec::all`/`parse` consult
/// it, so "buildable" has a single spelling. Seven of the eight pairs build.
pub fn unsupported_pair(format: FormatTag, method: ReductionMethod) -> Option<&'static str> {
    match (format, method) {
        // The group schedule walks SSS rows; a CSX-Sym stream is encoded per
        // partition chunk and cannot be re-cut along color groups.
        (FormatTag::CsxSym, ReductionMethod::Race) => {
            Some("the race schedule supports the SSS format only")
        }
        _ => None,
    }
}

/// The kernel name of a `(format, method)` pair (`"sss-idx"`, …) — what
/// [`SymSpmv`]'s `name()` reports and the harness's `KernelSpec::name`
/// returns. Static, so report loops never allocate for names.
pub fn pair_name(format: FormatTag, method: ReductionMethod) -> &'static str {
    use ReductionMethod::{EffectiveRanges as Eff, Indexing as Idx, Naive, Race};
    match (format, method) {
        (FormatTag::Sss, Naive) => "sss-naive",
        (FormatTag::Sss, Eff) => "sss-eff",
        (FormatTag::Sss, Idx) => "sss-idx",
        (FormatTag::Sss, Race) => "sss-race",
        (FormatTag::CsxSym, Naive) => "csxsym-naive",
        (FormatTag::CsxSym, Eff) => "csxsym-eff",
        (FormatTag::CsxSym, Idx) => "csxsym-idx",
        (FormatTag::CsxSym, Race) => "csxsym-race",
    }
}

enum Storage {
    Sss(SssMatrix),
    CsxSym(CsxSymMatrix),
}

/// The multithreaded symmetric SpMV kernel.
pub struct SymSpmv {
    n: usize,
    nnz_full: usize,
    kind: SymmetryKind,
    method: ReductionMethod,
    strategy: Arc<dyn ReductionStrategy>,
    storage: Storage,
    /// The certified, context-memoized plan: row partition, local-vector
    /// layout, conflict index, reduction chunks and the race certificate.
    /// The local store itself is leased from the arena per spmv call.
    plan: Arc<CachedSymPlan>,
    /// Lane-lifted block-write certificates, one per SpMM lane count seen.
    block_certs: std::collections::HashMap<usize, Arc<symspmv_verify::RaceCertificate>>,
    ctx: Arc<ExecutionContext>,
    times: PhaseTimes,
    size_bytes: usize,
}

impl SymSpmv {
    /// Builds the kernel from a full symmetric COO matrix.
    pub fn from_coo(
        coo: &CooMatrix,
        ctx: &Arc<ExecutionContext>,
        method: ReductionMethod,
        format: SymFormat,
    ) -> Result<Self, SparseError> {
        Self::from_coo_kind(coo, SymmetryKind::Symmetric, ctx, method, format)
    }

    /// Builds the kernel from a full COO matrix under an explicit symmetry
    /// kind: the matrix is validated against the kind (symmetric, skew or
    /// pattern-symmetric) and the kernel's mirror contributions follow it.
    /// A `method` the `format` does not support ([`unsupported_pair`]) is
    /// [`SparseError::InvalidArgument`], checked before any conversion.
    pub fn from_coo_kind(
        coo: &CooMatrix,
        kind: SymmetryKind,
        ctx: &Arc<ExecutionContext>,
        method: ReductionMethod,
        format: SymFormat,
    ) -> Result<Self, SparseError> {
        Self::check_pair(&format, method)?;
        let sss = SssMatrix::from_coo_kind(coo, kind, 0.0)?;
        Ok(Self::from_sss(sss, ctx, method, format))
    }

    /// Fully validated constructor for matrices from outside the process:
    /// beyond [`SymSpmv::from_coo`]'s square/symmetry checks, rejects
    /// non-finite values, duplicate coordinates, index overflow and a
    /// `method` the `format` does not support, and reports everything as
    /// a classified [`SymSpmvError`].
    pub fn try_from_coo(
        coo: &CooMatrix,
        ctx: &Arc<ExecutionContext>,
        method: ReductionMethod,
        format: SymFormat,
    ) -> Result<Self, SymSpmvError> {
        Self::try_from_coo_kind(coo, SymmetryKind::Symmetric, ctx, method, format)
    }

    /// The kind-parameterized twin of [`SymSpmv::try_from_coo`].
    pub fn try_from_coo_kind(
        coo: &CooMatrix,
        kind: SymmetryKind,
        ctx: &Arc<ExecutionContext>,
        method: ReductionMethod,
        format: SymFormat,
    ) -> Result<Self, SymSpmvError> {
        Self::check_pair(&format, method)?;
        let sss = SssMatrix::try_from_coo_kind(coo, kind, 0.0)?;
        Ok(Self::from_sss(sss, ctx, method, format))
    }

    fn check_pair(format: &SymFormat, method: ReductionMethod) -> Result<(), SparseError> {
        match unsupported_pair(format.tag(), method) {
            Some(why) => Err(SparseError::InvalidArgument {
                msg: why.to_string(),
            }),
            None => Ok(()),
        }
    }

    /// Builds the kernel from an SSS matrix (symmetry already established;
    /// the matrix's [`SymmetryKind`] carries over to the kernel).
    ///
    /// Format preprocessing (CSX-Sym detection/encoding) and the symbolic
    /// conflict analysis are timed into the `preprocess` phase.
    ///
    /// Panics on a pair [`unsupported_pair`] refuses — this signature has
    /// no error channel; the `from_coo*` constructors return it instead.
    pub fn from_sss(
        sss: SssMatrix,
        ctx: &Arc<ExecutionContext>,
        method: ReductionMethod,
        format: SymFormat,
    ) -> Self {
        if let Some(why) = unsupported_pair(format.tag(), method) {
            panic!("{why}");
        }
        // Every context holds the four built-ins, so the lookup cannot fail.
        let strategy = ctx.reduction(method.tag()).unwrap_or_else(|| {
            unreachable!("built-in reduction strategy missing from the context")
        });
        let n = sss.n() as usize;
        let kind = sss.kind();
        let mut times = PhaseTimes::new();

        // Partition, layout, conflict index and race certificate all come
        // from the context-memoized plan: a repeat build for the same
        // (matrix, nthreads, strategy) reuses it wholesale and the
        // preprocess phase records (almost) nothing.
        let plan = time_into(&mut times.preprocess, || {
            CachedSymPlan::obtain(&sss, ctx, &strategy)
        });
        let parts = Arc::clone(&plan.parts);

        let nnz_full = 2 * sss.lower_nnz() + n;
        let storage = match &format {
            SymFormat::Sss => Storage::Sss(sss),
            SymFormat::CsxSym(cfg) => {
                let m = time_into(&mut times.preprocess, || {
                    CsxSymMatrix::from_sss(&sss, &parts, cfg)
                });
                Storage::CsxSym(m)
            }
        };
        let size_bytes = match &storage {
            Storage::Sss(s) => s.size_bytes(),
            Storage::CsxSym(m) => m.size_bytes(),
        };

        // The write-set certificate covers the partition and reduction for
        // any storage; the CSX-Sym boundary rule (§IV-B) is an additional
        // per-stream obligation, checked here while the encoding is fresh.
        #[cfg(debug_assertions)]
        if let Storage::CsxSym(m) = &storage {
            if let Err(e) = symspmv_verify::certify_csx_chunks(
                m.chunks().iter().map(|c| &c.stream),
                &parts,
                plan.fingerprint,
                n as u32,
                kind,
            ) {
                unreachable!("CSX-Sym encoding failed boundary certification: {e}");
            }
        }

        SymSpmv {
            n,
            nnz_full,
            kind,
            method,
            strategy,
            storage,
            plan,
            block_certs: std::collections::HashMap::new(),
            ctx: Arc::clone(ctx),
            times,
            size_bytes,
        }
    }

    /// The row partition in use.
    pub fn partitions(&self) -> &[Range] {
        &self.plan.parts
    }

    /// The certified plan this kernel dispatches with.
    pub fn plan(&self) -> &Arc<CachedSymPlan> {
        &self.plan
    }

    /// The race certificate proving the plan's write sets are disjoint.
    pub fn certificate(&self) -> &symspmv_verify::RaceCertificate {
        &self.plan.cert
    }

    /// The lane-lifted block-write certificate for a given lane count,
    /// minted by the first [`ParallelSpmm::spmm`] call with that many
    /// lanes (`None` before then). The scalar certificate's row conflicts
    /// are lane-independent, so the lift re-checks only the lane scaling
    /// of the layout (see `symspmv_verify::lift_sym_certificate`).
    pub fn block_certificate(&self, lanes: usize) -> Option<&Arc<symspmv_verify::RaceCertificate>> {
        self.block_certs.get(&lanes)
    }

    /// Obtains (and memoizes) the lane-lifted certificate for `lanes`.
    fn obtain_block_certificate(&mut self, lanes: usize) -> Arc<symspmv_verify::RaceCertificate> {
        if let Some(cert) = self.block_certs.get(&lanes) {
            return Arc::clone(cert);
        }
        let block_offsets: Vec<usize> = self.plan.offsets.iter().map(|o| o * lanes).collect();
        let cert = match symspmv_verify::lift_sym_certificate(
            &self.plan.cert,
            lanes,
            &self.plan.offsets,
            self.plan.local_len,
            &block_offsets,
            self.plan.local_len * lanes,
        ) {
            Ok(c) => Arc::new(c),
            // The kernel derives the block layout by scaling the certified
            // scalar plan, so a failed lift means the lifter itself broke.
            Err(e) => unreachable!("lane-lifting a certified plan failed: {e}"),
        };
        self.block_certs.insert(lanes, Arc::clone(&cert));
        cert
    }

    /// The symmetry kind the kernel's mirror contributions follow.
    pub fn kind(&self) -> SymmetryKind {
        self.kind
    }

    /// The reduction method in use.
    pub fn method(&self) -> ReductionMethod {
        self.method
    }

    /// Number of color groups of a scheduled (race) plan; `None` for the
    /// reduction-based strategies.
    pub fn schedule_groups(&self) -> Option<usize> {
        self.plan.schedule.as_ref().map(|s| s.groups.len())
    }

    /// Elements of local-vector store leased from the arena per call —
    /// `p·N` for the naive layout, `Σ start_i` for the effective layouts
    /// (the working-set term of Eqs. 3/4/6).
    pub fn local_len(&self) -> usize {
        self.plan.local_len
    }

    /// The conflict index (meaningful for index-consuming strategies).
    pub fn conflict_index(&self) -> &ConflictIndex {
        &self.plan.index
    }

    /// Substructure coverage of the CSX-Sym encoding (0 for SSS).
    pub fn csx_coverage(&self) -> f64 {
        match &self.storage {
            Storage::Sss(_) => 0.0,
            Storage::CsxSym(m) => m.coverage(),
        }
    }

    /// The multiply phase over `K`-lane-interleaved buffers, monomorphized
    /// per [`SymmetryKind`] and lane count at the dispatch boundary: the
    /// `Symmetric`, `K = 1` instantiation compiles to the plain scalar loop
    /// (the mirror coefficient is the stored value itself, the paired load
    /// folds away and every `[Val; 1]` lane loop is a single operation).
    ///
    /// One round for the local-vectors family: every thread runs its
    /// partition through the format's body with the split sink. The
    /// direct-write strategies split at the partition start — row results
    /// and in-partition mirror writes go to the thread's own rows of `y`,
    /// conflicting mirrors to its effective region. The naive method is the
    /// `split = 0` case of the same body over the thread's private
    /// full-length vector: nothing is below the split, so nothing conflicts.
    /// Per-thread regions are the scalar plan's regions scaled by `K` —
    /// exactly the scaling the lane-lifted certificate re-checks.
    fn multiply<O: SymmetryOps, const K: usize>(
        &self,
        x: &[Val],
        y: &mut [Val],
        flat_buf: SharedBuf<'_>,
    ) {
        let y_buf = SharedBuf::new(y);
        let x = x.as_chunks::<K>().0;
        if let Some(schedule) = &self.plan.schedule {
            self.multiply_scheduled::<O, K>(schedule, x, y_buf);
            return;
        }
        let parts: &[Range] = &self.plan.parts;
        let offsets = &self.plan.offsets;
        let n = self.n;
        let direct = self.strategy.direct_write();
        self.ctx.run(&|tid| {
            let part = parts[tid];
            if part.is_empty() {
                return;
            }
            let (start, end) = (part.start as usize, part.end as usize);
            let off = offsets[tid];
            let (split, my_y, local) = if direct {
                // SAFETY(cert: effective-region): region [off, off+start)
                // is this thread's declared slice of the leased store.
                let local = unsafe { lane_rows::<K>(&flat_buf, off, off + start) };
                // SAFETY(cert: disjoint-direct): every direct write targets
                // our own rows — the row r itself and transposed targets
                // c ∈ [start, r); for a CSX-Sym chunk the csx-boundary check
                // keeps encoded patterns from crossing the split. Taking the
                // range as a plain slice keeps the hot loop free of
                // raw-pointer writes the compiler can't reason about.
                let my_y = unsafe { lane_rows::<K>(&y_buf, start, end) };
                (start, my_y, local)
            } else {
                // SAFETY(cert: effective-region): the naive layout gives
                // this thread the private full-length region [off, off+n).
                let private = unsafe { lane_rows::<K>(&flat_buf, off, off + n) };
                // No row is below split 0, so `local` is empty.
                (0, private, Default::default())
            };
            match &self.storage {
                Storage::Sss(sss) => sss_rows_split::<O, K>(sss, part, split, x, my_y, local),
                Storage::CsxSym(m) => {
                    init_diag(
                        &m.dvalues()[start..end],
                        &x[start..end],
                        &mut my_y[start - split..end - split],
                    );
                    let chunk = &m.chunks()[tid];
                    sym_stream::<O, K>(&chunk.stream, chunk.paired_values(), x, my_y, split, local);
                }
            }
        });
    }

    /// The fold phase over lane-interleaved buffers: the strategy visits
    /// each conflicting row once and folds all `lanes` of its group — the
    /// Eq. 3–6 working-set win multiplied by `k`. It re-zeroes every local
    /// element the multiply phase wrote, which is exactly what the lease
    /// contract requires.
    fn reduce(&self, y: &mut [Val], flat_buf: SharedBuf<'_>, lanes: usize) {
        let job = ReduceJob {
            y: SharedBuf::new(y),
            locals: flat_buf,
            n: self.n,
            parts: &self.plan.parts,
            offsets: &self.plan.offsets,
            row_chunks: &self.plan.reduce_chunks,
            entries: &self.plan.index.entries,
            splits: &self.plan.index.splits,
            lanes,
        };
        self.ctx.with_pool(|pool| self.strategy.reduce(pool, &job));
    }

    /// The reduction-free scheduled multiply (ROADMAP item 3, RACE): a
    /// diagonal pre-pass over disjoint row chunks, then one barriered pool
    /// round per group. Within a group the certificate proves the write
    /// sets `{r} ∪ cols(r)` pairwise disjoint, so every thread scatters
    /// into `y` directly — zero local vectors, zero atomics; the reduce
    /// phase never runs (`local_len == 0`).
    fn multiply_scheduled<O: SymmetryOps, const K: usize>(
        &self,
        schedule: &GroupSchedule,
        x: &[[Val; K]],
        y_buf: SharedBuf<'_>,
    ) {
        let Storage::Sss(sss) = &self.storage else {
            unreachable!("the race schedule supports the SSS format only")
        };
        let chunks: &[Range] = &self.plan.reduce_chunks;
        self.ctx.run(&|tid| {
            let (lo, hi) = (chunks[tid].start as usize, chunks[tid].end as usize);
            // SAFETY(cert: disjoint-direct): the row chunks tile 0..n, so
            // this diagonal pre-pass writes each y[r] exactly once.
            let my_y = unsafe { lane_rows::<K>(&y_buf, lo, hi) };
            init_diag(&sss.dvalues()[lo..hi], &x[lo..hi], my_y);
        });
        for (rows, parts) in schedule.groups.iter().zip(&schedule.group_parts) {
            self.ctx.run(&|tid| {
                let part = parts[tid];
                let rows = &rows[part.start as usize..part.end as usize];
                sss_rows_race::<O, K>(sss, rows, x, y_buf);
            });
        }
    }

    /// Dispatch gate: `cert` must describe exactly this configuration.
    /// Catches a plan reused across a renumbering or a thread-count change
    /// (debug builds only; the re-fingerprint walks the structure).
    fn check_dispatch(&self, cert: &symspmv_verify::RaceCertificate) {
        if !cfg!(debug_assertions) {
            return;
        }
        if let Storage::Sss(sss) = &self.storage {
            if let Err(e) = cert.validate_for(
                sss.fingerprint(),
                self.ctx.nthreads(),
                "sym-sss",
                &self.plan.cert.strategy,
            ) {
                unreachable!("dispatching with a stale race certificate: {e}");
            }
        }
    }

    /// One call over `K`-lane-interleaved `x` and `y`: lease the local
    /// store, run the timed multiply phase, then the timed reduce phase if
    /// it has work. `spmv` is the `K = 1` instantiation, `spmm` enters
    /// through `with_lanes!`.
    ///
    /// The phase clocks are advanced in place after each phase returns, so
    /// a worker panic unwinding through here leaves the time accumulated so
    /// far intact.
    fn run<const K: usize>(&mut self, x: &[Val], y: &mut [Val]) {
        // The lease must borrow the local Arc, not `self.ctx`, so the
        // clocks in `self.times` stay writable while it is out.
        let ctx = Arc::clone(&self.ctx);
        let mut locals = ctx.lease(self.plan.local_len * K);
        let flat_buf = SharedBuf::new(&mut locals);

        let phase = Stopwatch::start();
        with_symmetry_ops!(self.kind, O => self.multiply::<O, K>(x, y, flat_buf));
        self.times.multiply += phase.elapsed();

        if self.reduce_has_work() {
            let phase = Stopwatch::start();
            self.reduce(y, flat_buf, K);
            self.times.reduce += phase.elapsed();
        }
    }

    /// Whether the reduce phase has any work at all: with one thread (or a
    /// degenerate partition) the direct-write layouts declare an empty
    /// conflict region, and an index-consuming strategy with zero conflict
    /// entries folds nothing — either way the multiply phase already left
    /// `y` complete and the leased store untouched (all-zero), so the
    /// reduction round is skipped entirely.
    fn reduce_has_work(&self) -> bool {
        if self.plan.local_len == 0 {
            return false;
        }
        !(self.strategy.needs_index() && self.plan.index.entries.is_empty())
    }
}

/// The `K`-lane view of the scalar elements `[lo, hi)` of a shared buffer:
/// lane group `i` of the result is elements `[(lo+i)·K, (lo+i+1)·K)`.
///
/// # Safety
/// The caller must hold the scalar range `[lo, hi)` exclusively for the
/// lifetime of the returned slice, by the certificate invariant it names
/// at the call site.
#[allow(clippy::mut_from_ref)] // as `SharedBuf::range_mut`: caller-proven disjointness
unsafe fn lane_rows<'b, const K: usize>(
    buf: &'b SharedBuf<'_>,
    lo: usize,
    hi: usize,
) -> &'b mut [[Val; K]] {
    // SAFETY(cert: lane-lifted): block slot `row·K + lane` inherits the
    // scalar row's disjointness, so the caller's exclusive scalar range
    // scales to an exclusive range of lane groups (itself, for `K = 1`).
    let flat = unsafe { buf.range_mut(lo * K, hi * K) };
    flat.as_chunks_mut::<K>().0
}

/// `dst[·] += t · src[·]`, lane by lane — one scalar FMA-shaped update of
/// the `K = 1` kernel, `K` independent ones of the block kernel.
#[inline(always)]
pub(crate) fn axpy_lanes<const K: usize>(dst: &mut [Val; K], t: Val, src: &[Val; K]) {
    for (d, &s) in dst.iter_mut().zip(src) {
        *d += t * s;
    }
}

/// `dst[·] += src[·]`, lane by lane.
#[inline(always)]
pub(crate) fn add_lanes<const K: usize>(dst: &mut [Val; K], src: &[Val; K]) {
    for (d, &s) in dst.iter_mut().zip(src) {
        *d += s;
    }
}

/// The diagonal pre-pass `y[r,·] = d_r · x[r,·]` of the stream and
/// scheduled kernels, over one row range (all three slices cover it).
fn init_diag<const K: usize>(dvalues: &[Val], x: &[[Val; K]], y: &mut [[Val; K]]) {
    for ((yr, &d), xr) in y.iter_mut().zip(dvalues).zip(x) {
        for (slot, &xi) in yr.iter_mut().zip(xr) {
            *slot = d * xi;
        }
    }
}

/// The SSS row body with the split sink, over the rows of `part`: a row's
/// result and its mirror writes at or above `split` go to `my_y` (whose
/// element 0 is global row `split`), mirror writes below `split` to
/// `local`. One pass over the matrix updates all `K` lanes, so the matrix
/// traffic is amortized `K`-fold while every lane runs the scalar kernel's
/// exact float sequence.
///
/// Monomorphized per symmetry kind: the mirror coefficient is
/// `O::transposed(v, u)` with `u` the paired upper value (aliasing `v` for
/// the numeric kinds, so the `Symmetric` instantiation is the pre-kind
/// loop, bit for bit).
fn sss_rows_split<O: SymmetryOps, const K: usize>(
    sss: &SssMatrix,
    part: Range,
    split: usize,
    x: &[[Val; K]],
    my_y: &mut [[Val; K]],
    local: &mut [[Val; K]],
) {
    let dv = sss.dvalues();
    for r in part.start..part.end {
        let (cols, vals, pair) = sss.row_with_paired(r);
        let r = r as usize;
        let xr = &x[r];
        // The accumulator starts at zero and the diagonal term joins at the
        // final write — the exact op order of the serial reference
        // (`SssMatrix::spmv`), so a single-thread direct-write run is
        // bit-identical to it (the conformance oracle's exactness class).
        let mut acc = [0.0; K];
        for ((&c, &v), &u) in cols.iter().zip(vals).zip(pair) {
            let c = c as usize;
            axpy_lanes(&mut acc, v, &x[c]);
            let t = O::transposed(v, u);
            // Two explicit arms, not one selected target slice: the branchy
            // form is what keeps the `K = 1` instance at scalar speed.
            if c >= split {
                axpy_lanes(&mut my_y[c - split], t, xr);
            } else {
                axpy_lanes(&mut local[c], t, xr);
            }
        }
        // Assignment is sound: this thread's earlier transposed writes only
        // target rows below r.
        let d = dv[r];
        for ((slot, &xi), &a) in my_y[r - split].iter_mut().zip(xr).zip(&acc) {
            *slot = d * xi + a;
        }
    }
}

/// The race sibling of [`sss_rows_split`]: the same row walk over one
/// thread's share of a color group, with every write going straight into
/// the shared `y` (the diagonal term is already there from the pre-pass).
fn sss_rows_race<O: SymmetryOps, const K: usize>(
    sss: &SssMatrix,
    rows: &[u32],
    x: &[[Val; K]],
    y_buf: SharedBuf<'_>,
) {
    for &r in rows {
        let (cols, vals, pair) = sss.row_with_paired(r);
        let r = r as usize;
        let xr = &x[r];
        let mut acc = [0.0; K];
        for ((&c, &v), &u) in cols.iter().zip(vals).zip(pair) {
            let c = c as usize;
            axpy_lanes(&mut acc, v, &x[c]);
            let t = O::transposed(v, u);
            for (j, &xi) in xr.iter().enumerate() {
                // SAFETY(cert: color-class): rows of one group never share
                // a write target (nor, lane-lifted, a lane group), and the
                // barrier between group rounds orders cross-group writes.
                unsafe { y_buf.add(c * K + j, t * xi) };
            }
        }
        for (j, &a) in acc.iter().enumerate() {
            // SAFETY(cert: color-class): y[r,·] is claimed by row r alone
            // within this group.
            unsafe { y_buf.add(r * K + j, a) };
        }
    }
}

impl ParallelSpmv for SymSpmv {
    fn spmv(&mut self, x: &[Val], y: &mut [Val]) {
        assert_eq!(x.len(), self.n);
        assert_eq!(y.len(), self.n);
        self.check_dispatch(&self.plan.cert);
        self.run::<1>(x, y);
    }

    fn n(&self) -> usize {
        self.n
    }

    fn nnz_full(&self) -> usize {
        self.nnz_full
    }

    fn size_bytes(&self) -> usize {
        self.size_bytes
    }

    fn times(&self) -> PhaseTimes {
        self.times
    }

    fn reset_times(&mut self) {
        self.times = PhaseTimes::new();
    }

    fn name(&self) -> Cow<'static, str> {
        let format = match self.storage {
            Storage::Sss(_) => FormatTag::Sss,
            Storage::CsxSym(_) => FormatTag::CsxSym,
        };
        Cow::Borrowed(pair_name(format, self.method))
    }

    fn context(&self) -> &Arc<ExecutionContext> {
        &self.ctx
    }
}

impl ParallelSpmm for SymSpmv {
    fn spmm(&mut self, x: &VectorBlock, y: &mut VectorBlock) {
        assert_eq!(x.n(), self.n, "x block dimension mismatch");
        assert_eq!(y.n(), self.n, "y block dimension mismatch");
        assert_eq!(x.lanes(), y.lanes(), "lane count mismatch");
        let lanes = x.lanes();

        // Mint (or fetch) the lane-lifted block-write certificate — every
        // SpMM dispatch is covered by a certificate proving the scaled
        // layout inherits the scalar plan's disjointness.
        let cert = self.obtain_block_certificate(lanes);
        debug_assert!(cert.proves("lane-lifted"));
        self.check_dispatch(&cert);
        with_lanes!(lanes, K => self.run::<K>(x.as_slice(), y.as_mut_slice()));
    }

    fn spmm_context(&self) -> &Arc<ExecutionContext> {
        &self.ctx
    }
}

impl crate::traits::SymbolicDescribe for SymSpmv {
    fn structure_facts(&self) -> Option<symspmv_verify::StructureFacts> {
        match &self.storage {
            Storage::Sss(sss) => Some(symspmv_verify::StructureFacts::of(sss)),
            // The stream encoding discards the row-wise SSS structure
            // the facts are distilled from; its boundary rule is certified
            // by the CSX checker instead.
            Storage::CsxSym(_) => None,
        }
    }

    fn recertify_symbolic(
        &self,
    ) -> Option<Result<symspmv_verify::RaceCertificate, symspmv_verify::VerifyError>> {
        let facts = self.structure_facts()?;
        if let Some(schedule) = &self.plan.schedule {
            let Storage::Sss(sss) = &self.storage else {
                unreachable!("the race schedule supports the SSS format only")
            };
            return Some(
                symspmv_verify::ColoringFacts::establish(
                    sss,
                    &schedule.levels,
                    &schedule.subcolors,
                )
                .and_then(|coloring| {
                    symspmv_verify::certify_race_symbolic(
                        &facts,
                        &coloring,
                        &schedule.group_of,
                        &schedule.groups,
                        &schedule.group_parts,
                        self.ctx.nthreads(),
                    )
                }),
            );
        }
        let kind = symspmv_verify::SymStrategyKind::from_tag(&self.plan.cert.strategy)?;
        let plan_ref = symspmv_verify::SymPlanRef {
            parts: &self.plan.parts,
            offsets: &self.plan.offsets,
            local_len: self.plan.local_len,
            strategy: kind,
            entries: &self.plan.index.entries,
            splits: &self.plan.index.splits,
            row_chunks: &self.plan.reduce_chunks,
        };
        Some(symspmv_verify::certify_sym_symbolic(
            &facts,
            &plan_ref,
            &self.plan.index.conflicts,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use symspmv_sparse::dense::{assert_vec_close, seeded_vector};

    fn csx_cfg() -> DetectConfig {
        DetectConfig {
            min_coverage: 0.0,
            ..DetectConfig::default()
        }
    }

    fn all_engines(coo: &CooMatrix, ctx: &Arc<ExecutionContext>) -> Vec<SymSpmv> {
        let mut v = Vec::new();
        for method in [
            ReductionMethod::Naive,
            ReductionMethod::EffectiveRanges,
            ReductionMethod::Indexing,
        ] {
            v.push(SymSpmv::from_coo(coo, ctx, method, SymFormat::Sss).unwrap());
            v.push(SymSpmv::from_coo(coo, ctx, method, SymFormat::CsxSym(csx_cfg())).unwrap());
        }
        // The scheduled strategy supports SSS only.
        v.push(SymSpmv::from_coo(coo, ctx, ReductionMethod::Race, SymFormat::Sss).unwrap());
        v
    }

    #[test]
    fn all_methods_match_serial_sss() {
        let coo = symspmv_sparse::gen::banded_random(400, 30, 10.0, 42);
        let n = 400;
        let sss = SssMatrix::from_coo(&coo, 0.0).unwrap();
        let x = seeded_vector(n, 5);
        let mut y_ref = vec![0.0; n];
        sss.spmv(&x, &mut y_ref);

        for p in [1usize, 2, 3, 7, 8] {
            let ctx = ExecutionContext::new(p);
            for mut eng in all_engines(&coo, &ctx) {
                let mut y = vec![f64::NAN; n];
                eng.spmv(&x, &mut y);
                assert_vec_close(&y, &y_ref, 1e-12);
                // Second call must give identical results (locals re-zeroed).
                let mut y2 = vec![f64::NAN; n];
                eng.spmv(&x, &mut y2);
                assert_vec_close(&y2, &y_ref, 1e-12);
            }
        }
    }

    #[test]
    fn high_bandwidth_matrix_all_methods() {
        // Scattered entries exercise the conflict-heavy path.
        let coo = symspmv_sparse::gen::mixed_bandwidth(500, 8.0, 0.3, 5, 77);
        let sss = SssMatrix::from_coo(&coo, 0.0).unwrap();
        let x = seeded_vector(500, 9);
        let mut y_ref = vec![0.0; 500];
        sss.spmv(&x, &mut y_ref);
        let ctx = ExecutionContext::new(6);
        for mut eng in all_engines(&coo, &ctx) {
            let mut y = vec![0.0; 500];
            eng.spmv(&x, &mut y);
            assert_vec_close(&y, &y_ref, 1e-12);
        }
    }

    #[test]
    fn spmm_lanes_bitwise_match_spmv_all_engines() {
        let coo = symspmv_sparse::gen::mixed_bandwidth(350, 7.0, 0.25, 4, 33);
        for p in [1usize, 3, 8] {
            let ctx = ExecutionContext::new(p);
            for mut eng in all_engines(&coo, &ctx) {
                for lanes in [1usize, 2, 4] {
                    let x = VectorBlock::seeded(350, lanes, 60);
                    let mut y = VectorBlock::zeros(350, lanes);
                    eng.spmm(&x, &mut y);
                    let cert = eng.block_certificate(lanes).unwrap();
                    assert!(cert.proves("lane-lifted"));
                    assert_eq!(cert.lanes, lanes);
                    for j in 0..lanes {
                        let mut yj = vec![0.0; 350];
                        eng.spmv(&x.lane(j), &mut yj);
                        assert_eq!(
                            y.lane(j).iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                            yj.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                            "{} p={p} lanes={lanes}: lane {j} not bit-identical",
                            eng.name()
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn block_matrix_csx_sym_compresses_beyond_sss() {
        let coo = symspmv_sparse::gen::block_structural(120, 3, 12.0, 20, 3);
        let ctx = ExecutionContext::new(4);
        let sss_eng =
            SymSpmv::from_coo(&coo, &ctx, ReductionMethod::Indexing, SymFormat::Sss).unwrap();
        let csx_eng = SymSpmv::from_coo(
            &coo,
            &ctx,
            ReductionMethod::Indexing,
            SymFormat::CsxSym(csx_cfg()),
        )
        .unwrap();
        assert!(
            csx_eng.size_bytes() < sss_eng.size_bytes(),
            "CSX-Sym {} vs SSS {}",
            csx_eng.size_bytes(),
            sss_eng.size_bytes()
        );
        assert!(csx_eng.csx_coverage() > 0.5);
    }

    #[test]
    fn phase_times_recorded() {
        let coo = symspmv_sparse::gen::laplacian_2d(30, 30);
        let ctx = ExecutionContext::new(4);
        let mut eng =
            SymSpmv::from_coo(&coo, &ctx, ReductionMethod::Indexing, SymFormat::Sss).unwrap();
        let x = seeded_vector(900, 1);
        let mut y = vec![0.0; 900];
        eng.spmv(&x, &mut y);
        let t = eng.times();
        assert!(t.multiply > std::time::Duration::ZERO);
        eng.reset_times();
        assert_eq!(eng.times().multiply, std::time::Duration::ZERO);
    }

    #[test]
    fn names_identify_configuration() {
        let coo = symspmv_sparse::gen::laplacian_2d(8, 8);
        let ctx = ExecutionContext::new(2);
        let e1 = SymSpmv::from_coo(&coo, &ctx, ReductionMethod::Naive, SymFormat::Sss).unwrap();
        assert_eq!(e1.name(), "sss-naive");
        assert!(
            matches!(e1.name(), Cow::Borrowed(_)),
            "built-in names must not allocate"
        );
        let e2 = SymSpmv::from_coo(
            &coo,
            &ctx,
            ReductionMethod::Indexing,
            SymFormat::CsxSym(csx_cfg()),
        )
        .unwrap();
        assert_eq!(e2.name(), "csxsym-idx");
    }

    #[test]
    fn asymmetric_input_rejected() {
        let mut coo = CooMatrix::new(3, 3);
        coo.push(0, 1, 1.0);
        let ctx = ExecutionContext::new(2);
        assert!(SymSpmv::from_coo(&coo, &ctx, ReductionMethod::Naive, SymFormat::Sss).is_err());
    }

    #[test]
    fn indexing_working_set_smaller_than_effective() {
        // The core claim of §III-C: the index touches far fewer elements
        // than the effective regions contain.
        let coo = symspmv_sparse::gen::banded_random(2000, 50, 12.0, 8);
        let ctx = ExecutionContext::new(8);
        let eng = SymSpmv::from_coo(&coo, &ctx, ReductionMethod::Indexing, SymFormat::Sss).unwrap();
        let ci = eng.conflict_index();
        assert!(
            ci.entries.len() < ci.effective_region_len / 2,
            "index {} vs effective region {}",
            ci.entries.len(),
            ci.effective_region_len
        );
        assert!(ci.density() < 0.5);
    }

    #[test]
    fn identity_matrix_edge_case() {
        let mut coo = CooMatrix::new(16, 16);
        for i in 0..16 {
            coo.push(i, i, 3.0);
        }
        let ctx = ExecutionContext::new(4);
        for mut eng in all_engines(&coo, &ctx) {
            let x = seeded_vector(16, 2);
            let mut y = vec![0.0; 16];
            eng.spmv(&x, &mut y);
            let expect: Vec<f64> = x.iter().map(|v| 3.0 * v).collect();
            assert_vec_close(&y, &expect, 1e-12);
        }
    }
}

#[cfg(test)]
mod error_taxonomy_tests {
    use super::*;
    use symspmv_sparse::dense::seeded_vector;

    // SymSpmv has no Debug impl, so Result::unwrap_err is unavailable.
    fn expect_err<T>(res: Result<T, SymSpmvError>) -> SymSpmvError {
        match res {
            Err(e) => e,
            Ok(_) => panic!("construction must fail"),
        }
    }

    #[test]
    fn try_from_coo_rejects_nonfinite_and_asymmetric() {
        let ctx = ExecutionContext::new(2);
        let mut bad = CooMatrix::new(2, 2);
        bad.push(0, 0, f64::NAN);
        let err = expect_err(SymSpmv::try_from_coo(
            &bad,
            &ctx,
            ReductionMethod::Naive,
            SymFormat::Sss,
        ));
        assert!(
            matches!(
                err,
                SymSpmvError::InvalidStructure(SparseError::NonFiniteValue { .. })
            ),
            "{err:?}"
        );

        let mut asym = CooMatrix::new(2, 2);
        asym.push(0, 1, 1.0);
        let err = expect_err(SymSpmv::try_from_coo(
            &asym,
            &ctx,
            ReductionMethod::Naive,
            SymFormat::Sss,
        ));
        assert!(matches!(err, SymSpmvError::InvalidStructure(_)), "{err:?}");
    }

    #[test]
    fn injected_multiply_panic_surfaces_as_worker_panicked() {
        let coo = symspmv_sparse::gen::banded_random(300, 20, 8.0, 17);
        let ctx = ExecutionContext::new(4);
        let mut eng =
            SymSpmv::from_coo(&coo, &ctx, ReductionMethod::Indexing, SymFormat::Sss).unwrap();
        let x = seeded_vector(300, 3);
        let mut y = vec![0.0; 300];
        // Warm up so the arena holds the local-vector buffer (no first-touch
        // rounds interleave with the armed round below).
        eng.try_spmv(&x, &mut y).unwrap();

        // Next pool round is the multiply phase of the next spmv.
        let before = eng.times().multiply;
        assert!(before > std::time::Duration::ZERO);
        ctx.fault_plan().arm_worker_panic(2, 0);
        let err = eng.try_spmv(&x, &mut y).unwrap_err();
        assert!(
            matches!(err, SymSpmvError::WorkerPanicked { tid: 2, .. }),
            "{err:?}"
        );
        // The unwinding call must not lose the time accumulated before it.
        let after = eng.times().multiply;
        assert!(
            after >= before,
            "multiply clock went from {before:?} to {after:?}"
        );
        assert!(ctx.arena_all_free_zero(), "arena dirty after worker death");

        // The same engine and context recover and compute correctly.
        let mut y_after = vec![0.0; 300];
        eng.try_spmv(&x, &mut y_after).unwrap();
        let sss = SssMatrix::from_coo(&coo, 0.0).unwrap();
        let mut y_ref = vec![0.0; 300];
        sss.spmv(&x, &mut y_ref);
        symspmv_sparse::dense::assert_vec_close(&y_after, &y_ref, 1e-12);
    }
}

#[cfg(test)]
mod edge_tests {
    use super::*;
    use symspmv_sparse::dense::{assert_vec_close, seeded_vector};
    use symspmv_sparse::CooMatrix;

    fn methods() -> [ReductionMethod; 3] {
        [
            ReductionMethod::Naive,
            ReductionMethod::EffectiveRanges,
            ReductionMethod::Indexing,
        ]
    }

    fn csx_cfg() -> DetectConfig {
        DetectConfig {
            min_coverage: 0.0,
            ..DetectConfig::default()
        }
    }

    #[test]
    fn far_more_threads_than_rows() {
        // Empty trailing partitions must be handled by every method and
        // both formats.
        let coo = symspmv_sparse::gen::laplacian_2d(3, 3); // N = 9
        let sss = SssMatrix::from_coo(&coo, 0.0).unwrap();
        let x = seeded_vector(9, 1);
        let mut y_ref = vec![0.0; 9];
        sss.spmv(&x, &mut y_ref);
        let ctx = ExecutionContext::new(32);
        for method in methods() {
            for format in [SymFormat::Sss, SymFormat::CsxSym(csx_cfg())] {
                let mut eng = SymSpmv::from_coo(&coo, &ctx, method, format).unwrap();
                let mut y = vec![f64::NAN; 9];
                eng.spmv(&x, &mut y);
                assert_vec_close(&y, &y_ref, 1e-12);
            }
        }
    }

    #[test]
    fn single_thread_skips_reduction_phase() {
        // p = 1: the conflict region is empty (no row can conflict with a
        // partition that owns everything), so the direct-write methods must
        // run the multiply round only — no reduction round, no reduce time.
        let coo = symspmv_sparse::gen::banded_random(200, 12, 6.0, 21);
        let sss = SssMatrix::from_coo(&coo, 0.0).unwrap();
        let x = seeded_vector(200, 7);
        let mut y_ref = vec![0.0; 200];
        sss.spmv(&x, &mut y_ref);

        for method in [ReductionMethod::EffectiveRanges, ReductionMethod::Indexing] {
            let ctx = ExecutionContext::new(1);
            let mut eng = SymSpmv::from_coo(&coo, &ctx, method, SymFormat::Sss).unwrap();
            assert_eq!(eng.local_len(), 0, "p=1 must declare no conflict region");
            assert!(eng.conflict_index().entries.is_empty());

            let rounds_before = ctx.pool_rounds();
            let mut y = vec![f64::NAN; 200];
            eng.spmv(&x, &mut y);
            assert_vec_close(&y, &y_ref, 1e-12);
            assert_eq!(
                ctx.pool_rounds() - rounds_before,
                1,
                "{method:?}: p=1 spmv must dispatch the multiply round only"
            );
            assert_eq!(eng.times().reduce, std::time::Duration::ZERO);
        }

        // The naive method still needs its fold with p = 1 — everything
        // goes through the local vector.
        let ctx = ExecutionContext::new(1);
        let mut eng =
            SymSpmv::from_coo(&coo, &ctx, ReductionMethod::Naive, SymFormat::Sss).unwrap();
        assert_eq!(eng.local_len(), 200);
        let rounds_before = ctx.pool_rounds();
        let mut y = vec![f64::NAN; 200];
        eng.spmv(&x, &mut y);
        assert_vec_close(&y, &y_ref, 1e-12);
        assert!(ctx.pool_rounds() - rounds_before >= 2);
    }

    #[test]
    fn one_by_one_matrix() {
        let mut coo = CooMatrix::new(1, 1);
        coo.push(0, 0, 5.0);
        let ctx = ExecutionContext::new(2);
        for method in methods() {
            let mut eng = SymSpmv::from_coo(&coo, &ctx, method, SymFormat::Sss).unwrap();
            let mut y = vec![0.0];
            eng.spmv(&[3.0], &mut y);
            assert_eq!(y, vec![15.0]);
        }
    }

    #[test]
    fn dense_column_zero_matrix() {
        // Every row couples to row 0: thread 1..p's conflicts all collapse
        // to a single idx, stressing the split-independence logic.
        let n = 64u32;
        let mut coo = CooMatrix::new(n, n);
        for i in 0..n {
            coo.push(i, i, 4.0);
        }
        for r in 1..n {
            coo.push(r, 0, -1.0);
            coo.push(0, r, -1.0);
        }
        let sss = SssMatrix::from_coo(&coo, 0.0).unwrap();
        let x = seeded_vector(n as usize, 2);
        let mut y_ref = vec![0.0; n as usize];
        sss.spmv(&x, &mut y_ref);
        for p in [2usize, 4, 8] {
            let ctx = ExecutionContext::new(p);
            let mut eng =
                SymSpmv::from_coo(&coo, &ctx, ReductionMethod::Indexing, SymFormat::Sss).unwrap();
            // Index has exactly p-1 entries, all with idx 0 (minus thread 0).
            let nonempty = eng
                .partitions()
                .iter()
                .skip(1)
                .filter(|r| !r.is_empty())
                .count();
            assert_eq!(eng.conflict_index().entries.len(), nonempty);
            let mut y = vec![0.0; n as usize];
            eng.spmv(&x, &mut y);
            assert_vec_close(&y, &y_ref, 1e-12);
        }
    }

    #[test]
    fn working_set_allocation_matches_method() {
        let coo = symspmv_sparse::gen::laplacian_2d(16, 16); // N = 256
        let ctx = ExecutionContext::new(4);
        let naive = SymSpmv::from_coo(&coo, &ctx, ReductionMethod::Naive, SymFormat::Sss).unwrap();
        let idx = SymSpmv::from_coo(&coo, &ctx, ReductionMethod::Indexing, SymFormat::Sss).unwrap();
        // Naive leases p*N local elements; indexing only Σ start_i.
        assert_eq!(naive.local_len(), 4 * 256);
        assert!(
            idx.local_len() < 3 * 256,
            "effective regions are Σ start_i < (p-1)N"
        );
    }

    #[test]
    fn race_schedule_is_reduction_free() {
        // The tentpole property of the RACE scheme: zero local vectors,
        // zero conflict index, no reduce round — just the diagonal
        // pre-pass plus one barriered pool round per color group.
        let coo = symspmv_sparse::gen::laplacian_2d(16, 16); // N = 256
        let sss = SssMatrix::from_coo(&coo, 0.0).unwrap();
        let x = seeded_vector(256, 11);
        let mut y_ref = vec![0.0; 256];
        sss.spmv(&x, &mut y_ref);

        let ctx = ExecutionContext::new(4);
        let mut eng = SymSpmv::from_coo(&coo, &ctx, ReductionMethod::Race, SymFormat::Sss).unwrap();
        assert_eq!(eng.name(), "sss-race");
        assert!(
            matches!(eng.name(), Cow::Borrowed(_)),
            "built-in names must not allocate"
        );
        assert_eq!(eng.method(), ReductionMethod::Race);
        assert_eq!(eng.local_len(), 0, "race leases no local vectors");
        assert!(eng.conflict_index().entries.is_empty());

        let groups = eng.plan.schedule.as_ref().unwrap().groups.len();
        assert!(groups >= 2, "a 2-D Laplacian needs at least two colors");

        let rounds_before = ctx.pool_rounds();
        let mut y = vec![f64::NAN; 256];
        eng.spmv(&x, &mut y);
        assert_vec_close(&y, &y_ref, 1e-12);
        assert_eq!(
            ctx.pool_rounds() - rounds_before,
            1 + groups,
            "one diagonal pre-pass plus one barriered round per group"
        );
        assert_eq!(eng.times().reduce, std::time::Duration::ZERO);
    }

    #[test]
    fn race_certificate_carries_coloring_proof() {
        let coo = symspmv_sparse::gen::banded_random(300, 9, 5.0, 3);
        let ctx = ExecutionContext::new(3);
        let eng = SymSpmv::from_coo(&coo, &ctx, ReductionMethod::Race, SymFormat::Sss).unwrap();
        let cert = eng.certificate().clone();
        assert_eq!(cert.strategy, "race");
        assert_eq!(cert.local_elems, 0);
        assert!(cert.proves("color-class"));
        assert!(cert.proves("disjoint-direct"));
        assert!(matches!(
            cert.proof,
            symspmv_verify::ProofForm::ColoringDisjoint { reach: 2, .. }
        ));
        // The symbolic re-derivation must reproduce the plan-time
        // certificate bit-for-bit.
        use crate::traits::SymbolicDescribe;
        let sym = eng.recertify_symbolic().unwrap().unwrap();
        assert_eq!(sym, cert);
    }

    #[test]
    #[should_panic(expected = "the race schedule supports the SSS format only")]
    fn race_rejects_csxsym() {
        // `from_sss` has no error channel: the refused pair panics.
        let coo = symspmv_sparse::gen::laplacian_2d(8, 8);
        let sss = SssMatrix::from_coo(&coo, 0.0).unwrap();
        let ctx = ExecutionContext::new(2);
        let _ = SymSpmv::from_sss(
            sss,
            &ctx,
            ReductionMethod::Race,
            SymFormat::CsxSym(csx_cfg()),
        );
    }

    #[test]
    fn from_coo_refuses_csxsym_race_as_invalid_argument() {
        // The `Result`-returning constructors (`from_coo` is the
        // `Symmetric` case) report the refused pair for every kind, before
        // converting anything (the matrix is not even skew or structural).
        let coo = symspmv_sparse::gen::laplacian_2d(8, 8);
        let ctx = ExecutionContext::new(2);
        for kind in [
            SymmetryKind::Symmetric,
            SymmetryKind::Skew,
            SymmetryKind::Structural,
        ] {
            let res = SymSpmv::from_coo_kind(
                &coo,
                kind,
                &ctx,
                ReductionMethod::Race,
                SymFormat::CsxSym(csx_cfg()),
            );
            assert!(
                matches!(res, Err(SparseError::InvalidArgument { .. })),
                "{kind:?}"
            );
        }
    }
}
