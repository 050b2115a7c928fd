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

use crate::csx_sym::CsxSymMatrix;
use crate::error::SymSpmvError;
use crate::plan::{CachedSymPlan, GroupSchedule};
use crate::shared::SharedBuf;
use crate::symbolic::ConflictIndex;
use crate::traits::{ParallelSpmm, ParallelSpmv};
use std::borrow::Cow;
use std::sync::Arc;
use symspmv_csx::detect::DetectConfig;
use symspmv_csx::matrix::sym_stream;
use symspmv_runtime::reduction::ReduceJob;
use symspmv_runtime::timing::{time_into, Stopwatch};
use symspmv_runtime::{ExecutionContext, PhaseTimes, Range, ReductionStrategy};
use symspmv_sparse::block::{axpy_lanes, VectorBlock};
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

    /// Short name used in kernel identifiers, reports, and as
    /// the context's lookup tag of the corresponding [`ReductionStrategy`].
    pub fn tag(self) -> &'static str {
        match self {
            ReductionMethod::Naive => "naive",
            ReductionMethod::EffectiveRanges => "eff",
            ReductionMethod::Indexing => "idx",
            ReductionMethod::Race => "race",
        }
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

/// Handle for the two [`SymFormat`] families without the [`DetectConfig`]
/// that [`SymFormat::CsxSym`] carries: the format half of a [`pair_name`],
/// materialized with the experiment-default detection configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FormatTag {
    /// Sparse Skyline storage.
    Sss,
    /// CSX-Sym delta/run compression.
    CsxSym,
}

impl FormatTag {
    /// Stable short name (`"sss"`, `"csxsym"`).
    pub fn tag(&self) -> &'static str {
        match self {
            FormatTag::Sss => "sss",
            FormatTag::CsxSym => "csxsym",
        }
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
/// cannot drive `format`, if it cannot. Every constructor and the
/// harness's `KernelSpec::all` consult it, so "buildable" has a
/// single spelling. Seven of the eight pairs build.
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
    /// The certified plan this build derived: row partition, local-vector
    /// layout, conflict index, reduction chunks and the race certificate.
    /// The local store itself is leased from the arena per spmv call.
    plan: CachedSymPlan,
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
    /// A `method` the `format` does not support ([`unsupported_pair`]), or
    /// a CSX-Sym config [`DetectConfig::validate`] refuses, is
    /// [`SparseError::InvalidArgument`], checked before any conversion.
    /// The COO → SSS conversion runs on `ctx`'s pool
    /// ([`SssMatrix::from_coo_kind_on`]); its result is the serial one.
    pub fn from_coo_kind(
        coo: &CooMatrix,
        kind: SymmetryKind,
        ctx: &Arc<ExecutionContext>,
        method: ReductionMethod,
        format: SymFormat,
    ) -> Result<Self, SparseError> {
        Self::check_pair(&format, method)?;
        let sss = SssMatrix::from_coo_kind_on(coo, kind, 0.0, ctx.as_ref())?;
        Ok(Self::from_sss(sss, ctx, method, format))
    }

    /// Fully validated constructor for matrices from outside the process:
    /// beyond [`SymSpmv::from_coo`]'s square/symmetry checks, rejects
    /// non-finite values, index overflow, a `method` the `format` does not
    /// support and a CSX-Sym config that fails [`DetectConfig::validate`],
    /// and reports everything as a classified
    /// [`SymSpmvError`]. Duplicate coordinates are summed, as by
    /// [`SssMatrix::try_from_coo_kind`].
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
        let sss = SssMatrix::try_from_coo_kind_on(coo, kind, 0.0, ctx.as_ref())?;
        Ok(Self::from_sss(sss, ctx, method, format))
    }

    fn check_pair(format: &SymFormat, method: ReductionMethod) -> Result<(), SparseError> {
        if let Some(why) = unsupported_pair(format.tag(), method) {
            return Err(SparseError::InvalidArgument {
                msg: why.to_string(),
            });
        }
        match format {
            SymFormat::CsxSym(config) => config.validate(),
            SymFormat::Sss => Ok(()),
        }
    }

    /// Builds the kernel from an SSS matrix (symmetry already established;
    /// the matrix's [`SymmetryKind`] carries over to the kernel).
    ///
    /// Format preprocessing (CSX-Sym detection/encoding) and the symbolic
    /// conflict analysis are timed into the `preprocess` phase. The plan is
    /// built on the calling thread; a CSX-Sym build then spends exactly one
    /// pool round, share `i` encoding chunk `i`, and re-encodes on the
    /// caller any chunk whose share panicked — a pool fault costs time, not
    /// the build. It dispatches no other round; the conversion in the
    /// `from_coo*` constructors may spend two before it (see
    /// [`SssMatrix::try_from_coo_kind_on`]).
    ///
    /// Panics on a pair [`unsupported_pair`] refuses, or a CSX-Sym config
    /// [`DetectConfig::validate`] refuses — this signature has no error
    /// channel; the `from_coo*` constructors return both instead.
    pub fn from_sss(
        sss: SssMatrix,
        ctx: &Arc<ExecutionContext>,
        method: ReductionMethod,
        format: SymFormat,
    ) -> Self {
        if let Err(e) = Self::check_pair(&format, method) {
            panic!("{e}");
        }
        // Every context holds the four built-ins, so the lookup cannot fail.
        let strategy = ctx.reduction(method.tag()).unwrap_or_else(|| {
            unreachable!("built-in reduction strategy missing from the context")
        });
        let n = sss.n() as usize;
        let kind = sss.kind();
        let mut times = PhaseTimes::new();

        // Partition, layout, conflict index and race certificate: derived
        // here, once per build, and owned by the kernel.
        let plan = time_into(&mut times.preprocess, || {
            CachedSymPlan::obtain(&sss, ctx, &strategy)
        });
        let parts = &plan.parts;

        let nnz_full = 2 * sss.lower_nnz() + n;
        let storage = match &format {
            SymFormat::Sss => Storage::Sss(sss),
            SymFormat::CsxSym(cfg) => {
                let m = time_into(&mut times.preprocess, || {
                    CsxSymMatrix::from_sss_on(&sss, parts, cfg, ctx)
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
                parts,
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
    pub fn plan(&self) -> &CachedSymPlan {
        &self.plan
    }

    /// The race certificate proving the plan's write sets are disjoint.
    pub fn certificate(&self) -> &symspmv_verify::RaceCertificate {
        &self.plan.cert
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

    /// The multiply phase over `K`-lane-interleaved buffers, monomorphized
    /// per [`SymmetryKind`] and lane count at the dispatch boundary: in the
    /// `Symmetric`, `K = 1` instantiation the mirror coefficient is the
    /// stored value itself and every `[Val; 1]` lane loop is a single
    /// operation. The SSS body aliases the numeric kinds' pair slice to the
    /// value slice at compile time, so they read no paired stream; the
    /// CSX-Sym stream zips a pair slice that aliases its values at run time.
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
    ///
    /// Both bodies index their per-element targets without checks after
    /// one assert per partition: the SSS walk under `strict-lower`, the
    /// CSX-Sym stream under `ctl-bound` — whose assert also refuses a
    /// nonzero split other than the chunk's legal one, so a stream whose
    /// substructures straddle the partition start never runs.
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

    /// The reduction-free scheduled multiply (DESIGN §18, RACE): a
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

    /// Dispatch gate (debug builds only; the re-fingerprint walks the
    /// structure). A block call with `lanes` lifts the plan's certificate
    /// first: the scalar row conflicts are lane-independent, so the lift
    /// re-checks only that the block layout is the scalar one scaled (see
    /// `symspmv_verify::lift_symbolic`). The certificate in force must then
    /// describe exactly this configuration, which catches a plan reused
    /// across a renumbering or a thread-count change.
    fn check_dispatch(&self, lanes: Option<usize>) {
        if !cfg!(debug_assertions) {
            return;
        }
        let plan = &self.plan;
        let lifted = lanes.map(|k| {
            let block_offsets: Vec<usize> = plan.offsets.iter().map(|o| o * k).collect();
            symspmv_verify::lift_symbolic(
                &plan.cert,
                k,
                &plan.offsets,
                plan.local_len,
                &block_offsets,
                plan.local_len * k,
            )
            // The block layout is the certified scalar plan scaled, so a
            // failed lift means the lifter itself broke.
            .unwrap_or_else(|e| unreachable!("lane-lifting a certified plan failed: {e}"))
        });
        let cert = lifted.as_ref().unwrap_or(&plan.cert);
        if let Storage::Sss(sss) = &self.storage {
            if let Err(e) = cert.validate_for(
                sss.fingerprint(),
                self.ctx.nthreads(),
                "sym-sss",
                &plan.cert.strategy,
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
pub(crate) unsafe fn lane_rows<'b, const K: usize>(
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
/// `O::transposed(v, u)` with `u` the paired upper value. The arrays are
/// taken once per partition and the rows walked by `rowptr` alone; for the
/// numeric kinds the pair slice *is* the row's value slice, chosen at
/// compile time, so their instances iterate two streams and only
/// `Structural` reads its `upper_values` stream.
///
/// The per-entry accesses are unchecked: one assert per partition bounds
/// the three targets by `end`, and the `strict-lower` invariant of
/// [`SssMatrix`] (row `r` stores only columns `c < r`) keeps every entry's
/// column below it. Rows, row slices and the final row write stay checked.
fn sss_rows_split<O: SymmetryOps, const K: usize>(
    sss: &SssMatrix,
    part: Range,
    split: usize,
    x: &[[Val; K]],
    my_y: &mut [[Val; K]],
    local: &mut [[Val; K]],
) {
    let (dv, rowptr, colind) = (sss.dvalues(), sss.rowptr(), sss.colind());
    let (values, paired) = (sss.values(), sss.paired_values());
    let end = part.end as usize;
    assert!(
        split <= end && end <= x.len() && my_y.len() >= end - split && local.len() >= split,
        "partition {part:?} with split {split} exceeds x ({}), y ({}) or local ({})",
        x.len(),
        my_y.len(),
        local.len()
    );
    let mut lo = rowptr[part.start as usize] as usize;
    for r in part.start as usize..end {
        let hi = rowptr[r + 1] as usize;
        let (cols, vals) = (&colind[lo..hi], &values[lo..hi]);
        let pair = if O::KIND.has_upper_values() {
            &paired[lo..hi]
        } else {
            vals
        };
        lo = hi;
        let xr = &x[r];
        // The accumulator starts at zero and the diagonal term joins at the
        // final write — the exact op order of the serial reference
        // (`SssMatrix::spmv`), so a single-thread direct-write run is
        // bit-identical to it (the conformance oracle's exactness class).
        let mut acc = [0.0; K];
        for ((&c, &v), &u) in cols.iter().zip(vals).zip(pair) {
            let c = c as usize;
            debug_assert!(c < r, "strict-lower: row {r} stores column {c}");
            // SAFETY(cert: strict-lower): c < r < end ≤ x.len(); a write at
            // or above split lands at c − split < end − split ≤ my_y.len(),
            // one below it at c < split ≤ local.len() (the assert above).
            unsafe {
                axpy_lanes(&mut acc, v, x.get_unchecked(c));
                let t = O::transposed(v, u);
                // Two explicit arms, not one selected target slice: the
                // branchy form is what keeps the `K = 1` instance at scalar
                // speed.
                if c >= split {
                    axpy_lanes(my_y.get_unchecked_mut(c - split), t, xr);
                } else {
                    axpy_lanes(local.get_unchecked_mut(c), t, xr);
                }
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
/// A group's rows are not contiguous, so each row reads both of its
/// `rowptr` bounds.
fn sss_rows_race<O: SymmetryOps, const K: usize>(
    sss: &SssMatrix,
    rows: &[u32],
    x: &[[Val; K]],
    y_buf: SharedBuf<'_>,
) {
    let (rowptr, colind) = (sss.rowptr(), sss.colind());
    let (values, paired) = (sss.values(), sss.paired_values());
    for &r in rows {
        let r = r as usize;
        let (lo, hi) = (rowptr[r] as usize, rowptr[r + 1] as usize);
        let (cols, vals) = (&colind[lo..hi], &values[lo..hi]);
        let pair = if O::KIND.has_upper_values() {
            &paired[lo..hi]
        } else {
            vals
        };
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
        self.check_dispatch(None);
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
        self.check_dispatch(Some(lanes));
        with_lanes!(lanes, K => self.run::<K>(x.as_slice(), y.as_mut_slice()));
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
    fn a_csxsym_build_spends_one_pool_round_and_an_sss_build_none() {
        // Conversion and plan run on the caller; only the CSX-Sym encode
        // is dispatched, one chunk per share. Each build starts cold.
        let coo = symspmv_sparse::gen::block_structural(50, 3, 8.0, 10, 4);
        for p in [1, 2, 3] {
            for (format, rounds) in [(SymFormat::Sss, 0), (SymFormat::CsxSym(csx_cfg()), 1)] {
                let ctx = ExecutionContext::new(p);
                let method = ReductionMethod::Indexing;
                let eng = SymSpmv::try_from_coo(&coo, &ctx, method, format).unwrap();
                assert_eq!(ctx.pool_rounds(), rounds, "{} p={p}", eng.name());
            }
        }
    }

    /// A matrix whose conversion splits into two bands at `P = 2`.
    fn above_the_conversion_grain() -> CooMatrix {
        let coo = symspmv_sparse::gen::banded_random(20_000, 40, 16.0, 5);
        let stored = SssMatrix::from_coo(&coo, 0.0).unwrap().lower_nnz();
        assert!(stored >= 2 * symspmv_sparse::sss::CONVERT_GRAIN, "{stored}");
        coo
    }

    /// What an SSS matrix stores, the values as bit patterns.
    fn sss_bits(m: &SssMatrix) -> (Vec<u32>, Vec<u32>, [Vec<u64>; 3]) {
        let bits = |v: &[Val]| v.iter().map(|x| x.to_bits()).collect();
        let values = [bits(m.values()), bits(m.dvalues()), bits(m.upper_values())];
        (m.rowptr().to_vec(), m.colind().to_vec(), values)
    }

    #[test]
    fn above_the_conversion_grain_an_sss_build_spends_two_rounds_and_csxsym_three() {
        // The COO → SSS conversion runs its pass over the triplets and its
        // mirror sweep as two shares each, one round apiece; the CSX-Sym
        // encode round follows them. Each build starts cold.
        let coo = above_the_conversion_grain();
        for (format, rounds) in [(SymFormat::Sss, 2), (SymFormat::CsxSym(csx_cfg()), 3)] {
            for validated in [false, true] {
                let ctx = ExecutionContext::new(2);
                let method = ReductionMethod::Indexing;
                let eng = if validated {
                    SymSpmv::try_from_coo(&coo, &ctx, method, format.clone()).unwrap()
                } else {
                    SymSpmv::from_coo(&coo, &ctx, method, format.clone()).unwrap()
                };
                assert_eq!(ctx.pool_rounds(), rounds, "{} {validated}", eng.name());
                assert!(ctx.take_last_panic().is_none());
            }
        }
    }

    #[test]
    fn a_conversion_share_that_panics_still_yields_the_same_matrix_bits() {
        // A round that loses a share is redone on the caller — the pass
        // over the triplets (round 0) or the mirror sweep (round 1): the
        // build costs time, not its result, whichever share dies.
        let coo = above_the_conversion_grain();
        for kind in SymmetryKind::ALL {
            let coo = match kind {
                SymmetryKind::Symmetric => coo.clone(),
                _ => symspmv_sparse::gen::skew_convection(20_000, 40, 16.0, 6),
            };
            let serial = SssMatrix::try_from_coo_kind(&coo, kind, 0.0).unwrap();
            for (tid, round) in [(0, 0), (1, 0), (0, 1), (1, 1)] {
                let ctx = ExecutionContext::new(2);
                ctx.fault_plan().arm_worker_panic(tid, round);
                let pooled = SssMatrix::try_from_coo_kind_on(&coo, kind, 0.0, ctx.as_ref());
                let at = format!("{kind:?} tid {tid} round {round}");
                assert_eq!(ctx.fault_plan().fired(), 1, "{at}");
                assert_eq!(ctx.pool_rounds(), 2, "{at}");
                assert_eq!(sss_bits(&pooled.unwrap()), sss_bits(&serial), "{at}");
            }
        }
    }

    #[test]
    fn sss_row_walk_is_exact_from_any_partition_start_for_every_kind() {
        // Rows 3k store no lower entries, and the later partitions start
        // with `rowptr[start] > 0`, some of them on such a row: the walk
        // must seed its running row pointer from the partition. The
        // structural upper values differ from the lower ones, so reading
        // the wrong pair stream shows. Small integers keep every partial
        // sum exact, so each method, whatever its reduction order, must
        // equal the serial reference bit for bit, lane by lane.
        let n = 40u32;
        let lower: std::collections::BTreeSet<(u32, u32)> = (1..n)
            .filter(|r| r % 3 != 0)
            .flat_map(|r| [r - 1, r / 2, r.saturating_sub(7)].map(|c| (r, c)))
            .collect();
        let xs: Vec<Vec<Val>> = (0..8)
            .map(|j| {
                (0..n as usize)
                    .map(|i| ((3 * i + 5 * j) % 7 + 1) as Val)
                    .collect()
            })
            .collect();
        let block = |k: usize| {
            VectorBlock::from_lanes(&xs[..k].iter().map(Vec::as_slice).collect::<Vec<_>>())
        };
        let bits = |y: &[Val]| y.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        for kind in SymmetryKind::ALL {
            let mut coo = CooMatrix::new(n, n);
            for &(r, c) in &lower {
                let v = Val::from((r + 2 * c) % 5 + 1);
                coo.push(r, c, v);
                coo.push(c, r, kind.transposed(v, 2.0 * v + 1.0));
            }
            if !kind.requires_zero_diagonal() {
                (0..n).for_each(|i| coo.push(i, i, 4.0));
            }
            let sss = SssMatrix::from_coo_kind(&coo, kind, 0.0).unwrap();
            let reference: Vec<_> = xs
                .iter()
                .map(|x| {
                    let mut y = vec![0.0; n as usize];
                    sss.spmv(x, &mut y);
                    bits(&y)
                })
                .collect();
            let rowptr = sss.rowptr();
            for p in [1usize, 2, 3] {
                let ctx = ExecutionContext::new(p);
                for method in ReductionMethod::ALL {
                    let mut eng =
                        SymSpmv::from_coo_kind(&coo, kind, &ctx, method, SymFormat::Sss).unwrap();
                    let later = &eng.partitions()[1..];
                    assert!(later.iter().all(|q| rowptr[q.start as usize] > 0));
                    let bare = |q: &Range| rowptr[q.start as usize + 1] == rowptr[q.start as usize];
                    assert_eq!(
                        later.iter().any(bare),
                        p > 1,
                        "p={p}: no bare partition start"
                    );
                    let name = eng.name();
                    let mut y = vec![f64::NAN; n as usize];
                    eng.spmv(&xs[0], &mut y);
                    assert_eq!(bits(&y), reference[0], "{kind:?} {name} p={p} spmv");
                    for k in [1, 8] {
                        let mut yk = VectorBlock::zeros(n as usize, k);
                        eng.spmm(&block(k), &mut yk);
                        for (j, want) in reference[..k].iter().enumerate() {
                            assert_eq!(
                                &bits(&yk.lane(j)),
                                want,
                                "{kind:?} {name} p={p} K={k} lane {j}"
                            );
                        }
                    }
                }
            }
        }
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

    /// A CSX-Sym config outside the pattern-id space is refused where it
    /// enters: a `(5, 5)` block shape on a matrix holding a dense 5 × 5
    /// lower block (and its mirror) would otherwise reach `PatternKind::id`'s
    /// assert deep inside the encode.
    #[test]
    fn a_detect_config_outside_the_pattern_ids_is_invalid_argument() {
        let mut coo = CooMatrix::new(64, 64);
        for k in 0..25 {
            let (r, c) = (40 + k / 5, 10 + k % 5);
            coo.push(r, c, 1.0);
            coo.push(c, r, 1.0);
        }
        let ctx = ExecutionContext::new(2);
        let wide = |shape| {
            SymFormat::CsxSym(DetectConfig {
                block_shapes: vec![shape],
                ..csx_cfg()
            })
        };
        let method = ReductionMethod::Indexing;
        let err = SymSpmv::try_from_coo(&coo, &ctx, method, wide((5, 5))).err();
        assert!(
            matches!(&err, Some(SymSpmvError::InvalidStructure(SparseError::InvalidArgument { msg })) if msg.contains("block_shapes")),
            "{err:?}"
        );
        let res = SymSpmv::from_coo(&coo, &ctx, method, wide((5, 5)));
        assert!(matches!(res, Err(SparseError::InvalidArgument { .. })));
        let sss = SssMatrix::from_coo(&coo, 0.0).unwrap();
        let build =
            std::panic::AssertUnwindSafe(|| SymSpmv::from_sss(sss, &ctx, method, wide((2, 5))));
        let refused = std::panic::catch_unwind(build);
        let msg = refused.err().and_then(|p| p.downcast::<String>().ok());
        assert!(msg.is_some_and(|m| m.contains("block_shapes")));
    }
}

/// The SSS row walk as it was written before its entry accesses went
/// unchecked — kept as the oracle the unchecked [`sss_rows_split`] must
/// match bit for bit, `y` and local region alike.
#[cfg(test)]
pub(crate) mod unchecked_walk_tests {
    use super::*;
    use symspmv_runtime::{balanced_ranges, partition::symmetric_row_weights};
    use symspmv_sparse::dense::seeded_vector;
    use symspmv_sparse::{gen, Idx};

    fn checked_rows_split<O: SymmetryOps, const K: usize>(
        sss: &SssMatrix,
        part: Range,
        split: usize,
        x: &[[Val; K]],
        my_y: &mut [[Val; K]],
        local: &mut [[Val; K]],
    ) {
        let (dv, rowptr, colind) = (sss.dvalues(), sss.rowptr(), sss.colind());
        let (values, paired) = (sss.values(), sss.paired_values());
        let mut lo = rowptr[part.start as usize] as usize;
        for r in part.start as usize..part.end as usize {
            let hi = rowptr[r + 1] as usize;
            let (cols, vals) = (&colind[lo..hi], &values[lo..hi]);
            let pair = if O::KIND.has_upper_values() {
                &paired[lo..hi]
            } else {
                vals
            };
            lo = hi;
            let xr = &x[r];
            let mut acc = [0.0; K];
            for ((&c, &v), &u) in cols.iter().zip(vals).zip(pair) {
                let c = c as usize;
                axpy_lanes(&mut acc, v, &x[c]);
                let t = O::transposed(v, u);
                if c >= split {
                    axpy_lanes(&mut my_y[c - split], t, xr);
                } else {
                    axpy_lanes(&mut local[c], t, xr);
                }
            }
            let d = dv[r];
            for ((slot, &xi), &a) in my_y[r - split].iter_mut().zip(xr).zip(&acc) {
                *slot = d * xi + a;
            }
        }
    }

    /// A symmetric pattern recast as `kind`: the lower values kept, the
    /// upper ones the kind's mirror (a distinct value for `Structural`),
    /// the diagonal dropped for `Skew`.
    pub(crate) fn as_kind(coo: &CooMatrix, kind: SymmetryKind) -> CooMatrix {
        let mut out = CooMatrix::new(coo.nrows(), coo.ncols());
        for (r, c, v) in coo.iter() {
            if r > c {
                out.push(r, c, v);
                out.push(c, r, kind.transposed(v, 0.5 * v - 0.25));
            } else if r == c && !kind.requires_zero_diagonal() {
                out.push(r, c, v);
            }
        }
        out
    }

    fn bits<const K: usize>(v: &[[Val; K]]) -> Vec<u64> {
        v.iter().flatten().map(|x| x.to_bits()).collect()
    }

    /// Runs both walks over every partition in the method's layout — the
    /// naive one is split 0 over a private full-length region; the direct
    /// ones (`eff`, `idx`) split at the partition start, with a local
    /// region of that length — and returns how many local elements the
    /// walks wrote.
    fn compare<O: SymmetryOps, const K: usize>(
        sss: &SssMatrix,
        parts: &[Range],
        direct: bool,
        what: &str,
    ) -> usize {
        let n = sss.n() as usize;
        let flat = seeded_vector(n * K, 7);
        let x = flat.as_chunks::<K>().0;
        let mut touched = 0;
        for (tid, &part) in parts.iter().enumerate() {
            let (start, end) = (part.start as usize, part.end as usize);
            let (split, y_len) = if direct { (start, end - start) } else { (0, n) };
            let mut want = (vec![[0.0; K]; y_len], vec![[0.0; K]; split]);
            let mut got = want.clone();
            checked_rows_split::<O, K>(sss, part, split, x, &mut want.0, &mut want.1);
            sss_rows_split::<O, K>(sss, part, split, x, &mut got.0, &mut got.1);
            assert_eq!(bits(&got.0), bits(&want.0), "{what}, tid {tid}: y");
            assert_eq!(bits(&got.1), bits(&want.1), "{what}, tid {tid}: local");
            touched += bits(&got.1).iter().filter(|&&b| b != 0).count();
        }
        touched
    }

    #[test]
    fn unchecked_walk_matches_the_checked_one_bit_for_bit() {
        let mut patterns: Vec<(String, CooMatrix)> = vec![
            ("n = 0".into(), CooMatrix::new(0, 0)),
            ("n = 1".into(), {
                let mut one = CooMatrix::new(1, 1);
                one.push(0, 0, 2.0);
                one
            }),
        ];
        for seed in 0..2u64 {
            let n = 60 + 31 * seed as Idx;
            patterns.push((
                format!("banded {seed}"),
                gen::banded_random(n, 8, 6.0, seed),
            ));
            patterns.push((
                format!("block {seed}"),
                gen::block_structural(n / 3, 3, 5.0, 4, seed),
            ));
            patterns.push((
                format!("scrambled power law {seed}"),
                gen::scramble(&gen::power_law(n, 6.0, 0.05, 8, seed), seed + 1),
            ));
        }
        let mut touched = 0;
        for (name, coo) in &patterns {
            for kind in SymmetryKind::ALL {
                let sss = SssMatrix::from_coo_kind(&as_kind(coo, kind), kind, 0.0).unwrap();
                let weights = symmetric_row_weights(sss.rowptr());
                for p in [1usize, 2, 3, 8] {
                    let parts = balanced_ranges(&weights, p);
                    for method in [
                        ReductionMethod::Naive,
                        ReductionMethod::EffectiveRanges,
                        ReductionMethod::Indexing,
                    ] {
                        let direct = method != ReductionMethod::Naive;
                        let what = format!("{name}, {kind:?}, p {p}, {method:?}");
                        touched += with_symmetry_ops!(kind, O => {
                            compare::<O, 1>(&sss, &parts, direct, &format!("{what}, K 1"))
                                + compare::<O, 8>(&sss, &parts, direct, &format!("{what}, K 8"))
                        });
                    }
                }
            }
        }
        assert!(touched > 0, "no walk wrote below its split");
    }

    /// The walk's one bounds check runs before any unchecked access: a
    /// local region shorter than the split is refused, not written past.
    #[test]
    #[should_panic(expected = "exceeds")]
    fn a_short_local_region_is_refused() {
        let sss = SssMatrix::from_coo(&gen::banded_random(20, 4, 4.0, 3), 0.0).unwrap();
        let x = vec![[1.0]; 20];
        let (mut my_y, mut local) = (vec![[0.0]; 10], vec![[0.0]; 9]);
        let part = Range { start: 10, end: 20 };
        sss_rows_split::<symspmv_sparse::symmetry::Sym, 1>(
            &sss, part, 10, &x, &mut my_y, &mut local,
        );
    }
}
