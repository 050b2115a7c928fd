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
//! The three built-in strategies implement Fig. 3 of the paper (see
//! `symspmv_runtime::reduction` for the details); [`ReductionMethod`] is
//! the enum-shaped convenience handle that maps onto the registry names
//! (`"naive"`, `"eff"`, `"idx"`). The local vectors themselves are leased
//! from the context's buffer arena per call, so consecutive invocations —
//! and different kernels sharing one context — recycle the same
//! first-touch-initialized pages.

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
/// Each variant names a strategy pre-registered with every
/// [`ExecutionContext`]; custom strategies registered later are reachable
/// through [`SymSpmv::from_sss_named`].
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
    /// Short name used in kernel identifiers, reports, and as the registry
    /// key of the corresponding built-in [`ReductionStrategy`].
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
    /// Adaptive extension: per thread chunk, encode CSX-Sym only when the
    /// substructure coverage reaches `min_coverage`; chunks below it stay
    /// as plain SSS rows, avoiding the stream-decode cost where the
    /// compression would not pay (motivated by the `ablation` experiment,
    /// where delta-only chunks run fastest on scattered matrices).
    Hybrid {
        /// Detection configuration for the CSX-Sym candidate encoding.
        csx: DetectConfig,
        /// Minimum chunk coverage to adopt the stream encoding.
        min_coverage: f64,
    },
}

enum Storage {
    Sss(SssMatrix),
    CsxSym(CsxSymMatrix),
    /// SSS kept whole; `streams[i]` is the CSX-Sym encoding of chunk `i`
    /// when it cleared the coverage threshold.
    Hybrid {
        sss: SssMatrix,
        csx: CsxSymMatrix,
        use_stream: Vec<bool>,
    },
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
    pub fn from_coo_kind(
        coo: &CooMatrix,
        kind: SymmetryKind,
        ctx: &Arc<ExecutionContext>,
        method: ReductionMethod,
        format: SymFormat,
    ) -> Result<Self, SparseError> {
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
        let strategy = Self::builtin_strategy(ctx, method);
        if let Some(why) = Self::unsupported_pair(&*strategy, &format) {
            return Err(SparseError::InvalidArgument {
                msg: why.to_string(),
            }
            .into());
        }
        let sss = SssMatrix::try_from_coo_kind(coo, kind, 0.0)?;
        Ok(Self::build(sss, ctx, method, strategy, format))
    }

    /// Builds the kernel from an SSS matrix (symmetry already established;
    /// the matrix's [`SymmetryKind`] carries over to the kernel).
    ///
    /// The reduction strategy is looked up in the context's registry by the
    /// method's tag. Format preprocessing (CSX-Sym detection/encoding) and
    /// the symbolic conflict analysis are timed into the `preprocess`
    /// phase.
    pub fn from_sss(
        sss: SssMatrix,
        ctx: &Arc<ExecutionContext>,
        method: ReductionMethod,
        format: SymFormat,
    ) -> Self {
        let strategy = Self::builtin_strategy(ctx, method);
        Self::build(sss, ctx, method, strategy, format)
    }

    fn builtin_strategy(
        ctx: &ExecutionContext,
        method: ReductionMethod,
    ) -> Arc<dyn ReductionStrategy> {
        // The built-ins are registered at context creation and the
        // registry never removes entries, so the lookup cannot fail.
        ctx.reduction(method.tag()).unwrap_or_else(|| {
            unreachable!("built-in reduction strategy missing from the context registry")
        })
    }

    /// Why `strategy` cannot drive `format`, if it cannot.
    fn unsupported_pair(
        strategy: &dyn ReductionStrategy,
        format: &SymFormat,
    ) -> Option<&'static str> {
        if matches!(format, SymFormat::Hybrid { .. }) && !strategy.direct_write() {
            Some("the hybrid format supports the direct-write methods only")
        } else if !matches!(format, SymFormat::Sss) && strategy.scheduled() {
            Some("the race schedule supports the SSS format only")
        } else {
            None
        }
    }

    /// Builds the kernel with a reduction strategy selected from the
    /// context's registry by name — the route for strategies registered
    /// beyond the three built-ins.
    ///
    /// Returns `None` when no strategy of that name is registered.
    pub fn from_sss_named(
        sss: SssMatrix,
        ctx: &Arc<ExecutionContext>,
        strategy_name: &str,
        format: SymFormat,
    ) -> Option<Self> {
        let strategy = ctx.reduction(strategy_name)?;
        // Classify the custom strategy into the nearest paper family so
        // `method()` keeps reporting something meaningful.
        let method = if strategy.scheduled() {
            ReductionMethod::Race
        } else if !strategy.direct_write() {
            ReductionMethod::Naive
        } else if strategy.needs_index() {
            ReductionMethod::Indexing
        } else {
            ReductionMethod::EffectiveRanges
        };
        Some(Self::build(sss, ctx, method, strategy, format))
    }

    /// Like [`SymSpmv::from_sss_named`], but an unregistered strategy name
    /// is reported as [`SymSpmvError::UnknownStrategy`] instead of `None` —
    /// for callers resolving user-supplied names.
    pub fn try_from_sss_named(
        sss: SssMatrix,
        ctx: &Arc<ExecutionContext>,
        strategy_name: &str,
        format: SymFormat,
    ) -> Result<Self, SymSpmvError> {
        Self::from_sss_named(sss, ctx, strategy_name, format).ok_or_else(|| {
            SymSpmvError::UnknownStrategy {
                name: strategy_name.to_string(),
            }
        })
    }

    fn build(
        sss: SssMatrix,
        ctx: &Arc<ExecutionContext>,
        method: ReductionMethod,
        strategy: Arc<dyn ReductionStrategy>,
        format: SymFormat,
    ) -> Self {
        let n = sss.n() as usize;
        let kind = sss.kind();
        if let Some(why) = Self::unsupported_pair(&*strategy, &format) {
            panic!("{why}");
        }
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
            SymFormat::Hybrid { csx, min_coverage } => {
                let m = time_into(&mut times.preprocess, || {
                    CsxSymMatrix::from_sss(&sss, &parts, csx)
                });
                let use_stream: Vec<bool> = m
                    .chunks()
                    .iter()
                    .map(|c| c.coverage >= *min_coverage)
                    .collect();
                Storage::Hybrid {
                    sss,
                    csx: m,
                    use_stream,
                }
            }
        };
        let size_bytes = match &storage {
            Storage::Sss(s) => s.size_bytes(),
            Storage::CsxSym(m) => m.size_bytes(),
            Storage::Hybrid {
                sss,
                csx,
                use_stream,
            } => {
                // Per-chunk: the stream when adopted, SSS rows otherwise;
                // the shared dvalues/rowptr overhead counted once via SSS.
                let mut bytes = 8 * sss.n() as usize + 4 * (sss.n() as usize + 1);
                for (chunk, &streamed) in csx.chunks().iter().zip(use_stream) {
                    if streamed {
                        bytes += chunk.stream.size_bytes();
                    } else {
                        bytes += 12 * chunk.stream.values.len();
                    }
                }
                bytes
            }
        };

        // The write-set certificate covers the partition and reduction for
        // any storage; the CSX-Sym boundary rule (§IV-B) is an additional
        // per-stream obligation, checked here while the encoding is fresh.
        #[cfg(debug_assertions)]
        if let Storage::CsxSym(m) | Storage::Hybrid { csx: m, .. } = &storage {
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

    /// The reduction method in use (the paper family; custom registry
    /// strategies report their nearest built-in).
    pub fn method(&self) -> ReductionMethod {
        self.method
    }

    /// The reduction strategy driving the fold phase.
    pub fn strategy(&self) -> &Arc<dyn ReductionStrategy> {
        &self.strategy
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
            Storage::Hybrid { csx, .. } => csx.coverage(),
        }
    }

    /// The CSX-Sym storage, when that format is in use.
    pub fn csx_sym(&self) -> Option<&CsxSymMatrix> {
        match &self.storage {
            Storage::Sss(_) => None,
            Storage::CsxSym(m) => Some(m),
            Storage::Hybrid { csx, .. } => Some(csx),
        }
    }

    /// For the hybrid format: which chunks adopted the stream encoding.
    pub fn hybrid_streamed_chunks(&self) -> Option<&[bool]> {
        match &self.storage {
            Storage::Hybrid { use_stream, .. } => Some(use_stream),
            _ => None,
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
                Storage::Hybrid {
                    sss, use_stream, ..
                } if !use_stream[tid] => sss_rows_split::<O, K>(sss, part, split, x, my_y, local),
                Storage::CsxSym(m) | Storage::Hybrid { csx: m, .. } => {
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
        if let Storage::Sss(sss) | Storage::Hybrid { sss, .. } = &self.storage {
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
        let fmt = match self.storage {
            Storage::Sss(_) => "sss",
            Storage::CsxSym(_) => "csxsym",
            Storage::Hybrid { .. } => "hybrid",
        };
        match (fmt, self.strategy.name()) {
            ("sss", "naive") => Cow::Borrowed("sss-naive"),
            ("sss", "eff") => Cow::Borrowed("sss-eff"),
            ("sss", "idx") => Cow::Borrowed("sss-idx"),
            ("sss", "race") => Cow::Borrowed("sss-race"),
            ("csxsym", "naive") => Cow::Borrowed("csxsym-naive"),
            ("csxsym", "eff") => Cow::Borrowed("csxsym-eff"),
            ("csxsym", "idx") => Cow::Borrowed("csxsym-idx"),
            ("hybrid", "eff") => Cow::Borrowed("hybrid-eff"),
            ("hybrid", "idx") => Cow::Borrowed("hybrid-idx"),
            (fmt, tag) => Cow::Owned(format!("{fmt}-{tag}")),
        }
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
            Storage::Sss(sss) | Storage::Hybrid { sss, .. } => {
                Some(symspmv_verify::StructureFacts::of(sss))
            }
            // The pure stream encoding discards the row-wise SSS structure
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
    fn spmm_hybrid_format_matches_spmv() {
        let coo = symspmv_sparse::gen::block_structural(100, 3, 10.0, 15, 9);
        let ctx = ExecutionContext::new(4);
        let mut eng = SymSpmv::from_coo(
            &coo,
            &ctx,
            ReductionMethod::Indexing,
            SymFormat::Hybrid {
                csx: csx_cfg(),
                min_coverage: 0.0,
            },
        )
        .unwrap();
        let n = eng.n();
        let x = VectorBlock::seeded(n, 8, 3);
        let mut y = VectorBlock::zeros(n, 8);
        eng.spmm(&x, &mut y);
        for j in 0..8 {
            let mut yj = vec![0.0; n];
            eng.spmv(&x.lane(j), &mut yj);
            assert_eq!(
                y.lane(j).iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                yj.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                "hybrid lane {j} not bit-identical"
            );
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

    #[test]
    fn strategies_resolved_from_registry() {
        // A custom strategy registered with the context is reachable by
        // name and drives the kernel end to end.
        struct Renamed(symspmv_runtime::reduction::NaiveReduction);
        impl ReductionStrategy for Renamed {
            fn name(&self) -> &'static str {
                "naive-v2"
            }
            fn direct_write(&self) -> bool {
                self.0.direct_write()
            }
            fn layout(&self, n: usize, parts: &[Range]) -> symspmv_runtime::reduction::LocalLayout {
                self.0.layout(n, parts)
            }
            fn reduce(&self, pool: &mut symspmv_runtime::WorkerPool, job: &ReduceJob<'_>) {
                self.0.reduce(pool, job)
            }
        }

        let coo = symspmv_sparse::gen::banded_random(200, 12, 6.0, 11);
        let sss = SssMatrix::from_coo(&coo, 0.0).unwrap();
        let x = seeded_vector(200, 3);
        let mut y_ref = vec![0.0; 200];
        sss.spmv(&x, &mut y_ref);

        let ctx = ExecutionContext::new(3);
        assert!(
            SymSpmv::from_sss_named(sss.clone(), &ctx, "naive-v2", SymFormat::Sss).is_none(),
            "unregistered names must be rejected"
        );
        ctx.register_reduction(Arc::new(Renamed(
            symspmv_runtime::reduction::NaiveReduction,
        )));
        let mut eng = SymSpmv::from_sss_named(sss, &ctx, "naive-v2", SymFormat::Sss).unwrap();
        assert_eq!(eng.name(), "sss-naive-v2");
        assert_eq!(eng.method(), ReductionMethod::Naive);
        let mut y = vec![0.0; 200];
        eng.spmv(&x, &mut y);
        assert_vec_close(&y, &y_ref, 1e-12);
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
    fn try_from_sss_named_reports_unknown_strategy() {
        let coo = symspmv_sparse::gen::laplacian_2d(6, 6);
        let sss = SssMatrix::from_coo(&coo, 0.0).unwrap();
        let ctx = ExecutionContext::new(2);
        let err = expect_err(SymSpmv::try_from_sss_named(
            sss.clone(),
            &ctx,
            "no-such",
            SymFormat::Sss,
        ));
        assert_eq!(
            err,
            SymSpmvError::UnknownStrategy {
                name: "no-such".into()
            }
        );
        assert!(SymSpmv::try_from_sss_named(sss, &ctx, "idx", SymFormat::Sss).is_ok());
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

    #[test]
    fn far_more_threads_than_rows() {
        // Empty trailing partitions must be handled by every method and
        // both formats.
        let coo = symspmv_sparse::gen::laplacian_2d(3, 3); // N = 9
        let sss = SssMatrix::from_coo(&coo, 0.0).unwrap();
        let x = seeded_vector(9, 1);
        let mut y_ref = vec![0.0; 9];
        sss.spmv(&x, &mut y_ref);
        let dcfg = DetectConfig {
            min_coverage: 0.0,
            ..DetectConfig::default()
        };
        let ctx = ExecutionContext::new(32);
        for method in methods() {
            for format in [SymFormat::Sss, SymFormat::CsxSym(dcfg.clone())] {
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
        let coo = symspmv_sparse::gen::laplacian_2d(8, 8);
        let ctx = ExecutionContext::new(2);
        let _ = SymSpmv::from_coo(
            &coo,
            &ctx,
            ReductionMethod::Race,
            SymFormat::CsxSym(DetectConfig {
                min_coverage: 0.0,
                ..DetectConfig::default()
            }),
        );
    }
}

#[cfg(test)]
mod hybrid_tests {
    use super::*;
    use symspmv_sparse::dense::{assert_vec_close, seeded_vector};

    fn hybrid(threshold: f64) -> SymFormat {
        SymFormat::Hybrid {
            csx: DetectConfig {
                min_coverage: 0.0,
                ..DetectConfig::default()
            },
            min_coverage: threshold,
        }
    }

    #[test]
    fn hybrid_matches_serial_on_mixed_structure() {
        // Half the rows blocky (high coverage), half scattered: chunks
        // should split between stream and SSS paths.
        let blocky = symspmv_sparse::gen::block_structural(60, 3, 8.0, 12, 2);
        let nb = blocky.nrows();
        let n = nb + 180;
        let mut coo = symspmv_sparse::CooMatrix::new(n, n);
        for (r, c, v) in blocky.iter() {
            coo.push(r, c, v);
        }
        // Scattered tail coupled to itself.
        for i in nb..n {
            coo.push(i, i, 5.0);
            if i >= nb + 7 {
                coo.push(i, i - 7, -0.5);
                coo.push(i - 7, i, -0.5);
            }
        }
        let sss = SssMatrix::from_coo(&coo, 0.0).unwrap();
        let x = seeded_vector(n as usize, 4);
        let mut y_ref = vec![0.0; n as usize];
        sss.spmv(&x, &mut y_ref);

        let ctx = ExecutionContext::new(4);
        for method in [ReductionMethod::EffectiveRanges, ReductionMethod::Indexing] {
            let mut eng = SymSpmv::from_coo(&coo, &ctx, method, hybrid(0.5)).unwrap();
            let streamed = eng.hybrid_streamed_chunks().unwrap().to_vec();
            assert!(streamed.iter().any(|&b| b), "blocky chunks should stream");
            let mut y = vec![f64::NAN; n as usize];
            eng.spmv(&x, &mut y);
            assert_vec_close(&y, &y_ref, 1e-12);
        }
    }

    #[test]
    fn hybrid_thresholds_select_paths() {
        let coo = symspmv_sparse::gen::block_structural(80, 3, 8.0, 16, 3);
        let ctx = ExecutionContext::new(3);
        // Threshold 0: everything streams. Threshold > 1: nothing does.
        let all = SymSpmv::from_coo(&coo, &ctx, ReductionMethod::Indexing, hybrid(0.0)).unwrap();
        assert!(all.hybrid_streamed_chunks().unwrap().iter().all(|&b| b));
        let none = SymSpmv::from_coo(&coo, &ctx, ReductionMethod::Indexing, hybrid(1.1)).unwrap();
        assert!(none.hybrid_streamed_chunks().unwrap().iter().all(|&b| !b));
        assert_eq!(all.name(), "hybrid-idx");
        // Size: the no-stream hybrid approximates the SSS size.
        let sss = SymSpmv::from_coo(&coo, &ctx, ReductionMethod::Indexing, SymFormat::Sss).unwrap();
        let ratio = none.size_bytes() as f64 / sss.size_bytes() as f64;
        assert!((0.9..1.1).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    #[should_panic(expected = "direct-write methods only")]
    fn hybrid_rejects_naive() {
        let coo = symspmv_sparse::gen::laplacian_2d(8, 8);
        let ctx = ExecutionContext::new(2);
        let _ = SymSpmv::from_coo(&coo, &ctx, ReductionMethod::Naive, hybrid(0.5));
    }
}
