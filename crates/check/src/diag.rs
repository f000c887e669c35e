//! The diagnostics engine: codes, severities, spans and the reporter the
//! analysis passes emit through.
//!
//! Every check in the crate reports through a [`Reporter`], so callers get a
//! uniform surface: collect, filter by severity, escalate warnings to denials
//! (`-D warnings` style), pretty-print for humans or serialize to JSON for
//! tooling. Codes are stable strings (`S###` shape, `F###` fusion, `A###`
//! accelerator, `V###` serving, `R###` registry artifacts) so tests and
//! downstream tools can match on them without parsing messages.

use std::fmt;

/// How serious a diagnostic is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// Suspicious but legal; the artifact still builds/runs.
    Warn,
    /// Definitely broken; building or running the artifact will fail or
    /// silently compute garbage.
    Deny,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Severity::Warn => "warning",
            Severity::Deny => "error",
        })
    }
}

/// Stable diagnostic codes. `S` = shape inference, `F` = fusion/reorder
/// legality, `A` = accelerator configuration and tiling, `V` = serving
/// runtime configuration, `R` = model-registry artifacts, `N` =
/// network front-end configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum Code {
    /// S001: convolution or pooling stride of zero.
    ZeroStride,
    /// S002: zero-extent kernel, window, channel or feature count.
    ZeroExtent,
    /// S003: kernel larger than the (padded) input plane.
    KernelExceedsInput,
    /// S004: pool window larger than the input plane.
    PoolExceedsInput,
    /// S005: pool stride does not divide the input plane; trailing rows
    /// and columns are silently dropped.
    PoolNotDividing,
    /// S006: `Linear` applied to an unflattened spatial input (legal —
    /// the builder flattens implicitly — but usually a missing `Flatten`).
    LinearOnSpatial,
    /// S007: `GlobalAvgPool` on a non-square plane.
    NonSquareGlobalPool,
    /// S008: inception branches disagree on their output spatial shape.
    InceptionMismatch,
    /// S009: composite layer with no branches/empty inner pipeline.
    EmptyComposite,
    /// S010: residual main and skip branches disagree on shape.
    ResidualMismatch,
    /// S011: geometry rejected by the tensor layer for a reason not
    /// covered by a more specific code.
    BadGeometry,
    /// F001: conv followed by an *overlapping* average pool — the MLCNN
    /// fused datapath only handles `window == stride`.
    OverlappingPoolFusion,
    /// F002: `Conv → ReLU → AvgPool` — reordering the activation behind
    /// the pool (paper Section III) would expose a fusable pair.
    ActivationBlocksFusion,
    /// F003: non-overlapping average pool whose producer is not a
    /// convolution; the fused conv-pool operator cannot absorb it.
    NonConvPoolProducer,
    /// F004: composite layer (inception / dense / residual) in a pipeline
    /// meant for `ExecutionPlan::compile`, which is sequential-only.
    CompositeNotCompilable,
    /// F005: `BatchNorm` must be folded into the conv weights before
    /// fused compilation.
    BatchNormNotFoldable,
    /// A001: tiling with a zero extent.
    ZeroTileExtent,
    /// A002: tiling footprint exceeds the on-chip buffer capacity.
    FootprintExceedsBuffer,
    /// A003: tile extent exceeds the layer dimension it tiles (wasteful,
    /// not wrong — the tile is clipped).
    TileExceedsLayer,
    /// A004: configuration exceeds the die area budget.
    AreaBudgetExceeded,
    /// A005: configuration exceeds the on-chip memory budget.
    BufferBudgetExceeded,
    /// A006: MAC slice count does not follow the Table VII
    /// slices-per-precision scaling.
    SliceScalingMismatch,
    /// A007: degenerate configuration (zero slices, zero buffer,
    /// non-positive clock or bandwidth).
    DegenerateConfig,
    /// A008: MLCNN datapath enabled but no AR adders to run it.
    DatapathInconsistent,
    /// V001: serving queue with zero capacity; every submission would be
    /// rejected as "queue full".
    ZeroQueueCapacity,
    /// V002: micro-batcher with `max_batch` of zero; no batch could ever
    /// be formed.
    ZeroMaxBatch,
    /// V003: serving worker pool with zero workers; batches would queue
    /// forever.
    ZeroServeWorkers,
    /// V004: micro-batch `max_wait` beyond the sanity ceiling — the
    /// batching delay would dwarf any inference this workspace runs
    /// (usually a time-unit mistake).
    ExcessiveMaxWait,
    /// V005: more serving workers than the host exposes hardware threads;
    /// the surplus only adds context switching.
    WorkersExceedParallelism,
    /// V006: `max_batch` larger than the submission queue capacity; a
    /// full batch can never accumulate.
    BatchExceedsQueue,
    /// V007: the worker workspaces for this `(workers, max_batch)` would
    /// exceed the configured arena memory budget.
    ArenaBudgetExceeded,
    /// R001: model artifact is corrupt — truncated, bad magic, unknown
    /// version, or a section/whole-file checksum mismatch.
    ArtifactCorrupt,
    /// R002: the artifact's parameter tensors disagree with the shapes its
    /// own spec list requires.
    ArtifactParamMismatch,
    /// R003: the artifact's spec list cannot be compiled into an
    /// execution plan (composite layers, unfoldable batch norm, bad
    /// geometry, or a trial compile failure).
    ArtifactIncompilable,
    /// R004: two artifacts in one registry claim the same
    /// `model@revision` identity.
    DuplicateRevision,
    /// R005: the artifact's stored layer content hashes disagree with the
    /// hashes recomputed from its decoded specs and parameters — the
    /// sections pass their CRCs individually but do not belong together.
    ArtifactHashMismatch,
    /// R006: the content-addressed dedup index maps one layer hash to two
    /// different baked segments — a hash collision or a corrupted index.
    SegmentConflict,
    /// P001: the plan's step shape chain has a gap — a step's output
    /// shape disagrees with the next step's input shape (or the chain's
    /// endpoints disagree with the plan's declared input/output).
    PlanShapeChainBroken,
    /// P002: an in-place op (ReLU/Sigmoid, or the zero-copy Flatten)
    /// aliases its buffer illegally — it claims to change the shape or
    /// element count of data it never moves.
    PlanIllegalInPlace,
    /// P003: `buf_item_len` is not the exact least upper bound of the
    /// activations the steps produce — an undersized arena (out-of-bounds
    /// writes) or silent overallocation.
    PlanArenaMismatch,
    /// P004: `cols_item_len` is not the exact least upper bound of the
    /// im2col scratch the conv steps need.
    PlanColsMismatch,
    /// P005: a step's baked parameters (weight/bias/channel profiles)
    /// disagree with its geometry — wrong weight length, truncated bias,
    /// or a channel-profile count that does not match the output channels.
    PlanParamMismatch,
    /// P006: a step's declared output shape cannot be derived from its
    /// input shape and op geometry (bad conv/pool arithmetic, zero-extent
    /// shape, flatten that changes the element count).
    PlanBadStepGeometry,
    /// P007: a step is provably dead — it can never change its input
    /// (e.g. ReLU directly after a ReLU, a fused op's ReLU, or a sigmoid).
    PlanRedundantStep,
    /// P008: size arithmetic for the plan overflows `usize` — a hostile
    /// or corrupt plan whose shape products cannot be computed, let alone
    /// allocated.
    PlanSizeOverflow,
    /// P009: `round_after` placement contradicts the plan's precision
    /// policy (FP32 never rounds; FP16 rounds every data-moving step;
    /// INT8 rounds all but the final logits).
    PlanRoundingInvalid,
    /// Q001: a step's value interval is a single point — the layer
    /// computes a compile-time constant, and INT8's dynamic activation
    /// scale degenerates (all downstream compute is wasted).
    RangeConstant,
    /// Q002: a step rounded through FP16 has a worst-case bound beyond
    /// binary16's finite range (±65504) — saturation to infinity.
    RangeFp16Overflow,
    /// Q003: a step rounded through FP16 has its entire value interval
    /// below binary16's smallest subnormal — the whole tensor collapses
    /// to zero.
    RangeFp16Underflow,
    /// Q004: a step rounded through INT8 has an interval narrower than
    /// the worst-case quantization step — the whole tensor lands on at
    /// most two grid levels (resolution collapse).
    RangeInt8Collapse,
    /// Q005: a sigmoid whose input interval lies entirely in the
    /// saturated tail — its output is constant 0 or 1 at f32.
    RangeSigmoidSaturated,
    /// N001: event-loop with zero reactor shards; no connection could
    /// ever be served.
    ZeroNetShards,
    /// N002: more reactor shards than the host exposes hardware
    /// threads; the surplus only adds context switching.
    ShardsExceedParallelism,
    /// N003: connection cap of zero; the acceptor would drop every
    /// socket.
    ZeroConnectionCap,
    /// N004: per-connection pipeline depth of zero; backpressure would
    /// pause reads before the first request.
    ZeroPipelineDepth,
    /// N005: pipeline depth beyond the sanity ceiling; one connection
    /// could monopolize its reactor and the service queue.
    ExcessivePipelineDepth,
    /// N006: pipeline depth larger than the service queue capacity; a
    /// single connection's burst alone forces queue-full rejections.
    PipelineOverrunsQueue,
    /// N007: idle timeout of zero; every connection would be reaped
    /// the moment it pauses between requests.
    ZeroIdleTimeout,
    /// N008: idle timeout beyond the epoll timeout range; the reaper
    /// could never schedule it.
    IdleTimeoutOverflow,
    /// N009: write-buffer high-watermark of zero; backpressure would
    /// serialize every connection.
    ZeroWriteBufferLimit,
    /// D001: guaranteed SLO class with no latency budget; the deadline
    /// the scheduler must enforce is undefined.
    GuaranteedWithoutBudget,
    /// D002: latency budget does not exceed the micro-batching window;
    /// a request can expire before its batch even forms.
    BudgetWithinBatchWait,
    /// D003: latency budget below the cost oracle's single-item service
    /// prediction — no schedule can meet this deadline.
    BudgetBelowServiceFloor,
    /// D004: best-effort SLO class carrying a latency budget; budgets
    /// are only enforced for guaranteed work, so it would be ignored.
    BestEffortWithBudget,
    /// D005: a full batching window plus a `max_batch` batch is
    /// predicted to exceed half the budget; queueing slack is thin and
    /// admission control will refuse aggressively.
    BudgetHeadroomThin,
}

impl Code {
    /// The stable string form, e.g. `"S003"`.
    pub fn as_str(&self) -> &'static str {
        match self {
            Code::ZeroStride => "S001",
            Code::ZeroExtent => "S002",
            Code::KernelExceedsInput => "S003",
            Code::PoolExceedsInput => "S004",
            Code::PoolNotDividing => "S005",
            Code::LinearOnSpatial => "S006",
            Code::NonSquareGlobalPool => "S007",
            Code::InceptionMismatch => "S008",
            Code::EmptyComposite => "S009",
            Code::ResidualMismatch => "S010",
            Code::BadGeometry => "S011",
            Code::OverlappingPoolFusion => "F001",
            Code::ActivationBlocksFusion => "F002",
            Code::NonConvPoolProducer => "F003",
            Code::CompositeNotCompilable => "F004",
            Code::BatchNormNotFoldable => "F005",
            Code::ZeroTileExtent => "A001",
            Code::FootprintExceedsBuffer => "A002",
            Code::TileExceedsLayer => "A003",
            Code::AreaBudgetExceeded => "A004",
            Code::BufferBudgetExceeded => "A005",
            Code::SliceScalingMismatch => "A006",
            Code::DegenerateConfig => "A007",
            Code::DatapathInconsistent => "A008",
            Code::ZeroQueueCapacity => "V001",
            Code::ZeroMaxBatch => "V002",
            Code::ZeroServeWorkers => "V003",
            Code::ExcessiveMaxWait => "V004",
            Code::WorkersExceedParallelism => "V005",
            Code::BatchExceedsQueue => "V006",
            Code::ArenaBudgetExceeded => "V007",
            Code::ArtifactCorrupt => "R001",
            Code::ArtifactParamMismatch => "R002",
            Code::ArtifactIncompilable => "R003",
            Code::DuplicateRevision => "R004",
            Code::ArtifactHashMismatch => "R005",
            Code::SegmentConflict => "R006",
            Code::PlanShapeChainBroken => "P001",
            Code::PlanIllegalInPlace => "P002",
            Code::PlanArenaMismatch => "P003",
            Code::PlanColsMismatch => "P004",
            Code::PlanParamMismatch => "P005",
            Code::PlanBadStepGeometry => "P006",
            Code::PlanRedundantStep => "P007",
            Code::PlanSizeOverflow => "P008",
            Code::PlanRoundingInvalid => "P009",
            Code::RangeConstant => "Q001",
            Code::RangeFp16Overflow => "Q002",
            Code::RangeFp16Underflow => "Q003",
            Code::RangeInt8Collapse => "Q004",
            Code::RangeSigmoidSaturated => "Q005",
            Code::ZeroNetShards => "N001",
            Code::ShardsExceedParallelism => "N002",
            Code::ZeroConnectionCap => "N003",
            Code::ZeroPipelineDepth => "N004",
            Code::ExcessivePipelineDepth => "N005",
            Code::PipelineOverrunsQueue => "N006",
            Code::ZeroIdleTimeout => "N007",
            Code::IdleTimeoutOverflow => "N008",
            Code::ZeroWriteBufferLimit => "N009",
            Code::GuaranteedWithoutBudget => "D001",
            Code::BudgetWithinBatchWait => "D002",
            Code::BudgetBelowServiceFloor => "D003",
            Code::BestEffortWithBudget => "D004",
            Code::BudgetHeadroomThin => "D005",
        }
    }

    /// Every code the crate can emit, in table order. New codes must be
    /// added here — the registry is what renders the DESIGN.md code table
    /// and what the uniqueness test runs over.
    pub const ALL: &'static [Code] = &[
        Code::ZeroStride,
        Code::ZeroExtent,
        Code::KernelExceedsInput,
        Code::PoolExceedsInput,
        Code::PoolNotDividing,
        Code::LinearOnSpatial,
        Code::NonSquareGlobalPool,
        Code::InceptionMismatch,
        Code::EmptyComposite,
        Code::ResidualMismatch,
        Code::BadGeometry,
        Code::OverlappingPoolFusion,
        Code::ActivationBlocksFusion,
        Code::NonConvPoolProducer,
        Code::CompositeNotCompilable,
        Code::BatchNormNotFoldable,
        Code::ZeroTileExtent,
        Code::FootprintExceedsBuffer,
        Code::TileExceedsLayer,
        Code::AreaBudgetExceeded,
        Code::BufferBudgetExceeded,
        Code::SliceScalingMismatch,
        Code::DegenerateConfig,
        Code::DatapathInconsistent,
        Code::ZeroQueueCapacity,
        Code::ZeroMaxBatch,
        Code::ZeroServeWorkers,
        Code::ExcessiveMaxWait,
        Code::WorkersExceedParallelism,
        Code::BatchExceedsQueue,
        Code::ArenaBudgetExceeded,
        Code::ArtifactCorrupt,
        Code::ArtifactParamMismatch,
        Code::ArtifactIncompilable,
        Code::DuplicateRevision,
        Code::ArtifactHashMismatch,
        Code::SegmentConflict,
        Code::PlanShapeChainBroken,
        Code::PlanIllegalInPlace,
        Code::PlanArenaMismatch,
        Code::PlanColsMismatch,
        Code::PlanParamMismatch,
        Code::PlanBadStepGeometry,
        Code::PlanRedundantStep,
        Code::PlanSizeOverflow,
        Code::PlanRoundingInvalid,
        Code::RangeConstant,
        Code::RangeFp16Overflow,
        Code::RangeFp16Underflow,
        Code::RangeInt8Collapse,
        Code::RangeSigmoidSaturated,
        Code::ZeroNetShards,
        Code::ShardsExceedParallelism,
        Code::ZeroConnectionCap,
        Code::ZeroPipelineDepth,
        Code::ExcessivePipelineDepth,
        Code::PipelineOverrunsQueue,
        Code::ZeroIdleTimeout,
        Code::IdleTimeoutOverflow,
        Code::ZeroWriteBufferLimit,
        Code::GuaranteedWithoutBudget,
        Code::BudgetWithinBatchWait,
        Code::BudgetBelowServiceFloor,
        Code::BestEffortWithBudget,
        Code::BudgetHeadroomThin,
    ];

    /// One-line description of what the code proves, for the rendered
    /// code table and tooling.
    pub fn description(&self) -> &'static str {
        match self {
            Code::ZeroStride => "convolution or pooling stride of zero",
            Code::ZeroExtent => "zero-extent kernel, window, channel or feature count",
            Code::KernelExceedsInput => "kernel larger than the (padded) input plane",
            Code::PoolExceedsInput => "pool window larger than the input plane",
            Code::PoolNotDividing => {
                "pool stride does not divide the input plane; trailing rows/columns dropped"
            }
            Code::LinearOnSpatial => "`Linear` applied to an unflattened spatial input",
            Code::NonSquareGlobalPool => "`GlobalAvgPool` on a non-square plane",
            Code::InceptionMismatch => "inception branches disagree on output spatial shape",
            Code::EmptyComposite => "composite layer with no branches or empty inner pipeline",
            Code::ResidualMismatch => "residual main and skip branches disagree on shape",
            Code::BadGeometry => "geometry rejected for a reason not covered by a specific code",
            Code::OverlappingPoolFusion => {
                "conv followed by an overlapping average pool (fusion needs window == stride)"
            }
            Code::ActivationBlocksFusion => {
                "`Conv -> ReLU -> AvgPool`; reordering would expose a fusable pair"
            }
            Code::NonConvPoolProducer => "non-overlapping average pool not produced by a conv",
            Code::CompositeNotCompilable => "composite layer in a sequential-only pipeline",
            Code::BatchNormNotFoldable => "batch norm not folded before fused compilation",
            Code::ZeroTileExtent => "tiling with a zero extent",
            Code::FootprintExceedsBuffer => "tiling footprint exceeds on-chip buffer capacity",
            Code::TileExceedsLayer => "tile extent exceeds the layer dimension it tiles",
            Code::AreaBudgetExceeded => "configuration exceeds the die area budget",
            Code::BufferBudgetExceeded => "configuration exceeds the on-chip memory budget",
            Code::SliceScalingMismatch => "MAC slice count off the slices-per-precision scaling",
            Code::DegenerateConfig => "degenerate accelerator configuration",
            Code::DatapathInconsistent => "MLCNN datapath enabled with no AR adders",
            Code::ZeroQueueCapacity => "serving queue with zero capacity",
            Code::ZeroMaxBatch => "micro-batcher with `max_batch` of zero",
            Code::ZeroServeWorkers => "serving worker pool with zero workers",
            Code::ExcessiveMaxWait => "micro-batch `max_wait` beyond the sanity ceiling",
            Code::WorkersExceedParallelism => "more serving workers than hardware threads",
            Code::BatchExceedsQueue => "`max_batch` larger than the submission queue",
            Code::ArenaBudgetExceeded => "worker workspaces exceed the arena memory budget",
            Code::ArtifactCorrupt => "model artifact corrupt (framing, magic, checksum)",
            Code::ArtifactParamMismatch => "artifact parameters disagree with its spec list",
            Code::ArtifactIncompilable => "artifact spec list cannot compile into a plan",
            Code::DuplicateRevision => "two artifacts claim the same model@revision",
            Code::ArtifactHashMismatch => "stored layer content hashes disagree with recomputed",
            Code::SegmentConflict => "dedup index maps one content hash to two segments",
            Code::PlanShapeChainBroken => "plan step shape chain has a gap",
            Code::PlanIllegalInPlace => "in-place op aliases its buffer illegally",
            Code::PlanArenaMismatch => "`buf_item_len` is not the exact activation LUB",
            Code::PlanColsMismatch => "`cols_item_len` is not the exact im2col LUB",
            Code::PlanParamMismatch => "baked parameters disagree with step geometry",
            Code::PlanBadStepGeometry => "step output shape underivable from input + op",
            Code::PlanRedundantStep => "step is provably dead (can never change its input)",
            Code::PlanSizeOverflow => "plan size arithmetic overflows usize",
            Code::PlanRoundingInvalid => "round_after placement contradicts the precision",
            Code::RangeConstant => "layer output interval is a single point (constant)",
            Code::RangeFp16Overflow => "FP16-rounded layer may exceed binary16 finite range",
            Code::RangeFp16Underflow => "FP16-rounded layer interval is entirely subnormal-zero",
            Code::RangeInt8Collapse => "INT8-rounded layer interval narrower than one grid step",
            Code::RangeSigmoidSaturated => "sigmoid input interval entirely in the saturated tail",
            Code::ZeroNetShards => "event loop with zero reactor shards",
            Code::ShardsExceedParallelism => "more reactor shards than hardware threads",
            Code::ZeroConnectionCap => "connection cap of zero; every socket dropped",
            Code::ZeroPipelineDepth => "per-connection pipeline depth of zero",
            Code::ExcessivePipelineDepth => "pipeline depth beyond the sanity ceiling",
            Code::PipelineOverrunsQueue => "pipeline depth larger than the service queue",
            Code::ZeroIdleTimeout => "idle timeout of zero reaps every pausing connection",
            Code::IdleTimeoutOverflow => "idle timeout beyond the epoll timeout range",
            Code::ZeroWriteBufferLimit => "write-buffer high-watermark of zero",
            Code::GuaranteedWithoutBudget => "guaranteed SLO class with no latency budget",
            Code::BudgetWithinBatchWait => "latency budget inside the micro-batching window",
            Code::BudgetBelowServiceFloor => {
                "budget below the oracle's single-item service prediction"
            }
            Code::BestEffortWithBudget => "best-effort SLO class carrying a latency budget",
            Code::BudgetHeadroomThin => "window plus full batch predicted over half the budget",
        }
    }

    /// The severity the code carries unless the reporter escalates it.
    pub fn default_severity(&self) -> Severity {
        match self {
            Code::PoolNotDividing
            | Code::LinearOnSpatial
            | Code::OverlappingPoolFusion
            | Code::ActivationBlocksFusion
            | Code::NonConvPoolProducer
            | Code::TileExceedsLayer
            | Code::SliceScalingMismatch
            | Code::DatapathInconsistent
            | Code::ExcessiveMaxWait
            | Code::WorkersExceedParallelism
            | Code::BatchExceedsQueue
            | Code::PlanRedundantStep
            | Code::RangeConstant
            | Code::RangeFp16Overflow
            | Code::RangeFp16Underflow
            | Code::RangeInt8Collapse
            | Code::RangeSigmoidSaturated
            | Code::ShardsExceedParallelism
            | Code::ExcessivePipelineDepth
            | Code::PipelineOverrunsQueue
            | Code::BudgetHeadroomThin => Severity::Warn,
            _ => Severity::Deny,
        }
    }
}

/// Render the full code registry as a GitHub-markdown table — the table
/// DESIGN.md embeds (a test keeps the two in sync, so the document can
/// never drift from the code).
pub fn code_table_markdown() -> String {
    let mut out =
        String::from("| Code | Default | Description |\n|------|---------|-------------|\n");
    for code in Code::ALL {
        out.push_str(&format!(
            "| {} | {} | {} |\n",
            code.as_str(),
            code.default_severity(),
            code.description()
        ));
    }
    out
}

impl fmt::Display for Code {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Half-open range of layer indices a diagnostic refers to, within the
/// spec list handed to the pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Span {
    /// First layer index covered.
    pub start: usize,
    /// One past the last layer index covered.
    pub end: usize,
}

impl Span {
    /// Span covering a single layer.
    pub fn layer(i: usize) -> Self {
        Span {
            start: i,
            end: i + 1,
        }
    }

    /// Span covering layers `start..end`.
    pub fn range(start: usize, end: usize) -> Self {
        Span { start, end }
    }
}

impl fmt::Display for Span {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.end == self.start + 1 {
            write!(f, "layer {}", self.start)
        } else {
            write!(f, "layers {}..{}", self.start, self.end)
        }
    }
}

/// One finding of an analysis pass.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Stable code.
    pub code: Code,
    /// Effective severity (after any escalation).
    pub severity: Severity,
    /// Layers concerned, when the finding is about a spec list.
    pub layer_span: Option<Span>,
    /// Human-readable explanation.
    pub message: String,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}[{}]", self.severity, self.code)?;
        if let Some(span) = self.layer_span {
            write!(f, " at {span}")?;
        }
        write!(f, ": {}", self.message)
    }
}

/// Collects diagnostics from the analysis passes.
///
/// A reporter is the unit of one lint run: passes `emit` into it, callers
/// then query `has_deny` / `pretty` / `to_json`. With
/// [`Reporter::deny_warnings`] every warning is escalated to a denial, the
/// moral equivalent of `-D warnings`.
#[derive(Debug, Default, Clone)]
pub struct Reporter {
    diags: Vec<Diagnostic>,
    deny_warnings: bool,
    /// Context prefix prepended to messages (e.g. a model name or an
    /// inception-branch path), maintained by [`Reporter::with_context`].
    context: Vec<String>,
}

impl Reporter {
    /// Empty reporter with default severities.
    pub fn new() -> Self {
        Self::default()
    }

    /// Empty reporter that escalates every warning to a denial.
    pub fn deny_warnings() -> Self {
        Reporter {
            deny_warnings: true,
            ..Self::default()
        }
    }

    /// Record a finding. Severity comes from the code's default, escalated
    /// under `deny_warnings`.
    pub fn emit(&mut self, code: Code, layer_span: Option<Span>, message: impl Into<String>) {
        let mut severity = code.default_severity();
        if self.deny_warnings {
            severity = Severity::Deny;
        }
        let message = if self.context.is_empty() {
            message.into()
        } else {
            format!("{}: {}", self.context.join(": "), message.into())
        };
        self.diags.push(Diagnostic {
            code,
            severity,
            layer_span,
            message,
        });
    }

    /// Record an already-built diagnostic (e.g. returned by a `validate`
    /// wrapper), escalating its severity under `deny_warnings`.
    pub fn push(&mut self, mut diag: Diagnostic) {
        if self.deny_warnings {
            diag.severity = Severity::Deny;
        }
        self.diags.push(diag);
    }

    /// Run `f` with `label` pushed onto the message context.
    pub fn with_context<R>(
        &mut self,
        label: impl Into<String>,
        f: impl FnOnce(&mut Self) -> R,
    ) -> R {
        self.context.push(label.into());
        let r = f(self);
        self.context.pop();
        r
    }

    /// Every recorded diagnostic, in emission order.
    pub fn diagnostics(&self) -> &[Diagnostic] {
        &self.diags
    }

    /// Consume the reporter, returning its diagnostics.
    pub fn into_diagnostics(self) -> Vec<Diagnostic> {
        self.diags
    }

    /// True when no diagnostics were recorded at all.
    pub fn is_clean(&self) -> bool {
        self.diags.is_empty()
    }

    /// True when at least one denial was recorded.
    pub fn has_deny(&self) -> bool {
        self.diags.iter().any(|d| d.severity == Severity::Deny)
    }

    /// Count of diagnostics at a given severity.
    pub fn count(&self, severity: Severity) -> usize {
        self.diags.iter().filter(|d| d.severity == severity).count()
    }

    /// First diagnostic carrying `code`, if any.
    pub fn find(&self, code: Code) -> Option<&Diagnostic> {
        self.diags.iter().find(|d| d.code == code)
    }

    /// Absorb another reporter's diagnostics (context prefixes already
    /// baked into the messages).
    pub fn absorb(&mut self, other: Reporter) {
        self.diags.extend(other.diags);
    }

    /// Human-readable rendering, one diagnostic per line plus a summary.
    pub fn pretty(&self) -> String {
        let mut out = String::new();
        for d in &self.diags {
            out.push_str(&d.to_string());
            out.push('\n');
        }
        out.push_str(&format!(
            "{} error(s), {} warning(s)\n",
            self.count(Severity::Deny),
            self.count(Severity::Warn)
        ));
        out
    }

    /// JSON rendering: an array of diagnostic objects. Hand-rolled — the
    /// workspace carries no JSON dependency — with full string escaping.
    pub fn to_json(&self) -> String {
        let mut out = String::from("[");
        for (i, d) in self.diags.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("{\"code\":\"");
            out.push_str(d.code.as_str());
            out.push_str("\",\"severity\":\"");
            out.push_str(match d.severity {
                Severity::Warn => "warning",
                Severity::Deny => "error",
            });
            out.push_str("\",\"layer_span\":");
            match d.layer_span {
                Some(s) => out.push_str(&format!("{{\"start\":{},\"end\":{}}}", s.start, s.end)),
                None => out.push_str("null"),
            }
            out.push_str(",\"message\":\"");
            out.push_str(&escape_json(&d.message));
            out.push_str("\"}");
        }
        out.push(']');
        out
    }
}

fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codes_have_stable_strings_and_severities() {
        assert_eq!(Code::KernelExceedsInput.as_str(), "S003");
        assert_eq!(Code::OverlappingPoolFusion.as_str(), "F001");
        assert_eq!(Code::ZeroTileExtent.as_str(), "A001");
        assert_eq!(
            Code::FootprintExceedsBuffer.default_severity(),
            Severity::Deny
        );
        assert_eq!(Code::PoolNotDividing.default_severity(), Severity::Warn);
    }

    #[test]
    fn code_registry_is_globally_unique_with_descriptions() {
        use std::collections::HashSet;
        let mut seen = HashSet::new();
        for code in Code::ALL {
            let s = code.as_str();
            assert!(seen.insert(s), "duplicate diagnostic code {s}");
            assert!(
                !code.description().is_empty(),
                "{s} carries an empty description"
            );
            // the code string is family letter + 3 digits
            let (family, num) = s.split_at(1);
            assert!(
                matches!(family, "S" | "F" | "A" | "V" | "R" | "P" | "Q" | "N" | "D"),
                "{s}: unknown code family"
            );
            assert!(
                num.len() == 3 && num.chars().all(|c| c.is_ascii_digit()),
                "{s}: malformed code number"
            );
        }
    }

    #[test]
    fn design_md_embeds_the_rendered_code_table() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../DESIGN.md");
        let design = std::fs::read_to_string(path).expect("DESIGN.md readable");
        let table = code_table_markdown();
        assert!(
            design.contains(&table),
            "DESIGN.md is out of sync with the diagnostic code registry; \
             regenerate its code table from `diag::code_table_markdown()`:\n{table}"
        );
    }

    #[test]
    fn deny_warnings_escalates() {
        let mut r = Reporter::new();
        r.emit(Code::PoolNotDividing, Some(Span::layer(2)), "drops a row");
        assert!(!r.has_deny());

        let mut r = Reporter::deny_warnings();
        r.emit(Code::PoolNotDividing, Some(Span::layer(2)), "drops a row");
        assert!(r.has_deny());
    }

    #[test]
    fn context_prefixes_messages() {
        let mut r = Reporter::new();
        r.with_context("lenet5", |r| {
            r.emit(Code::ZeroStride, Some(Span::layer(0)), "stride is zero")
        });
        assert!(r.diagnostics()[0].message.starts_with("lenet5: "));
    }

    #[test]
    fn pretty_lists_every_diag_and_a_summary() {
        let mut r = Reporter::new();
        r.emit(Code::ZeroStride, Some(Span::layer(0)), "stride is zero");
        r.emit(Code::PoolNotDividing, None, "drops a row");
        let p = r.pretty();
        assert!(p.contains("error[S001] at layer 0: stride is zero"));
        assert!(p.contains("warning[S005]: drops a row"));
        assert!(p.contains("1 error(s), 1 warning(s)"));
    }

    #[test]
    fn json_escapes_and_structures() {
        let mut r = Reporter::new();
        r.emit(
            Code::BadGeometry,
            Some(Span::range(1, 3)),
            "a \"quoted\"\nthing",
        );
        let j = r.to_json();
        assert_eq!(
            j,
            concat!(
                "[{\"code\":\"S011\",\"severity\":\"error\",",
                "\"layer_span\":{\"start\":1,\"end\":3},",
                "\"message\":\"a \\\"quoted\\\"\\nthing\"}]"
            )
        );
    }

    #[test]
    fn empty_reporter_is_clean_and_serializes() {
        let r = Reporter::new();
        assert!(r.is_clean());
        assert_eq!(r.to_json(), "[]");
    }
}
