/// \file design_pipeline.hpp
/// \brief Declarative batch gate design + IRB characterization on the
///        shared `qoc::runtime` task pool.
///
/// The per-call APIs (`design_1q_gate`, `compare_1q_gate`, ...) do one thing
/// each; a realistic calibration campaign designs several gates from several
/// random seeds and durations and then characterizes the winners.  Run
/// per-call, that workflow repeats work: every `run_irb_1q` call re-measures
/// a reference RB curve and rebuilds the per-qubit Clifford gate set, even
/// though both depend only on (device, defaults, qubit, RB options).
///
/// `DesignPipeline` turns the campaign into one task graph:
///
///   design(gate g, seed s, duration d)  -- one pool task per candidate
///        |                                 (independent across everything)
///        v
///   chain(g): pick best candidate -> IRB(custom) + IRB(default)
///                                    against the SHARED per-qubit
///                                    reference curve and gate set
///
/// Chains of different gates never synchronize with each other; a gate whose
/// designs finish early starts its IRB while other gates still optimize.
/// Shared state (gate set + reference curve per qubit, the 2Q group for CX)
/// is built exactly once via `std::call_once` from whichever chain needs it
/// first.  Determinism: every RB engine underneath draws per-sequence RNG
/// streams and reduces in index order, so results are bitwise independent of
/// the pool size and of chain completion order.
///
/// `compare_1q_gate` / `compare_cx_gate` are thin wrappers over
/// `characterize_1q` / `characterize_cx`; sharing the reference curve is
/// byte-identical to measuring it twice because the reference experiment is
/// fully deterministic in (executor, gate set, qubit, options).

#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "device/backend_config.hpp"
#include "device/calibration.hpp"
#include "experiments/gate_designer.hpp"
#include "experiments/irb_experiment.hpp"
#include "rb/rb.hpp"

namespace qoc::experiments {

/// Batch job for one single-qubit gate: design over the seed x duration
/// grid, keep the lowest-model-infidelity candidate, optionally IRB it
/// against the backend default.
struct GateJob1Q {
    std::string gate_name;      ///< "x", "y", "sx" or "h" (for characterization)
    std::size_t qubit = 0;
    GateDesignSpec spec;        ///< base spec; `target` must be set
    /// Optimizer seeds to try; empty means {spec.random_seed}.
    std::vector<std::uint64_t> seeds;
    /// Pulse durations to try; empty means {spec.duration_dt}.
    std::vector<std::size_t> durations_dt;
    bool characterize = true;   ///< run IRB custom-vs-default on the winner
};

/// Batch job for the CX gate (same grid semantics).
struct GateJobCx {
    CxDesignSpec spec;
    std::vector<std::uint64_t> seeds;
    std::vector<std::size_t> durations_dt;
    bool characterize = true;
};

/// One designed candidate of a job's grid.
struct Candidate1Q {
    std::uint64_t seed = 0;
    std::size_t duration_dt = 0;
    DesignedGate gate;
};

struct CandidateCx {
    std::uint64_t seed = 0;
    std::size_t duration_dt = 0;
    DesignedCx gate;
};

/// Everything the pipeline produced for one 1Q job.
struct GateResult1Q {
    std::string gate_name;
    std::size_t qubit = 0;
    std::vector<Candidate1Q> candidates;  ///< seed-major, duration-minor
    std::size_t best_index = 0;           ///< lowest model_fid_err
    bool characterized = false;
    GateComparison comparison;            ///< valid iff `characterized`

    const DesignedGate& best() const { return candidates.at(best_index).gate; }
};

struct GateResultCx {
    std::vector<CandidateCx> candidates;
    std::size_t best_index = 0;
    bool characterized = false;
    GateComparison comparison;

    const DesignedCx& best() const { return candidates.at(best_index).gate; }
};

struct DesignPipelineOptions {
    rb::RbOptions rb;           ///< RB protocol for every characterization
    /// Master switch: false skips all IRB (and, for the owning constructor,
    /// the default-gate calibration), leaving a pure design batch.
    bool characterize = true;
};

struct PipelineResult {
    std::vector<GateResult1Q> gates;   ///< one per job, in job order
    std::vector<GateResultCx> cx_gates;
};

/// Opaque bundle of the lazily-built shared per-qubit / 2Q contexts (gate
/// sets + reference RB curves).  A pipeline normally owns a private one; the
/// calibration service instead keeps one bundle per device snapshot and hands
/// it to every pipeline it builds for that snapshot, so repeated
/// pipeline-backed requests on the same snapshot never re-measure the
/// reference curves.  Sharing contract: a bundle may only be shared between
/// pipelines bound to the same (executor, defaults, RbOptions) triple -- the
/// contexts are deterministic functions of exactly that triple, which is why
/// sharing is byte-identical to rebuilding.
class PipelineContexts;

/// See the file comment.  A pipeline is bound to one device (executor +
/// default schedules); the design model is the nominal (drift-free) version
/// of that device's config, exactly what the per-call examples used.
class DesignPipeline {
public:
    /// Owning: builds the `PulseExecutor` for `device` and calibrates its
    /// default gates (skipped when `options.characterize` is false).
    explicit DesignPipeline(const device::BackendConfig& device,
                            DesignPipelineOptions options = {});

    /// Non-owning: characterize on an existing executor / schedule map
    /// (both must outlive the pipeline).
    DesignPipeline(const device::PulseExecutor& exec,
                   const pulse::InstructionScheduleMap& defaults,
                   DesignPipelineOptions options = {});

    /// Non-owning, with externally shared contexts (see `PipelineContexts`).
    /// `contexts` must have been created by `make_contexts()` and may be
    /// shared across any number of pipelines bound to the same executor,
    /// defaults and RB options; null falls back to a private bundle.
    DesignPipeline(const device::PulseExecutor& exec,
                   const pulse::InstructionScheduleMap& defaults,
                   std::shared_ptr<PipelineContexts> contexts,
                   DesignPipelineOptions options = {});

    /// A fresh (empty) context bundle for the shared-context constructor.
    static std::shared_ptr<PipelineContexts> make_contexts();

    /// The bundle this pipeline fills/reads (always non-null).
    const std::shared_ptr<PipelineContexts>& contexts() const { return ctxs_; }

    ~DesignPipeline();
    DesignPipeline(const DesignPipeline&) = delete;
    DesignPipeline& operator=(const DesignPipeline&) = delete;

    /// Runs the whole batch as one task graph on `TaskPool::global()` and
    /// blocks (helping) until it drains.  Results are bitwise independent
    /// of the pool size.
    PipelineResult run(const std::vector<GateJob1Q>& jobs,
                       const std::vector<GateJobCx>& cx_jobs = {}) const;

    /// IRB of an existing custom schedule against the backend default,
    /// using the pipeline's shared per-qubit gate set + reference curve.
    GateComparison characterize_1q(const std::string& gate_name, std::size_t qubit,
                                   const pulse::Schedule& custom_schedule) const;

    /// Custom-gate IRB only (no default comparison) against the shared
    /// reference -- the drift-study loop's primitive.
    rb::IrbResult irb_custom_1q(const std::string& gate_name, std::size_t qubit,
                                const pulse::Schedule& custom_schedule) const;

    /// CX analogue of `characterize_1q` (shared 2Q group, gate set and
    /// reference curve).
    GateComparison characterize_cx(const pulse::Schedule& custom_schedule) const;

    const device::PulseExecutor& executor() const { return *exec_; }
    const pulse::InstructionScheduleMap& defaults() const { return *defaults_; }
    const device::BackendConfig& design_model() const { return design_model_; }
    const DesignPipelineOptions& options() const { return options_; }

private:
    friend class PipelineContexts;

    struct QubitCtx;  ///< per-qubit shared gate set + reference RB curve
    struct CxCtx;     ///< shared 2Q group, gate set + reference RB curve

    QubitCtx& qubit_ctx(std::size_t qubit) const;
    CxCtx& cx_ctx() const;

    /// IRB of `superop` as gate `gate_name` against the qubit's shared
    /// reference (no span: the public callers open it).
    rb::IrbResult irb_1q(const std::string& gate_name, std::size_t qubit,
                         const linalg::Mat& superop) const;

    DesignPipelineOptions options_;
    device::BackendConfig design_model_;
    std::unique_ptr<device::PulseExecutor> owned_exec_;
    const device::PulseExecutor* exec_ = nullptr;
    pulse::InstructionScheduleMap owned_defaults_;
    const pulse::InstructionScheduleMap* defaults_ = nullptr;
    rb::Clifford1Q group1q_;

    std::shared_ptr<PipelineContexts> ctxs_;
};

}  // namespace qoc::experiments
