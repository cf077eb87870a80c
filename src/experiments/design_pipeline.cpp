#include "experiments/design_pipeline.hpp"

#include <optional>
#include <utility>

#include "obs/obs.hpp"
#include "quantum/gates.hpp"
#include "runtime/task_pool.hpp"

namespace qoc::experiments {

namespace g = quantum::gates;
using linalg::Mat;

struct DesignPipeline::QubitCtx {
    std::once_flag once;
    std::optional<rb::GateSet1Q> gates;
    rb::RbCurve reference;
};

struct DesignPipeline::CxCtx {
    std::once_flag once;
    std::optional<rb::Clifford2Q> group;
    std::optional<rb::GateSet2Q> gates;
    rb::RbCurve reference;
};

/// Shared lazily-built context bundle (see the header).  Slots are created
/// under the mutex; the expensive fill runs under the per-slot once_flag, so
/// pipelines sharing a bundle also share the fill work.
class PipelineContexts {
public:
    DesignPipeline::QubitCtx& qubit_slot(std::size_t qubit) {
        std::lock_guard<std::mutex> lk(mu_);
        auto& slot = qubits_[qubit];
        if (!slot) slot = std::make_unique<DesignPipeline::QubitCtx>();
        return *slot;
    }

    DesignPipeline::CxCtx& cx_slot() {
        std::lock_guard<std::mutex> lk(mu_);
        if (!cx_) cx_ = std::make_unique<DesignPipeline::CxCtx>();
        return *cx_;
    }

private:
    std::mutex mu_;
    std::map<std::size_t, std::unique_ptr<DesignPipeline::QubitCtx>> qubits_;
    std::unique_ptr<DesignPipeline::CxCtx> cx_;
};

std::shared_ptr<PipelineContexts> DesignPipeline::make_contexts() {
    return std::make_shared<PipelineContexts>();
}

DesignPipeline::DesignPipeline(const device::BackendConfig& device,
                               DesignPipelineOptions options)
    : options_(std::move(options)),
      design_model_(device::nominal_model(device)),
      owned_exec_(std::make_unique<device::PulseExecutor>(device)),
      ctxs_(make_contexts()) {
    exec_ = owned_exec_.get();
    if (options_.characterize) {
        owned_defaults_ = device::build_default_gates(*exec_);
    }
    defaults_ = &owned_defaults_;
}

DesignPipeline::DesignPipeline(const device::PulseExecutor& exec,
                               const pulse::InstructionScheduleMap& defaults,
                               DesignPipelineOptions options)
    : DesignPipeline(exec, defaults, nullptr, std::move(options)) {}

DesignPipeline::DesignPipeline(const device::PulseExecutor& exec,
                               const pulse::InstructionScheduleMap& defaults,
                               std::shared_ptr<PipelineContexts> contexts,
                               DesignPipelineOptions options)
    : options_(std::move(options)),
      design_model_(device::nominal_model(exec.config())),
      exec_(&exec),
      defaults_(&defaults),
      ctxs_(contexts ? std::move(contexts) : make_contexts()) {}

DesignPipeline::~DesignPipeline() = default;

DesignPipeline::QubitCtx& DesignPipeline::qubit_ctx(std::size_t qubit) const {
    QubitCtx* ctx = &ctxs_->qubit_slot(qubit);
    std::call_once(ctx->once, [&] {
        obs::Span span("pipeline.reference");
        ctx->gates.emplace(*exec_, *defaults_, qubit, group1q_);
        ctx->reference = rb::run_rb_1q(*exec_, *ctx->gates, qubit, options_.rb);
    });
    return *ctx;
}

DesignPipeline::CxCtx& DesignPipeline::cx_ctx() const {
    CxCtx* ctx = &ctxs_->cx_slot();
    std::call_once(ctx->once, [&] {
        obs::Span span("pipeline.reference");
        ctx->group.emplace(group1q_);
        ctx->gates.emplace(*exec_, *defaults_, *ctx->group);
        ctx->reference = rb::run_rb_2q(*exec_, *ctx->gates, options_.rb);
    });
    return *ctx;
}

namespace {

/// Custom-vs-default comparison of one gate's two IRB results.
GateComparison compare(std::string gate, rb::IrbResult custom, rb::IrbResult standard) {
    const double def = standard.gate_error;
    GateComparison cmp{std::move(gate), std::move(custom), std::move(standard), 0.0};
    if (def > 0.0) cmp.improvement_percent = 100.0 * (def - cmp.custom.gate_error) / def;
    return cmp;
}

}  // namespace

rb::IrbResult DesignPipeline::irb_1q(const std::string& gate_name, std::size_t qubit,
                                     const Mat& superop) const {
    const QubitCtx& ctx = qubit_ctx(qubit);
    return rb::run_irb_1q_with_reference(*exec_, *ctx.gates, qubit, ctx.reference, superop,
                                         group1q_.find(ideal_1q_gate(gate_name)), options_.rb);
}

GateComparison DesignPipeline::characterize_1q(const std::string& gate_name,
                                               std::size_t qubit,
                                               const pulse::Schedule& custom_schedule) const {
    obs::Span span("pipeline.characterize");
    obs::ScopedHistTimer wall(obs::Hist::kIrbWall);
    rb::IrbResult custom =
        irb_1q(gate_name, qubit, exec_->schedule_superop_1q(custom_schedule, qubit));
    rb::IrbResult standard = irb_1q(
        gate_name, qubit, default_gate_superop_1q(*exec_, *defaults_, gate_name, qubit));
    return compare(gate_name, std::move(custom), std::move(standard));
}

rb::IrbResult DesignPipeline::irb_custom_1q(const std::string& gate_name, std::size_t qubit,
                                            const pulse::Schedule& custom_schedule) const {
    obs::Span span("pipeline.characterize");
    obs::ScopedHistTimer wall(obs::Hist::kIrbWall);
    return irb_1q(gate_name, qubit, exec_->schedule_superop_1q(custom_schedule, qubit));
}

GateComparison DesignPipeline::characterize_cx(const pulse::Schedule& custom_schedule) const {
    obs::Span span("pipeline.characterize");
    obs::ScopedHistTimer wall(obs::Hist::kIrbWall);
    const CxCtx& ctx = cx_ctx();
    const std::size_t cliff_index = ctx.group->find(g::cx());
    const Mat custom_super = exec_->schedule_superop_2q(custom_schedule);
    const Mat default_super = exec_->schedule_superop_2q(defaults_->get("cx", {0, 1}));
    rb::IrbResult custom = rb::run_irb_2q_with_reference(*exec_, *ctx.gates, ctx.reference,
                                                         custom_super, cliff_index, options_.rb);
    rb::IrbResult standard = rb::run_irb_2q_with_reference(
        *exec_, *ctx.gates, ctx.reference, default_super, cliff_index, options_.rb);
    return compare("cx", std::move(custom), std::move(standard));
}

PipelineResult DesignPipeline::run(const std::vector<GateJob1Q>& jobs,
                                   const std::vector<GateJobCx>& cx_jobs) const {
    obs::Span span("pipeline.run");
    auto& pool = runtime::TaskPool::global();

    PipelineResult out;
    out.gates.resize(jobs.size());
    out.cx_gates.resize(cx_jobs.size());

    // Stage 1: one design task per (job, seed, duration) candidate.  Every
    // candidate is independent, so they all go to the pool up front.
    std::vector<std::vector<runtime::Future<DesignedGate>>> futs(jobs.size());
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        const GateJob1Q& job = jobs[i];
        GateResult1Q& res = out.gates[i];
        res.gate_name = job.gate_name;
        res.qubit = job.qubit;
        const std::vector<std::uint64_t> seeds =
            job.seeds.empty() ? std::vector<std::uint64_t>{job.spec.random_seed} : job.seeds;
        const std::vector<std::size_t> durs =
            job.durations_dt.empty() ? std::vector<std::size_t>{job.spec.duration_dt}
                                     : job.durations_dt;
        for (const std::uint64_t seed : seeds) {
            for (const std::size_t dur : durs) {
                res.candidates.push_back(Candidate1Q{seed, dur, {}});
                futs[i].push_back(pool.submit([this, &job, seed, dur] {
                    obs::Span design_span("pipeline.design");
                    obs::ScopedHistTimer wall(obs::Hist::kDesignWall);
                    GateDesignSpec sp = job.spec;
                    sp.random_seed = seed;
                    sp.duration_dt = dur;
                    return design_1q_gate(design_model_, job.qubit, job.gate_name, sp);
                }));
            }
        }
    }
    std::vector<std::vector<runtime::Future<DesignedCx>>> cx_futs(cx_jobs.size());
    for (std::size_t i = 0; i < cx_jobs.size(); ++i) {
        const GateJobCx& job = cx_jobs[i];
        const std::vector<std::uint64_t> seeds =
            job.seeds.empty() ? std::vector<std::uint64_t>{job.spec.random_seed} : job.seeds;
        const std::vector<std::size_t> durs =
            job.durations_dt.empty() ? std::vector<std::size_t>{job.spec.duration_dt}
                                     : job.durations_dt;
        for (const std::uint64_t seed : seeds) {
            for (const std::size_t dur : durs) {
                out.cx_gates[i].candidates.push_back(CandidateCx{seed, dur, {}});
                cx_futs[i].push_back(pool.submit([this, &job, seed, dur] {
                    obs::Span design_span("pipeline.design");
                    obs::ScopedHistTimer wall(obs::Hist::kDesignWall);
                    CxDesignSpec sp = job.spec;
                    sp.random_seed = seed;
                    sp.duration_dt = dur;
                    return design_cx_gate(design_model_, sp);
                }));
            }
        }
    }

    // Stage 2: one chain task per gate.  A chain waits only on its own
    // candidates (helping, so it executes design work while it waits), picks
    // the winner and characterizes it against the shared per-qubit context.
    // Chains of different gates never synchronize with each other.
    runtime::TaskGroup chains(pool);
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        chains.run([this, &job = jobs[i], &res = out.gates[i], &fs = futs[i]] {
            for (std::size_t c = 0; c < fs.size(); ++c) res.candidates[c].gate = fs[c].get();
            for (std::size_t c = 1; c < res.candidates.size(); ++c) {
                if (res.candidates[c].gate.model_fid_err <
                    res.candidates[res.best_index].gate.model_fid_err) {
                    res.best_index = c;
                }
            }
            if (options_.characterize && job.characterize) {
                res.comparison = characterize_1q(job.gate_name, job.qubit, res.best().schedule);
                res.characterized = true;
            }
        });
    }
    for (std::size_t i = 0; i < cx_jobs.size(); ++i) {
        chains.run([this, &job = cx_jobs[i], &res = out.cx_gates[i], &fs = cx_futs[i]] {
            for (std::size_t c = 0; c < fs.size(); ++c) res.candidates[c].gate = fs[c].get();
            for (std::size_t c = 1; c < res.candidates.size(); ++c) {
                if (res.candidates[c].gate.model_fid_err <
                    res.candidates[res.best_index].gate.model_fid_err) {
                    res.best_index = c;
                }
            }
            if (options_.characterize && job.characterize) {
                res.comparison = characterize_cx(res.best().schedule);
                res.characterized = true;
            }
        });
    }
    chains.wait();
    return out;
}

}  // namespace qoc::experiments
