#include "replay.hpp"

#include <functional>
#include <sstream>

#include "exact/solver.hpp"
#include "frontend/parser.hpp"
#include "interp/interp.hpp"
#include "machine/ims.hpp"
#include "machine/lower.hpp"
#include "machine/sched.hpp"
#include "machine/sms.hpp"
#include "native/oracle.hpp"
#include "verify/verify.hpp"

namespace perfbench {

using slc::DiagnosticEngine;
using slc::Severity;
using slc::driver::Backend;
using slc::driver::ComparisonRow;
using slc::driver::ExactSummary;
using slc::support::Failure;
using slc::support::FailureKind;
using slc::support::make_failure;
using slc::support::Stage;
namespace interp = slc::interp;
namespace machine = slc::machine;
namespace sim = slc::sim;
namespace slms = slc::slms;

std::string WorkCounters::exact_counts() const {
  std::ostringstream os;
  os << "sim.instructions=" << sim_instructions
     << " interp.steps=" << interp_steps << " exact.steps=" << exact_steps
     << " slms.ii_sum=" << slms_ii_sum << " machine.mir_insts=" << mir_insts;
  return os.str();
}

struct Replay::Entry {
  bool base_ok = false;
  std::optional<Failure> base_failure;
  machine::MirProgram base_mir;
  struct Variant {
    slms::SlmsReport report;
    machine::MirProgram mir;
    ExactSummary exact;
  };
  std::vector<Variant> variants;
  std::optional<Failure> variant_failure;
};

namespace {

// The product's classifications (driver/pipeline.cpp), restated so the
// replayed row carries the same Failure.
FailureKind kind_of_abort(interp::AbortKind kind) {
  switch (kind) {
    case interp::AbortKind::DivideByZero: return FailureKind::DivideByZero;
    case interp::AbortKind::OutOfBounds: return FailureKind::OutOfBounds;
    case interp::AbortKind::StepLimit: return FailureKind::StepLimit;
    case interp::AbortKind::BadProgram: return FailureKind::SemaError;
    case interp::AbortKind::None: break;
  }
  return FailureKind::Unknown;
}

FailureKind kind_of_sim_error(const std::string& error) {
  if (error.find("injected fault") != std::string::npos)
    return FailureKind::Injected;
  if (error.find("instruction limit") != std::string::npos)
    return FailureKind::StepLimit;
  if (error.find("division by zero") != std::string::npos ||
      error.find("modulo by zero") != std::string::npos)
    return FailureKind::DivideByZero;
  if (error.find("out of bounds") != std::string::npos)
    return FailureKind::OutOfBounds;
  return FailureKind::SimError;
}

std::string block_key(const std::vector<machine::MInst>& block,
                      const std::string& model) {
  std::uint64_t h = 1469598103934665603ULL;
  auto mix = [&](std::int64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= std::uint64_t(v >> (8 * i)) & 0xff;
      h *= 1099511628211ULL;
    }
  };
  auto mix_str = [&](const std::string& s) {
    mix(std::int64_t(s.size()));
    for (char c : s) mix(c);
  };
  for (const machine::MInst& in : block) {
    mix(int(in.op));
    mix(in.dst);
    mix(in.src1);
    mix(in.src2);
    mix(in.src3);
    mix(in.pred);
    mix(in.fp);
    mix(in.imm);
    std::int64_t fbits = 0;
    static_assert(sizeof(double) == sizeof(fbits));
    __builtin_memcpy(&fbits, &in.fimm, sizeof fbits);
    mix(fbits);
    mix_str(in.array);
    mix_str(in.callee);
    mix(in.affine.has_value());
    if (in.affine) {
      mix(in.affine->coef);
      mix(in.affine->offset);
    }
  }
  return model + ":" + std::to_string(block.size()) + ":" + std::to_string(h);
}

}  // namespace

Replay::Replay(Tracer& tracer, const slc::driver::CompareOptions& options)
    : tracer_(tracer), options_(options) {}

Replay::~Replay() = default;

void Replay::begin_pass() {
  memo_.clear();
  simulated_.clear();
  probe_keys_.clear();
  counters_ = WorkCounters{};
}

std::shared_ptr<const Replay::Entry> Replay::build(
    const slc::kernels::Kernel& kernel) {
  auto entry = std::make_shared<Entry>();
  auto fail_base = [&](Failure f) {
    f.kernel = kernel.name;
    entry->base_failure = std::move(f);
    return entry;
  };
  auto lower = [&](const slc::ast::Program& program, DiagnosticEngine& diags) {
    Tracer::Scope s(tracer_, "machine.lower");
    machine::MirProgram mir = machine::lower(program, diags);
    counters_.mir_insts += mir.static_inst_count();
    return mir;
  };

  slc::ast::Program original;
  try {
    DiagnosticEngine diags;
    {
      Tracer::Scope s(tracer_, "frontend.parse");
      original = slc::frontend::parse_program(kernel.source, diags);
    }
    ++counters_.parse_calls;
    counters_.parse_bytes += kernel.source.size();
    if (diags.has_errors())
      return fail_base(make_failure(Stage::Parse, FailureKind::ParseError,
                                    "parse failed: " + diags.str()));
    DiagnosticEngine ldiags;
    entry->base_mir = lower(original, ldiags);
    if (ldiags.has_errors())
      return fail_base(make_failure(Stage::Lower, FailureKind::LowerError,
                                    "lowering failed: " + ldiags.str()));
    entry->base_ok = true;
  } catch (const std::exception& e) {
    return fail_base(
        make_failure(Stage::Parse, FailureKind::Exception, e.what()));
  }

  auto fail_variant = [&](Failure f) {
    f.kernel = kernel.name;
    if (!entry->variant_failure) entry->variant_failure = std::move(f);
  };
  std::vector<slms::SlmsOptions> variants{options_.slms};
  if (options_.best_of_mve &&
      options_.slms.renaming == slms::RenamingChoice::Mve) {
    slms::SlmsOptions other = options_.slms;
    other.eager_mve = !options_.slms.eager_mve;
    variants.push_back(other);
  }

  for (const slms::SlmsOptions& variant : variants) {
    try {
      slc::ast::Program transformed;
      {
        Tracer::Scope s(tracer_, "slms.clone");
        transformed = original.clone();
      }
      std::vector<slms::SlmsApplication> applications;
      std::vector<slms::SlmsReport> reports;
      {
        Tracer::Scope s(tracer_, "slms.apply");
        reports = slms::apply_slms(transformed, variant, &applications);
      }
      counters_.slms_loops += reports.size();
      for (const slms::SlmsReport& r : reports)
        if (r.applied) {
          ++counters_.slms_applied;
          counters_.slms_mis += std::uint64_t(r.num_mis);
          counters_.slms_ii_sum += std::uint64_t(r.ii);
        }
      if (reports.empty()) continue;

      {
        DiagnosticEngine vdiags;
        slc::verify::VerifyOptions vopts;
        vopts.check_bounds = false;
        bool ok;
        {
          Tracer::Scope s(tracer_, "verify.transformed");
          ok = slc::verify::verify_transformed(transformed, applications,
                                               vdiags, vopts);
        }
        ++counters_.verify_calls;
        if (!ok) {
          ++counters_.verify_rejects;
          std::string summary = vdiags.str(Severity::Error);
          while (!summary.empty() && summary.back() == '\n')
            summary.pop_back();
          for (char& c : summary)
            if (c == '\n') c = ';';
          fail_variant(
              make_failure(Stage::Verify, FailureKind::VerifyFailed, summary));
          continue;
        }
      }

      if (reports.front().applied) {
        interp::InterpOptions iopts;
        if (options_.max_interp_steps > 0)
          iopts.max_steps = options_.max_interp_steps;
        interp::EquivalenceResult eq;
        if (options_.oracle_mode == slc::native::OracleMode::Interp) {
          // interp::check_equivalence, run call by call for its steps.
          Tracer::Scope s(tracer_, "interp.oracle");
          interp::Interpreter in(iopts);
          interp::RunResult ra = in.run(original, options_.sim_seed);
          ++counters_.interp_runs;
          counters_.interp_steps += ra.steps;
          if (!ra.ok) {
            eq.status = interp::EquivalenceResult::Status::OriginalFailed;
            eq.abort_kind = ra.abort_kind;
            eq.detail = "original program failed: " + ra.error;
          } else {
            interp::RunResult rb = in.run(transformed, options_.sim_seed);
            ++counters_.interp_runs;
            counters_.interp_steps += rb.steps;
            if (!rb.ok) {
              eq.status = interp::EquivalenceResult::Status::TransformedFailed;
              eq.abort_kind = rb.abort_kind;
              eq.detail = "transformed program failed: " + rb.error;
            } else if (std::string d = ra.memory.diff(rb.memory); !d.empty()) {
              eq.status = interp::EquivalenceResult::Status::Mismatch;
              eq.detail = "memory differs: " + d;
            }
          }
        } else {
          Tracer::Scope s(tracer_, "native.oracle");
          slc::native::OracleOutcome outcome =
              slc::native::oracle_check_equivalence(
                  original, transformed, options_.sim_seed, iopts,
                  options_.oracle_mode);
          eq = outcome.eq;
          if (eq.ok() && outcome.cross_check_failed) {
            fail_variant(make_failure(Stage::Native,
                                      FailureKind::OracleMismatch,
                                      outcome.cross_check_detail));
            continue;
          }
        }
        if (eq.status == interp::EquivalenceResult::Status::OriginalFailed) {
          entry->base_ok = false;
          return fail_base(make_failure(Stage::Oracle,
                                        kind_of_abort(eq.abort_kind),
                                        eq.detail));
        }
        if (!eq.ok()) {
          FailureKind kind =
              eq.status == interp::EquivalenceResult::Status::Mismatch
                  ? FailureKind::OracleMismatch
                  : kind_of_abort(eq.abort_kind);
          fail_variant(make_failure(Stage::Oracle, kind, eq.detail));
          continue;
        }
      }

      DiagnosticEngine ldiags;
      machine::MirProgram mir = lower(transformed, ldiags);
      if (ldiags.has_errors()) {
        fail_variant(make_failure(Stage::Lower, FailureKind::LowerError,
                                  "lowering failed: " + ldiags.str()));
        continue;
      }
      Entry::Variant cached;
      cached.report = reports.front();
      cached.mir = std::move(mir);
      if (options_.exact) {
        // driver's run_exact: the first applied loop defines the gap.
        for (const slms::SlmsApplication& app : applications) {
          if (!app.applied()) continue;
          Tracer::Scope s(tracer_, "exact.solve");
          const slms::LoopPlacement& pl = *app.placement;
          ExactSummary& sum = cached.exact;
          sum.ran = true;
          sum.heuristic_ii = pl.ii;
          slc::exact::Instance inst = slc::exact::from_placement(pl);
          slc::exact::ExactOptions eopts;
          eopts.budget_ms = options_.exact_budget_ms;
          eopts.max_steps = options_.exact_max_steps;
          slc::exact::ExactResult res = slc::exact::solve(inst, eopts);
          sum.status = slc::exact::to_string(res.status);
          sum.lower_bound = res.lower_bound;
          sum.solve_ns = res.stats.solve_ns;
          sum.steps = res.stats.steps;
          if (res.status == slc::exact::ExactStatus::Optimal) {
            sum.ii = res.ii;
            std::string why;
            bool certs = slc::exact::check_schedule(inst, res.schedule, &why);
            if (certs && res.lower_proof.has_value())
              certs = slc::exact::check_infeasibility(inst, *res.lower_proof,
                                                      &why);
            DiagnosticEngine vdiags;
            sum.verified = certs && slc::verify::verify_schedule(
                                        pl, res.ii, res.schedule.sigma, vdiags);
          }
          ++counters_.exact_solves;
          counters_.exact_steps += std::uint64_t(res.stats.steps);
          if (std::optional<int> gap = sum.gap()) {
            ++counters_.exact_optimal;
            if (*gap != 0) ++counters_.exact_gap_nonzero;
            if (*gap < 0) ++counters_.exact_gap_negative;
          }
          break;
        }
      }
      entry->variants.push_back(std::move(cached));
      if (!reports.front().applied) break;
    } catch (const std::exception& e) {
      fail_variant(
          make_failure(Stage::Slms, FailureKind::Exception, e.what()));
    }
  }
  if (entry->variants.empty() && !entry->variant_failure)
    fail_variant(make_failure(Stage::Slms, FailureKind::TransformError,
                              "no SLMS variant produced a measurable program"));
  return entry;
}

sim::SimResult Replay::simulate(const machine::MirProgram& mir,
                                const Backend& backend,
                                const sim::SimOptions& sopts) {
  sim::SimResult r;
  {
    Tracer::Scope s(tracer_, "sim.simulate");
    r = sim::simulate(mir, backend.model, sopts);
  }
  ++counters_.sim_calls;
  counters_.sim_instructions += r.instructions;
  counters_.sim_cycles += r.cycles;
  return r;
}

ComparisonRow Replay::row(const slc::kernels::Kernel& kernel,
                          const Backend& backend, int row_id) {
  tracer_.set_row(row_id);
  ComparisonRow row;
  row.kernel = kernel.name;
  row.suite = kernel.suite;
  auto fail_row = [&](Failure f) {
    row.ok = false;
    row.error = f.str();
    row.failure = std::move(f);
  };
  auto degrade = [&](const sim::SimResult& base, Failure cause) {
    row.ok = true;
    row.degraded = true;
    row.failure = std::move(cause);
    row.slms_applied = false;
    row.cycles_slms = base.cycles;
    row.energy_slms = base.energy;
    row.misses_slms = base.mem_misses;
    if (!base.loops.empty()) row.loop_slms = base.loops.front();
  };

  std::string key = kernel.name + '\0' + kernel.source;
  std::shared_ptr<const Entry> entry;
  if (auto it = memo_.find(key); it != memo_.end()) {
    entry = it->second;
  } else {
    entry = build(kernel);
    memo_.emplace(std::move(key), entry);
  }
  if (!entry->base_ok) {
    fail_row(entry->base_failure
                 ? *entry->base_failure
                 : make_failure(Stage::Harness, FailureKind::Unknown,
                                "transform entry unavailable"));
    return row;
  }

  sim::SimOptions sopts;
  sopts.preset = backend.preset;
  sopts.ms_algorithm = backend.ms_algorithm;
  sopts.seed = options_.sim_seed;
  sopts.fault_label = kernel.name;

  auto sim_failure = [&](const std::string& error) {
    Failure f = make_failure(Stage::Simulate, kind_of_sim_error(error), error);
    f.kernel = kernel.name;
    f.options = backend.label;
    return f;
  };
  sim::SimResult rb = simulate(entry->base_mir, backend, sopts);
  simulated_.push_back({entry, &entry->base_mir, backend});
  if (!rb.ok) {
    fail_row(sim_failure(rb.error));
    return row;
  }
  row.cycles_base = rb.cycles;
  row.energy_base = rb.energy;
  row.misses_base = rb.mem_misses;
  if (!rb.loops.empty()) row.loop_base = rb.loops.front();

  if (entry->variants.empty()) {
    degrade(rb, entry->variant_failure
                    ? *entry->variant_failure
                    : make_failure(Stage::Slms, FailureKind::TransformError,
                                   "no SLMS variant available"));
    return row;
  }

  bool have_best = false;
  sim::SimResult best;
  std::optional<Failure> variant_sim_failure;
  for (const Entry::Variant& v : entry->variants) {
    sim::SimResult rs = simulate(v.mir, backend, sopts);
    simulated_.push_back({entry, &v.mir, backend});
    if (!rs.ok) {
      if (!variant_sim_failure) variant_sim_failure = sim_failure(rs.error);
      continue;
    }
    if (!have_best || rs.cycles < best.cycles) {
      have_best = true;
      best = std::move(rs);
      row.report = v.report;
      row.slms_applied = v.report.applied;
      row.slms_skip_reason = v.report.skip_reason;
      row.exact = v.exact;
    }
  }
  if (!have_best) {
    degrade(rb, variant_sim_failure
                    ? *variant_sim_failure
                    : make_failure(Stage::Simulate, FailureKind::SimError,
                                   "no SLMS variant simulated successfully"));
    return row;
  }
  row.ok = true;
  row.cycles_slms = best.cycles;
  row.energy_slms = best.energy;
  row.misses_slms = best.mem_misses;
  if (!best.loops.empty()) row.loop_slms = best.loops.front();
  return row;
}

void Replay::run_probes() {
  tracer_.set_lane(1);
  auto probe_block = [&](const std::vector<machine::MInst>& block,
                         const machine::MachineModel& model) {
    if (block.empty()) return;
    {
      Tracer::Scope s(tracer_, "machine.sched_probe");
      (void)machine::list_schedule(block, model);
    }
    ++counters_.sched_calls;
    probe_keys_.insert(block_key(block, model.name));
  };
  std::function<void(const std::vector<machine::Region>&, const Backend&)>
      walk = [&](const std::vector<machine::Region>& regions,
                 const Backend& b) {
        for (const machine::Region& r : regions) {
          if (r.kind == machine::Region::Kind::Block) {
            probe_block(r.insts, b.model);
          } else if (r.kind == machine::Region::Kind::Loop) {
            const machine::LoopRegion& loop = *r.loop;
            probe_block(loop.init, b.model);
            probe_block(loop.cond, b.model);
            probe_block(loop.step, b.model);
            walk(loop.body, b);
            bool single = loop.body.size() == 1 &&
                          loop.body[0].kind == machine::Region::Kind::Block &&
                          !loop.body[0].insts.empty();
            if (b.preset == sim::CompilerPreset::ModuloSched &&
                loop.canonical && single) {
              Tracer::Scope s(tracer_, "machine.ims_probe");
              (void)(b.ms_algorithm == sim::MsAlgorithm::Swing
                         ? machine::swing_modulo_schedule(
                               loop.body[0].insts, b.model, loop.step_value)
                         : machine::modulo_schedule(loop.body[0].insts,
                                                    b.model,
                                                    loop.step_value));
              ++counters_.ims_calls;
            }
          } else {
            probe_block(r.cond->pred, b.model);
            walk(r.cond->then_regions, b);
            walk(r.cond->else_regions, b);
          }
        }
      };
  for (const Simulated& s : simulated_) walk(s.mir->regions, s.backend);
  counters_.probe_distinct = probe_keys_.size();
  tracer_.set_lane(0);
}

}  // namespace perfbench
