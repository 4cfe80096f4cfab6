// The traced stage replay: rebuilds compare_kernel's row from the public
// calls of each layer, in the product's order, with a span around every
// call and a work counter beside it:
//
//   1. frontend::parse_program, then machine::lower of the original;
//   2. per MVE variant: clone, slms::apply_slms,
//      verify::verify_transformed (bounds off), the oracle check
//      (two interpreter runs, or the native oracle), machine::lower,
//      and exact::solve on the first applied loop (when exact is on);
//   3. sim::simulate of the base program and of each variant.
//
// Like the product's transform cache, the backend-independent part is
// built once per kernel per pass and reused across backends. The
// machine-scheduler probes run after a pass, outside its timed span.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "driver/pipeline.hpp"
#include "trace.hpp"

namespace perfbench {

/// Exact work counts of one replayed pass. Every field is deterministic
/// for a given (workload, seed); two passes must agree exactly.
struct WorkCounters {
  std::uint64_t parse_calls = 0, parse_bytes = 0;
  std::uint64_t slms_loops = 0, slms_applied = 0, slms_mis = 0, slms_ii_sum = 0;
  std::uint64_t verify_calls = 0, verify_rejects = 0;
  std::uint64_t interp_runs = 0, interp_steps = 0;
  std::uint64_t mir_insts = 0;
  std::uint64_t sim_calls = 0, sim_instructions = 0, sim_cycles = 0;
  std::uint64_t exact_solves = 0, exact_steps = 0, exact_optimal = 0,
                exact_gap_nonzero = 0, exact_gap_negative = 0;
  std::uint64_t sched_calls = 0, ims_calls = 0, probe_distinct = 0;

  /// "name=value ..." of the counters a later change may cite.
  [[nodiscard]] std::string exact_counts() const;
};

class Replay {
 public:
  Replay(Tracer& tracer, const slc::driver::CompareOptions& options);
  ~Replay();

  /// Replays one row (spans tagged with `row_id`).
  [[nodiscard]] slc::driver::ComparisonRow row(
      const slc::kernels::Kernel& kernel,
      const slc::driver::Backend& backend, int row_id);

  /// Starts a new pass: drops the per-kernel memo and the counters.
  void begin_pass();
  /// Runs the machine-scheduler probes over every (program, backend)
  /// simulated in this pass: list_schedule on each block, and the
  /// backend's modulo scheduler on each canonical single-block loop body
  /// when the preset pipelines. Spans land on lane 1.
  void run_probes();

  [[nodiscard]] const WorkCounters& counters() const { return counters_; }

 private:
  struct Entry;
  std::shared_ptr<const Entry> build(const slc::kernels::Kernel& kernel);
  slc::sim::SimResult simulate(const slc::machine::MirProgram& mir,
                               const slc::driver::Backend& backend,
                               const slc::sim::SimOptions& sopts);

  Tracer& tracer_;
  slc::driver::CompareOptions options_;
  WorkCounters counters_;
  std::unordered_map<std::string, std::shared_ptr<const Entry>> memo_;
  struct Simulated {
    std::shared_ptr<const Entry> entry;
    const slc::machine::MirProgram* mir;
    slc::driver::Backend backend;
  };
  std::vector<Simulated> simulated_;
  std::unordered_set<std::string> probe_keys_;
};

}  // namespace perfbench
