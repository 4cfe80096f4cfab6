// Shared plumbing of the perfbench driver: options, the result record
// each workload fills, timing and order statistics.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double ms_between(Clock::time_point a,
                                       Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}
[[nodiscard]] inline double ms_since(Clock::time_point a) {
  return ms_between(a, Clock::now());
}

/// Whether a run that began at `start` and has done `rounds` rounds
/// starts another: the first always, a later one only if a round of the
/// mean length so far still ends within `seconds`. A run so ends within
/// its time instead of overrunning it by up to one round.
[[nodiscard]] inline bool another_round(Clock::time_point start, int rounds,
                                        double seconds) {
  if (rounds == 0) return true;
  double elapsed = ms_since(start);
  return elapsed + elapsed / rounds <= seconds * 1e3;
}

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  std::string bin_dir;    // holds slc and slcd
  std::string work_dir;   // scratch space inside the checkout
  std::string trace_out;  // Chrome trace-event file of the traced run
  int par_jobs = 1;       // min(4, nproc)
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one run reports: the workload fills metrics, counts rows or
/// requests, and records every output check that failed.
struct Outcome {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::string> check_failures;
  /// Extra human-readable lines printed before the result line.
  std::vector<std::string> notes;

  void set(const std::string& name, double value, const std::string& unit);
  void check(bool ok, const std::string& what);
  void note(std::string line) { notes.push_back(std::move(line)); }
};

/// Each item's fastest time over the rounds of a run. A run repeats the
/// same work round after round, so an item's fastest round drops the
/// transient contention other tenants of a shared host cause.
struct BestTimes {
  std::vector<double> ms;  // by item index

  void add(std::size_t item, double t) {
    if (item >= ms.size()) ms.resize(item + 1, t);
    if (t < ms[item]) ms[item] = t;
  }
  [[nodiscard]] double total() const {
    double sum = 0.0;
    for (double x : ms) sum += x;
    return sum;
  }
};

/// Median of the samples (0 when empty).
[[nodiscard]] double median(std::vector<double> v);
/// Nearest-rank percentile, q in [0, 1] (0 when empty).
[[nodiscard]] double percentile(std::vector<double> v, double q);
/// Peak resident set of this process in MiB.
[[nodiscard]] double self_peak_rss_mb();

/// Recursively removes `path` (ignores a missing path).
void remove_tree(const std::string& path);
/// Creates `path` and its parents.
void make_dirs(const std::string& path);

// Workloads. Each runs for opts.seconds, fills the end-to-end metrics
// (opts.trace false) or the per-layer ones (opts.trace true), and
// records its output checks.
void run_corpus_cold(const Options& opts, Outcome& out);
void run_registry_backends(const Options& opts, Outcome& out);
void run_native_cold(const Options& opts, Outcome& out);
void run_slcd_mixed(const Options& opts, Outcome& out);

}  // namespace perfbench
