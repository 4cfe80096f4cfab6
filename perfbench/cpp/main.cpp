// perfbench — the repository benchmark driver.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             --bin-dir DIR --work-dir DIR [--trace-out FILE]
//
// Prints the host record, notes and check results, then as its last line
// one JSON object {"correct","attempted","failed","metrics"}. Exit codes:
// 0 all output checks passed, 3 an output check failed (the result line
// is still printed, with "correct": false), 2 bad usage.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <thread>

#include "bench.hpp"
#include "native/cache.hpp"
#include "support/json.hpp"

namespace perfbench {

void Outcome::set(const std::string& name, double value,
                  const std::string& unit) {
  for (Metric& m : metrics)
    if (m.name == name) {
      m.value = value;
      m.unit = unit;
      return;
    }
  metrics.push_back({name, value, unit});
}

void Outcome::check(bool ok, const std::string& what) {
  notes.push_back(std::string(ok ? "check ok:   " : "check FAIL: ") + what);
  if (!ok) check_failures.push_back(what);
}

double median(std::vector<double> v) { return percentile(std::move(v), 0.5); }

double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  if (q == 0.5 && v.size() % 2 == 0)
    return (v[v.size() / 2 - 1] + v[v.size() / 2]) / 2.0;
  std::size_t rank = std::size_t(std::ceil(q * double(v.size())));
  return v[std::min(v.size() - 1, rank == 0 ? 0 : rank - 1)];
}

double self_peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return double(ru.ru_maxrss) / 1024.0;
}

void remove_tree(const std::string& path) {
  std::error_code ec;
  std::filesystem::remove_all(path, ec);
}

void make_dirs(const std::string& path) {
  std::error_code ec;
  std::filesystem::create_directories(path, ec);
}

namespace {

// The metric tables of BENCHMARK.json, in its order.
const std::vector<std::pair<const char*, const char*>> kEndToEnd = {
    {"rows_per_s", "rows/s"},    {"rows_per_s_par", "rows/s"},
    {"rows_per_s_warm", "rows/s"}, {"row_p50_ms", "ms"},
    {"row_p99_ms", "ms"},        {"miss_p50_ms", "ms"},
    {"hit_p50_ms", "ms"},        {"geomean_speedup", "ratio"},
    {"ok_ratio", "ratio"},       {"peak_rss_mb", "MiB"},
    {"setup_s", "s"}};

const std::vector<std::pair<const char*, const char*>> kPerLayer = {
    {"kernels.gen_ms", "ms"},
    {"frontend.parse_ms", "ms"},   {"frontend.calls", "count"},
    {"frontend.bytes", "bytes"},   {"slms.ms", "ms"},
    {"slms.loops", "count"},       {"slms.applied_ratio", "ratio"},
    {"slms.mis", "count"},         {"slms.ii_sum", "count"},
    {"verify.ms", "ms"},           {"verify.calls", "count"},
    {"verify.rejects", "count"},   {"interp.ms", "ms"},
    {"interp.runs", "count"},      {"interp.steps", "count"},
    {"native.ms", "ms"},           {"native.compiles", "count"},
    {"native.hit_ratio", "ratio"}, {"native.fallbacks", "count"},
    {"machine.lower_ms", "ms"},    {"machine.mir_insts", "count"},
    {"machine.sched_ms", "ms"},    {"machine.sched_calls", "count"},
    {"machine.ims_ms", "ms"},      {"machine.ims_calls", "count"},
    {"machine.block_reuse_ratio", "ratio"},
    {"sim.ms", "ms"},              {"sim.calls", "count"},
    {"sim.instructions", "count"}, {"sim.cycles", "count"},
    {"exact.ms", "ms"},            {"exact.solves", "count"},
    {"exact.steps", "count"},      {"exact.optimal", "count"},
    {"exact.gap_nonzero", "count"},
    {"driver.cache_hits", "count"}, {"driver.cache_misses", "count"},
    {"driver.journal_encode_ms", "ms"},
    {"service.child_spawns", "count"},
    {"service.cache_hit_ratio", "ratio"},
    {"service.shed", "count"},     {"service.retries", "count"},
    {"service.wait_ms", "ms"},     {"io.journal_appends", "count"},
    {"io.append_failures", "count"},
    {"frontend.share", "ratio"},   {"slms.share", "ratio"},
    {"verify.share", "ratio"},     {"interp.share", "ratio"},
    {"native.share", "ratio"},     {"machine.lower_share", "ratio"},
    {"sim.share", "ratio"},        {"exact.share", "ratio"},
    {"trace.coverage", "ratio"},   {"trace.overhead_ratio", "ratio"},
    {"trace.pass_ms", "ms"},       {"trace.rows", "count"}};

std::string first_line_of(const std::string& path, const std::string& key) {
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line))
    if (key.empty() || line.rfind(key, 0) == 0) {
      std::size_t colon = line.find(':');
      return key.empty() || colon == std::string::npos
                 ? line
                 : line.substr(line.find_first_not_of(" \t", colon + 1));
    }
  return "?";
}

/// The host record: seed, nproc, build, compiler, CPU model and load.
std::string host_record(const Options& opts, const char* when) {
  namespace json = slc::support::json;
  json::Value v = json::Value::object();
  v.set("record", json::Value::string(when));
  v.set("workload", json::Value::string(opts.workload));
  v.set("seed", json::Value::number(opts.seed));
  v.set("nproc", json::Value::number(
                     std::uint64_t(std::thread::hardware_concurrency())));
  v.set("par_jobs", json::Value::number(opts.par_jobs));
  v.set("build_type", json::Value::string(PERFBENCH_BUILD_TYPE));
  v.set("compiler", json::Value::string(PERFBENCH_CXX));
  v.set("cxx_flags", json::Value::string(PERFBENCH_CXX_FLAGS));
  v.set("host_cc", json::Value::string(
                       slc::native::CodegenCache::instance().compiler_signature()));
  v.set("cpu", json::Value::string(first_line_of("/proc/cpuinfo", "model name")));
  v.set("loadavg", json::Value::string(first_line_of("/proc/loadavg", "")));
  return v.dump();
}

/// A Debug or sanitizer build is flagged, not measured silently.
bool unoptimized_build() {
  std::string type = PERFBENCH_BUILD_TYPE;
  std::string flags = PERFBENCH_CXX_FLAGS;
  return type == "Debug" || flags.find("-fsanitize") != std::string::npos ||
         flags.find("-O0") != std::string::npos;
}

int usage() {
  std::cerr << "usage: perfbench --workload corpus_cold|registry_backends|"
               "slcd_mixed|native_cold --seed N --seconds S --trace 0|1\n"
               "                 --bin-dir DIR --work-dir DIR "
               "[--trace-out FILE]\n";
  return 2;
}

}  // namespace

}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Options opts;
  std::map<std::string, std::string> args;
  for (int i = 1; i + 1 < argc; i += 2) args[argv[i]] = argv[i + 1];
  if (argc % 2 != 1 || !args.count("--workload") || !args.count("--bin-dir") ||
      !args.count("--work-dir"))
    return usage();
  try {
    opts.workload = args["--workload"];
    opts.seed = std::stoull(args.count("--seed") ? args["--seed"] : "0");
    opts.seconds = std::stod(args.count("--seconds") ? args["--seconds"] : "10");
    opts.trace = args.count("--trace") && args["--trace"] == "1";
  } catch (const std::exception&) {
    return usage();
  }
  opts.bin_dir = args["--bin-dir"];
  opts.work_dir = args["--work-dir"];
  opts.trace_out = args.count("--trace-out") ? args["--trace-out"] : "";
  opts.par_jobs = int(std::min(4u, std::max(1u, std::thread::hardware_concurrency())));

  void (*workload)(const Options&, Outcome&) = nullptr;
  if (opts.workload == "corpus_cold") workload = run_corpus_cold;
  if (opts.workload == "registry_backends") workload = run_registry_backends;
  if (opts.workload == "slcd_mixed") workload = run_slcd_mixed;
  if (opts.workload == "native_cold") workload = run_native_cold;
  if (workload == nullptr) return usage();

  std::cout << host_record(opts, "before") << std::endl;
  if (unoptimized_build())
    std::cout << "WARNING: unoptimized or sanitizer build ("
              << PERFBENCH_BUILD_TYPE << "); timings are not comparable"
              << std::endl;
  make_dirs(opts.work_dir);
  Outcome out;
  workload(opts, out);
  std::cout << host_record(opts, "after") << std::endl;

  // Every metric of the mode's table, in table order; a per-layer metric
  // the workload does not exercise reads 0.
  const auto& table = opts.trace ? kPerLayer : kEndToEnd;
  namespace json = slc::support::json;
  json::Value metrics = json::Value::object();
  for (const auto& [name, unit] : table) {
    const Metric* found = nullptr;
    for (const Metric& m : out.metrics)
      if (m.name == name) found = &m;
    if (found == nullptr && !opts.trace && out.check_failures.empty())
      out.check(false, std::string("metric ") + name + " was measured");
    json::Value m = json::Value::object();
    m.set("value", json::Value::number(found ? found->value : 0.0));
    m.set("unit", json::Value::string(unit));
    metrics.set(name, std::move(m));
    char line[160];
    std::snprintf(line, sizeof line, "%-28s %16.6g %s", name,
                  found ? found->value : 0.0, unit);
    out.note(line);
  }
  for (const std::string& n : out.notes) std::cout << n << '\n';

  bool correct = out.check_failures.empty();
  json::Value result = json::Value::object();
  result.set("correct", json::Value::boolean(correct));
  result.set("attempted",
             json::Value::number(std::max<std::uint64_t>(1, out.attempted)));
  result.set("failed", json::Value::number(out.failed));
  result.set("metrics", std::move(metrics));
  std::cout << result.dump() << std::endl;
  return correct ? 0 : 3;
}
