#include "rows.hpp"

#include <cmath>
#include <cstdio>
#include <sstream>

#include "kernels/kernels.hpp"

namespace perfbench {

namespace {

std::string num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

void loop_stat(std::ostringstream& os, const char* tag,
               const slc::sim::LoopStat& s) {
  os << tag << ' ' << s.modulo_scheduled << ' ' << s.ii << ' ' << s.res_mii
     << ' ' << s.rec_mii << ' ' << s.stages << ' ' << s.bundles_per_iter
     << ' ' << s.body_insts << ' ' << s.iterations << ' '
     << s.ims_fail_reason << '\n';
}

}  // namespace

std::string canonical_row(const slc::driver::ComparisonRow& r, bool timing) {
  std::ostringstream os;
  os << "kernel " << r.kernel << "\nsuite " << r.suite << "\napplied "
     << r.slms_applied << "\nskip " << r.slms_skip_reason << '\n';
  const slc::slms::SlmsReport& rep = r.report;
  os << "report " << rep.applied << ' ' << rep.skip_reason << '|'
     << rep.loop_name << '|' << rep.num_mis << ' ' << rep.ii << ' '
     << rep.stages << ' ' << rep.unroll << ' ' << rep.decompositions << ' '
     << rep.renamed_scalars << ' ' << rep.if_converted << ' '
     << rep.used_trip_guard << ' ' << num(rep.memory_ratio) << '\n';
  os << "ok " << r.ok << "\nerror " << r.error << "\ndegraded " << r.degraded
     << '\n';
  if (r.failure) {
    const slc::support::Failure& f = *r.failure;
    os << "failure " << slc::support::to_string(f.stage) << ' '
       << slc::support::to_string(f.kind) << ' ' << f.message << '|'
       << f.kernel << '|' << f.options << '|' << f.transient << '\n';
  }
  os << "cycles " << r.cycles_base << ' ' << r.cycles_slms << "\nenergy "
     << num(r.energy_base) << ' ' << num(r.energy_slms) << "\nmisses "
     << r.misses_base << ' ' << r.misses_slms << '\n';
  loop_stat(os, "loop_base", r.loop_base);
  loop_stat(os, "loop_slms", r.loop_slms);
  const slc::driver::ExactSummary& e = r.exact;
  os << "exact " << e.ran << ' ' << e.status << ' ' << e.ii << ' '
     << e.lower_bound << ' ' << e.heuristic_ii << ' ' << e.verified << ' '
     << e.with_resources << ' ' << e.steps << '\n';
  if (timing)
    os << "timing " << r.wall_ns << ' ' << r.transform_cached << ' '
       << e.solve_ns << '\n';
  return os.str();
}

std::string rows_digest(const std::vector<slc::driver::ComparisonRow>& rows) {
  std::string text;
  for (const auto& r : rows) text += canonical_row(r);
  return slc::kernels::source_hash(text);
}

double geomean_speedup(const std::vector<slc::driver::ComparisonRow>& rows) {
  double log_sum = 0.0;
  std::size_t n = 0;
  for (const auto& r : rows) {
    if (row_failed(r) || !r.slms_applied || r.cycles_slms == 0) continue;
    log_sum += std::log(r.speedup());
    ++n;
  }
  return n == 0 ? 1.0 : std::exp(log_sum / double(n));
}

std::string first_difference(const std::string& a, const std::string& b) {
  std::istringstream sa(a), sb(b);
  std::string la, lb;
  while (true) {
    bool ga = bool(std::getline(sa, la));
    bool gb = bool(std::getline(sb, lb));
    if (!ga && !gb) return "";
    if (!ga || !gb || la != lb) return "'" + la + "' vs '" + lb + "'";
  }
}

}  // namespace perfbench
