// The three sweep workloads: corpus_cold, registry_backends and
// native_cold. Untimed runs drive driver::compare_kernel (jobs=1) and
// driver::compare_kernels (jobs=par); traced runs alternate an untraced
// compare_kernel pass with the stage replay of replay.hpp.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <functional>
#include <map>
#include <sstream>

#include "bench.hpp"
#include "driver/journal.hpp"
#include "native/cache.hpp"
#include "native/oracle.hpp"
#include "replay.hpp"
#include "rows.hpp"

namespace perfbench {

namespace {

using slc::driver::Backend;
using slc::driver::ComparisonRow;
using slc::driver::CompareOptions;
using slc::kernels::Kernel;

struct Sweep {
  std::vector<Kernel> kernels;
  std::vector<Backend> backends;
  CompareOptions copts;
  bool native = false;
  std::string native_dir;  // parent of the per-pass codegen cache dirs
  /// One set-up: makes `kernels` and `backends` (and probes the host
  /// compiler for native). Sampled at the start and once per round.
  std::function<void(Sweep&)> setup;
  std::vector<double> setup_s;
  int cold_passes = 0;
  int par_repeats = 1;   // jobs=par samples per round
  int par_sweeps = 1;    // cold passes in one jobs=par sample
  int warm_repeats = 1;  // warm passes per round

  [[nodiscard]] std::size_t rows_per_pass() const {
    return kernels.size() * backends.size();
  }

  void sample_setup() {
    auto t0 = Clock::now();
    setup(*this);
    setup_s.push_back(ms_since(t0) / 1e3);
  }

  /// Empties every cache a cold pass must miss: the transform cache, and
  /// for native a fresh, empty codegen cache directory.
  void prepare_cold() {
    slc::driver::transform_cache_reset();
    if (!native) return;
    remove_tree(current_dir());
    ++cold_passes;
    make_dirs(current_dir());
    slc::native::CodegenCache::instance().set_cache_dir(current_dir());
  }
  /// A warm pass: corpus and registry keep the transform cache of the
  /// cold pass before; native drops its in-memory objects and the
  /// transform cache and runs on the filled disk store.
  void prepare_warm() {
    if (!native) return;
    slc::driver::transform_cache_reset();
    slc::native::CodegenCache::instance().set_cache_dir(current_dir());
  }
  void finish() {
    if (native) remove_tree(native_dir);
  }
  [[nodiscard]] std::string current_dir() const {
    return native_dir + "/pass" + std::to_string(cold_passes);
  }
};

std::vector<Backend> all_backends() {
  namespace d = slc::driver;
  return {d::weak_compiler_o0(),    d::weak_compiler_o3(),
          d::weak_compiler_sms(),   d::strong_compiler_icc(),
          d::strong_compiler_xlc(), d::superscalar_gcc(),
          d::superscalar_gcc_o0(),  d::arm_gcc()};
}

constexpr std::size_t kCorpusRows = 1000;
constexpr std::size_t kNativeRows = 12;
constexpr int kSetupSamples = 5;  // before the first round

Sweep corpus_sweep(const Options& opts) {
  Sweep s;
  s.setup = [seed = opts.seed](Sweep& w) {
    w.kernels = slc::kernels::generated_suite(kCorpusRows, seed);
    w.backends = {slc::driver::weak_compiler_o3()};
  };
  s.par_repeats = 2;
  s.copts.exact = true;
  return s;
}

Sweep registry_sweep(const Options& opts) {
  Sweep s;
  s.setup = [](Sweep& w) {
    w.kernels.clear();
    for (const char* suite : {"livermore", "linpack", "nas", "stone"})
      for (Kernel& k : slc::kernels::suite(suite))
        w.kernels.push_back(std::move(k));
    w.backends = all_backends();
  };
  // A jobs=par pass takes about 0.2 s: one sample is several passes.
  s.par_sweeps = 4;
  s.copts.sim_seed = opts.seed;
  return s;
}

Sweep native_sweep(const Options& opts) {
  Sweep s;
  s.native = true;
  s.native_dir = opts.work_dir + "/native";
  // A fixed kernel set keeps host-compiler cost comparable across seeds;
  // the seed picks the input data of the oracle and the simulator.
  s.setup = [](Sweep& w) {
    slc::native::CodegenCache::instance().set_host_cc("");
    (void)slc::native::native_available();
    w.kernels = slc::kernels::generated_suite(kNativeRows, 0);
    w.backends = {slc::driver::weak_compiler_o3()};
  };
  // One cold pass is few rows: repeat the short passes for samples.
  s.par_repeats = 2;
  s.warm_repeats = 10;
  s.copts.sim_seed = opts.seed;
  s.copts.oracle_mode = slc::native::OracleMode::Native;
  return s;
}

/// Serial pass through compare_kernel; `each` sees every row and its
/// client-side latency in ms.
double serial_pass(
    const Sweep& s,
    const std::function<void(ComparisonRow&&, double)>& each) {
  CompareOptions copts = s.copts;
  copts.jobs = 1;
  auto t0 = Clock::now();
  for (const Backend& b : s.backends)
    for (const Kernel& k : s.kernels) {
      auto r0 = Clock::now();
      ComparisonRow row = slc::driver::compare_kernel(k, b, copts);
      each(std::move(row), ms_since(r0));
    }
  return ms_since(t0);
}

std::vector<ComparisonRow> par_pass(const Sweep& s, int jobs, double* ms) {
  CompareOptions copts = s.copts;
  copts.jobs = jobs;
  std::vector<ComparisonRow> rows;
  auto t0 = Clock::now();
  for (const Backend& b : s.backends) {
    std::vector<ComparisonRow> part =
        slc::driver::compare_kernels(s.kernels, b, copts);
    for (ComparisonRow& r : part) rows.push_back(std::move(r));
  }
  *ms = ms_since(t0);
  return rows;
}

void check_rows(const std::vector<ComparisonRow>& rows, Outcome& out) {
  std::size_t gaps = 0, bad_gap = 0, bad_json = 0;
  for (const ComparisonRow& r : rows) {
    if (std::optional<int> gap = r.exact.gap(); gap && !r.exact.with_resources) {
      ++gaps;
      if (*gap < 0) ++bad_gap;
    }
    auto back = slc::driver::journal::row_from_json(
        slc::driver::journal::row_to_json(r));
    if (!back || canonical_row(*back, true) != canonical_row(r, true)) {
      if (bad_json == 0 && back)
        out.note("journal round trip differs on " + r.kernel + ": " +
                 first_difference(canonical_row(r, true),
                                  canonical_row(*back, true)));
      ++bad_json;
    }
  }
  out.check(bad_gap == 0, "exact gap >= 0 on all " + std::to_string(gaps) +
                              " examined loops (" + std::to_string(bad_gap) +
                              " negative)");
  out.check(bad_json == 0,
            "journal row_from_json(row_to_json(r)) == r for " +
                std::to_string(rows.size()) + " rows (" +
                std::to_string(bad_json) + " differ)");
}

void run_untraced(Sweep& s, const Options& opts, Outcome& out) {
  BestTimes cold, warm;
  std::vector<bool> cold_hit;  // row i hit the transform cache when cold
  std::vector<double> par_ms;
  std::vector<ComparisonRow> first_serial, first_par, first_warm;
  auto count = [&](const ComparisonRow& r) {
    ++out.attempted;
    if (row_failed(r)) ++out.failed;
  };
  int rounds = 0;
  auto start = Clock::now();
  for (; another_round(start, rounds, opts.seconds); ++rounds) {
    s.prepare_cold();
    std::size_t i = 0;
    (void)serial_pass(s, [&](ComparisonRow&& r, double ms) {
      count(r);
      cold.add(i++, ms);
      if (rounds > 0) return;
      cold_hit.push_back(!s.native && r.transform_cached);
      first_serial.push_back(std::move(r));
    });

    for (int rep = 0; rep < s.warm_repeats; ++rep) {
      s.prepare_warm();
      i = 0;
      (void)serial_pass(s, [&](ComparisonRow&& r, double ms) {
        count(r);
        warm.add(i++, ms);
        if (rounds == 0 && rep == 0) first_warm.push_back(std::move(r));
      });
    }

    for (int rep = 0; rep < s.par_repeats; ++rep) {
      double sample_ms = 0.0;
      for (int sweep = 0; sweep < s.par_sweeps; ++sweep) {
        s.prepare_cold();
        double ms = 0.0;
        std::vector<ComparisonRow> rows = par_pass(s, opts.par_jobs, &ms);
        for (const ComparisonRow& r : rows) count(r);
        sample_ms += ms;
        if (rounds == 0 && rep == 0 && sweep == 0) first_par = std::move(rows);
      }
      par_ms.push_back(sample_ms);
    }
    for (int k = 0; k < 3; ++k) s.sample_setup();
  }
  // Warm rows are served from the transform cache (native: from the
  // codegen disk store), so they are hits.
  std::vector<double> miss_ms, hit_ms = warm.ms;
  for (std::size_t i = 0; i < cold.ms.size(); ++i)
    (cold_hit[i] ? hit_ms : miss_ms).push_back(cold.ms[i]);
  double n = double(s.rows_per_pass());
  out.set("rows_per_s", n / (cold.total() / 1e3), "rows/s");
  out.set("rows_per_s_par",
          n * s.par_sweeps /
              (*std::min_element(par_ms.begin(), par_ms.end()) / 1e3),
          "rows/s");
  out.set("rows_per_s_warm", n / (warm.total() / 1e3), "rows/s");
  out.set("row_p50_ms", percentile(cold.ms, 0.50), "ms");
  out.set("row_p99_ms", percentile(cold.ms, 0.99), "ms");
  out.set("miss_p50_ms", percentile(miss_ms, 0.50), "ms");
  out.set("hit_p50_ms", percentile(hit_ms, 0.50), "ms");
  out.set("geomean_speedup", geomean_speedup(first_serial), "ratio");
  out.set("ok_ratio",
          1.0 - double(out.failed) /
                    double(std::max<std::uint64_t>(1, out.attempted)),
          "ratio");
  out.set("peak_rss_mb", self_peak_rss_mb(), "MiB");
  out.set("setup_s", median(s.setup_s), "s");
  out.note("samples: " + std::to_string(rounds) + " rounds of " +
           std::to_string(s.rows_per_pass()) + " rows; " +
           std::to_string(miss_ms.size()) + " miss rows, " +
           std::to_string(hit_ms.size()) + " hit rows");

  std::string d1 = rows_digest(first_serial), dp = rows_digest(first_par),
              dw = rows_digest(first_warm);
  out.note("row digest jobs=1 " + d1 + ", jobs=" +
           std::to_string(opts.par_jobs) + " " + dp + ", warm " + dw);
  out.check(d1 == dp, "row digest identical at jobs=1 and jobs=" +
                          std::to_string(opts.par_jobs));
  out.check(d1 == dw, "row digest identical on the cold and the warm pass");
  check_rows(first_serial, out);

  if (s.native) {
    // Same kernels through the interpreter oracle: every row must match.
    Sweep interp = s;
    interp.native = false;
    interp.copts.oracle_mode = slc::native::OracleMode::Interp;
    interp.prepare_cold();
    double ms = 0.0;
    std::vector<ComparisonRow> rows = par_pass(interp, opts.par_jobs, &ms);
    out.check(rows_digest(rows) == d1,
              "native_cold rows equal the interp rows for the same kernels");
    slc::native::OracleStats os = slc::native::oracle_stats();
    out.check(os.fallbacks == 0, "native oracle ran without interp fallback (" +
                                     std::to_string(os.fallbacks) +
                                     " fallbacks)");
  }
}

struct TracedPass {
  double wall_ms = 0.0;
  std::map<std::string, double> self_ms;
  double probe_sched_ms = 0.0, probe_ims_ms = 0.0;
  WorkCounters counters;
  slc::native::CacheStats native;
  std::uint64_t native_fallbacks = 0;
};

void run_traced(Sweep& s, const Options& opts, Outcome& out) {
  Tracer tracer;
  Replay replay(tracer, s.copts);
  std::vector<TracedPass> passes;
  std::vector<double> untraced_ms, encode_ms;
  slc::driver::TransformCacheStats cache_stats;
  std::size_t mismatched = 0, encoded_bytes = 0;
  auto& codegen = slc::native::CodegenCache::instance();

  auto start = Clock::now();
  for (int round = 0; another_round(start, round, opts.seconds); ++round) {
    // Untraced product pass: the reference rows and wall time.
    s.prepare_cold();
    std::vector<ComparisonRow> product;
    untraced_ms.push_back(serial_pass(s, [&](ComparisonRow&& r, double) {
      ++out.attempted;
      if (row_failed(r)) ++out.failed;
      product.push_back(std::move(r));
    }));
    if (round == 0) cache_stats = slc::driver::transform_cache_stats();
    {
      auto t0 = Clock::now();
      encoded_bytes = 0;
      for (const ComparisonRow& r : product)
        encoded_bytes += slc::driver::journal::row_to_json(r).dump().size();
      encode_ms.push_back(ms_since(t0));
    }

    // Traced replay pass over the same rows.
    s.prepare_cold();
    codegen.reset_stats();
    slc::native::reset_oracle_stats();
    replay.begin_pass();
    TracedPass pass;
    std::size_t first_span = tracer.spans().size();
    std::vector<ComparisonRow> replayed;
    replayed.reserve(product.size());
    auto t0 = Clock::now();
    for (const Backend& b : s.backends)
      for (const Kernel& k : s.kernels)
        replayed.push_back(replay.row(k, b, int(replayed.size())));
    pass.wall_ms = ms_since(t0);
    for (std::size_t i = 0; i < product.size(); ++i) {
      std::string want = canonical_row(product[i]);
      std::string got = canonical_row(replayed[i]);
      if (want == got) continue;
      if (mismatched++ == 0)
        out.note("replay differs from compare_kernel on " + product[i].kernel +
                 ": " + first_difference(want, got));
    }
    pass.self_ms = tracer.self_ms_by_name(first_span);
    pass.native = codegen.stats();
    pass.native_fallbacks = slc::native::oracle_stats().fallbacks;
    std::size_t probe_span = tracer.spans().size();
    replay.run_probes();
    std::map<std::string, double> probe = tracer.self_ms_by_name(probe_span);
    pass.probe_sched_ms = probe["machine.sched_probe"];
    pass.probe_ims_ms = probe["machine.ims_probe"];
    pass.counters = replay.counters();
    passes.push_back(std::move(pass));
  }
  out.note("journal encoding: " + std::to_string(encoded_bytes) +
           " bytes of row JSON per pass");

  out.check(mismatched == 0,
            "stage replay equals compare_kernel field by field on every row (" +
                std::to_string(mismatched) + " differ)");
  const WorkCounters& c = passes.front().counters;
  bool repeat = true;
  for (const TracedPass& p : passes) {
    const WorkCounters& o = p.counters;
    repeat = repeat && o.exact_counts() == c.exact_counts() &&
             o.sched_calls == c.sched_calls && o.ims_calls == c.ims_calls &&
             p.native.compiles == passes.front().native.compiles;
  }
  out.check(repeat, "exact work counters repeat on all " +
                        std::to_string(passes.size()) + " traced passes");
  out.check(c.exact_gap_negative == 0, "exact gap >= 0 in the replay");

  auto med = [&](const std::function<double(const TracedPass&)>& f) {
    std::vector<double> v;
    for (const TracedPass& p : passes) v.push_back(f(p));
    return median(v);
  };
  auto self = [&](const char* name) {
    return med([&](const TracedPass& p) {
      auto it = p.self_ms.find(name);
      return it == p.self_ms.end() ? 0.0 : it->second;
    });
  };
  // Layer shares of the traced pass, and what the spans cover.
  const std::vector<std::pair<std::string, std::vector<const char*>>>
      layers = {{"frontend", {"frontend.parse"}},
                {"slms", {"slms.clone", "slms.apply"}},
                {"verify", {"verify.transformed"}},
                {"interp", {"interp.oracle"}},
                {"native", {"native.oracle"}},
                {"machine.lower", {"machine.lower"}},
                {"sim", {"sim.simulate"}},
                {"exact", {"exact.solve"}}};
  std::map<std::string, double> layer_ms;
  for (const auto& [layer, names] : layers)
    for (const char* n : names) layer_ms[layer] += self(n);
  double wall = med([](const TracedPass& p) { return p.wall_ms; });
  double covered = 0.0;
  std::ostringstream shares;
  for (const auto& [layer, ms] : layer_ms) {
    covered += ms;
    char buf[64];
    std::snprintf(buf, sizeof buf, " %s=%.1f%%", layer.c_str(),
                  100.0 * ms / wall);
    shares << buf;
  }
  out.note("layer self-time shares of the traced pass:" + shares.str());
  out.note("exact counters: " + c.exact_counts() +
           " driver.cache_hits=" + std::to_string(cache_stats.hits) +
           " driver.cache_misses=" + std::to_string(cache_stats.misses) +
           " native.compiles=" + std::to_string(passes.front().native.compiles) +
           " service.child_spawns=0");

  double n = double(s.rows_per_pass());
  const auto& nat = passes.front().native;
  out.set("kernels.gen_ms", median(s.setup_s) * 1e3, "ms");
  out.set("frontend.parse_ms", self("frontend.parse"), "ms");
  out.set("frontend.calls", double(c.parse_calls), "count");
  out.set("frontend.bytes", double(c.parse_bytes), "bytes");
  out.set("slms.ms", self("slms.clone") + self("slms.apply"), "ms");
  out.set("slms.loops", double(c.slms_loops), "count");
  out.set("slms.applied_ratio",
          c.slms_loops ? double(c.slms_applied) / double(c.slms_loops) : 0.0,
          "ratio");
  out.set("slms.mis", double(c.slms_mis), "count");
  out.set("slms.ii_sum", double(c.slms_ii_sum), "count");
  out.set("verify.ms", self("verify.transformed"), "ms");
  out.set("verify.calls", double(c.verify_calls), "count");
  out.set("verify.rejects", double(c.verify_rejects), "count");
  out.set("interp.ms", self("interp.oracle"), "ms");
  out.set("interp.runs", double(c.interp_runs), "count");
  out.set("interp.steps", double(c.interp_steps), "count");
  out.set("native.ms", self("native.oracle"), "ms");
  out.set("native.compiles", double(nat.compiles), "count");
  out.set("native.hit_ratio", nat.hit_rate(), "ratio");
  out.set("native.fallbacks", double(passes.front().native_fallbacks), "count");
  out.set("machine.lower_ms", self("machine.lower"), "ms");
  out.set("machine.mir_insts", double(c.mir_insts), "count");
  out.set("machine.sched_ms",
          med([](const TracedPass& p) { return p.probe_sched_ms; }), "ms");
  out.set("machine.sched_calls", double(c.sched_calls), "count");
  out.set("machine.ims_ms",
          med([](const TracedPass& p) { return p.probe_ims_ms; }), "ms");
  out.set("machine.ims_calls", double(c.ims_calls), "count");
  out.set("machine.block_reuse_ratio",
          c.sched_calls ? 1.0 - double(c.probe_distinct) / double(c.sched_calls)
                        : 0.0,
          "ratio");
  out.set("sim.ms", self("sim.simulate"), "ms");
  out.set("sim.calls", double(c.sim_calls), "count");
  out.set("sim.instructions", double(c.sim_instructions), "count");
  out.set("sim.cycles", double(c.sim_cycles), "count");
  out.set("exact.ms", self("exact.solve"), "ms");
  out.set("exact.solves", double(c.exact_solves), "count");
  out.set("exact.steps", double(c.exact_steps), "count");
  out.set("exact.optimal", double(c.exact_optimal), "count");
  out.set("exact.gap_nonzero", double(c.exact_gap_nonzero), "count");
  out.set("driver.cache_hits", double(cache_stats.hits), "count");
  out.set("driver.cache_misses", double(cache_stats.misses), "count");
  out.set("driver.journal_encode_ms", median(encode_ms), "ms");
  out.set("trace.coverage", covered / wall, "ratio");
  out.set("trace.overhead_ratio", wall / median(untraced_ms), "ratio");
  out.set("trace.pass_ms", wall, "ms");
  out.set("trace.rows", n, "count");
  for (const auto& [layer, ms] : layer_ms)
    out.set(layer + (layer.find('.') == std::string::npos ? ".share" : "_share"),
            ms / wall, "ratio");

  if (!opts.trace_out.empty()) {
    out.check(tracer.write_chrome(opts.trace_out),
              "trace written to " + opts.trace_out);
  }
}

void run_sweep(Sweep s, const Options& opts, Outcome& out) {
  for (int i = 0; i < kSetupSamples; ++i) s.sample_setup();
  if (opts.trace)
    run_traced(s, opts, out);
  else
    run_untraced(s, opts, out);
  s.finish();
}

}  // namespace

void run_corpus_cold(const Options& opts, Outcome& out) {
  run_sweep(corpus_sweep(opts), opts, out);
}

void run_registry_backends(const Options& opts, Outcome& out) {
  run_sweep(registry_sweep(opts), opts, out);
}

void run_native_cold(const Options& opts, Outcome& out) {
  Sweep s = native_sweep(opts);
  if (!slc::native::native_available()) {
    out.check(false, "native_cold needs a host C compiler");
    return;
  }
  run_sweep(std::move(s), opts, out);
}

}  // namespace perfbench
