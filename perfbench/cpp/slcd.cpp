// The slcd_mixed workload: a live `slcd --workers=2` with a cache
// journal, driven closed-loop over its NDJSON socket by this process.
// Three request classes, drawn from a seeded stream: compile misses
// (sandboxed child slc, cache insert, journal append), compile hits (a
// repeat of an earlier miss) and in-process lint.
//
// The seed fixes one request script per connection and phase. Every
// round starts a fresh daemon with an empty cache and journal and plays
// the same scripts, so every round does the same work from the same
// state: each miss meets a kernel the daemon has not seen, and the cache
// and journal grow the same way in every round. Each request's fastest
// round then drops transient contention on a shared host, and the child
// spawns and journal appends per round are exact counts.
//
// No record of real slcd traffic exists to take the mix from. A mixed
// script holds exactly a third of each class, so each class gets the
// same number of samples and every seed does the same amount of each
// kind of work. The per-class latencies are the primary figures; the
// mixed rates hold only for this assumed mix.
#include <fcntl.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <fstream>
#include <mutex>
#include <optional>
#include <sstream>
#include <thread>

#include "bench.hpp"
#include "kernels/kernels.hpp"
#include "service/protocol.hpp"
#include "service/socket.hpp"
#include "support/subprocess.hpp"
#include "trace.hpp"

namespace perfbench {

namespace {

namespace service = slc::service;
using service::Request;
using service::Response;

constexpr std::uint64_t kFirstKernel = 1'000'000;  // past any corpus index
constexpr std::size_t kMixed = 150;    // requests per mixed script
constexpr std::size_t kHitsOnly = 1000;
constexpr std::size_t kSample = 12;    // misses re-run through slc directly

struct Daemon {
  pid_t pid = -1;
  std::string dir;
  std::string socket;
};

class Conn {
 public:
  explicit Conn(const std::string& socket) {
    std::string err;
    fd_ = service::socket::connect_unix(socket, &err);
    if (fd_ >= 0) reader_.emplace(fd_);
  }
  ~Conn() {
    if (fd_ >= 0) ::close(fd_);
  }
  Conn(const Conn&) = delete;
  Conn& operator=(const Conn&) = delete;
  [[nodiscard]] bool ok() const { return fd_ >= 0; }

  std::optional<Response> call(Request req) {
    req.id = next_id_++;
    if (fd_ < 0 ||
        !service::socket::write_all(fd_, service::to_json(req).dump() + "\n"))
      return std::nullopt;
    std::string line;
    if (!reader_->next_line(&line)) return std::nullopt;
    return service::parse_response_line(line);
  }

 private:
  int fd_ = -1;
  std::optional<service::socket::LineReader> reader_;
  std::uint64_t next_id_ = 1;
};

std::uint64_t splitmix(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

Daemon start_daemon(const Options& opts, const std::string& dir) {
  make_dirs(dir);
  Daemon d;
  d.dir = dir;
  d.socket = dir + "/slcd.sock";
  std::string slcd = opts.bin_dir + "/slcd";
  std::vector<std::string> argv = {
      slcd, "--socket=" + d.socket, "--workers=2",
      "--cache-journal=" + dir + "/cache.jsonl", "--slc=" + opts.bin_dir + "/slc"};
  std::string log = dir + "/slcd.log";
  std::vector<char*> args;
  for (std::string& a : argv) args.push_back(a.data());
  args.push_back(nullptr);
  d.pid = ::fork();
  if (d.pid == 0) {
    int fd = ::open(log.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (fd >= 0) {
      ::dup2(fd, 1);
      ::dup2(fd, 2);
    }
    ::execv(args[0], args.data());
    ::_exit(127);
  }
  return d;
}

/// Waits until the daemon answers `ping`; false after 10 s.
bool await_ping(const Daemon& d) {
  auto t0 = Clock::now();
  while (ms_since(t0) < 10'000) {
    Conn c(d.socket);
    if (c.ok()) {
      Request ping;
      ping.method = "ping";
      if (auto r = c.call(ping); r && r->status == service::Status::Ok)
        return true;
    }
    int status = 0;
    if (::waitpid(d.pid, &status, WNOHANG) == d.pid) return false;
    ::usleep(200);
  }
  return false;
}

/// Graceful drain through a `shutdown` request, SIGKILL after 10 s;
/// always reaps the process.
void stop_daemon(Daemon& d) {
  if (d.pid <= 0) return;
  {
    Conn c(d.socket);
    Request req;
    req.method = "shutdown";
    if (c.ok()) (void)c.call(req);
  }
  auto t0 = Clock::now();
  int status = 0;
  while (::waitpid(d.pid, &status, WNOHANG) == 0) {
    if (ms_since(t0) > 10'000) {
      ::kill(d.pid, SIGKILL);
      ::waitpid(d.pid, &status, 0);
      break;
    }
    // slcd's accept loop sees the stop flag when its poll returns, which
    // is otherwise its 200 ms timeout; a connection wakes it at once.
    Conn wake(d.socket);
    ::usleep(1000);
  }
  d.pid = -1;
}

double vm_hwm_mb(pid_t pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/status");
  std::string line;
  while (std::getline(in, line))
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;
  return 0.0;
}

std::optional<slc::support::json::Value> stats_of(const Daemon& d) {
  Conn c(d.socket);
  Request req;
  req.method = "stats";
  auto r = c.call(req);
  if (!r || r->status != service::Status::Ok) return std::nullopt;
  return slc::support::json::parse(r->out);
}

std::uint64_t stat_u64(const slc::support::json::Value& v, const char* key,
                       const char* sub = nullptr) {
  const slc::support::json::Value* f = v.find(key);
  if (f != nullptr && sub != nullptr) f = f->find(sub);
  return f == nullptr ? 0 : f->as_u64();
}

enum class Kind { Miss, Hit, Lint };
const char* span_name(Kind k) {
  switch (k) {
    case Kind::Miss: return "service.compile_miss";
    case Kind::Hit: return "service.compile_hit";
    case Kind::Lint: return "service.lint";
  }
  return "";
}

struct Script {
  std::vector<Kind> kinds;
  std::vector<Request> requests;
};

/// A script: a third of the requests are misses, a third hits and a
/// third lint (or all hits, for a hits-only script). The class order is
/// drawn from `order_rng`, which does not depend on the workload seed:
/// the time of a request depends on the requests before it, so every
/// seed plays the same order. The script's misses compile the next
/// kernels of a fixed sequence and are appended to `made`; its j-th lint
/// checks the program of its j-th miss (lint runs in-process and never
/// touches the cache). Hits repeat a pick, drawn from `rng`, of
/// `targets`, misses answered before the script starts, or else of the
/// script's own earlier misses. So every seed compiles and lints the
/// same programs in the same order; the seed picks the hit targets and
/// the input data.
Script make_script(std::uint64_t order_rng, std::uint64_t rng, std::size_t n,
                   bool hits_only,
                   const std::vector<Request>& targets,
                   std::vector<Request>& made, std::uint64_t& next_kernel,
                   std::uint64_t seed) {
  std::vector<Kind> kinds(n, Kind::Hit);
  std::vector<Request> compiles;
  if (!hits_only) {
    for (std::size_t k = 0; k < n; ++k) kinds[k] = Kind(k % 3);
    for (std::size_t k = n; k > 1; --k)
      std::swap(kinds[k - 1], kinds[splitmix(order_rng) % k]);
    // A script with no earlier misses to target opens with a miss.
    if (targets.empty())
      std::swap(kinds[0],
                *std::find(kinds.begin(), kinds.end(), Kind::Miss));
    for (std::size_t j = 0; j < (n + 2) / 3; ++j) {
      Request r;
      r.args = {"--measure=gcc-o3", "--report",
                "--seed=" + std::to_string(seed)};
      r.source = slc::kernels::generated_kernel(next_kernel++, 0).source;
      compiles.push_back(std::move(r));
    }
  }
  Script sc;
  std::size_t misses = 0, lints = 0;
  for (std::size_t k = 0; k < n; ++k) {
    Kind kind = kinds[k];
    Request r;
    if (kind == Kind::Miss) {
      r = compiles[misses++];
      made.push_back(r);
    } else if (kind == Kind::Lint) {
      r.method = "lint";
      r.source = compiles[lints++].source;
    } else if (!targets.empty()) {
      r = targets[splitmix(rng) % targets.size()];
    } else {
      r = compiles[splitmix(rng) % misses];
    }
    sc.kinds.push_back(kind);
    sc.requests.push_back(std::move(r));
  }
  return sc;
}

struct Tally {
  std::uint64_t requests = 0, failed = 0;
  std::vector<double> waits;  // round trip minus the server's wall_ns
  std::vector<Response> first_misses;
  std::mutex mu;
};

/// Plays one script closed-loop on a fresh connection: the next request
/// goes out when the previous answer is in. Returns the phase wall ms.
double play(const Daemon& d, const Script& sc, BestTimes* best, Tally& tally,
            Tracer* tracer, int lane, bool keep_misses) {
  Conn conn(d.socket);
  std::vector<double> ms(sc.requests.size(), 0.0);
  std::vector<double> waits;
  std::uint64_t failed = 0;
  std::vector<Response> misses;
  std::vector<Span> spans;
  auto start = Clock::now();
  for (std::size_t i = 0; i < sc.requests.size(); ++i) {
    Kind kind = sc.kinds[i];
    auto t0 = Clock::now();
    std::optional<Response> resp = conn.call(sc.requests[i]);
    auto t1 = Clock::now();
    ms[i] = ms_between(t0, t1);
    bool ok = resp && resp->status == service::Status::Ok &&
              (kind == Kind::Lint ? resp->exit_code <= 1
                                  : resp->exit_code == 0);
    if (!ok) ++failed;
    if (!resp) continue;
    waits.push_back(ms[i] - double(resp->wall_ns) / 1e6);
    if (keep_misses && kind == Kind::Miss && misses.size() < kSample)
      misses.push_back(*resp);
    if (tracer != nullptr) {
      std::lock_guard<std::mutex> lock(tally.mu);
      tracer->add(span_name(kind), t0, t1, int(i), lane);
    }
  }
  double wall = ms_since(start);
  std::lock_guard<std::mutex> lock(tally.mu);
  tally.requests += sc.requests.size();
  tally.failed += failed;
  tally.waits.insert(tally.waits.end(), waits.begin(), waits.end());
  if (keep_misses) tally.first_misses = std::move(misses);
  if (best != nullptr)
    for (std::size_t i = 0; i < ms.size(); ++i) best->add(i, ms[i]);
  return wall;
}

/// Geometric mean of base/SLMS cycles over the answers where SLMS applied.
double geomean_from_reports(const std::vector<Response>& answers) {
  double log_sum = 0.0;
  int n = 0;
  for (const Response& resp : answers) {
    // slc --report writes the decision and the cycle counts to stderr.
    if (resp.err.find("SLMS applied") == std::string::npos) continue;
    std::istringstream is(resp.err);
    std::string line;
    while (std::getline(is, line)) {
      std::size_t at = line.find(": ");
      std::size_t arrow = line.find(" -> ");
      if (line.rfind("cycles on ", 0) != 0 || at == std::string::npos ||
          arrow == std::string::npos)
        continue;
      double base = std::stod(line.substr(at + 2, arrow - at - 2));
      double slms = std::stod(line.substr(arrow + 4));
      if (base > 0 && slms > 0) {
        log_sum += std::log(base / slms);
        ++n;
      }
    }
  }
  return n == 0 ? 1.0 : std::exp(log_sum / n);
}

}  // namespace

void run_slcd_mixed(const Options& opts, Outcome& out) {
  std::string root = opts.work_dir + "/slcd";
  remove_tree(root);

  // The scripts: one connection mixed, two connections mixed, one
  // connection hits only. Hits in the two-connection and hits-only
  // scripts repeat misses of the scripts before them.
  std::uint64_t next_kernel = kFirstKernel;
  std::vector<Request> serial_misses, par_misses, unused;
  std::uint64_t base = opts.seed * 0x9e3779b97f4a7c15ULL;
  auto t_gen = Clock::now();
  Script serial = make_script(1, base + 1, kMixed, false, {}, serial_misses,
                              next_kernel, opts.seed);
  Script par_a = make_script(2, base + 2, kMixed, false, serial_misses,
                             par_misses, next_kernel, opts.seed);
  Script par_b = make_script(3, base + 3, kMixed, false, serial_misses,
                             par_misses, next_kernel, opts.seed);
  std::vector<Request> all_misses = serial_misses;
  all_misses.insert(all_misses.end(), par_misses.begin(), par_misses.end());
  Script warm = make_script(4, base + 4, kHitsOnly, true, all_misses, unused,
                            next_kernel, opts.seed);
  double gen_ms = ms_since(t_gen);
  std::uint64_t misses_per_round = all_misses.size();

  Tracer tracer;
  Tracer* tr = opts.trace ? &tracer : nullptr;
  Tally tally;
  BestTimes serial_best, warm_best;
  std::vector<double> par_ms, setups, rss;
  std::uint64_t spawns = 0, hits = 0, misses = 0, shed = 0, retries = 0,
                append_failures = 0, appends = 0;
  bool stats_ok = true;
  int rounds = 0;
  auto start = Clock::now();
  for (; another_round(start, rounds, opts.seconds); ++rounds) {
    // Set-up: daemon start to the first answered ping.
    auto t0 = Clock::now();
    Daemon daemon = start_daemon(opts, root + "/d" + std::to_string(rounds));
    bool up = await_ping(daemon);
    setups.push_back(ms_since(t0) / 1e3);
    if (!up) {
      stop_daemon(daemon);
      out.check(false, "slcd answers ping within 10 s");
      remove_tree(root);
      return;
    }

    play(daemon, serial, &serial_best, tally, tr, 2, rounds == 0);
    auto t_par = Clock::now();
    std::thread other([&] { play(daemon, par_b, nullptr, tally, tr, 3, false); });
    play(daemon, par_a, nullptr, tally, tr, 2, false);
    other.join();
    par_ms.push_back(ms_since(t_par));
    play(daemon, warm, &warm_best, tally, tr, 2, false);

    std::optional<slc::support::json::Value> stats = stats_of(daemon);
    rss.push_back(vm_hwm_mb(daemon.pid));
    stop_daemon(daemon);
    if (stats) {
      spawns += stat_u64(*stats, "child_spawns");
      hits += stat_u64(*stats, "cache", "hits");
      misses += stat_u64(*stats, "cache", "misses");
      shed += stat_u64(*stats, "shed");
      retries += stat_u64(*stats, "retries");
      append_failures += stat_u64(*stats, "cache", "append_failures");
    } else {
      stats_ok = false;
    }
    // Every miss appends one framed record to the cache journal.
    std::ifstream journal(daemon.dir + "/cache.jsonl");
    for (std::string line; std::getline(journal, line);) ++appends;
  }
  out.attempted = tally.requests;
  out.failed = tally.failed;

  // The first compile answers must match slc run directly.
  std::size_t mismatched = 0;
  std::size_t sampled = std::min(kSample, tally.first_misses.size());
  for (std::size_t i = 0; i < sampled; ++i) {
    const Request& req = serial_misses[i];
    const Response& resp = tally.first_misses[i];
    slc::support::subprocess::RunOptions ro;
    ro.argv = {opts.bin_dir + "/slc"};
    for (const std::string& a : req.args) ro.argv.push_back(a);
    ro.argv.push_back("-");
    ro.stdin_text = req.source;
    ro.timeout_ms = 30'000;
    slc::support::subprocess::RunResult direct =
        slc::support::subprocess::run(ro);
    if (!direct.spawned || direct.out != resp.out || direct.err != resp.err ||
        direct.exit_code != resp.exit_code)
      ++mismatched;
  }
  out.check(sampled == kSample && mismatched == 0,
            std::to_string(sampled) +
                " slcd compile answers byte-identical to slc run directly (" +
                std::to_string(mismatched) + " differ)");
  out.check(stats_ok, "slcd stats readable");
  std::uint64_t want = misses_per_round * std::uint64_t(rounds);
  out.check(spawns == want && appends == want,
            "one child spawn and one journal append per miss: " +
                std::to_string(spawns) + " spawns, " +
                std::to_string(appends) + " appends over " +
                std::to_string(rounds) + " rounds of " +
                std::to_string(misses_per_round) + " misses");

  std::vector<double> miss_ms, hit_ms = warm_best.ms;
  for (std::size_t i = 0; i < serial_best.ms.size(); ++i) {
    if (serial.kinds[i] == Kind::Miss) miss_ms.push_back(serial_best.ms[i]);
    if (serial.kinds[i] == Kind::Hit) hit_ms.push_back(serial_best.ms[i]);
  }
  out.note("samples: " + std::to_string(rounds) + " rounds of " +
           std::to_string(kMixed) + " + 2x" + std::to_string(kMixed) + " + " +
           std::to_string(kHitsOnly) + " requests; " +
           std::to_string(miss_ms.size()) + " miss and " +
           std::to_string(hit_ms.size()) + " hit positions");
  std::uint64_t per_round = std::uint64_t(rounds);
  out.note("exact counters: service.child_spawns=" +
           std::to_string(spawns / per_round) +
           " per round, io.journal_appends=" +
           std::to_string(appends / per_round) + " per round");

  if (!opts.trace) {
    out.set("rows_per_s", double(kMixed) / (serial_best.total() / 1e3),
            "rows/s");
    out.set("rows_per_s_par",
            2.0 * double(kMixed) /
                (*std::min_element(par_ms.begin(), par_ms.end()) / 1e3),
            "rows/s");
    out.set("rows_per_s_warm", double(kHitsOnly) / (warm_best.total() / 1e3),
            "rows/s");
    out.set("row_p50_ms", percentile(serial_best.ms, 0.50), "ms");
    out.set("row_p99_ms", percentile(serial_best.ms, 0.99), "ms");
    out.set("miss_p50_ms", percentile(miss_ms, 0.50), "ms");
    out.set("hit_p50_ms", percentile(hit_ms, 0.50), "ms");
    out.set("geomean_speedup", geomean_from_reports(tally.first_misses),
            "ratio");
    out.set("ok_ratio",
            1.0 - double(out.failed) /
                      double(std::max<std::uint64_t>(1, out.attempted)),
            "ratio");
    out.set("peak_rss_mb", median(rss), "MiB");
    out.set("setup_s", median(setups), "s");
  } else {
    out.set("kernels.gen_ms", gen_ms, "ms");
    out.set("service.child_spawns", double(spawns / per_round), "count");
    out.set("service.cache_hit_ratio",
            hits + misses ? double(hits) / double(hits + misses) : 0.0,
            "ratio");
    out.set("service.shed", double(shed), "count");
    out.set("service.retries", double(retries), "count");
    out.set("service.wait_ms", median(tally.waits), "ms");
    out.set("io.journal_appends", double(appends / per_round), "count");
    out.set("io.append_failures", double(append_failures), "count");
    if (!opts.trace_out.empty())
      out.check(tracer.write_chrome(opts.trace_out),
                "trace written to " + opts.trace_out);
  }
  remove_tree(root);
}

}  // namespace perfbench
