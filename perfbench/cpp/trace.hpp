// In-memory span recorder for the traced run. Spans are recorded from
// the benchmark's own code around its calls into each layer, kept in
// memory, and written at the end as Chrome trace-event JSON (open the
// file in chrome://tracing or https://ui.perfetto.dev).
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "bench.hpp"

namespace perfbench {

struct Span {
  const char* name = "";  // "<layer>.<call>", a string literal
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  int parent = -1;  // index of the enclosing span, -1 at top level
  int row = -1;     // row (or request) id the span belongs to
  int lane = 0;     // Chrome "tid": 0 replay, 1 probes, 2+ connections
};

class Tracer {
 public:
  Tracer();

  /// Opens a span nested in the innermost open span; returns its index.
  int begin(const char* name);
  void end(int span);
  /// Records an already-measured span (used by client threads, which
  /// time their own requests and hand the span over afterwards).
  void add(const char* name, Clock::time_point start, Clock::time_point end,
           int row, int lane);

  void set_row(int row) { row_ = row; }
  void set_lane(int lane) { lane_ = lane; }
  [[nodiscard]] std::int64_t now_ns() const;
  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

  /// Self time (span minus the part its child spans cover) summed per
  /// span name, over the spans recorded at or after index `from`.
  [[nodiscard]] std::map<std::string, double> self_ms_by_name(
      std::size_t from = 0) const;

  /// Chrome trace-event JSON ("X" complete events, microseconds).
  bool write_chrome(const std::string& path) const;

  class Scope {
   public:
    Scope(Tracer& t, const char* name) : t_(t), id_(t.begin(name)) {}
    ~Scope() { t_.end(id_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer& t_;
    int id_;
  };

 private:
  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<int> open_;
  int row_ = -1;
  int lane_ = 0;
};

}  // namespace perfbench
