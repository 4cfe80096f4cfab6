#include "trace.hpp"

#include <fstream>

#include "support/json.hpp"

namespace perfbench {

namespace {

/// The layer of a span name: everything before the first '.'.
std::string layer_of(const std::string& span_name) {
  return span_name.substr(0, span_name.find('.'));
}

}  // namespace

Tracer::Tracer() : origin_(Clock::now()) {}

std::int64_t Tracer::now_ns() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              origin_)
      .count();
}

int Tracer::begin(const char* name) {
  Span s;
  s.name = name;
  s.parent = open_.empty() ? -1 : open_.back();
  s.row = row_;
  s.lane = lane_;
  s.start_ns = now_ns();
  spans_.push_back(s);
  open_.push_back(int(spans_.size()) - 1);
  return open_.back();
}

void Tracer::end(int span) {
  spans_[std::size_t(span)].end_ns = now_ns();
  if (!open_.empty() && open_.back() == span) open_.pop_back();
}

void Tracer::add(const char* name, Clock::time_point start,
                 Clock::time_point end, int row, int lane) {
  auto ns = [&](Clock::time_point t) {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(t - origin_)
        .count();
  };
  Span s;
  s.name = name;
  s.start_ns = ns(start);
  s.end_ns = ns(end);
  s.row = row;
  s.lane = lane;
  spans_.push_back(s);
}

std::map<std::string, double> Tracer::self_ms_by_name(std::size_t from) const {
  std::vector<std::int64_t> self(spans_.size(), 0);
  for (std::size_t i = from; i < spans_.size(); ++i)
    self[i] += spans_[i].end_ns - spans_[i].start_ns;
  for (std::size_t i = from; i < spans_.size(); ++i) {
    int p = spans_[i].parent;
    if (p >= int(from)) self[std::size_t(p)] -= spans_[i].end_ns - spans_[i].start_ns;
  }
  std::map<std::string, double> out;
  for (std::size_t i = from; i < spans_.size(); ++i)
    out[spans_[i].name] += double(self[i]) / 1e6;
  return out;
}

bool Tracer::write_chrome(const std::string& path) const {
  using slc::support::json::Value;
  std::ofstream os(path);
  if (!os) return false;
  os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    Value ev = Value::object();
    ev.set("name", Value::string(s.name));
    ev.set("cat", Value::string(layer_of(s.name)));
    ev.set("ph", Value::string("X"));
    ev.set("ts", Value::number(double(s.start_ns) / 1e3));
    ev.set("dur", Value::number(double(s.end_ns - s.start_ns) / 1e3));
    ev.set("pid", Value::number(1));
    ev.set("tid", Value::number(s.lane));
    Value args = Value::object();
    args.set("row", Value::number(s.row));
    args.set("parent", Value::number(s.parent));
    ev.set("args", std::move(args));
    os << ev.dump() << (i + 1 < spans_.size() ? ",\n" : "\n");
  }
  os << "]}\n";
  return bool(os);
}

}  // namespace perfbench
