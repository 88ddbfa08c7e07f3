#include "trace.hpp"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <unordered_map>

#include "bench.hpp"

namespace pb {

void Tracer::end(std::uint64_t id, const char* name, std::uint64_t op,
                 std::uint64_t parent, double start_us, double end_us) {
  if (id == 0) return;
  std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back(SpanRecord{id, parent, op, name, start_us, end_us});
}

std::vector<SpanRecord> Tracer::take() {
  std::lock_guard<std::mutex> lock(mutex_);
  return std::move(spans_);
}

Tracer& idle_tracer() {
  static Tracer tracer;
  return tracer;
}

Span::Span(Tracer& tracer, const char* name, std::uint64_t op,
           std::uint64_t parent)
    : tracer_(tracer), name_(name), op_(op), parent_(parent),
      id_(tracer.begin()) {
  if (id_ != 0) start_us_ = now_us();
}

Span::~Span() {
  if (id_ != 0) tracer_.end(id_, name_, op_, parent_, start_us_, now_us());
}

std::map<std::string, SelfTime> self_times(
    const std::vector<SpanRecord>& spans) {
  std::unordered_map<std::uint64_t, std::vector<const SpanRecord*>> children;
  for (const SpanRecord& span : spans) {
    if (span.parent != 0) children[span.parent].push_back(&span);
  }
  std::map<std::string, SelfTime> out;
  std::vector<std::pair<double, double>> covered;
  for (const SpanRecord& span : spans) {
    // Union of the children's intervals clipped to this span, so children
    // that overlap one another are not subtracted twice.
    covered.clear();
    const auto it = children.find(span.id);
    if (it != children.end()) {
      for (const SpanRecord* child : it->second) {
        const double lo = std::max(child->start_us, span.start_us);
        const double hi = std::min(child->end_us, span.end_us);
        if (hi > lo) covered.emplace_back(lo, hi);
      }
    }
    std::sort(covered.begin(), covered.end());
    double covered_us = 0;
    double reach = span.start_us;
    for (const auto& [lo, hi] : covered) {
      const double from = std::max(lo, reach);
      if (hi > from) covered_us += hi - from;
      reach = std::max(reach, hi);
    }
    SelfTime& entry = out[span.name];
    const double duration = span.end_us - span.start_us;
    entry.total_us += duration;
    entry.self_us += duration - covered_us;
    ++entry.count;
  }
  return out;
}

bool write_spans(const std::string& path,
                 const std::vector<SpanRecord>& spans) {
  std::ofstream out(path);
  if (!out) return false;
  char line[256];
  for (const SpanRecord& span : spans) {
    std::snprintf(line, sizeof line,
                  "{\"id\":%llu,\"parent\":%llu,\"op\":%llu,\"name\":\"%s\","
                  "\"start_us\":%.3f,\"end_us\":%.3f}\n",
                  static_cast<unsigned long long>(span.id),
                  static_cast<unsigned long long>(span.parent),
                  static_cast<unsigned long long>(span.op), span.name,
                  span.start_us, span.end_us);
    out << line;
  }
  return static_cast<bool>(out);
}

}  // namespace pb
