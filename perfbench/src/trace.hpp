// Benchmark-side spans: one record per call into a layer's public
// function, kept in memory and written out when the run ends.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace pb {

struct SpanRecord {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  // 0 = root
  std::uint64_t op = 0;      // spans of one op share this
  const char* name = "";     // static string
  double start_us = 0;
  double end_us = 0;
};

class Tracer {
 public:
  /// Spans are recorded only while `active` reads true; the schedule
  /// switches it on for the traced window.
  void set_active(bool active) {
    active_.store(active, std::memory_order_release);
  }
  bool active() const { return active_.load(std::memory_order_acquire); }

  /// Opens a span; returns its id (0 when inactive, which records nothing).
  std::uint64_t begin() {
    return active() ? next_id_.fetch_add(1, std::memory_order_relaxed) : 0;
  }
  /// Records a finished span opened by begin(), or one whose interval was
  /// measured elsewhere (e.g. job timestamps) when `id` is fresh.
  void end(std::uint64_t id, const char* name, std::uint64_t op,
           std::uint64_t parent, double start_us, double end_us);

  std::vector<SpanRecord> take();

 private:
  std::atomic<bool> active_{false};
  std::atomic<std::uint64_t> next_id_{1};
  std::mutex mutex_;
  std::vector<SpanRecord> spans_;
};

/// A tracer that is never switched on, for threads whose spans are not
/// recorded.
Tracer& idle_tracer();

/// RAII span over a call; free when the tracer is inactive.
class Span {
 public:
  Span(Tracer& tracer, const char* name, std::uint64_t op,
       std::uint64_t parent = 0);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  std::uint64_t id() const { return id_; }

 private:
  Tracer& tracer_;
  const char* name_;
  std::uint64_t op_;
  std::uint64_t parent_;
  std::uint64_t id_;
  double start_us_ = 0;
};

/// Per span name: total self time (duration minus the part of it that its
/// children cover) and the number of spans.
struct SelfTime {
  double self_us = 0;
  double total_us = 0;
  std::uint64_t count = 0;
};
std::map<std::string, SelfTime> self_times(
    const std::vector<SpanRecord>& spans);

/// Writes spans as JSON lines ({"id","parent","op","name","start_us",
/// "end_us"}); returns false when the file cannot be written.
bool write_spans(const std::string& path,
                 const std::vector<SpanRecord>& spans);

}  // namespace pb
