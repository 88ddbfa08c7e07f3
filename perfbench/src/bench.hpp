// ProxyGrid benchmark program: shared types.
//
// Every workload builds a real in-process grid through grid::GridBuilder
// (all links are in-process memory channels, never loopback TCP), warms it
// up, then measures windows of closed-loop operations:
//
//   --trace 0  --seconds split into untraced segments of kSegmentSeconds,
//              each on a freshly built grid; end-to-end metrics.
//   --trace 1  one grid: an untraced half then a traced half; per-layer
//              metrics come from the traced half, and the difference
//              between the two halves is the tracing overhead.
//
// Layers are measured from outside the program: spans around calls into
// public functions (trace.hpp) and diffs of the program's own instruments
// (probe.hpp) taken at the traced window's edges.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "grid/grid.hpp"
#include "probe.hpp"
#include "trace.hpp"

namespace pb {

using namespace pg;

/// Microseconds on the steady clock (the clock grid::WallClock also uses).
inline double now_us() {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// splitmix64 finaliser: the one mixing function every seeded input uses.
std::uint64_t mix(std::uint64_t x);

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
};

/// One op: when it started and how long it took, in microseconds. A failed
/// op's latency reads +infinity, so it misses every latency limit.
struct OpSample {
  double start_us = 0;
  double latency_us = 0;
};

/// One measured window of a run.
struct Window {
  bool traced = false;
  double seconds = 0;        // planned length
  double start_us = 0;       // actual start
  double elapsed_s = 0;      // actual length
  std::vector<OpSample> ops;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// Useful application payload bytes delivered by successful ops.
  double payload_bytes = 0;
  /// Layer counters at the window's edges (traced windows only).
  LayerProbe before;
  LayerProbe after;
  /// Highest resident memory and thread count sampled while it ran.
  double rss_peak_mib = 0;
  std::uint64_t threads_peak = 0;
  /// (time, cumulative steal seconds) samples taken while it ran.
  std::vector<std::pair<double, double>> steal;
};

/// Everything one run produces; main.cpp turns it into metrics.
struct RunResult {
  std::vector<double> setup_s;  // one per set-up repetition
  std::vector<Window> windows;
  std::vector<SpanRecord> spans;
  /// Corruption self-check: deliberately corrupted outputs injected during
  /// warm-up, and how many of them the output checks counted as failed.
  std::uint64_t corrupt_injected = 0;
  std::uint64_t corrupt_caught = 0;
  /// Outputs that failed their check outside the windows (warm-up and
  /// the ops still in flight when the last window closed).
  std::uint64_t warmup_failures = 0;
  /// A failure outside any op (grid build, app launch, placement).
  std::string fatal;
};

/// Splits the measurement into windows and moves through them by time.
/// One coordinating thread calls advance(); op threads read current(). A
/// sampler thread records memory, threads and steal while windows run, so
/// no op pays for reading /proc.
class Schedule {
 public:
  Schedule(const Options& options, RunResult& result);
  ~Schedule();
  Schedule(const Schedule&) = delete;
  Schedule& operator=(const Schedule&) = delete;

  /// Starts the first window now. `probe` snapshots layer counters; it is
  /// called at the edges of traced windows only.
  void start(const std::function<LayerProbe()>& probe);
  /// Moves to the next window when the current one is due to end; returns
  /// false once every window has ended.
  bool advance(const std::function<LayerProbe()>& probe);
  /// Index of the window now running, or -1 before start / after the end.
  int current() const { return current_.load(std::memory_order_acquire); }
  /// Seconds until the current window ends (0 when none runs).
  double remaining_s() const;
  /// Records spans while a traced window runs.
  Tracer& tracer() { return tracer_; }

 private:
  void open(std::size_t index, const std::function<LayerProbe()>& probe);
  void close(std::size_t index, const std::function<LayerProbe()>& probe);
  /// Adds one /proc sample to the window now running, if any.
  void sample();
  void sampler_loop();

  RunResult& result_;
  Tracer tracer_;
  std::atomic<int> current_{-1};
  double window_start_us_ = 0;

  std::mutex sample_mutex_;  // guards the windows' sampled fields
  std::condition_variable sampler_cv_;
  bool sampler_stop_ = false;
  std::thread sampler_;
};

/// Per-thread op recorder: buffers ops by window, merged once at the end.
class OpSink {
 public:
  explicit OpSink(std::size_t windows) : per_window_(windows) {}
  void record(int window, double start_us, double latency_us, bool ok,
              double payload_bytes);
  void merge_into(std::vector<Window>& windows) const;

 private:
  struct Part {
    std::vector<OpSample> ops;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    double payload_bytes = 0;
  };
  std::vector<Part> per_window_;
};

struct BuiltGrid {
  std::unique_ptr<grid::Grid> grid;  // null when set-up failed
  Bytes token;
};

/// Builds the grid `shape` describes kSetupRepetitions times, with distinct
/// seeds derived from `seed`, timing GridBuilder::build() plus the first
/// login each time (the set-up a deployment pays, at the builder's default
/// key size). Returns the last grid, still running, and its login token.
BuiltGrid timed_setup(const std::function<void(grid::GridBuilder&)>& shape,
                      const std::string& login_site, const std::string& user,
                      const std::string& password, std::uint64_t seed,
                      RunResult& result);

/// Runs one workload; fills `result`.
void run_mpi_pingpong(const Options& options, RunResult& result);
void run_mpi_halo_bulk(const Options& options, RunResult& result);
void run_grid_control(const Options& options, RunResult& result);
void run_link_churn(const Options& options, RunResult& result);

/// Warm-up length before the first window (fills status caches, the
/// sender-window RTO estimate and the resumption store).
constexpr double kWarmupSeconds = 0.5;
/// Set-up repetitions per segment; setup_s is the median over all of them.
constexpr int kSetupRepetitions = 3;
/// Length of one untraced segment (a fresh grid with its own warm-up).
constexpr double kSegmentSeconds = 5.0;

}  // namespace pb
