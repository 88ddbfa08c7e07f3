#include <algorithm>
#include <limits>

#include "bench.hpp"

namespace pb {

std::uint64_t mix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

// ------------------------------------------------------------- Schedule

Schedule::Schedule(const Options& options, RunResult& result)
    : result_(result) {
  if (options.trace) {
    result_.windows.resize(2);
    result_.windows[0].seconds = options.seconds / 2;
    result_.windows[1].seconds = options.seconds / 2;
    result_.windows[1].traced = true;
  } else {
    result_.windows.resize(1);
    result_.windows[0].seconds = options.seconds;
  }
  sampler_ = std::thread([this] { sampler_loop(); });
}

Schedule::~Schedule() {
  {
    std::lock_guard<std::mutex> lock(sample_mutex_);
    sampler_stop_ = true;
  }
  sampler_cv_.notify_all();
  sampler_.join();
}

void Schedule::sampler_loop() {
  std::unique_lock<std::mutex> lock(sample_mutex_);
  while (!sampler_cv_.wait_for(lock, std::chrono::milliseconds(20),
                               [this] { return sampler_stop_; })) {
    lock.unlock();
    sample();
    lock.lock();
  }
}

void Schedule::sample() {
  const int index = current();
  if (index < 0) return;
  const ProcSample now = sample_proc();
  const double at = now_us();
  std::lock_guard<std::mutex> lock(sample_mutex_);
  Window& window = result_.windows[static_cast<std::size_t>(index)];
  window.rss_peak_mib = std::max(window.rss_peak_mib, now.rss_mib);
  window.threads_peak = std::max(window.threads_peak, now.threads);
  window.steal.emplace_back(at, now.steal_s);
}

void Schedule::start(const std::function<LayerProbe()>& probe) {
  open(0, probe);
}

bool Schedule::advance(const std::function<LayerProbe()>& probe) {
  const int index = current();
  if (index < 0) return false;
  Window& window = result_.windows[static_cast<std::size_t>(index)];
  const double now = now_us();
  if (now - window_start_us_ < window.seconds * 1e6) return true;
  close(static_cast<std::size_t>(index), probe);
  if (static_cast<std::size_t>(index) + 1 < result_.windows.size()) {
    open(static_cast<std::size_t>(index) + 1, probe);
    return true;
  }
  return false;
}

double Schedule::remaining_s() const {
  const int index = current();
  if (index < 0) return 0;
  const double left =
      result_.windows[static_cast<std::size_t>(index)].seconds -
      (now_us() - window_start_us_) / 1e6;
  return left > 0 ? left : 0;
}

void Schedule::open(std::size_t index,
                    const std::function<LayerProbe()>& probe) {
  Window& window = result_.windows[index];
  if (window.traced) {
    window.before = probe();
    tracer_.set_active(true);
  }
  window_start_us_ = now_us();
  window.start_us = window_start_us_;
  current_.store(static_cast<int>(index), std::memory_order_release);
  sample();
}

void Schedule::close(std::size_t index,
                     const std::function<LayerProbe()>& probe) {
  sample();
  current_.store(-1, std::memory_order_release);
  Window& window = result_.windows[index];
  window.elapsed_s = (now_us() - window_start_us_) / 1e6;
  if (window.traced) {
    tracer_.set_active(false);
    window.after = probe();
    std::vector<SpanRecord> spans = tracer_.take();
    result_.spans.insert(result_.spans.end(), spans.begin(), spans.end());
  }
}

// --------------------------------------------------------------- OpSink

void OpSink::record(int window, double start_us, double latency_us, bool ok,
                    double payload_bytes) {
  if (window < 0) return;
  Part& part = per_window_[static_cast<std::size_t>(window)];
  ++part.attempted;
  if (ok) {
    part.ops.push_back({start_us, latency_us});
    part.payload_bytes += payload_bytes;
  } else {
    ++part.failed;
    part.ops.push_back({start_us, std::numeric_limits<double>::infinity()});
  }
}

void OpSink::merge_into(std::vector<Window>& windows) const {
  for (std::size_t i = 0; i < per_window_.size() && i < windows.size(); ++i) {
    const Part& part = per_window_[i];
    Window& window = windows[i];
    window.ops.insert(window.ops.end(), part.ops.begin(), part.ops.end());
    window.attempted += part.attempted;
    window.failed += part.failed;
    window.payload_bytes += part.payload_bytes;
  }
}

// ---------------------------------------------------------------- set-up

BuiltGrid timed_setup(const std::function<void(grid::GridBuilder&)>& shape,
                      const std::string& login_site, const std::string& user,
                      const std::string& password, std::uint64_t seed,
                      RunResult& result) {
  BuiltGrid out;
  for (int rep = 0; rep < kSetupRepetitions; ++rep) {
    if (out.grid) {
      out.grid->shutdown();
      out.grid.reset();
    }
    grid::GridBuilder builder;
    builder.seed(mix(seed * 1000 + static_cast<std::uint64_t>(rep)));
    shape(builder);
    const double start = now_us();
    auto built = builder.build();
    if (!built.is_ok()) {
      result.fatal = "grid build failed: " + built.status().to_string();
      return {};
    }
    std::unique_ptr<grid::Grid> grid = built.take();
    auto token = grid->login(login_site, user, password);
    const double end = now_us();
    if (!token.is_ok()) {
      grid->shutdown();
      result.fatal = "first login failed: " + token.status().to_string();
      return {};
    }
    result.setup_s.push_back((end - start) / 1e6);
    out.grid = std::move(grid);
    out.token = token.take();
  }
  return out;
}

}  // namespace pb
