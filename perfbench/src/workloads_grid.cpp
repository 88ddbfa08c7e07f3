// Control-plane workloads: the proxy as a grid service, data plane idle.
//
//   grid_control  site0 (2 proxy shards x 4 nodes), site1 and site2 (2
//                 nodes each). Three users run sessions of one login then
//                 8-24 requests in seeded order: a 2-rank no-op job
//                 (submit_job + wait_job at the shard Grid::shard_for
//                 picks) or, one time in eight, Grid::status of all sites.
//                 Op = request.
//   link_churn    4 sites x 1 node, full mesh. Each op kills one link in
//                 seeded pair order, waits until both proxies see it dead,
//                 and times reconnect_link (a resumed GSSL handshake).
#include <algorithm>
#include <set>
#include <thread>

#include "bench.hpp"
#include "mpi/runtime.hpp"

namespace pb {

namespace {

constexpr int kUsers = 3;
constexpr TimeMicros kWaitBudget = 30 * kMicrosPerSecond;

/// Deterministic per-thread draw stream.
class Draws {
 public:
  explicit Draws(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next() { return state_ = mix(state_); }

 private:
  std::uint64_t state_;
};

bool job_ok(const Result<proxy::JobRecord>& record, std::uint32_t ranks) {
  return record.is_ok() &&
         record.value().state == proxy::JobState::kSucceeded &&
         record.value().outcome.is_ok() &&
         record.value().placements.size() == ranks;
}

/// Every proxy of the grid (each shard included) must answer.
bool status_ok(const Result<std::vector<proto::StatusReport>>& reports,
               const std::set<std::string>& expected) {
  if (!reports.is_ok()) return false;
  std::set<std::string> seen;
  for (const auto& report : reports.value()) seen.insert(report.site);
  return seen == expected;
}

void sleep_us(double micros) {
  std::this_thread::sleep_for(
      std::chrono::microseconds(static_cast<std::int64_t>(micros)));
}

struct ControlSamples {
  std::mutex mutex;
  bool have_job = false;
  Result<proxy::JobRecord> job = error(ErrorCode::kInternal, "unset");
  bool have_status = false;
  Result<std::vector<proto::StatusReport>> status =
      error(ErrorCode::kInternal, "unset");
};

}  // namespace

void run_grid_control(const Options& options, RunResult& result) {
  static const bool registered = [] {
    mpi::AppRegistry::instance().register_app(
        "pb.noop", [](mpi::Comm&) { return Status::ok(); });
    return true;
  }();
  (void)registered;

  const auto user_name = [](int u) { return "u" + std::to_string(u); };
  const auto password = [](int u) { return "pw-u" + std::to_string(u); };
  BuiltGrid built = timed_setup(
      [&](grid::GridBuilder& builder) {
        builder.add_site("site0", 2);
        builder.add_nodes("site0", 4);
        for (const char* site : {"site1", "site2"}) {
          builder.add_site(site);
          builder.add_nodes(site, 2);
        }
        for (int u = 0; u < kUsers; ++u) {
          builder.add_user(user_name(u), password(u),
                           {"mpi.run", "status.query", "job.submit"});
        }
      },
      "site0", user_name(0), password(0), options.seed, result);
  if (!built.grid) return;
  grid::Grid& grid = *built.grid;
  const std::vector<std::string> proxy_ids = grid.sites();
  const std::set<std::string> all_sites(proxy_ids.begin(), proxy_ids.end());

  Schedule schedule(options, result);
  Tracer& tracer = schedule.tracer();
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> warmup_failures{0};
  ControlSamples samples;
  std::vector<OpSink> sinks(kUsers, OpSink(result.windows.size()));

  const auto user_loop = [&](int u) {
    const std::string user = user_name(u);
    Draws draws(
        mix(options.seed ^ (0xc0117e0ULL + static_cast<std::uint64_t>(u))));
    std::uint64_t next_op = static_cast<std::uint64_t>(u) << 40;
    std::uint64_t request = 0;
    const std::string home = grid.shard_for("site0", user);
    while (!stop.load(std::memory_order_acquire)) {
      Result<Bytes> token = error(ErrorCode::kInternal, "unset");
      {
        Span span(tracer, "auth.login", next_op);
        token = grid.login(home, user, password(u));
      }
      if (!token.is_ok()) {
        const int window = schedule.current();
        if (window < 0) warmup_failures.fetch_add(1);
        sinks[u].record(window, now_us(), 0, false, 0);
        continue;
      }
      const std::uint64_t session_length = 8 + draws.next() % 17;
      for (std::uint64_t k = 0;
           k < session_length && !stop.load(std::memory_order_acquire); ++k) {
        const bool status_request = draws.next() % 8 == 0;
        const std::uint64_t op_id = next_op++;
        const int window = schedule.current();
        const double start = now_us();
        bool ok = false;
        {
          Span op(tracer, "op", op_id);
          if (status_request) {
            Result<std::vector<proto::StatusReport>> reports =
                error(ErrorCode::kInternal, "unset");
            {
              Span span(tracer, "monitor.status", op_id, op.id());
              reports = grid.status(home, token.value(), {});
            }
            ok = status_ok(reports, all_sites);
            std::lock_guard<std::mutex> lock(samples.mutex);
            if (ok && !samples.have_status) {
              samples.status = std::move(reports);
              samples.have_status = true;
            }
          } else {
            const std::string shard = grid.shard_for(
                "site0", user + "/" + std::to_string(request++));
            proxy::ProxyServer& proxy = grid.proxy(shard);
            Result<std::uint64_t> id = error(ErrorCode::kInternal, "unset");
            {
              Span span(tracer, "job.submit", op_id, op.id());
              id = proxy.submit_job(user, token.value(), "pb.noop", 2,
                                    sched::Policy::kLoadBalanced);
            }
            Result<proxy::JobRecord> record =
                error(ErrorCode::kInternal, "unset");
            if (id.is_ok()) {
              Span span(tracer, "job.wait", op_id, op.id());
              record = proxy.wait_job(id.value(), kWaitBudget);
            }
            ok = job_ok(record, 2);
            if (ok && tracer.active()) {
              // The job manager's own timestamps (steady clock, like
              // now_us) split the request into queueing and running.
              const proxy::JobRecord& rec = record.value();
              tracer.end(tracer.begin(), "job.queue_wait", op_id, op.id(),
                         static_cast<double>(rec.submitted_at),
                         static_cast<double>(rec.started_at));
              tracer.end(tracer.begin(), "job.run", op_id, op.id(),
                         static_cast<double>(rec.started_at),
                         static_cast<double>(rec.finished_at));
            }
            std::lock_guard<std::mutex> lock(samples.mutex);
            if (ok && !samples.have_job) {
              samples.job = std::move(record);
              samples.have_job = true;
            }
          }
        }
        const double latency = now_us() - start;
        if (!ok && window < 0) warmup_failures.fetch_add(1);
        sinks[u].record(window, start, latency, ok, 0);
      }
    }
  };

  std::vector<std::thread> users;
  for (int u = 0; u < kUsers; ++u) users.emplace_back(user_loop, u);

  // Warm-up fills the status caches of every shard and the job path.
  sleep_us(kWarmupSeconds * 1e6);
  {
    // Self-check: corrupted copies of real outputs must fail the checks.
    std::lock_guard<std::mutex> lock(samples.mutex);
    if (samples.have_job) {
      Result<proxy::JobRecord> failed_job = samples.job;
      failed_job.value().state = proxy::JobState::kFailed;
      Result<proxy::JobRecord> short_job = samples.job;
      short_job.value().placements.pop_back();
      result.corrupt_injected += 2;
      result.corrupt_caught += !job_ok(failed_job, 2);
      result.corrupt_caught += !job_ok(short_job, 2);
    }
    if (samples.have_status) {
      Result<std::vector<proto::StatusReport>> partial = samples.status;
      partial.value().pop_back();
      ++result.corrupt_injected;
      result.corrupt_caught += !status_ok(partial, all_sites);
    }
    if (!samples.have_job || !samples.have_status)
      result.fatal = "warm-up produced no job or status sample";
  }
  const auto probe = [&grid] { return take_probe(grid); };
  schedule.start(probe);
  while (schedule.advance(probe)) {
    sleep_us(std::min(schedule.remaining_s() * 1e6, 5000.0) + 1);
  }
  stop.store(true, std::memory_order_release);
  for (auto& t : users) t.join();
  for (const OpSink& sink : sinks) sink.merge_into(result.windows);
  result.warmup_failures += warmup_failures.load();
  grid.shutdown();
}

void run_link_churn(const Options& options, RunResult& result) {
  const std::vector<std::string> sites = {"site0", "site1", "site2", "site3"};
  BuiltGrid built = timed_setup(
      [&](grid::GridBuilder& builder) {
        for (const auto& site : sites) {
          builder.add_site(site);
          builder.add_nodes(site, 1);
        }
        builder.add_user("pb", "pw", {"status.query"});
      },
      "site0", "pb", "pw", options.seed, result);
  if (!built.grid) return;
  grid::Grid& grid = *built.grid;

  std::vector<std::pair<std::string, std::string>> pairs;
  for (std::size_t i = 0; i < sites.size(); ++i) {
    for (std::size_t j = i + 1; j < sites.size(); ++j)
      pairs.emplace_back(sites[i], sites[j]);
  }
  Draws draws(mix(options.seed ^ 0x11c4u));
  std::vector<std::size_t> order;
  std::size_t cursor = 0;
  // Each round visits every pair once, in a seeded order.
  const auto next_pair = [&]() -> const std::pair<std::string, std::string>& {
    if (cursor == order.size()) {
      order.resize(pairs.size());
      for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
      for (std::size_t i = order.size(); i > 1; --i)
        std::swap(order[i - 1], order[draws.next() % i]);
      cursor = 0;
    }
    return pairs[order[cursor++]];
  };
  const auto both_alive = [&grid](const std::string& a, const std::string& b) {
    return grid.proxy(a).peer_alive(b) && grid.proxy(b).peer_alive(a);
  };
  // Waits (bounded) until neither side still sees the killed link alive.
  const auto await_down = [&grid](const std::string& a, const std::string& b) {
    const double deadline = now_us() + 5e6;
    while (grid.proxy(a).peer_alive(b) || grid.proxy(b).peer_alive(a)) {
      if (now_us() > deadline) return false;
      std::this_thread::yield();
    }
    return true;
  };

  Schedule schedule(options, result);
  Tracer& tracer = schedule.tracer();
  OpSink sink(result.windows.size());
  const auto probe = [&grid] { return take_probe(grid); };
  const double warm_start = now_us();
  bool started = false;
  std::uint64_t warm_ops = 0;
  for (std::uint64_t op_id = 0;; ++op_id) {
    if (!started) {
      // Warm-up covers every pair at least once, so each link has
      // resumed from a stored ticket before the window opens.
      if (warm_ops >= pairs.size() &&
          now_us() - warm_start >= kWarmupSeconds * 1e6) {
        // Self-check: a killed, not reconnected link must fail the check.
        const auto& [a, b] = next_pair();
        grid.kill_link(a, b);
        const bool down = await_down(a, b);
        ++result.corrupt_injected;
        result.corrupt_caught += down && !both_alive(a, b);
        if (!grid.reconnect_link(a, b).is_ok() || !both_alive(a, b))
          ++result.warmup_failures;
        schedule.start(probe);
        started = true;
      }
    } else if (!schedule.advance(probe)) {
      break;
    }
    const int window = schedule.current();
    const auto& [a, b] = next_pair();
    double start = 0;
    double latency = 0;
    bool ok = false;
    {
      Span op(tracer, "op", op_id);
      {
        Span span(tracer, "grid.kill_link", op_id, op.id());
        grid.kill_link(a, b);
      }
      bool down = false;
      {
        Span span(tracer, "link.await_down", op_id, op.id());
        down = await_down(a, b);
      }
      Status reconnected;
      start = now_us();
      {
        Span span(tracer, "grid.reconnect", op_id, op.id());
        reconnected = grid.reconnect_link(a, b);
      }
      latency = now_us() - start;
      Span span(tracer, "link.check", op_id, op.id());
      ok = down && reconnected.is_ok() && both_alive(a, b);
    }
    if (!ok && window < 0) ++result.warmup_failures;
    sink.record(window, start, latency, ok, 0);
    ++warm_ops;
  }
  sink.merge_into(result.windows);
  grid.shutdown();
}

}  // namespace pb
