// MPI workloads: the data plane through the border proxies.
//
//   mpi_pingpong   2 sites x 1 node, ranks 0<->1, 64 B, one round trip
//                  outstanding; op = round trip. Per-message cost dominates.
//   mpi_halo_bulk  2 sites x 2 nodes, 4-rank ring; each step every rank
//                  sends a 64 KiB halo to both neighbours, receives both,
//                  then allreduces; op = step, timed on rank 0 until its
//                  allreduce returns. Per-byte cost dominates.
//
// Both run inside one Grid::run_app launch of a registered application;
// rank 0 coordinates the windows. The ranks are threads of this process,
// so the harness stops them through shared memory (last_step), never
// through the data path it measures.
//
// mpi_halo_bulk is not listed in BENCHMARK.json: on the current data plane
// it stalls within a few thousand steps, every rank blocked in allreduce
// while a ~45-byte batch stays in the proxy's sender window, unacked and no
// longer retransmitted, until run_app's deadline fails the run. Run it with
// `proxygrid_bench --workload mpi_halo_bulk` to reproduce.
#include <algorithm>
#include <cstring>
#include <set>

#include "bench.hpp"
#include "mpi/runtime.hpp"

namespace pb {

namespace {

/// Seeded payloads: the bytes of (rank, key) are a 12-byte header naming
/// them, then a body drawn from a seeded pool by a hash of (rank, key).
/// Receivers compare every byte without materialising the expected copy.
class PayloadBook {
 public:
  PayloadBook(std::uint64_t seed, std::size_t bytes)
      : seed_(seed), bytes_(bytes) {
    for (std::size_t i = 0; i < kPool; ++i) {
      Bytes entry(bytes);
      std::uint64_t state = mix(seed ^ (0xb0d1e5ULL + i));
      for (std::size_t off = 0; off < bytes; off += 8) {
        state = mix(state);
        std::memcpy(entry.data() + off, &state,
                    std::min<std::size_t>(8, bytes - off));
      }
      pool_.push_back(std::move(entry));
    }
  }

  void fill(std::uint32_t rank, std::uint64_t key, Bytes& out) const {
    out.resize(bytes_);
    std::memcpy(out.data(), &rank, 4);
    std::memcpy(out.data() + 4, &key, 8);
    std::memcpy(out.data() + kHeader, body(rank, key) + kHeader,
                bytes_ - kHeader);
  }

  bool check(std::uint32_t rank, std::uint64_t key, BytesView in) const {
    if (in.size() != bytes_) return false;
    std::uint32_t got_rank = 0;
    std::uint64_t got_key = 0;
    std::memcpy(&got_rank, in.data(), 4);
    std::memcpy(&got_key, in.data() + 4, 8);
    return got_rank == rank && got_key == key &&
           std::memcmp(in.data() + kHeader, body(rank, key) + kHeader,
                       bytes_ - kHeader) == 0;
  }

  /// Flips one seeded byte: the self-check's deliberately corrupted output.
  void corrupt(std::uint64_t key, Bytes& payload) const {
    payload[mix(seed_ ^ key) % payload.size()] ^= 0x5a;
  }

 private:
  static constexpr std::size_t kPool = 8;
  static constexpr std::size_t kHeader = 12;

  const std::uint8_t* body(std::uint32_t rank, std::uint64_t key) const {
    return pool_[mix(seed_ ^ mix((std::uint64_t{rank} << 48) ^ key)) % kPool]
        .data();
  }

  std::uint64_t seed_;
  std::size_t bytes_;
  std::vector<Bytes> pool_;
};

/// State shared by the ranks of one benchmark launch.
struct MpiJob {
  MpiJob(const Options& opts, Schedule& sched, grid::Grid& g,
         std::size_t payload_bytes)
      : options(opts), schedule(sched), grid(g),
        book(mix(opts.seed ^ 0x9a710adULL), payload_bytes) {}

  const Options& options;
  Schedule& schedule;
  grid::Grid& grid;
  PayloadBook book;
  /// Warm-up steps whose output is corrupted on purpose (self-check).
  std::set<std::uint64_t> corrupt_steps{3, 7};
  /// Set by rank 0 before it sends the final step's first message.
  std::atomic<std::int64_t> last_step{-1};

  std::mutex fail_mutex;
  std::set<std::uint64_t> failed_steps;

  struct OpRecord {
    std::uint64_t step = 0;
    int window = -1;
    double start_us = 0;
    double latency_us = 0;
  };
  std::vector<OpRecord> ops;  // rank 0 only

  void fail(std::uint64_t step) {
    std::lock_guard<std::mutex> lock(fail_mutex);
    failed_steps.insert(step);
  }
  bool is_last(std::uint64_t step) const {
    return last_step.load(std::memory_order_acquire) ==
           static_cast<std::int64_t>(step);
  }
  LayerProbe probe() const { return take_probe(grid); }
};

MpiJob* g_job = nullptr;

constexpr std::uint32_t kPingTag = 7;
constexpr std::uint32_t kLeftTag = 1;
constexpr std::uint32_t kRightTag = 2;
constexpr std::size_t kPingBytes = 64;
constexpr std::size_t kHaloBytes = 64 * 1024;
constexpr std::uint64_t kMinWarmupSteps = 16;

/// Rank 0's per-step bookkeeping: warm-up, window moves, the stop flag.
/// Returns the window the step belongs to (-1 = warm-up) and sets `last`.
int begin_step(MpiJob& job, std::uint64_t step, double warm_start_us,
               bool& started, bool& last) {
  const auto probe = [&job] { return job.probe(); };
  last = false;
  if (!started) {
    if (step >= kMinWarmupSteps &&
        now_us() - warm_start_us >= kWarmupSeconds * 1e6) {
      job.schedule.start(probe);
      started = true;
    }
  } else if (!job.schedule.advance(probe)) {
    last = true;
    job.last_step.store(static_cast<std::int64_t>(step),
                        std::memory_order_release);
  }
  return job.schedule.current();
}

Status pingpong_app(mpi::Comm& comm) {
  MpiJob& job = *g_job;
  Tracer& tracer = job.schedule.tracer();
  Bytes buf;
  if (comm.rank() == 0) {
    const double warm_start = now_us();
    bool started = false;
    for (std::uint64_t step = 0;; ++step) {
      bool last = false;
      const int window = begin_step(job, step, warm_start, started, last);
      const double start = now_us();
      bool ok = false;
      {
        Span op(tracer, "op", step);
        job.book.fill(0, step, buf);
        Status sent;
        {
          Span span(tracer, "mpi.send", step, op.id());
          sent = comm.send(1, kPingTag, buf);
        }
        if (!sent.is_ok()) return sent;
        Result<Bytes> echo = error(ErrorCode::kInternal, "unset");
        {
          Span span(tracer, "mpi.recv_wait", step, op.id());
          echo = comm.recv(1, kPingTag);
        }
        if (!echo.is_ok()) return echo.status();
        ok = job.book.check(0, step, echo.value());
      }
      const double latency = now_us() - start;
      if (!ok) job.fail(step);
      if (window >= 0) job.ops.push_back({step, window, start, latency});
      if (last) return Status::ok();
    }
  }
  if (comm.rank() == 1) {
    for (std::uint64_t step = 0;; ++step) {
      Result<Bytes> ping = comm.recv(0, kPingTag);
      if (!ping.is_ok()) return ping.status();
      Bytes echo = ping.take();
      if (!job.book.check(0, step, echo)) job.fail(step);
      if (job.corrupt_steps.count(step) > 0) job.book.corrupt(step, echo);
      PG_RETURN_IF_ERROR(comm.send(0, kPingTag, echo));
      if (job.is_last(step)) return Status::ok();
    }
  }
  return Status::ok();
}

Status halo_app(mpi::Comm& comm) {
  MpiJob& job = *g_job;
  Tracer& tracer = job.schedule.tracer();
  const std::uint32_t rank = comm.rank();
  const std::uint32_t size = comm.size();
  const std::uint32_t left = (rank + size - 1) % size;
  const std::uint32_t right = (rank + 1) % size;
  const bool root = rank == 0;
  Bytes to_left;
  Bytes to_right;
  const double warm_start = now_us();
  bool started = false;
  for (std::uint64_t step = 0;; ++step) {
    bool last = false;
    const int window =
        root ? begin_step(job, step, warm_start, started, last) : -1;
    const double start = now_us();
    bool ok = true;
    {
      // Only rank 0 records spans: the op is timed there.
      Tracer& t = root ? tracer : idle_tracer();
      Span op(t, "op", step);
      job.book.fill(rank, step * 2, to_left);
      job.book.fill(rank, step * 2 + 1, to_right);
      if (rank == 2 && job.corrupt_steps.count(step) > 0)
        job.book.corrupt(step, to_right);
      {
        Span span(t, "mpi.send", step, op.id());
        PG_RETURN_IF_ERROR(comm.send(left, kLeftTag, to_left));
        PG_RETURN_IF_ERROR(comm.send(right, kRightTag, to_right));
      }
      Result<Bytes> from_right = error(ErrorCode::kInternal, "unset");
      Result<Bytes> from_left = error(ErrorCode::kInternal, "unset");
      {
        Span span(t, "mpi.recv_wait", step, op.id());
        from_right = comm.recv(static_cast<std::int32_t>(right), kLeftTag);
        if (!from_right.is_ok()) return from_right.status();
        from_left = comm.recv(static_cast<std::int32_t>(left), kRightTag);
        if (!from_left.is_ok()) return from_left.status();
      }
      ok = job.book.check(right, step * 2, from_right.value()) &&
           job.book.check(left, step * 2 + 1, from_left.value());
      Result<double> total = error(ErrorCode::kInternal, "unset");
      {
        Span span(t, "mpi.allreduce", step, op.id());
        total = comm.allreduce(1.0, mpi::ReduceOp::kSum);
      }
      if (!total.is_ok()) return total.status();
      ok = ok && total.value() == static_cast<double>(size);
    }
    const double latency = now_us() - start;
    if (!ok) job.fail(step);
    if (root && window >= 0) job.ops.push_back({step, window, start, latency});
    if (job.is_last(step)) return Status::ok();
  }
}

void register_apps() {
  static const bool done = [] {
    mpi::AppRegistry::instance().register_app("pb.pingpong", pingpong_app);
    mpi::AppRegistry::instance().register_app("pb.halo", halo_app);
    return true;
  }();
  (void)done;
}

void run_mpi(const Options& options, RunResult& result,
             std::size_t nodes_per_site, std::uint32_t ranks,
             std::size_t payload_bytes, double bytes_per_op,
             const std::string& app) {
  register_apps();
  BuiltGrid built = timed_setup(
      [nodes_per_site](grid::GridBuilder& builder) {
        for (const char* site : {"site0", "site1"}) {
          builder.add_site(site);
          builder.add_nodes(site, nodes_per_site);
        }
        builder.add_user("pb", "pw", {"mpi.run", "status.query"});
      },
      "site0", "pb", "pw", options.seed, result);
  if (!built.grid) return;

  Schedule schedule(options, result);
  MpiJob job(options, schedule, *built.grid, payload_bytes);
  g_job = &job;
  // Round-robin fills nodes in (site, node) order, so rank 0 sits at site0
  // and every ring or ping-pong pair includes a cross-site hop.
  const proxy::AppRunResult run =
      built.grid->run_app("site0", "pb", built.token, app, ranks,
                          grid::SchedulerPolicy::kRoundRobin);
  g_job = nullptr;
  built.grid->shutdown();

  if (!run.status.is_ok()) {
    result.fatal = app + " failed: " + run.status.to_string();
    return;
  }
  std::set<std::string> sites;
  std::set<std::string> nodes;
  for (const auto& placement : run.placements) {
    sites.insert(placement.site);
    nodes.insert(placement.site + "/" + placement.node);
  }
  if (run.placements.size() != ranks || sites.size() != 2 ||
      nodes.size() != ranks) {
    result.fatal = app + " was not placed one rank per node across both sites";
    return;
  }

  OpSink sink(result.windows.size());
  for (const auto& op : job.ops) {
    sink.record(op.window, op.start_us, op.latency_us,
                job.failed_steps.count(op.step) == 0, bytes_per_op);
  }
  sink.merge_into(result.windows);
  result.corrupt_injected = job.corrupt_steps.size();
  for (const std::uint64_t step : job.failed_steps) {
    if (job.corrupt_steps.count(step) > 0) {
      ++result.corrupt_caught;
    } else if (job.ops.empty() || step < job.ops.front().step) {
      ++result.warmup_failures;
    }
  }
}

}  // namespace

void run_mpi_pingpong(const Options& options, RunResult& result) {
  // Ping and echo each deliver the 64 B payload.
  run_mpi(options, result, 1, 2, kPingBytes, 2.0 * kPingBytes, "pb.pingpong");
}

void run_mpi_halo_bulk(const Options& options, RunResult& result) {
  // Every rank receives two 64 KiB halos per step; the allreduce's eight
  // bytes per rank are not counted as payload.
  run_mpi(options, result, 2, 4, kHaloBytes, 4.0 * 2.0 * kHaloBytes,
          "pb.halo");
}

}  // namespace pb
