// proxygrid_bench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                 [--trace-out <file>]
//
// Runs one workload and prints, line by line, the host fingerprint, the
// windows, the self-check and every metric with its unit; the last line is
// one JSON object {"correct","attempted","failed","metrics"} holding every
// metric the run computed. perfbench/run.py selects the ones
// BENCHMARK.json names. Exit status is 0 only when every output checked
// out.
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <iostream>
#include <limits>
#include <map>
#include <string>

#include "bench.hpp"

namespace pb {
namespace {

struct Metric {
  double value = 0;
  std::string unit;
};
using Metrics = std::map<std::string, Metric>;

/// Nearest-rank quantile of `values` (sorted in place).
double quantile(std::vector<double>& values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const std::size_t rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(values.size())));
  return values[std::clamp<std::size_t>(rank, 1, values.size()) - 1];
}

double median(std::vector<double> values) { return quantile(values, 0.5); }

struct EndToEnd {
  double p50 = 0;
  double p99 = 0;
  double ops_per_s = 0;
  double goodput = 0;
  std::size_t samples = 0;
  double steal_pct = 0;  // CPU time the hypervisor withheld, all slices
};

/// Length of the slices each window is cut into.
constexpr double kSliceSeconds = 1.0;

/// Steal seconds a window's samples show between two instants.
double steal_between(const Window& window, double from_us, double to_us) {
  const auto at = [&window](double t) {
    double value = window.steal.empty() ? 0 : window.steal.front().second;
    for (const auto& [time, steal] : window.steal) {
      if (time > t) break;
      value = steal;
    }
    return value;
  };
  return at(to_us) - at(from_us);
}

/// End-to-end statistics over the slices of all windows. Only the half of
/// the slices in which the hypervisor withheld the least CPU time (steal)
/// count, and p50 and ops/s are medians over them: on a shared host a
/// burst of other tenants' load would otherwise set the result, and one
/// segment's thread placement still moves it little. p99 is taken over
/// every op of every window.
EndToEnd end_to_end(const std::vector<const Window*>& windows) {
  EndToEnd e;
  struct Slice {
    double steal_s = 0;
    double p50 = 0;
    double rate = 0;
  };
  std::vector<Slice> quiet;
  std::vector<double> all;
  double payload_bytes = 0;
  double elapsed_s = 0;
  double steal_s = 0;
  for (const Window* window : windows) {
    payload_bytes += window->payload_bytes;
    elapsed_s += window->elapsed_s;
    const std::size_t slices = std::max<std::size_t>(
        1, static_cast<std::size_t>(window->elapsed_s / kSliceSeconds));
    const double slice_us =
        window->elapsed_s * 1e6 / static_cast<double>(slices);
    std::vector<std::vector<double>> latency(slices);
    for (const OpSample& op : window->ops) {
      const auto index = static_cast<std::size_t>(
          std::max(0.0, (op.start_us - window->start_us) / slice_us));
      latency[std::min(index, slices - 1)].push_back(op.latency_us);
      all.push_back(op.latency_us);
    }
    for (std::size_t i = 0; i < slices; ++i) {
      std::vector<double>& slice = latency[i];
      // A slice in which no op started had one op outlast it entirely.
      if (slice.empty())
        slice.push_back(std::numeric_limits<double>::infinity());
      Slice s;
      const double from = window->start_us + slice_us * static_cast<double>(i);
      s.steal_s = steal_between(*window, from, from + slice_us);
      s.p50 = quantile(slice, 0.5);
      const auto completed = static_cast<double>(
          std::count_if(slice.begin(), slice.end(),
                        [](double v) { return std::isfinite(v); }));
      s.rate = completed / (slice_us / 1e6);
      quiet.push_back(s);
    }
    steal_s += steal_between(*window, window->start_us,
                             window->start_us + window->elapsed_s * 1e6);
  }
  std::stable_sort(quiet.begin(), quiet.end(),
                   [](const Slice& a, const Slice& b) {
                     return a.steal_s < b.steal_s;
                   });
  quiet.resize((quiet.size() + 1) / 2);
  std::vector<double> p50s, rates;
  for (const Slice& s : quiet) {
    p50s.push_back(s.p50);
    rates.push_back(s.rate);
  }
  e.samples = all.size();
  e.p50 = median(p50s);
  e.p99 = quantile(all, 0.99);
  e.ops_per_s = median(rates);
  if (elapsed_s > 0) {
    e.goodput = payload_bytes / elapsed_s / 1e6;
    const auto cpus = static_cast<double>(sysconf(_SC_NPROCESSORS_ONLN));
    e.steal_pct = 100.0 * steal_s / (elapsed_s * cpus);
  }
  return e;
}

/// Per-layer metrics of the traced window, normalised per op.
void add_layer_metrics(const RunResult& result, const Window& traced,
                       const EndToEnd& untraced_e2e, Metrics& out) {
  const double ops = std::max<double>(1, static_cast<double>(traced.attempted));
  const LayerProbe& a = traced.before;
  const LayerProbe& b = traced.after;
  const auto per_op = [&](double v) { return v / ops; };
  const auto ratio = [](double num, double den) {
    return den > 0 ? num / den : 0.0;
  };
  const auto count = [&](const std::string& name,
                         const std::string& filter = "") {
    return registry_delta(a, b, name, filter);
  };
  const auto hist_sum = [&](const std::string& family) {
    return count(family + "_sum");
  };

  // Spans: self time per op, by layer.
  const std::map<std::string, SelfTime> self = self_times(result.spans);
  for (const char* name :
       {"mpi.send", "mpi.recv_wait", "mpi.allreduce", "auth.login",
        "job.submit", "job.wait", "job.queue_wait", "job.run",
        "monitor.status", "grid.kill_link", "link.await_down",
        "grid.reconnect", "link.check"}) {
    const auto it = self.find(name);
    out[std::string(name) + "_us"] = {
        it == self.end() ? 0 : per_op(it->second.self_us), "us"};
  }
  const auto op_it = self.find("op");
  const SelfTime op_time =
      op_it == self.end() ? SelfTime{} : op_it->second;
  out["op.total_us"] = {per_op(op_time.total_us), "us"};
  out["op.self_us"] = {per_op(op_time.self_us), "us"};

  // GSSL records and handshakes.
  out["tls.records_per_op"] = {per_op(count("pg_tls_records_total")),
                               "count/op"};
  out["tls.record_us"] = {per_op(hist_sum("pg_tls_record_micros")), "us"};
  out["tls.handshake_us"] = {per_op(hist_sum("pg_tls_handshake_micros")), "us"};
  out["tls.handshakes.full"] = {
      per_op(count("pg_handshake_total", "kind=\"full\"")), "count/op"};
  out["tls.handshakes.resumed"] = {
      per_op(count("pg_handshake_total", "kind=\"resumed\"")), "count/op"};
  out["tls.resume_rejected"] = {
      per_op(count("pg_handshake_total", "kind=\"resume_rejected\"")),
      "count/op"};
  const double hits = count("pg_resumption_cache_total", "result=\"hit\"");
  const double misses = count("pg_resumption_cache_total", "result=\"miss\"");
  out["tls.resume_hit_ratio"] = {ratio(hits, hits + misses), "ratio"};

  // Proxy data plane: envelopes, batching, the reliable sender window.
  out["proxy.envelopes_per_op"] = {
      per_op(count("pg_proxy_mpi_messages_local_total") +
             count("pg_proxy_mpi_messages_remote_total")),
      "count/op"};
  out["proxy.frames_per_batch"] = {
      ratio(count("pg_mpi_batch_messages"), count("pg_mpi_batch_flush_sum")),
      "count"};
  for (const char* reason :
       {"immediate", "combine", "bytes", "frames", "window", "interval"}) {
    const std::string filter = std::string("reason=\"") + reason + "\"";
    out[std::string("proxy.flush.") + reason] = {
        per_op(count("pg_mpi_batch_flush_total", filter)),
        "count/op"};
  }
  out["proxy.ack_rtt_us"] = {ratio(count("pg_mpi_ack_rtt_micros_sum"),
                                    count("pg_mpi_ack_rtt_micros_count")),
                              "us"};
  out["proxy.retransmits"] = {per_op(count("pg_mpi_retransmit_total")),
                              "count/op"};
  out["proxy.frames_dropped"] = {per_op(count("pg_mpi_frames_dropped_total")),
                                 "count/op"};

  // Control plane: handlers, scheduler, retries.
  out["proxy.dispatch_us"] = {per_op(hist_sum("pg_proxy_dispatch_micros")),
                              "us"};
  out["proto.dispatch_us"] = {per_op(hist_sum("pg_proto_dispatch_micros")),
                              "us"};
  out["sched.assign_us"] = {per_op(hist_sum("pg_sched_assign_micros")), "us"};
  out["proxy.retries"] = {per_op(count("pg_retry_total")), "count/op"};
  out["job.redispatch"] = {per_op(count("pg_job_redispatch_total")),
                           "count/op"};

  // Reactor and wire.
  const double wakeups = count("pg_reactor_io_wakeups_total");
  const double frames = count("pg_reactor_frames_total");
  out["net.wakeups_per_op"] = {per_op(wakeups), "count/op"};
  out["net.frames_per_op"] = {per_op(frames), "count/op"};
  out["net.frames_per_wakeup"] = {ratio(frames, wakeups), "count"};
  // Link statistics are per connection: a window that replaced connections
  // (link_churn) has no meaningful byte difference, so it reads 0.
  const auto bytes = [](const grid::TrafficReport& t, bool wire) {
    return static_cast<double>(
        wire ? t.inter_site.wire_bytes + t.intra_site.wire_bytes
             : t.inter_site.payload_bytes + t.intra_site.payload_bytes);
  };
  const bool same_links = a.traffic.handshakes == b.traffic.handshakes;
  out["net.wire_per_payload"] = {
      same_links ? ratio(bytes(b.traffic, true) - bytes(a.traffic, true),
                         bytes(b.traffic, false) - bytes(a.traffic, false))
                 : 0.0,
      "ratio"};

  // Process.
  out["proc.cpu_s_per_op"] = {per_op(b.cpu_s - a.cpu_s), "s/op"};
  out["proc.threads_peak"] = {static_cast<double>(traced.threads_peak),
                              "count"};

  // Tracing overhead: traced half against the untraced half of this run.
  const EndToEnd traced_e2e = end_to_end({&traced});
  out["trace.latency_p50_us"] = {traced_e2e.p50, "us"};
  out["trace.overhead_p50_us"] = {traced_e2e.p50 - untraced_e2e.p50, "us"};
  out["trace.overhead_ops_pct"] = {
      untraced_e2e.ops_per_s > 0
          ? 100.0 * (untraced_e2e.ops_per_s - traced_e2e.ops_per_s) /
                untraced_e2e.ops_per_s
          : 0.0,
      "%"};
}

std::string json_number(double v) {
  // A failed op's +infinity latency has no JSON spelling.
  if (!std::isfinite(v)) v = v > 0 ? 1e300 : -1e300;
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

int usage() {
  std::cerr << "usage: proxygrid_bench --workload "
               "<mpi_pingpong|mpi_halo_bulk|grid_control|link_churn> "
               "--seed <n> --seconds <s> --trace <0|1> [--trace-out <file>]\n";
  return 2;
}

int run(int argc, char** argv) {
  Options options;
  std::string trace_out;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      options.workload = value;
    } else if (key == "--seed") {
      options.seed = std::stoull(value);
    } else if (key == "--seconds") {
      options.seconds = std::stod(value);
    } else if (key == "--trace") {
      options.trace = value == "1";
    } else if (key == "--trace-out") {
      trace_out = value;
    } else {
      return usage();
    }
  }
  if (argc % 2 == 0 || options.seconds <= 0) return usage();

  const std::map<std::string, void (*)(const Options&, RunResult&)> workloads =
      {{"mpi_pingpong", run_mpi_pingpong},
       {"mpi_halo_bulk", run_mpi_halo_bulk},
       {"grid_control", run_grid_control},
       {"link_churn", run_link_churn}};
  const auto entry = workloads.find(options.workload);
  if (entry == workloads.end()) return usage();

  std::cout << "host " << host_fingerprint_json() << "\n";
  std::cout << "run workload=" << options.workload << " seed=" << options.seed
            << " seconds=" << options.seconds << " trace=" << options.trace
            << " links=in-process-memory-channels\n";

  // An untraced run is cut into segments, each on a freshly built grid, so
  // the run samples several thread placements instead of one.
  const int segments =
      options.trace ? 1
                    : std::max(1, static_cast<int>(options.seconds /
                                                   kSegmentSeconds));
  RunResult result;
  for (int segment = 0; segment < segments; ++segment) {
    Options part_options = options;
    part_options.seconds = options.seconds / segments;
    part_options.seed = mix(options.seed) + static_cast<std::uint64_t>(segment);
    RunResult part;
    entry->second(part_options, part);
    if (!part.fatal.empty()) {
      std::cerr << "fatal: " << part.fatal << "\n";
      return 1;
    }
    result.setup_s.insert(result.setup_s.end(), part.setup_s.begin(),
                          part.setup_s.end());
    for (Window& window : part.windows)
      result.windows.push_back(std::move(window));
    result.spans = std::move(part.spans);
    result.corrupt_injected += part.corrupt_injected;
    result.corrupt_caught += part.corrupt_caught;
    result.warmup_failures += part.warmup_failures;
  }

  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  for (std::size_t i = 0; i < result.windows.size(); ++i) {
    const Window& w = result.windows[i];
    attempted += w.attempted;
    failed += w.failed;
    std::cout << "window " << i << (w.traced ? " traced" : " untraced") << " "
              << w.elapsed_s << " s: " << w.attempted << " ops, " << w.failed
              << " failed\n";
  }
  std::cout << "selfcheck corrupted_outputs=" << result.corrupt_injected
            << " counted_failed=" << result.corrupt_caught
            << " warmup_failures=" << result.warmup_failures << "\n";

  Metrics metrics;
  std::vector<const Window*> untraced;
  std::uint64_t base_attempted = 0;
  std::uint64_t base_failed = 0;
  for (const Window& window : result.windows) {
    if (window.traced) continue;
    untraced.push_back(&window);
    base_attempted += window.attempted;
    base_failed += window.failed;
  }
  const EndToEnd e2e = end_to_end(untraced);
  metrics["latency_p50_us"] = {e2e.p50, "us"};
  metrics["latency_p99_us"] = {e2e.p99, "us"};
  metrics["latency_samples"] = {static_cast<double>(e2e.samples), "count"};
  metrics["host_steal_pct"] = {e2e.steal_pct, "%"};
  metrics["ops_per_s"] = {e2e.ops_per_s, "1/s"};
  if (options.workload.rfind("mpi_", 0) == 0)
    metrics["goodput_MBps"] = {e2e.goodput, "MB/s"};
  metrics["setup_s"] = {median(result.setup_s), "s"};
  // Memory of the first segment only: later segments also hold whatever
  // earlier grids left resident, which varies from run to run.
  metrics["peak_rss_MiB"] = {untraced.front()->rss_peak_mib, "MiB"};
  metrics["error_rate"] = {
      base_attempted > 0 ? static_cast<double>(base_failed) /
                               static_cast<double>(base_attempted)
                         : 1.0,
      "ratio"};
  if (options.trace)
    add_layer_metrics(result, result.windows.back(), e2e, metrics);

  for (const auto& [name, m] : metrics)
    std::cout << "metric " << name << " " << json_number(m.value) << " "
              << m.unit << "\n";

  if (options.trace && !trace_out.empty()) {
    if (!write_spans(trace_out, result.spans)) {
      std::cerr << "cannot write spans to " << trace_out << "\n";
      return 1;
    }
    std::cout << "spans " << result.spans.size() << " written to " << trace_out
              << "\n";
  }

  const bool correct = failed == 0 && result.warmup_failures == 0 &&
                       result.corrupt_injected > 0 &&
                       result.corrupt_caught == result.corrupt_injected;
  std::cout << "{\"correct\":" << (correct ? "true" : "false")
            << ",\"attempted\":" << attempted << ",\"failed\":" << failed
            << ",\"metrics\":{";
  bool first = true;
  for (const auto& [name, m] : metrics) {
    std::cout << (first ? "" : ",") << "\"" << name << "\":{\"value\":"
              << json_number(m.value) << ",\"unit\":\"" << m.unit << "\"}";
    first = false;
  }
  std::cout << "}}" << std::endl;
  return correct && attempted > 0 ? 0 : 1;
}

}  // namespace
}  // namespace pb

int main(int argc, char** argv) { return pb::run(argc, argv); }
