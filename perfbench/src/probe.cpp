#include "probe.hpp"

#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <fstream>
#include <sstream>

#include "crypto/accel.hpp"
#include "telemetry/metrics.hpp"

namespace pb {

namespace {

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + "\"";
}

bool matches(const std::string& key, const std::string& name,
             const std::string& label_filter) {
  if (key.compare(0, name.size(), name) != 0) return false;
  if (key.size() > name.size() && key[name.size()] != '{') return false;
  return label_filter.empty() || key.find(label_filter) != std::string::npos;
}

}  // namespace

RegistrySnapshot snapshot_registry() {
  // Counters print as exact integers; histogram sums print to six
  // significant digits, far finer than any per-op ratio derived from them.
  RegistrySnapshot snap;
  std::istringstream lines(
      pg::telemetry::MetricRegistry::global().to_prometheus());
  std::string line;
  while (std::getline(lines, line)) {
    if (line.empty() || line[0] == '#') continue;
    const std::size_t space = line.rfind(' ');
    if (space == std::string::npos) continue;
    snap[line.substr(0, space)] = std::stod(line.substr(space + 1));
  }
  return snap;
}

LayerProbe take_probe(const pg::grid::Grid& grid) {
  LayerProbe probe;
  probe.registry = snapshot_registry();
  probe.traffic = grid.traffic_report();
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  probe.cpu_s = static_cast<double>(usage.ru_utime.tv_sec) +
                static_cast<double>(usage.ru_utime.tv_usec) / 1e6 +
                static_cast<double>(usage.ru_stime.tv_sec) +
                static_cast<double>(usage.ru_stime.tv_usec) / 1e6;
  return probe;
}

double registry_delta(const LayerProbe& before, const LayerProbe& after,
                      const std::string& name,
                      const std::string& label_filter) {
  double total = 0;
  for (const auto& [key, value] : after.registry) {
    if (!matches(key, name, label_filter)) continue;
    const auto it = before.registry.find(key);
    total += value - (it == before.registry.end() ? 0 : it->second);
  }
  return total;
}

ProcSample sample_proc() {
  ProcSample sample;
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmRSS:", 0) == 0) {
      sample.rss_mib =
          static_cast<double>(std::stoull(line.substr(6))) / 1024.0;
    } else if (line.rfind("Threads:", 0) == 0) {
      sample.threads = std::stoull(line.substr(8));
    }
  }
  // First line of /proc/stat: "cpu user nice system idle iowait irq
  // softirq steal ...", in clock ticks.
  std::ifstream stat("/proc/stat");
  std::string cpu;
  double fields[8] = {};
  stat >> cpu;
  for (double& field : fields) stat >> field;
  if (stat && cpu == "cpu")
    sample.steal_s = fields[7] / static_cast<double>(sysconf(_SC_CLK_TCK));
  return sample;
}

std::string host_fingerprint_json() {
  std::string model = "unknown";
  {
    std::ifstream in("/proc/cpuinfo");
    std::string line;
    while (std::getline(in, line)) {
      if (line.rfind("model name", 0) == 0) {
        const std::size_t colon = line.find(':');
        if (colon != std::string::npos) model = line.substr(colon + 2);
        break;
      }
    }
  }
  cpu_set_t set;
  CPU_ZERO(&set);
  const int affinity =
      sched_getaffinity(0, sizeof set, &set) == 0 ? CPU_COUNT(&set) : 0;
  std::ostringstream out;
  out << "{\"nproc\":" << affinity
      << ",\"online_cpus\":" << sysconf(_SC_NPROCESSORS_ONLN)
      << ",\"cpu_model\":" << json_string(model) << ",\"sha_ni\":"
      << (pg::crypto::detail::sha256_ni_available() ? "true" : "false")
      << ",\"avx2\":"
      << (pg::crypto::detail::chacha20_avx2_available() ? "true" : "false")
      << ",\"compiler\":" << json_string(PB_COMPILER)
      << ",\"build_type\":" << json_string(PB_BUILD_TYPE) << "}";
  return out.str();
}

}  // namespace pb
