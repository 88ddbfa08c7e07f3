// Reads the program's existing instruments and the process's own counters
// from outside: the telemetry registry, Grid::traffic_report(), getrusage
// and /proc/self/status.
#pragma once

#include <cstdint>
#include <map>
#include <string>

#include "grid/grid.hpp"

namespace pb {

/// Every series of the telemetry registry's Prometheus export at one
/// instant, keyed "name{labels}"; a histogram appears as its name_sum,
/// name_count and name_bucket series.
using RegistrySnapshot = std::map<std::string, double>;

RegistrySnapshot snapshot_registry();

/// One probe of every layer counter the traced window diffs.
struct LayerProbe {
  RegistrySnapshot registry;
  pg::grid::TrafficReport traffic;
  double cpu_s = 0;  // user + system time of the whole process
};

LayerProbe take_probe(const pg::grid::Grid& grid);

/// Difference of two probes, summed over every series named `name` whose
/// label encoding contains `label_filter` (empty matches all).
double registry_delta(const LayerProbe& before, const LayerProbe& after,
                      const std::string& name,
                      const std::string& label_filter = "");

/// Resident set size and thread count of this process, and the CPU time
/// the hypervisor has withheld from this machine since boot (steal, summed
/// over CPUs), right now.
struct ProcSample {
  double rss_mib = 0;
  std::uint64_t threads = 0;
  double steal_s = 0;
};
ProcSample sample_proc();

/// Host fingerprint as one JSON object: CPU count, model, the SHA-NI/AVX2
/// paths src/crypto dispatches to, compiler and build type.
std::string host_fingerprint_json();

}  // namespace pb
