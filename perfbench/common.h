// Shared pieces of the benchmark driver: the result writer, percentiles,
// process CPU/RSS readers, and the substrate replays that time the
// program's public lattice, crypto and store calls at the sizes a run
// reached.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "lattice/elem.h"

namespace perfbench {

/// The cluster shape of every workload: kN replicas tolerating kF faults.
/// The live workloads drive them with kClients closed-loop clients; the
/// runner reads all three from the driver's CLUSTER line.
constexpr std::uint32_t kN = 4;
constexpr std::uint32_t kF = 1;
constexpr std::uint32_t kClients = 4;

/// Flat JSON object of named numbers plus a few flags, printed as one line.
class Result {
 public:
  void set(const std::string& key, double v) { nums_[key] = v; }
  void flag(const std::string& key, bool v) { flags_[key] = v; }
  void note(const std::string& key, const std::string& v) { strs_[key] = v; }
  std::string json() const;

 private:
  std::map<std::string, double> nums_;
  std::map<std::string, bool> flags_;
  std::map<std::string, std::string> strs_;
};

/// Nearest-rank percentile (q in [0, 1]) of unsorted samples; 0 if empty.
double percentile(std::vector<double> v, double q);

/// User + system CPU seconds of this process.
double self_cpu_s();
/// Peak resident set (VmHWM) of this process, in MB.
double self_peak_rss_mb();

/// Median microseconds per call of lattice join, leq and digest on
/// `value` (a non-bottom set element), on fresh copies so no cached
/// encoding or digest is reused.
void time_lattice(const bgla::lattice::Elem& value, Result* out);
/// SHA-256 throughput (MB/s) and one HMAC over a 128-byte message (us).
void time_crypto(Result* out);
/// Median microseconds of store::WalWriter::append(sync=true) of a
/// `bytes`-sized record, in a WAL created under `dir`.
double time_wal_append_sync(const std::string& dir, std::size_t bytes);

}  // namespace perfbench
