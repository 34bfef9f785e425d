#include "common.h"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <fstream>
#include <iomanip>
#include <set>
#include <sstream>

#include "crypto/hmac.h"
#include "crypto/sha256.h"
#include "lattice/set_elem.h"
#include "store/wal.h"
#include "tap.h"

namespace perfbench {

using bgla::Bytes;
using bgla::BytesView;
using bgla::lattice::Elem;
using bgla::lattice::Item;

std::string Result::json() const {
  std::ostringstream os;
  os << std::setprecision(12) << "{";
  bool first = true;
  const auto key = [&](const std::string& k) {
    if (!first) os << ",";
    first = false;
    os << "\"" << k << "\":";
  };
  for (const auto& [k, v] : flags_) {
    key(k);
    os << (v ? "true" : "false");
  }
  for (const auto& [k, v] : strs_) {
    key(k);
    os << "\"";
    for (const char c : v) {
      if (c == '"' || c == '\\') os << '\\';
      if (static_cast<unsigned char>(c) >= 0x20) os << c;
    }
    os << "\"";
  }
  for (const auto& [k, v] : nums_) {
    key(k);
    if (std::isfinite(v)) {
      os << v;
    } else {
      os << "null";
    }
  }
  os << "}";
  return os.str();
}

double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  return v[std::min(v.size() - 1, rank == 0 ? 0 : rank - 1)];
}

double self_cpu_s() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto s = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) / 1e6;
  };
  return s(ru.ru_utime) + s(ru.ru_stime);
}

double self_peak_rss_mb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream ls(line.substr(6));
      double kb = 0;
      ls >> kb;
      return kb / 1024.0;
    }
  }
  return 0.0;
}

namespace {

/// Median over `reps` timed calls of fn(i), in microseconds.
template <typename Fn>
double median_us(int reps, Fn fn) {
  std::vector<double> us;
  us.reserve(static_cast<std::size_t>(reps));
  for (int i = 0; i < reps; ++i) {
    const std::uint64_t t0 = mono_ns();
    fn(i);
    us.push_back(static_cast<double>(mono_ns() - t0) / 1000.0);
  }
  return percentile(std::move(us), 0.5);
}

}  // namespace

void time_lattice(const Elem& value, Result* out) {
  const std::set<Item>& items = bgla::lattice::set_items(value);
  // `other` drops one item and adds a fresh one, so neither side is below
  // the other and join must build the union.
  std::set<Item> other_items = items;
  if (!other_items.empty()) other_items.erase(other_items.begin());
  other_items.insert(Item{~0ull, ~0ull, 0});
  std::set<Item> below_items = items;
  if (!below_items.empty()) below_items.erase(std::prev(below_items.end()));
  constexpr int kReps = 41;
  std::vector<Elem> a, b, c;
  for (int i = 0; i < kReps; ++i) {
    a.push_back(bgla::lattice::make_set(items));
    b.push_back(bgla::lattice::make_set(other_items));
    c.push_back(bgla::lattice::make_set(below_items));
  }
  volatile std::size_t sink = 0;
  out->set("lattice.join_us", median_us(kReps, [&](int i) {
             sink = sink + a[i].join(b[i]).weight();
           }));
  out->set("lattice.leq_us", median_us(kReps, [&](int i) {
             sink = sink + (c[i].leq(a[i]) ? 1 : 0);
           }));
  out->set("lattice.digest_us", median_us(kReps, [&](int i) {
             sink = sink + a[i].digest()[0];
           }));
}

void time_crypto(Result* out) {
  Bytes mb(1 << 20);
  for (std::size_t i = 0; i < mb.size(); ++i) {
    mb[i] = static_cast<std::uint8_t>(i * 131u);
  }
  volatile std::uint8_t sink = 0;
  const double us = median_us(9, [&](int) {
    sink = sink ^ bgla::crypto::Sha256::hash(BytesView(mb))[0];
  });
  out->set("crypto.sha256_mb_per_s", us > 0 ? 1e6 / us : 0.0);
  const Bytes key(32, 7);
  const Bytes msg(128, 9);
  // One call is a few microseconds: time batches of 100.
  out->set("crypto.hmac_us", median_us(21, [&](int) {
                               for (int k = 0; k < 100; ++k) {
                                 sink = sink ^ bgla::crypto::hmac_sha256(
                                                   BytesView(key),
                                                   BytesView(msg))[0];
                               }
                             }) /
                                 100.0);
}

double time_wal_append_sync(const std::string& dir, std::size_t bytes) {
  const std::string path = dir + "/probe-wal.log";
  Bytes blob(std::max<std::size_t>(bytes, 1), 0x5a);
  double us = 0;
  {
    bgla::store::WalWriter w;
    w.open(path);
    us = median_us(21, [&](int) { w.append(BytesView(blob), true); });
  }
  ::unlink(path.c_str());
  return us;
}

}  // namespace perfbench
