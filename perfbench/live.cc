// rsm-mixed load: closed-loop rsm::Client instances, one
// net::SocketTransport each, against bgla_node rsm-replica processes that
// perfbench/run.py launched. bgla_load cannot issue reads, so the
// benchmark drives the Algorithm 5/6 client itself.
//
// Line protocol with the runner (stdout / stdin):
//   -> CLUSTER n f clients   the cluster shape (common.h)
//   <- START     the runner wrote the topology (n replicas, then the
//                clients) and every replica listens
//   -> WARM      every client's warm-up update completed
//   <- GO        start the measured ops
//   -> Q1 / Q3   a quarter / three quarters of the measured ops completed
//   -> DONE      all measured ops completed (client transports stopped)
//   <- END       the runner has read /proc and /metrics and stopped the
//                replicas; checks and substrate replays run now
//   -> {json}    the result line
//
// Each measured op's invoke-to-complete latency goes to --latencies, one
// "U <ms>" or "R <ms>" line per op, so that the runner can pool the ops of
// several clusters into one distribution.
#include <algorithm>
#include <condition_variable>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <memory>
#include <mutex>
#include <random>
#include <set>
#include <string>
#include <vector>

#include "common.h"
#include "lattice/set_elem.h"
#include "net/socket_transport.h"
#include "rsm/client.h"
#include "rsm/linearize.h"
#include "store/replica_store.h"
#include "tap.h"
#include "util/flags.h"

namespace perfbench {

namespace bl = bgla::lattice;
using bgla::rsm::Op;
using bgla::rsm::OpRecord;

namespace {

std::vector<bgla::net::PeerAddr> load_topology(const std::string& path) {
  std::ifstream in(path);
  std::vector<bgla::net::PeerAddr> peers;
  std::uint32_t id = 0, port = 0;
  std::string host;
  while (in >> id >> host >> port) {
    peers.push_back(
        bgla::net::PeerAddr{id, host, static_cast<std::uint16_t>(port)});
  }
  return peers;
}

bool expect_line(const char* want) {
  std::string line;
  return std::getline(std::cin, line) && line == want;
}

/// The §7 read properties and Thm 6 over the clients' histories, all
/// stamped on one clock. Returns an empty string when every check holds.
std::string check_histories(
    const std::vector<std::vector<OpRecord>>& hist) {
  std::set<bl::Item> issued;
  std::vector<const OpRecord*> reads, updates;
  for (const auto& h : hist) {
    for (const OpRecord& r : h) {
      if (!r.completed) return "an operation did not complete";
      issued.insert(r.cmd);
      (r.op.kind == Op::Kind::kRead ? reads : updates).push_back(&r);
    }
  }
  std::sort(reads.begin(), reads.end(),
            [](const OpRecord* x, const OpRecord* y) {
              return x->read_value.weight() < y->read_value.weight();
            });
  for (std::size_t i = 0; i < reads.size(); ++i) {
    const bl::Elem& v = reads[i]->read_value;
    if (i > 0 && !reads[i - 1]->read_value.leq(v)) {
      return "two read values are incomparable";
    }
    const std::set<bl::Item>& items = bl::set_items(v);
    for (const bl::Item& it : items) {
      if (issued.count(it) == 0) {
        return "a read returned a command no client issued";
      }
    }
    for (const OpRecord* u : updates) {
      if (u->complete_time < reads[i]->invoke_time &&
          items.count(u->cmd) == 0) {
        return "a read missed an update that completed before it began";
      }
    }
  }
  const bgla::rsm::LinearizationResult lin = bgla::rsm::linearize(hist);
  if (!lin.linearizable) return "not linearizable: " + lin.diagnostic;
  return "";
}

}  // namespace

int run_live(int argc, char** argv) {
  std::string topology, state_dir, scratch, latencies;
  std::uint32_t total_ops = 160;
  std::uint64_t seed = 1;
  bgla::util::FlagSet flags("perfbench live");
  flags.add_string("topology", &topology,
                   "replica + client endpoints, written before START");
  flags.add_u32("ops", &total_ops, "measured ops over all clients");
  flags.add_u64("seed", &seed, "deployment key and operand seed");
  flags.add_string("state-dir", &state_dir,
                   "a replica data dir (sizes the WAL append probe)");
  flags.add_string("scratch", &scratch, "directory for the WAL probe");
  flags.add_string("latencies", &latencies,
                   "file for the measured ops' latencies (U|R ms lines)");
  flags.parse_or_exit(argc, argv);

  constexpr std::uint32_t n = kN, clients = kClients;
  // Whole update/read pairs per client.
  const std::uint32_t ops = std::max<std::uint32_t>(
      2, (total_ops / clients + 1) / 2 * 2);
  std::cout << "CLUSTER " << kN << " " << kF << " " << kClients
            << std::endl;
  if (!expect_line("START")) return 1;
  const std::vector<bgla::net::PeerAddr> peers = load_topology(topology);
  if (peers.size() < n + clients) {
    std::cerr << "topology lists too few endpoints\n";
    return 2;
  }
  const auto num_endpoints = static_cast<std::uint32_t>(peers.size());
  // One clock for every client: Tap::now() counts from here.
  const std::uint64_t epoch = mono_ns() - 1000;

  struct LiveClient {
    std::unique_ptr<bgla::net::SocketTransport> sock;
    std::unique_ptr<Tap> tap;
    std::unique_ptr<bgla::rsm::Client> client;
  };
  std::vector<LiveClient> live(clients);
  std::mutex mu;
  std::condition_variable cv;
  std::uint64_t completed = 0;  // guarded by mu

  std::mt19937_64 rng(seed);
  for (std::uint32_t k = 0; k < clients; ++k) {
    const bgla::ProcessId cid = n + k;
    bgla::net::SocketConfig scfg;
    scfg.self = cid;
    scfg.peers = peers;
    scfg.num_processes = num_endpoints;
    scfg.auth_seed = seed;
    LiveClient& lc = live[k];
    lc.sock = std::make_unique<bgla::net::SocketTransport>(scfg);
    lc.sock->bind_and_listen();
    lc.tap = std::make_unique<Tap>(*lc.sock, epoch);
    // Warm-up: one update per client before the measured ops.
    lc.client = std::make_unique<bgla::rsm::Client>(
        *lc.tap, cid, n, kF, std::vector<Op>{Op::update(rng() >> 16)});
    lc.client->set_op_hook([&](const bgla::rsm::Client&, const OpRecord&) {
      const std::lock_guard<std::mutex> g(mu);
      ++completed;
      cv.notify_all();
    });
  }
  for (LiveClient& lc : live) lc.sock->start();

  // Waits until `target` ops completed in total; false on timeout.
  const auto wait_for = [&](std::uint64_t target) {
    std::unique_lock<std::mutex> lock(mu);
    return cv.wait_for(lock, std::chrono::seconds(150),
                       [&] { return completed >= target; });
  };
  const auto stop_all = [&] {
    for (LiveClient& lc : live) lc.sock->stop();
  };
  if (!wait_for(clients)) {
    std::cerr << "warm-up did not complete\n";
    stop_all();
    return 1;
  }
  std::cout << "WARM" << std::endl;
  if (!expect_line("GO")) {
    stop_all();
    return 1;
  }

  const std::uint64_t measured = std::uint64_t{clients} * ops;
  const std::uint64_t w0 = mono_ns();
  for (std::uint32_t k = 0; k < clients; ++k) {
    std::vector<Op> script;
    for (std::uint32_t i = 0; i < ops; ++i) {
      script.push_back(i % 2 == 1 ? Op::read() : Op::update(rng() >> 16));
    }
    auto lock = live[k].sock->dispatch_lock();
    live[k].client->append_ops(std::move(script));
  }
  bool finished = wait_for(clients + measured / 4);
  if (finished) std::cout << "Q1" << std::endl;
  finished = finished && wait_for(clients + measured - measured / 4);
  if (finished) std::cout << "Q3" << std::endl;
  finished = finished && wait_for(clients + measured);
  const double wall_s = static_cast<double>(mono_ns() - w0) / 1e9;
  stop_all();
  if (!finished) {
    std::cerr << "measured ops did not complete\n";
    return 1;
  }
  std::cout << "DONE" << std::endl;
  if (!expect_line("END")) return 1;

  // ---- checks and per-op figures (outside the timed region) ----
  std::vector<std::vector<OpRecord>> hist;
  std::ofstream lat_out(latencies);
  bl::Elem final_value;
  std::set<bl::Item> all_cmds;
  for (const LiveClient& lc : live) {
    hist.push_back(lc.client->history());
    for (std::size_t i = 1; i < hist.back().size(); ++i) {  // skip warm-up
      const OpRecord& r = hist.back()[i];
      lat_out << (r.op.kind == Op::Kind::kRead ? "R " : "U ")
              << static_cast<double>(r.complete_time - r.invoke_time) / 1e3
              << "\n";
    }
    for (const OpRecord& r : hist.back()) {
      all_cmds.insert(r.cmd);
      if (final_value.weight() < r.read_value.weight()) {
        final_value = r.read_value;
      }
    }
  }
  lat_out.close();
  const std::string why =
      lat_out ? check_histories(hist) : "cannot write " + latencies;

  Result r;
  r.flag("correct", why.empty());
  if (!why.empty()) r.note("why", why);
  r.set("attempted", static_cast<double>(measured));
  r.set("wall_s", wall_s);
  r.set("ops_per_s", static_cast<double>(measured) / wall_s);
  if (!state_dir.empty()) {
    // The decided value the run ended with: the largest read, or (no
    // reads) the set of every command issued, which the last decision
    // covers.
    if (final_value.is_bottom()) final_value = bl::make_set(all_cmds);
    time_lattice(final_value, &r);
    time_crypto(&r);
    const bgla::Bytes state =
        bgla::store::ReplicaStore::peek_latest_state(state_dir);
    r.set("store.wal_append_sync_us",
          time_wal_append_sync(scratch, state.size()));
  }
  std::cout << r.json() << std::endl;
  return why.empty() ? 0 : 1;
}

}  // namespace perfbench
