// sim-gwts-delta: in-process simulated GWTS clusters (kN=4, kF=1, batch 64,
// pipelined, closed-loop window) over net::DeltaTransport. No sockets, no
// disk, no threads; the event order is fixed by the seed.
//
// A run is a fixed number of independent cluster instances, each with its
// own schedule seed and command feed, pooled into one result: per-command
// cost grows with the square of the history, so several mid-sized
// histories measure it more steadily, and in less memory, than one long
// one.
//
// Each cluster is assembled here from the public sim::Network,
// net::DeltaTransport and la::GwtsProcess, so that with --taps the
// benchmark's own Taps sit above and below DeltaTransport and split the
// run's wall clock into handler, delta encode, delta unwrap, network
// enqueue and (the remainder) the simulator's event loop.
//
// setup_s is the first instance's set-up, from the sim::Network
// constructor until every process's window is primed. It is the one cold
// set-up of the process; later instances reuse a warm heap and caches.
#include <algorithm>
#include <cstdint>
#include <iostream>
#include <memory>
#include <optional>
#include <random>
#include <set>
#include <string>
#include <vector>

#include "common.h"
#include "harness/scenario.h"
#include "la/gwts.h"
#include "lattice/set_elem.h"
#include "net/delta_transport.h"
#include "sim/network.h"
#include "tap.h"
#include "util/flags.h"

namespace perfbench {

namespace bl = bgla::lattice;
using bgla::la::DecisionRecord;
using bgla::la::GwtsProcess;

namespace {

constexpr std::uint32_t kCommands = 400;  // submitted per process
constexpr std::uint32_t kWindow = 32;     // in-flight commands per process

/// Figures summed (or collected) over the instances of one run.
struct Totals {
  std::uint64_t commands = 0;
  std::uint64_t wall_ns = 0;
  double cpu_s = 0;
  std::vector<double> latency_ms;
  std::vector<double> cost_growth;
  double msgs = 0, wire_bytes = 0, rounds = 0, refinements = 0;
  double batches = 0, batched = 0;
  std::uint64_t setup_ns = 0;  // the first (cold) instance's set-up
  bl::Elem last_value;  // the last instance's largest decision
  std::string why;      // first failed check; empty if all held
};

/// Runs one cluster instance to completion and checks its outputs.
void run_instance(std::uint64_t seed, SelfTimer* timer, Totals* t) {
  const std::uint32_t commands = kCommands;
  const std::uint64_t total = std::uint64_t{kN} * commands;

  // Inputs: process p's k-th command is the singleton {(p, k, r)} with r
  // drawn from the instance seed.
  std::mt19937_64 rng(seed);
  std::vector<std::vector<bl::Item>> feed(kN);
  for (std::uint32_t p = 0; p < kN; ++p) {
    for (std::uint32_t k = 0; k < commands; ++k) {
      feed[p].push_back(bl::Item{p, k, rng() >> 16});
    }
  }

  const std::uint64_t setup0 = mono_ns();
  bgla::sim::Network net(
      bgla::harness::make_delay(bgla::harness::Sched::kUniform), seed, kN);
  std::optional<Tap> below;
  if (timer != nullptr) below.emplace(net, timer, kNetSend, kUnwrap);
  bgla::net::DeltaTransport::Options dopts;
  dopts.enabled = true;
  bgla::net::DeltaTransport delta(
      below ? static_cast<bgla::net::Transport&>(*below) : net, dopts);
  std::optional<Tap> above;
  if (timer != nullptr) above.emplace(delta, timer, kEncode, kHandler);
  bgla::net::Transport& top =
      above ? static_cast<bgla::net::Transport&>(*above) : delta;

  bgla::la::LaConfig cfg;
  cfg.n = kN;
  cfg.f = kF;
  cfg.batch.max_batch = 64;
  cfg.batch.pipeline = true;
  cfg.validate();

  struct Feed {
    std::uint32_t next = 0;
    std::uint32_t retired = 0;
    std::vector<std::uint64_t> submit_ns;
  };
  std::vector<Feed> feeds(kN);
  std::vector<std::unique_ptr<GwtsProcess>> procs;
  std::uint64_t retired_total = 0;
  double cpu_q1 = 0, cpu_q3 = 0;

  const auto top_up = [&](std::uint32_t p) {
    Feed& fd = feeds[p];
    while (fd.next - fd.retired < kWindow && fd.next < commands) {
      if (!procs[p]->try_submit(bl::make_set({feed[p][fd.next]}))) break;
      fd.submit_ns.push_back(mono_ns());
      ++fd.next;
    }
  };
  // Retire what the new decision covers (in feed order: the batcher is
  // FIFO and decisions grow), then refill the window.
  const auto on_decide = [&](std::uint32_t p, const DecisionRecord& rec) {
    Feed& fd = feeds[p];
    const std::set<bl::Item>& items = bl::set_items(rec.value);
    const std::uint64_t now = mono_ns();
    while (fd.retired < fd.next && items.count(feed[p][fd.retired]) != 0) {
      t->latency_ms.push_back(
          static_cast<double>(now - fd.submit_ns[fd.retired]) / 1e6);
      ++fd.retired;
      ++retired_total;
      if (retired_total == total / 4) cpu_q1 = self_cpu_s();
      if (retired_total == total - total / 4) cpu_q3 = self_cpu_s();
    }
    top_up(p);
    if (retired_total == total) net.request_stop();
  };
  for (std::uint32_t p = 0; p < kN; ++p) {
    procs.push_back(std::make_unique<GwtsProcess>(top, p, cfg));
    procs.back()->set_decide_hook(
        [&, p](const GwtsProcess&, const DecisionRecord& rec) {
          on_decide(p, rec);
        });
  }
  for (std::uint32_t p = 0; p < kN; ++p) top_up(p);
  if (t->setup_ns == 0) t->setup_ns = mono_ns() - setup0;

  const double cpu0 = self_cpu_s();
  const std::uint64_t w0 = mono_ns();
  net.run();
  t->wall_ns += mono_ns() - w0;
  const double cpu1 = self_cpu_s();
  t->cpu_s += cpu1 - cpu0;
  t->commands += retired_total;
  t->cost_growth.push_back((cpu1 - cpu_q3) / (cpu_q1 - cpu0));

  // ---- checks (outside the timed region) ----
  const auto fail = [&](const std::string& why) {
    if (t->why.empty()) t->why = why;
  };
  if (retired_total != total) fail("not every command was decided");
  std::vector<bl::Elem> decisions;
  std::set<bl::Item> submitted;
  for (const auto& p : procs) {
    for (const bl::Elem& v : p->submitted()) {
      for (const bl::Item& it : bl::set_items(v)) submitted.insert(it);
    }
    for (const DecisionRecord& d : p->decisions()) {
      decisions.push_back(d.value);
    }
  }
  // Comparability: sorted by size, every neighbour pair is ordered.
  std::sort(decisions.begin(), decisions.end(),
            [](const bl::Elem& x, const bl::Elem& y) {
              return x.weight() < y.weight();
            });
  for (std::size_t i = 1; i < decisions.size(); ++i) {
    if (!decisions[i - 1].leq(decisions[i])) {
      fail("two decisions are incomparable");
      break;
    }
  }
  // Inclusion: each process's commands are in its own final decision.
  for (std::uint32_t p = 0; p < kN; ++p) {
    const auto& ds = procs[p]->decisions();
    for (const bl::Item& it : feed[p]) {
      if (ds.empty() || bl::set_items(ds.back().value).count(it) == 0) {
        fail("a submitted command is missing from its submitter's final "
             "decision");
        break;
      }
    }
  }
  // Validity: every decided item was submitted by someone.
  if (!decisions.empty()) {
    t->last_value = decisions.back();
    for (const bl::Item& it : bl::set_items(t->last_value)) {
      if (submitted.count(it) == 0) {
        fail("a decided command was never submitted");
        break;
      }
    }
  }
  const bgla::net::DeltaTransport::Stats ws = delta.stats();
  if (ws.resets_sent != 0 || ws.resets_received != 0 ||
      ws.reconstruct_failures != 0) {
    fail("delta chain reset");
  }

  t->msgs += static_cast<double>(net.metrics().total_messages());
  t->wire_bytes += static_cast<double>(ws.wire_bytes_total());
  for (const auto& p : procs) {
    t->rounds += static_cast<double>(p->round());
    t->refinements += static_cast<double>(p->stats().refinements);
    t->batches += static_cast<double>(p->batcher().stats().batches);
    t->batched += static_cast<double>(p->batcher().stats().values_flushed);
  }
}

}  // namespace

int run_sim(int argc, char** argv) {
  std::uint64_t seed = 1;
  std::uint32_t instances = 1;
  bool taps = false;
  bgla::util::FlagSet flags("perfbench sim");
  flags.add_u64("seed", &seed, "delay schedule and command operand seed");
  flags.add_u32("instances", &instances, "independent clusters to run");
  flags.add_bool("taps", &taps, "time the layers with transport taps");
  flags.parse_or_exit(argc, argv);

  SelfTimer timer;
  Totals t;
  std::mt19937_64 seeds(seed);
  for (std::uint32_t i = 0; i < instances; ++i) {
    run_instance(seeds(), taps ? &timer : nullptr, &t);
  }

  const double ops = static_cast<double>(t.commands);
  const double wall_s = static_cast<double>(t.wall_ns) / 1e9;
  Result r;
  r.flag("correct", t.why.empty());
  if (!t.why.empty()) r.note("why", t.why);
  r.set("attempted", static_cast<double>(instances) * kN * kCommands);
  r.set("setup_s", static_cast<double>(t.setup_ns) / 1e9);
  r.set("wall_s", wall_s);
  r.set("ops_per_s", ops / wall_s);
  r.set("op_p50_ms", percentile(t.latency_ms, 0.50));
  r.set("op_p90_ms", percentile(t.latency_ms, 0.90));
  r.set("cpu_ms_per_op", t.cpu_s * 1e3 / ops);
  r.set("peak_rss_mb", self_peak_rss_mb());
  r.set("la.msgs_per_op", t.msgs / ops);
  r.set("la.rounds_per_op", t.rounds / kN / ops);
  r.set("la.refinements_per_op", t.refinements / kN / ops);
  r.set("la.batch_size_mean", t.batches == 0 ? 0.0 : t.batched / t.batches);
  r.set("net.wire_bytes_per_op", t.wire_bytes / ops);
  r.set("lattice.cost_growth", percentile(t.cost_growth, 0.5));
  if (taps) {
    const auto per_msg_us = [&](Region g) {
      return timer.count(g) == 0 ? 0.0
                                 : static_cast<double>(timer.self_ns(g)) /
                                       1e3 /
                                       static_cast<double>(timer.count(g));
    };
    r.set("la.handler_ms_per_op",
          static_cast<double>(timer.self_ns(kHandler)) / 1e6 / ops);
    r.set("net.delta_encode_us_per_msg", per_msg_us(kEncode));
    r.set("net.delta_unwrap_us_per_msg", per_msg_us(kUnwrap));
    r.set("sim.event_loop_ms_per_op",
          static_cast<double>(t.wall_ns - timer.covered_ns()) / 1e6 / ops);
    r.set("obs.tap_coverage_pct",
          100.0 * static_cast<double>(timer.covered_ns()) /
              static_cast<double>(t.wall_ns));
    if (!t.last_value.is_bottom()) time_lattice(t.last_value, &r);
    time_crypto(&r);
  }
  std::cout << r.json() << std::endl;
  return t.why.empty() ? 0 : 1;
}

}  // namespace perfbench
