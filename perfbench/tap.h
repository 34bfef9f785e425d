// Transport taps: a pass-through net::Transport decorator the benchmark
// stacks around the program's own layers, so per-layer time is measured
// from outside the program, with nothing added inside src/.
//
// A Tap sits between an endpoint and the transport it would have attached
// to. Every send and every delivery crossing it is timed as one region of
// a given kind; regions nest (a handler's sends run inside its delivery),
// and SelfTimer charges each region only its self time, the part not
// covered by nested regions. Stacked as
//
//   GwtsProcess -> Tap(HANDLER / ENCODE) -> DeltaTransport
//               -> Tap(UNWRAP / NET_SEND) -> sim::Network
//
// the four self times split the simulated run into protocol handler,
// delta encode, delta unwrap and network enqueue; the rest of the run's
// wall clock is the simulator's event loop.
//
// A Tap built without a timer only overrides now(): the live RSM clients
// each own a SocketTransport whose now() counts from its own construction,
// so the benchmark stamps every client on one shared steady clock instead.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <vector>

#include "net/transport.h"

namespace perfbench {

using bgla::ProcessId;

inline std::uint64_t mono_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

enum Region { kHandler = 0, kEncode, kUnwrap, kNetSend, kNumRegions };

/// Self-time accounting over nested regions (single-threaded: the sim).
class SelfTimer {
 public:
  void enter() { stack_.push_back(Frame{mono_ns(), 0}); }
  void leave(Region r) {
    const Frame fr = stack_.back();
    stack_.pop_back();
    const std::uint64_t dur = mono_ns() - fr.start;
    self_ns_[r] += dur - fr.child_ns;
    ++count_[r];
    if (stack_.empty()) {
      top_ns_ += dur;
    } else {
      stack_.back().child_ns += dur;
    }
  }
  std::uint64_t self_ns(Region r) const { return self_ns_[r]; }
  std::uint64_t count(Region r) const { return count_[r]; }
  /// Time inside any outermost tapped region.
  std::uint64_t covered_ns() const { return top_ns_; }

 private:
  struct Frame {
    std::uint64_t start;
    std::uint64_t child_ns;
  };
  std::vector<Frame> stack_;
  std::array<std::uint64_t, kNumRegions> self_ns_{};
  std::array<std::uint64_t, kNumRegions> count_{};
  std::uint64_t top_ns_ = 0;
};

class Tap final : public bgla::net::Transport {
 public:
  /// Timing tap: sends are charged to `send_region`, deliveries to
  /// `deliver_region`.
  Tap(bgla::net::Transport& inner, SelfTimer* timer, Region send_region,
      Region deliver_region)
      : inner_(inner), timer_(timer), send_region_(send_region),
        deliver_region_(deliver_region) {}
  /// Clock tap: now() is microseconds since `epoch_ns` (a mono_ns value).
  Tap(bgla::net::Transport& inner, std::uint64_t epoch_ns)
      : inner_(inner), epoch_ns_(epoch_ns) {}

  ProcessId attach(bgla::net::Endpoint& e) override {
    const ProcessId id = e.id();
    proxies_[id] = std::make_unique<Proxy>(*this, id, e);
    return id;
  }
  void detach(ProcessId id) override { proxies_.erase(id); }

  void send(ProcessId from, ProcessId to,
            bgla::sim::MessagePtr msg) override {
    if (timer_ == nullptr) return inner_.send(from, to, std::move(msg));
    timer_->enter();
    inner_.send(from, to, std::move(msg));
    timer_->leave(send_region_);
  }

  bgla::net::Time now() const override {
    if (epoch_ns_ != 0) return (mono_ns() - epoch_ns_) / 1000;
    return inner_.now();
  }
  std::uint64_t current_depth() const override {
    return inner_.current_depth();
  }
  void request_stop() override { inner_.request_stop(); }

 private:
  /// Stands in for the outer endpoint on the inner transport.
  class Proxy final : public bgla::net::Endpoint {
   public:
    Proxy(Tap& tap, ProcessId id, bgla::net::Endpoint& outer)
        : bgla::net::Endpoint(tap.inner_, id), tap_(tap), outer_(outer) {}
    void on_start() override { outer_.on_start(); }
    void on_message(ProcessId from,
                    const bgla::sim::MessagePtr& msg) override {
      if (tap_.timer_ == nullptr) return outer_.on_message(from, msg);
      tap_.timer_->enter();
      outer_.on_message(from, msg);
      tap_.timer_->leave(tap_.deliver_region_);
    }

   private:
    Tap& tap_;
    bgla::net::Endpoint& outer_;
  };

  bgla::net::Transport& inner_;
  SelfTimer* timer_ = nullptr;
  Region send_region_ = kHandler;
  Region deliver_region_ = kHandler;
  std::uint64_t epoch_ns_ = 0;
  std::map<ProcessId, std::unique_ptr<Proxy>> proxies_;
};

}  // namespace perfbench
