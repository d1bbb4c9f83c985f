// GRO timing for traced runs, and same-input replay of a captured GRO trace.
//
// TimedGro is a GroEngine decorator installed through HostConfig::gro_factory.
// It forwards every entry point to the engine it wraps and accumulates the
// wall time spent inside them, minus the time spent in the host's GroDeliver
// callback (TCP, app-core charges), which belongs to the layers above. It
// interposes itself as the inner engine's GroHost, the way JugglerAuditor
// interposes its context, so deliveries and timer arms still reach the real
// host unchanged: the simulated outcome is identical with or without it.
//
// With a GroCapture attached it also records every packet and poll boundary
// that reaches the engine; ReplayNsPerPacket later feeds that sequence to a
// fresh engine of any kind, firing the engine's own armed timer as the clock
// passes it, so each engine's per-packet cost is measured on identical input.

#ifndef JUGGLER_PERFBENCH_TIMED_GRO_H_
#define JUGGLER_PERFBENCH_TIMED_GRO_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/gro/gro_engine.h"
#include "src/nic/rx_driver.h"

namespace perfbench {

using juggler::GroEngine;
using juggler::Packet;
using juggler::PacketPtr;
using juggler::Segment;
using juggler::TimeNs;

// The packet and poll-boundary sequence one GRO engine saw.
class GroCapture {
 public:
  explicit GroCapture(size_t max_packets) : max_packets_(max_packets) {}

  struct Step {
    TimeNs now = 0;
    uint32_t packets = 0;  // > 0: a receive of this many packets; 0: PollComplete
  };

  // Recording stops at the first poll boundary after `max_packets`.
  bool recording() const { return !full_; }
  void AddPackets(TimeNs now, PacketPtr* packets, size_t count);
  void AddPollEnd(TimeNs now);

  const std::vector<Step>& steps() const { return steps_; }
  const std::vector<Packet>& packets() const { return packets_; }

 private:
  size_t max_packets_;
  bool full_ = false;
  std::vector<Step> steps_;
  std::vector<Packet> packets_;
};

class TimedGro final : public GroEngine, private juggler::GroHost {
 public:
  // `capture` may be null.
  TimedGro(std::unique_ptr<GroEngine> inner, GroCapture* capture);

  void set_context(Context ctx) override;
  TimeNs Receive(PacketPtr packet) override;
  TimeNs ReceiveBatch(PacketPtr* packets, size_t count) override;
  TimeNs PollComplete() override;
  TimeNs OnTimer() override;
  TimeNs ApplyFlowCapPressure(size_t max_flows) override;
  std::string name() const override { return inner_->name(); }

  // Entry-point calls made, and their wall time net of GroDeliver callbacks.
  uint64_t calls() const { return calls_; }
  int64_t busy_ns() const { return busy_ns_; }

 private:
  void GroDeliver(Segment segment) override;
  void GroArmTimer(TimeNs when) override;

  // Times `call` and charges it, less nested delivery time, to busy_ns_.
  template <typename F>
  TimeNs Timed(F&& call);

  std::unique_ptr<GroEngine> inner_;
  GroCapture* capture_;
  uint64_t calls_ = 0;
  int64_t busy_ns_ = 0;
  int64_t deliver_ns_ = 0;  // GroDeliver time inside the current call
};

// Wraps every engine `factory` makes in a TimedGro and appends it to
// `engines` (which must outlive the hosts). Engines record into `capture`
// when it is given; give it only to a single-queue host's factory.
juggler::RxDriver::GroFactory MakeTimedFactory(juggler::RxDriver::GroFactory factory,
                                               std::vector<TimedGro*>* engines,
                                               GroCapture* capture = nullptr);

// Sum of busy_ns() over `engines`.
int64_t TotalBusyNs(const std::vector<TimedGro*>& engines);
uint64_t TotalCalls(const std::vector<TimedGro*>& engines);

// Replays `capture` into a fresh engine from `make` `passes` times and returns
// the median wall nanoseconds per captured packet spent inside the engine.
double ReplayNsPerPacket(const GroCapture& capture,
                         const std::function<std::unique_ptr<GroEngine>()>& make, int passes);

}  // namespace perfbench

#endif  // JUGGLER_PERFBENCH_TIMED_GRO_H_
