// The paper's RSS+NAPI receive driver (Figure 2): RSS steers each flow to
// one of several rings, and the NAPI poll loop drains a ring into the shared
// GRO stage (rx_driver.h), which owns ring admission, interrupt moderation
// and GRO.
//
// NAPI polling: an interrupt starts a polling session; each poll round
// harvests up to kNapiBudget packets and hands them to GRO as one round.
// If packets arrived while the RX core was busy processing, polling
// continues without a new interrupt — NAPI's polling mode under load — for
// at most kMaxPollSession; then the session ends and the next arrival
// raises a (moderated) interrupt.

#ifndef JUGGLER_SRC_NIC_NIC_RX_H_
#define JUGGLER_SRC_NIC_NIC_RX_H_

#include <vector>

#include "src/nic/rx_driver.h"

namespace juggler {

class NicRx : public RxDriver {
 public:
  // NAPI stays in polling mode at most this long before completing the
  // session ("up to a brief interval of time (at most 2 milliseconds)").
  static constexpr TimeNs kMaxPollSession = Ms(2);
  // NAPI budget: packets per poll round. The engine's PollComplete (GRO
  // flush / timeout checks) runs at the end of every round, as the kernel's
  // polling loop does.
  static constexpr size_t kNapiBudget = 64;

  NicRx(EventLoop* loop, const CpuCostModel* costs, const NicRxConfig& config,
        const GroFactory& gro_factory, SegmentSink* sink);

 private:
  // RSS: hash the flow onto a queue, unless `force_queue` pins them all.
  size_t Steer(const Packet& packet) const override;
  void OnInterrupt(RxQueue* q) override;
  // Re-poll while the ring holds packets and the session is young.
  void OnRoundDelivered(RxQueue* q) override;
  void StartPoll(RxQueue* q, bool session_entry);
  void DoPoll(RxQueue* q, bool session_entry);
  void EndSession(RxQueue* q);

  std::vector<PacketPtr> batch_;       // one poll round's ring harvest
  std::vector<TimeNs> session_start_;  // per queue: start of its polling session
};

}  // namespace juggler

#endif  // JUGGLER_SRC_NIC_NIC_RX_H_
