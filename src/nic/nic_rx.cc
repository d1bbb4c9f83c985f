#include "src/nic/nic_rx.h"

#include <utility>

namespace juggler {

NicRx::NicRx(EventLoop* loop, const CpuCostModel* costs, const NicRxConfig& config,
             const GroFactory& gro_factory, SegmentSink* sink)
    : RxDriver(loop, costs, config, gro_factory, sink, config.num_queues),
      session_start_(config.num_queues, 0) {}

size_t NicRx::Steer(const Packet& packet) const {
  if (config_.force_queue >= 0) {
    return static_cast<size_t>(config_.force_queue) % queues_.size();
  }
  if (queues_.size() == 1) {
    return 0;  // what the hash modulo one ring gives, without the hash
  }
  return static_cast<size_t>(packet.flow.Hash() >> 17) % queues_.size();
}

void NicRx::OnInterrupt(RxQueue* q) {
  q->polling = true;
  session_start_[q->index] = loop_->now();
  StartPoll(q, /*session_entry=*/true);
}

void NicRx::StartPoll(RxQueue* q, bool session_entry) {
  // Zero-cost job: DoPoll runs when the RX core drains its current backlog,
  // so a saturated core naturally delays the poll and lets the ring grow.
  q->core.Submit(0, [this, q, session_entry] { DoPoll(q, session_entry); });
}

void NicRx::DoPoll(RxQueue* q, bool session_entry) {
  ++stats_.polls;
  TimeNs cost = session_entry ? costs_->napi_poll_overhead : costs_->napi_repoll_overhead;
  // One NAPI round: harvest up to kNapiBudget packets off the ring and
  // hand them to GRO as one poll round, in ring order — "the kernel hands
  // off packets to GRO, whose batching interval is the same as the driver's
  // polling interval".
  batch_.clear();
  while (!q->ring.empty() && batch_.size() < kNapiBudget) {
    batch_.push_back(std::move(q->ring.front()));
    q->ring.pop_front();
    cost += costs_->driver_per_packet;
  }
  cost += GroReceive(q, batch_.data(), batch_.size());
  if (batch_.size() == kNapiBudget && !q->ring.empty()) {
    ++stats_.napi_budget_exhausted;
    if (config_.recorder != nullptr) {
      config_.recorder->Record(loop_->now(), TraceKind::kNapiBudget, q->index,
                               q->ring.size());
    }
  }
  batch_.clear();
  CompleteGroRound(q, cost);
}

void NicRx::OnRoundDelivered(RxQueue* q) {
  const bool time_capped = loop_->now() - session_start_[q->index] >= kMaxPollSession;
  if (!q->ring.empty() && !time_capped) {
    // Budget exhausted or more arrived while processing: stay in polling
    // mode (softirq re-poll).
    StartPoll(q, /*session_entry=*/false);
    return;
  }
  EndSession(q);
}

void NicRx::EndSession(RxQueue* q) {
  // napi_complete: leave polling mode and re-enable interrupts. Packets
  // that arrived meanwhile raise a (moderated) interrupt — going straight
  // back into polling here would defeat interrupt coalescing.
  q->polling = false;
  if (!q->ring.empty()) {
    ScheduleInterrupt(q);
  }
}

}  // namespace juggler
