#include "src/nic/rx_driver.h"

#include <utility>

#include "src/nic/corec_rx.h"
#include "src/nic/nic_rx.h"
#include "src/util/logging.h"

namespace juggler {

const char* RxDriverKindName(RxDriverKind kind) {
  switch (kind) {
    case RxDriverKind::kRss: return "rss";
    case RxDriverKind::kCorec: return "corec";
  }
  return "unknown";
}

bool ParseRxDriverKind(const std::string& name, RxDriverKind* out) {
  if (name == "rss") {
    *out = RxDriverKind::kRss;
    return true;
  }
  if (name == "corec") {
    *out = RxDriverKind::kCorec;
    return true;
  }
  return false;
}

RxDriver::RxDriver(EventLoop* loop, const CpuCostModel* costs, const NicRxConfig& config,
                   const GroFactory& gro_factory, SegmentSink* sink, size_t num_queues)
    : loop_(loop), costs_(costs), config_(config), sink_(sink) {
  JUG_CHECK(num_queues >= 1);
  for (size_t i = 0; i < num_queues; ++i) {
    auto q = std::make_unique<RxQueue>(this, i);
    q->gro = gro_factory(costs);
    GroEngine::Context ctx;
    ctx.now = loop->now_ptr();
    ctx.host = q.get();
    ctx.recorder = config_.recorder;
    q->gro->set_context(ctx);
    queues_.push_back(std::move(q));
  }
}

void RxDriver::Accept(PacketPtr packet) {
  ++stats_.packets_in;
  if (packet->corrupted) {
    // Hardware checksum/FCS validation: bad frames never reach the ring.
    ++stats_.checksum_drops;
    return;
  }
  RxQueue* q = queues_[Steer(*packet)].get();
  if (q->ring.size() >= config_.ring_capacity) {
    ++stats_.ring_drops;
    return;
  }
  packet->nic_rx_time = loop_->now();
  q->ring.push_back(std::move(packet));
  if (q->ring.size() > stats_.ring_high_watermark) {
    stats_.ring_high_watermark = q->ring.size();
  }
  ScheduleInterrupt(q);
}

void RxDriver::ScheduleInterrupt(RxQueue* q) {
  if (q->polling || q->interrupt_pending) {
    return;  // the driver is (or will be) looking at the ring
  }
  q->interrupt_pending = true;
  const TimeNs earliest = q->last_interrupt + config_.int_coalesce;
  const TimeNs at = earliest > loop_->now() ? earliest : loop_->now();
  ++stats_.coalesce_arms;
  if (config_.recorder != nullptr) {
    config_.recorder->Record(loop_->now(), TraceKind::kNicCoalesceArm, q->index,
                             static_cast<uint64_t>(at - loop_->now()));
  }
  loop_->ScheduleAt(at, [this, q] { FireInterrupt(q); });
}

void RxDriver::FireInterrupt(RxQueue* q) {
  ++stats_.interrupts;
  if (config_.recorder != nullptr) {
    config_.recorder->Record(loop_->now(), TraceKind::kNicInterrupt, q->index,
                             q->ring.size());
  }
  q->last_interrupt = loop_->now();
  q->interrupt_pending = false;
  OnInterrupt(q);
}

TimeNs RxDriver::GroReceive(RxQueue* q, PacketPtr* packets, size_t count) {
  if (config_.per_packet_dispatch) [[unlikely]] {
    // Reference arm for determinism tests: the batched hand-off below must
    // be observably identical to this packet-by-packet loop.
    TimeNs cost = 0;
    for (size_t i = 0; i < count; ++i) {
      cost += q->gro->Receive(std::move(packets[i]));
    }
    return cost;
  }
  return q->gro->ReceiveBatch(packets, count);
}

void RxDriver::CompleteGroRound(RxQueue* q, TimeNs cost) {
  cost += q->gro->PollComplete();
  q->core.Submit(cost, [this, q] {
    DeliverPending(q);
    OnRoundDelivered(q);
  });
}

template <typename Work>
void RxDriver::SubmitGroWork(RxQueue* q, Work work) {
  q->core.Submit(0, [this, q, work] {
    const TimeNs cost = work(q->gro.get());
    q->core.Submit(cost, [this, q] { DeliverPending(q); });
  });
}

void RxDriver::RxQueue::GroArmTimer(TimeNs when) {
  EventLoop* loop = driver->loop_;
  loop->Cancel(gro_timer);
  gro_timer = kInvalidTimerId;
  if (when == GroEngine::kNoTimer) {
    return;
  }
  const TimeNs at = when > loop->now() ? when : loop->now();
  gro_timer = loop->ScheduleAt(at, [this] {
    gro_timer = kInvalidTimerId;
    driver->SubmitGroWork(this, [](GroEngine* engine) { return engine->OnTimer(); });
  });
}

void RxDriver::ApplyGroFlowCap(size_t max_flows) {
  for (auto& q : queues_) {
    SubmitGroWork(q.get(), [max_flows](GroEngine* engine) {
      return engine->ApplyFlowCapPressure(max_flows);
    });
  }
}

void RxDriver::DeliverPending(RxQueue* q) {
  if (q->pending_segments.empty()) {
    return;
  }
  sink_->OnSegmentBatch(q->pending_segments.data(), q->pending_segments.size());
  q->pending_segments.clear();
}

GroStats RxDriver::TotalGroStats() const {
  GroStats total;
  for (const auto& q : queues_) {
    const GroStats& s = q->gro->stats();
    total.packets_in += s.packets_in;
    total.acks_in += s.acks_in;
    total.data_packets_in += s.data_packets_in;
    total.ooo_packets += s.ooo_packets;
    total.segments_out += s.segments_out;
    total.data_segments_out += s.data_segments_out;
    total.mtus_out += s.mtus_out;
    total.evictions += s.evictions;
    for (int r = 0; r < static_cast<int>(FlushReason::kReasonCount); ++r) {
      total.flush_by_reason[r] += s.flush_by_reason[r];
    }
  }
  return total;
}

std::unique_ptr<RxDriver> MakeRxDriver(EventLoop* loop, const CpuCostModel* costs,
                                       const NicRxConfig& config,
                                       const RxDriver::GroFactory& gro_factory,
                                       SegmentSink* sink) {
  switch (config.driver) {
    case RxDriverKind::kCorec:
      return std::make_unique<CorecRx>(loop, costs, config, gro_factory, sink);
    case RxDriverKind::kRss:
      break;
  }
  return std::make_unique<NicRx>(loop, costs, config, gro_factory, sink);
}

void PublishNicRxStats(const NicRxStats& stats, const std::string& label,
                       MetricsRegistry* registry) {
  registry->AddCounter("nic.packets_in", label, stats.packets_in);
  registry->AddCounter("nic.ring_drops", label, stats.ring_drops);
  registry->AddCounter("nic.checksum_drops", label, stats.checksum_drops);
  registry->AddCounter("nic.interrupts", label, stats.interrupts);
  registry->AddCounter("nic.polls", label, stats.polls);
  registry->AddCounter("nic.coalesce_arms", label, stats.coalesce_arms);
  registry->AddCounter("nic.napi_budget_exhausted", label, stats.napi_budget_exhausted);
  registry->MaxGauge("nic.ring_high_watermark", label, stats.ring_high_watermark);
}

void PublishCorecRxStats(const CorecRxStats& stats, const std::string& label,
                         MetricsRegistry* registry) {
  registry->AddCounter("nic.corec_claims", label, stats.claims);
  registry->AddCounter("nic.corec_claimed_packets", label, stats.claimed_packets);
  registry->AddCounter("nic.corec_commits", label, stats.commits);
  registry->AddCounter("nic.corec_ooo_commits", label, stats.ooo_commits);
  registry->AddCounter("nic.corec_handoff_runs", label, stats.handoff_runs);
  registry->AddCounter("nic.corec_handoff_stalls", label, stats.handoff_stalls);
  registry->AddCounter("nic.corec_wedged", label, stats.wedged);
  registry->MaxGauge("nic.corec_ooo_depth_max", label, stats.ooo_depth_max);
  registry->MaxGauge("nic.corec_claim_occupancy_hwm", label, stats.claim_occupancy_hwm);
}

}  // namespace juggler
