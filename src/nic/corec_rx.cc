#include "src/nic/corec_rx.h"

#include <utility>

#include "src/util/logging.h"

namespace juggler {

CorecRx::CorecRx(EventLoop* loop, const CpuCostModel* costs, const NicRxConfig& config,
                 const GroFactory& gro_factory, SegmentSink* sink)
    : loop_(loop),
      costs_(costs),
      config_(config),
      sink_(sink),
      handoff_core_(loop, "corec_handoff") {
  JUG_CHECK(config_.corec_consumers >= 1);
  JUG_CHECK(config_.corec_claim_window >= 1);
  host_.nic = this;
  gro_ = gro_factory(costs);
  GroEngine::Context ctx;
  ctx.now = loop->now_ptr();
  ctx.host = &host_;
  ctx.recorder = config_.recorder;
  gro_->set_context(ctx);
  for (size_t i = 0; i < config_.corec_consumers; ++i) {
    consumers_.push_back(std::make_unique<Consumer>(loop, i));
  }
}

CorecRx::~CorecRx() = default;

void CorecRx::HandoffHost::GroDeliver(Segment segment) {
  nic->pending_segments_.push_back(std::move(segment));
}

void CorecRx::HandoffHost::GroArmTimer(TimeNs when) {
  EventLoop* loop = nic->loop_;
  loop->Cancel(nic->gro_timer_);
  nic->gro_timer_ = kInvalidTimerId;
  if (when == GroEngine::kNoTimer) {
    return;
  }
  const TimeNs at = when > loop->now() ? when : loop->now();
  nic->gro_timer_ = loop->ScheduleAt(at, [n = nic] {
    n->gro_timer_ = kInvalidTimerId;
    n->OnGroTimer();
  });
}

bool CorecRx::AnyConsumerBusy() const {
  for (const auto& c : consumers_) {
    if (c->busy) return true;
  }
  return false;
}

void CorecRx::Accept(PacketPtr packet) {
  ++stats_.packets_in;
  if (packet->corrupted) {
    // Hardware checksum/FCS validation: bad frames never reach the ring.
    ++stats_.checksum_drops;
    return;
  }
  if (ring_.size() >= config_.ring_capacity) {
    ++stats_.ring_drops;
    return;
  }
  packet->nic_rx_time = loop_->now();
  ring_.push_back(std::move(packet));
  if (ring_.size() > stats_.ring_high_watermark) {
    stats_.ring_high_watermark = ring_.size();
  }
  // Consumers in polling mode re-claim at commit without a new interrupt;
  // only an idle driver needs the (moderated) interrupt to wake up.
  if (!AnyConsumerBusy() && !interrupt_pending_) {
    ScheduleInterrupt();
  }
}

void CorecRx::ScheduleInterrupt() {
  interrupt_pending_ = true;
  const TimeNs earliest = last_interrupt_ + config_.int_coalesce;
  const TimeNs at = earliest > loop_->now() ? earliest : loop_->now();
  ++stats_.coalesce_arms;
  if (config_.recorder != nullptr) {
    config_.recorder->Record(loop_->now(), TraceKind::kNicCoalesceArm, 0,
                             static_cast<uint64_t>(at - loop_->now()));
  }
  loop_->ScheduleAt(at, [this] { FireInterrupt(); });
}

void CorecRx::FireInterrupt() {
  ++stats_.interrupts;
  if (config_.recorder != nullptr) {
    config_.recorder->Record(loop_->now(), TraceKind::kNicInterrupt, 0, ring_.size());
  }
  last_interrupt_ = loop_->now();
  interrupt_pending_ = false;
  KickIdleConsumers(/*session_entry=*/true);
}

void CorecRx::KickIdleConsumers(bool session_entry) {
  for (size_t i = 0; i < consumers_.size(); ++i) {
    if (ring_.empty()) {
      return;
    }
    if (!consumers_[i]->busy) {
      Claim(i, session_entry);
    }
  }
}

void CorecRx::Claim(size_t consumer_index, bool session_entry) {
  Consumer* c = consumers_[consumer_index].get();
  size_t n = ring_.size();
  if (n > config_.corec_claim_window) {
    n = config_.corec_claim_window;
  }
  c->busy = true;
  c->first_seq = next_claim_seq_;
  c->count = n;
  for (size_t k = 0; k < n; ++k) {
    Slot slot;
    slot.packet = std::move(ring_.front());
    ring_.pop_front();
    slot.consumer = static_cast<uint32_t>(consumer_index);
    slots_.push_back(std::move(slot));
  }
  next_claim_seq_ += n;
  ++corec_stats_.claims;
  corec_stats_.claimed_packets += n;
  if (slots_.size() > corec_stats_.claim_occupancy_hwm) {
    corec_stats_.claim_occupancy_hwm = slots_.size();
  }
  if (config_.recorder != nullptr) {
    config_.recorder->Record(loop_->now(), TraceKind::kCorecClaim, consumer_index, n,
                             c->first_seq);
  }
  TimeNs cost = session_entry ? costs_->napi_poll_overhead : costs_->napi_repoll_overhead;
  cost += static_cast<TimeNs>(n) * costs_->driver_per_packet;
  c->core.Submit(cost, [this, consumer_index] { Commit(consumer_index); });
}

void CorecRx::Commit(size_t consumer_index) {
  Consumer* c = consumers_[consumer_index].get();
  const size_t offset = static_cast<size_t>(c->first_seq - slots_base_);
  // An earlier window is still open iff some other consumer is busy on a
  // lower first_seq — every not-done slot before ours belongs to exactly one
  // such consumer, so scanning the (few) consumers beats scanning the slots.
  bool behind_open_window = false;
  for (const auto& other : consumers_) {
    if (other->busy && other.get() != c && other->first_seq < c->first_seq) {
      behind_open_window = true;
      break;
    }
  }
  for (size_t k = 0; k < c->count; ++k) {
    slots_[offset + k].done = true;
  }
  ++corec_stats_.commits;
  if (behind_open_window) {
    ++corec_stats_.ooo_commits;
  }
  if (config_.recorder != nullptr) {
    config_.recorder->Record(loop_->now(), TraceKind::kCorecCommit, consumer_index,
                             c->count, c->first_seq);
  }
  c->busy = false;
  c->count = 0;
  Handoff();
  KickIdleConsumers(/*session_entry=*/false);
}

void CorecRx::Handoff() {
  if (wedged_) {
    return;  // planted fault: claimed packets never reach GRO again
  }
  if (!slots_.empty() && !slots_.front().done) {
    // Head window still open: completed slots behind it are parked until it
    // commits — the in-order rule that keeps GRO input in ring order.
    uint64_t parked = 0;
    for (const Slot& s : slots_) {
      if (s.done) ++parked;
    }
    if (parked > 0) {
      ++corec_stats_.handoff_stalls;
      if (parked > corec_stats_.ooo_depth_max) {
        corec_stats_.ooo_depth_max = parked;
      }
      if (config_.recorder != nullptr) {
        config_.recorder->Record(loop_->now(), TraceKind::kCorecStall, parked,
                                 slots_.size());
      }
      if (config_.debug_corec_wedge) {
        wedged_ = true;
        corec_stats_.wedged = 1;
      }
    }
    return;
  }
  std::vector<PacketPtr> run;
  run.reserve(slots_.size());
  while (!slots_.empty() && slots_.front().done) {
    run.push_back(std::move(slots_.front().packet));
    slots_.pop_front();
    ++slots_base_;
  }
  if (run.empty()) {
    return;
  }
  ++corec_stats_.handoff_runs;
  ++stats_.polls;  // each hand-off run is one GRO poll round
  if (config_.recorder != nullptr) {
    config_.recorder->Record(loop_->now(), TraceKind::kCorecHandoff, run.size(),
                             slots_.size());
  }
  handoff_queue_.push_back(std::move(run));
  handoff_core_.Submit(0, [this] { GroDispatch(); });
}

void CorecRx::GroDispatch() {
  JUG_CHECK(!handoff_queue_.empty());
  std::vector<PacketPtr> run = std::move(handoff_queue_.front());
  handoff_queue_.pop_front();
  TimeNs cost = 0;
  if (config_.per_packet_dispatch) [[unlikely]] {
    // Reference arm for determinism tests: must be observably identical to
    // the batched hand-off below.
    for (PacketPtr& p : run) {
      cost += gro_->Receive(std::move(p));
    }
  } else {
    cost += gro_->ReceiveBatch(run.data(), run.size());
  }
  cost += gro_->PollComplete();
  handoff_core_.Submit(cost, [this] { DeliverPending(); });
}

void CorecRx::OnGroTimer() {
  handoff_core_.Submit(0, [this] {
    const TimeNs cost = gro_->OnTimer();
    handoff_core_.Submit(cost, [this] { DeliverPending(); });
  });
}

void CorecRx::ApplyGroFlowCap(size_t max_flows) {
  handoff_core_.Submit(0, [this, max_flows] {
    const TimeNs cost = gro_->ApplyFlowCapPressure(max_flows);
    handoff_core_.Submit(cost, [this] { DeliverPending(); });
  });
}

void CorecRx::DeliverPending() {
  if (pending_segments_.empty()) {
    return;
  }
  sink_->OnSegmentBatch(pending_segments_.data(), pending_segments_.size());
  pending_segments_.clear();
}

}  // namespace juggler
