#include "src/nic/corec_rx.h"

#include <utility>

#include "src/util/logging.h"

namespace juggler {

CorecRx::CorecRx(EventLoop* loop, const CpuCostModel* costs, const NicRxConfig& config,
                 const GroFactory& gro_factory, SegmentSink* sink)
    : RxDriver(loop, costs, config, gro_factory, sink, /*num_queues=*/1),
      shared_(queues_[0].get()) {
  JUG_CHECK(config_.corec_consumers >= 1);
  JUG_CHECK(config_.corec_claim_window >= 1);
  for (size_t i = 0; i < config_.corec_consumers; ++i) {
    consumers_.push_back(std::make_unique<Consumer>(loop, i));
  }
}

bool CorecRx::AnyConsumerBusy() const {
  for (const auto& c : consumers_) {
    if (c->busy) return true;
  }
  return false;
}

void CorecRx::KickIdleConsumers(bool session_entry) {
  for (size_t i = 0; i < consumers_.size(); ++i) {
    if (shared_->ring.empty()) {
      return;
    }
    if (!consumers_[i]->busy) {
      Claim(i, session_entry);
    }
  }
}

void CorecRx::Claim(size_t consumer_index, bool session_entry) {
  Consumer* c = consumers_[consumer_index].get();
  std::deque<PacketPtr>& ring = shared_->ring;
  size_t n = ring.size();
  if (n > config_.corec_claim_window) {
    n = config_.corec_claim_window;
  }
  c->busy = true;
  // Consumers in polling mode re-claim at commit without a new interrupt;
  // only an idle driver needs the (moderated) interrupt to wake up.
  shared_->polling = true;
  c->first_seq = next_claim_seq_;
  c->count = n;
  for (size_t k = 0; k < n; ++k) {
    slots_.push_back(Slot{std::move(ring.front())});
    ring.pop_front();
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
  shared_->polling = AnyConsumerBusy();
  Handoff();
  KickIdleConsumers(/*session_entry=*/false);
}

void CorecRx::Handoff() {
  if (corec_stats_.wedged != 0) {
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
  // The run waits for GRO on the hand-off core, behind any earlier runs.
  shared_->core.Submit(0, [this, run = std::move(run)]() mutable {
    CompleteGroRound(shared_, GroReceive(shared_, run.data(), run.size()));
  });
}

}  // namespace juggler
