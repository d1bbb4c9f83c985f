#include "src/net/link.h"

#include <memory>
#include <utility>

#include "src/util/logging.h"

namespace juggler {

Link::Link(EventLoop* loop, std::string name, const LinkConfig& config, PacketSink* sink)
    : loop_(loop),
      name_(std::move(name)),
      config_(config),
      sink_(sink),
      red_rng_(config.red_seed) {
  JUG_CHECK(config_.num_priorities >= 1);
  JUG_CHECK(config_.rate_bps > 0);
  if (config_.red) {
    // red_max_fill == red_min_fill would divide by zero in the ramp below.
    JUG_CHECK(config_.red_min_fill >= 0.0 && config_.red_min_fill <= 1.0);
    JUG_CHECK(config_.red_max_fill >= 0.0 && config_.red_max_fill <= 1.0);
    JUG_CHECK(config_.red_max_fill > config_.red_min_fill);
    JUG_CHECK(config_.red_pmax >= 0.0 && config_.red_pmax <= 1.0);
  }
  if (config_.ecn) {
    JUG_CHECK(config_.ecn_threshold_fill >= 0.0 && config_.ecn_threshold_fill <= 1.0);
  }
  queues_.resize(static_cast<size_t>(config_.num_priorities));
  queued_bytes_.resize(static_cast<size_t>(config_.num_priorities), 0);
}

void Link::SetDown() {
  if (down_) {
    return;
  }
  down_ = true;
  ++stats_.down_transitions;
}

void Link::SetUp() {
  if (!down_) {
    return;
  }
  down_ = false;
  StartNextIfIdle();
}

void Link::set_rate_bps(int64_t rate_bps) {
  JUG_CHECK(rate_bps > 0);
  config_.rate_bps = rate_bps;
}

void Link::Accept(PacketPtr packet) {
  if (down_) {
    ++stats_.down_drops;
    return;  // blackhole while the port is down
  }
  size_t level = static_cast<size_t>(packet->priority);
  if (level >= queues_.size()) {
    level = queues_.size() - 1;  // single-FIFO links ignore priority
  }
  const int64_t wire = packet->wire_bytes();
  if (config_.queue_limit_bytes > 0 && queued_bytes_[level] + wire > config_.queue_limit_bytes) {
    ++stats_.drops;
    return;  // drop-tail
  }
  if (config_.ecn && config_.queue_limit_bytes > 0 && packet->payload_len > 0) {
    const double fill = static_cast<double>(queued_bytes_[level]) /
                        static_cast<double>(config_.queue_limit_bytes);
    if (fill > config_.ecn_threshold_fill) {
      packet->ce_mark = true;
      ++stats_.ecn_marks;
    }
  }
  if (config_.red && config_.queue_limit_bytes > 0) {
    const double fill = static_cast<double>(queued_bytes_[level]) /
                        static_cast<double>(config_.queue_limit_bytes);
    if (fill > config_.red_min_fill) {
      const double ramp = (fill - config_.red_min_fill) /
                          (config_.red_max_fill - config_.red_min_fill);
      const double p = config_.red_pmax * (ramp > 1.0 ? 1.0 : ramp);
      if (red_rng_.NextBool(p)) {
        ++stats_.drops;
        ++stats_.red_drops;
        return;
      }
    }
  }
  queued_bytes_[level] += wire;
  total_queued_bytes_ += wire;
  if (total_queued_bytes_ > stats_.max_queue_bytes) {
    stats_.max_queue_bytes = total_queued_bytes_;
  }
  queues_[level].push_back(std::move(packet));
  StartNextIfIdle();
}

void Link::StartNextIfIdle() {
  if (transmitting_ || down_) {
    return;
  }
  for (size_t level = 0; level < queues_.size(); ++level) {
    if (queues_[level].empty()) {
      continue;
    }
    in_flight_ = std::move(queues_[level].front());
    queues_[level].pop_front();
    const int64_t wire = in_flight_->wire_bytes();
    queued_bytes_[level] -= wire;
    transmitting_ = true;
    loop_->Schedule(SerializationTime(wire, config_.rate_bps), [this] { OnTransmitDone(); });
    return;
  }
}

void Link::OnTransmitDone() {
  PacketPtr packet = std::move(in_flight_);
  const int64_t wire = packet->wire_bytes();
  total_queued_bytes_ -= wire;
  ++stats_.packets_tx;
  stats_.bytes_tx += static_cast<uint64_t>(wire);
  transmitting_ = false;
  if (config_.propagation_delay > 0) {
    // Hand the packet off after flight time; the move-only callback owns the
    // packet in flight (freed if the loop is destroyed first).
    PacketSink* sink = sink_;
    loop_->Schedule(config_.propagation_delay,
                    [sink, p = std::move(packet)]() mutable { sink->Accept(std::move(p)); });
  } else {
    sink_->Accept(std::move(packet));
  }
  StartNextIfIdle();
}

void PublishLinkStats(const LinkStats& stats, const std::string& label,
                      MetricsRegistry* registry) {
  registry->AddCounter("net.link.packets_tx", label, stats.packets_tx);
  registry->AddCounter("net.link.bytes_tx", label, stats.bytes_tx);
  registry->AddCounter("net.link.drops", label, stats.drops);
  registry->AddCounter("net.link.red_drops", label, stats.red_drops);
  registry->AddCounter("net.link.ecn_marks", label, stats.ecn_marks);
  registry->AddCounter("net.link.down_drops", label, stats.down_drops);
  registry->AddCounter("net.link.down_transitions", label, stats.down_transitions);
  registry->MaxGauge("net.link.max_queue_bytes", label,
                     static_cast<uint64_t>(stats.max_queue_bytes));
}

}  // namespace juggler
