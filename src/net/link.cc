#include "src/net/link.h"

#include <algorithm>
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
  lower_.resize(static_cast<size_t>(config_.num_priorities - 1));
  waiting_bytes_.resize(static_cast<size_t>(config_.num_priorities), 0);
}

void Link::SetDown() {
  if (down_) {
    return;
  }
  down_ = true;
  ++stats_.down_transitions;
  Retime();
}

void Link::SetUp() {
  if (!down_) {
    return;
  }
  down_ = false;
  Retime();
}

void Link::set_rate_bps(int64_t rate_bps) {
  JUG_CHECK(rate_bps > 0);
  config_.rate_bps = rate_bps;
  Retime();
}

void Link::Accept(PacketPtr packet) {
  if (down_) {
    ++stats_.down_drops;
    return;  // blackhole while the port is down
  }
  Drain();
  size_t level = static_cast<size_t>(packet->priority);
  if (level >= waiting_bytes_.size()) {
    level = waiting_bytes_.size() - 1;  // single-FIFO links ignore priority
  }
  const int64_t wire = packet->wire_bytes();
  if (config_.queue_limit_bytes > 0 && waiting_bytes_[level] + wire > config_.queue_limit_bytes) {
    ++stats_.drops;
    return;  // drop-tail
  }
  if (config_.ecn && config_.queue_limit_bytes > 0 && packet->payload_len > 0) {
    const double fill = static_cast<double>(waiting_bytes_[level]) /
                        static_cast<double>(config_.queue_limit_bytes);
    if (fill > config_.ecn_threshold_fill) {
      packet->ce_mark = true;
      ++stats_.ecn_marks;
    }
  }
  if (config_.red && config_.queue_limit_bytes > 0) {
    const double fill = static_cast<double>(waiting_bytes_[level]) /
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
  waiting_bytes_[level] += wire;
  queued_bytes_ += wire;
  if (queued_bytes_ > stats_.max_queue_bytes) {
    stats_.max_queue_bytes = queued_bytes_;
  }
  if (level == 0) {
    Commit(Push(Frame{std::move(packet), kUntimed, kUntimed, static_cast<uint32_t>(wire), 0}));
    ArmArrival();
    return;
  }
  lower_[level - 1].emplace_back(std::move(packet));
  ++lower_frames_;
  Serve();
}

uint64_t Link::Push(Frame frame) {
  if (tail_ - head_ == frames_.size()) {
    std::vector<Frame> bigger(frames_.empty() ? 8 : 2 * frames_.size());
    for (uint64_t i = head_; i != tail_; ++i) {
      bigger[i & (bigger.size() - 1)] = std::move(at(i));
    }
    frames_.swap(bigger);
  }
  at(tail_) = std::move(frame);
  return tail_++;
}

void Link::Commit(uint64_t i) {
  Frame& frame = at(i);
  frame.start = std::max(loop_->now(), busy_until_);
  frame.done = frame.start + SerializationTime(frame.wire, config_.rate_bps);
  busy_until_ = frame.done;
}

void Link::Retime() {
  Drain();
  if (started_ == head_) {
    loop_->Cancel(arrival_timer_);  // the oldest frame's departure moves
    arrival_timer_ = kInvalidTimerId;
  }
  busy_until_ = started_ != head_ ? at(started_ - 1).done : loop_->now();
  for (uint64_t i = started_; i != tail_; ++i) {
    if (down_) {
      at(i).start = kUntimed;
      at(i).done = kUntimed;
    } else {
      Commit(i);
    }
  }
  ArmArrival();
  // busy_until_ moved, so a pending serializer event may be early or late.
  loop_->Cancel(serializer_timer_);
  Serve();
}

void Link::Drain() const {
  const TimeNs now = loop_->now();
  while (started_ != tail_ && at(started_).start <= now) {
    const Frame& frame = at(started_++);
    waiting_bytes_[frame.level] -= frame.wire;
  }
  while (done_ != started_ && at(done_).done <= now) {
    const Frame& frame = at(done_++);
    queued_bytes_ -= frame.wire;
    ++stats_.packets_tx;
    stats_.bytes_tx += frame.wire;
  }
}

void Link::ArmArrival() {
  if (arrival_timer_ != kInvalidTimerId || head_ == tail_ || at(head_).done == kUntimed) {
    return;
  }
  arrival_timer_ =
      loop_->ScheduleAt(at(head_).done + config_.propagation_delay, [this] { Arrive(); });
}

void Link::Arrive() {
  arrival_timer_ = kInvalidTimerId;
  Drain();  // counts the frame's serialization before it leaves the ring
  PacketPtr packet = std::move(at(head_).packet);
  ++head_;
  ArmArrival();
  sink_->Accept(std::move(packet));
}

void Link::Serve() {
  if (down_ || lower_frames_ == 0) {
    return;
  }
  if (busy_until_ <= loop_->now()) {
    for (size_t l = 0; l < lower_.size(); ++l) {
      if (lower_[l].empty()) {
        continue;
      }
      PacketPtr packet = std::move(lower_[l].front());
      lower_[l].pop_front();
      --lower_frames_;
      const uint32_t wire = packet->wire_bytes();
      Commit(Push(Frame{std::move(packet), kUntimed, kUntimed, wire, static_cast<uint8_t>(l + 1)}));
      ArmArrival();
      break;
    }
  }
  if (lower_frames_ > 0 && !loop_->IsPending(serializer_timer_)) {
    serializer_timer_ = loop_->ScheduleAt(busy_until_, [this] { Serve(); });
  }
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
