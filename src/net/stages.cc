#include "src/net/stages.h"

#include <memory>
#include <utility>

#include "src/util/logging.h"

namespace juggler {

ReorderStage::ReorderStage(EventLoop* loop, std::vector<TimeNs> lane_delays, uint64_t seed,
                           PacketSink* sink)
    : loop_(loop), lanes_(lane_delays.size()), rng_(seed), sink_(sink) {
  JUG_CHECK(!lanes_.empty());
  for (size_t i = 0; i < lanes_.size(); ++i) {
    JUG_CHECK(lane_delays[i] >= 0);
    lanes_[i].delay = lane_delays[i];
  }
}

void ReorderStage::Accept(PacketPtr packet) {
  ++packets_;
  const size_t index = static_cast<size_t>(rng_.NextBounded(lanes_.size()));
  Lane& lane = lanes_[index];
  const TimeNs now = loop_->now();
  const TimeNs out = now + lane.delay;
  displacement_.Record(max_out_ > out ? static_cast<uint64_t>(max_out_ - out) : 0);
  if (out > max_out_) {
    max_out_ = out;
  }
  if (out == now && lane.queue.empty()) {
    sink_->Accept(std::move(packet));
    return;
  }
  lane.queue.emplace_back(Departure{out, std::move(packet)});
  if (lane.queue.size() == 1) {
    ArmHead(index);
  }
}

void ReorderStage::ArmHead(size_t index) {
  loop_->ScheduleAt(lanes_[index].queue.front().out, [this, index] { Depart(index); });
}

void ReorderStage::Depart(size_t index) {
  Lane& lane = lanes_[index];
  PacketPtr packet = std::move(lane.queue.front().packet);
  lane.queue.pop_front();
  if (!lane.queue.empty()) {
    ArmHead(index);
  }
  sink_->Accept(std::move(packet));
}

void PublishReorderStats(const ReorderStage& stage, const std::string& label,
                         MetricsRegistry* registry) {
  registry->AddCounter("net.reorder.packets", label, stage.packets_through());
  registry->RecordHistogram("net.reorder.displacement_ns", label,
                            stage.displacement_histogram());
}

}  // namespace juggler
