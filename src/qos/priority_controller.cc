#include "src/qos/priority_controller.h"

#include <algorithm>

namespace juggler {

PriorityController::PriorityController(EventLoop* loop, const PriorityControllerConfig& config,
                                       TcpEndpoint* connection)
    : loop_(loop), config_(config), connection_(connection), rng_(config.seed) {}

void PriorityController::Start() {
  running_ = true;
  last_bytes_acked_ = connection_->bytes_acked();
  connection_->set_priority_marker([this] { return Mark(); });
  loop_->Schedule(kUpdatePeriod, [this] { Update(); });
}

void PriorityController::Update() {
  if (!running_) {
    return;
  }
  const uint64_t acked = connection_->bytes_acked();
  const double rate_bps =
      RateBps(static_cast<int64_t>(acked - last_bytes_acked_), kUpdatePeriod);
  last_bytes_acked_ = acked;
  const double rt = static_cast<double>(config_.target_rate_bps) /
                    static_cast<double>(config_.line_rate_bps);
  const double rm = rate_bps / static_cast<double>(config_.line_rate_bps);
  p_ = std::clamp(p_ + config_.alpha * (rt - rm), 0.0, 1.0);
  loop_->Schedule(kUpdatePeriod, [this] { Update(); });
}

Priority PriorityController::Mark() {
  return rng_.NextBool(p_) ? Priority::kHigh : Priority::kLow;
}

}  // namespace juggler
