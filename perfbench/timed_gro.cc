#include "perfbench/timed_gro.h"

#include <algorithm>
#include <utility>

#include "perfbench/harness.h"
#include "src/util/logging.h"

namespace perfbench {

void GroCapture::AddPackets(TimeNs now, PacketPtr* packets, size_t count) {
  if (full_ || count == 0) return;
  steps_.push_back(Step{now, static_cast<uint32_t>(count)});
  for (size_t i = 0; i < count; ++i) {
    packets_.push_back(*packets[i]);
  }
}

void GroCapture::AddPollEnd(TimeNs now) {
  if (full_) return;
  steps_.push_back(Step{now, 0});
  full_ = packets_.size() >= max_packets_;
}

TimedGro::TimedGro(std::unique_ptr<GroEngine> inner, GroCapture* capture)
    : inner_(std::move(inner)), capture_(capture) {
  JUG_CHECK(inner_ != nullptr);
}

void TimedGro::set_context(Context ctx) {
  ctx_ = ctx;
  Context shim = ctx;
  shim.host = this;
  inner_->set_context(shim);
}

template <typename F>
TimeNs TimedGro::Timed(F&& call) {
  ++calls_;
  deliver_ns_ = 0;
  const Clock::time_point start = Clock::now();
  const TimeNs cost = call();
  busy_ns_ += NanosSince(start) - deliver_ns_;
  stats_ = inner_->stats();
  return cost;
}

TimeNs TimedGro::Receive(PacketPtr packet) {
  if (capture_ != nullptr && capture_->recording()) {
    capture_->AddPackets(Now(), &packet, 1);
  }
  return Timed([&] { return inner_->Receive(std::move(packet)); });
}

TimeNs TimedGro::ReceiveBatch(PacketPtr* packets, size_t count) {
  if (capture_ != nullptr && capture_->recording()) {
    capture_->AddPackets(Now(), packets, count);
  }
  return Timed([&] { return inner_->ReceiveBatch(packets, count); });
}

TimeNs TimedGro::PollComplete() {
  if (capture_ != nullptr && capture_->recording()) {
    capture_->AddPollEnd(Now());
  }
  return Timed([&] { return inner_->PollComplete(); });
}

TimeNs TimedGro::OnTimer() {
  return Timed([&] { return inner_->OnTimer(); });
}

TimeNs TimedGro::ApplyFlowCapPressure(size_t max_flows) {
  return Timed([&] { return inner_->ApplyFlowCapPressure(max_flows); });
}

void TimedGro::GroDeliver(Segment segment) {
  const Clock::time_point start = Clock::now();
  ctx_.host->GroDeliver(std::move(segment));
  deliver_ns_ += NanosSince(start);
}

void TimedGro::GroArmTimer(TimeNs when) { ctx_.host->GroArmTimer(when); }

juggler::RxDriver::GroFactory MakeTimedFactory(juggler::RxDriver::GroFactory factory,
                                               std::vector<TimedGro*>* engines,
                                               GroCapture* capture) {
  return [factory = std::move(factory), engines,
          capture](const juggler::CpuCostModel* costs) -> std::unique_ptr<GroEngine> {
    auto timed = std::make_unique<TimedGro>(factory(costs), capture);
    engines->push_back(timed.get());
    return timed;
  };
}

int64_t TotalBusyNs(const std::vector<TimedGro*>& engines) {
  int64_t total = 0;
  for (const TimedGro* e : engines) total += e->busy_ns();
  return total;
}

uint64_t TotalCalls(const std::vector<TimedGro*>& engines) {
  uint64_t total = 0;
  for (const TimedGro* e : engines) total += e->calls();
  return total;
}

namespace {

// Stands in for the NIC: swallows deliveries, remembers the armed deadline.
struct ReplayHost final : juggler::GroHost {
  TimeNs armed = GroEngine::kNoTimer;
  uint64_t segments = 0;
  void GroDeliver(Segment) override { ++segments; }
  void GroArmTimer(TimeNs when) override { armed = when; }
};

int64_t ReplayOnce(const GroCapture& capture, GroEngine* engine) {
  TimeNs now = 0;
  ReplayHost host;
  GroEngine::Context ctx;
  ctx.now = &now;
  ctx.host = &host;
  engine->set_context(ctx);

  int64_t busy_ns = 0;
  auto timed = [&busy_ns](auto&& call) {
    const Clock::time_point start = Clock::now();
    call();
    busy_ns += NanosSince(start);
  };
  auto fire_timers_until = [&](TimeNs t) {
    while (host.armed != GroEngine::kNoTimer && host.armed <= t) {
      now = std::max(now, host.armed);
      host.armed = GroEngine::kNoTimer;
      timed([&] { engine->OnTimer(); });
    }
  };

  std::vector<PacketPtr> batch;
  size_t next = 0;
  for (const GroCapture::Step& step : capture.steps()) {
    fire_timers_until(step.now);
    now = std::max(now, step.now);
    if (step.packets == 0) {
      timed([&] { engine->PollComplete(); });
      continue;
    }
    batch.clear();
    for (uint32_t i = 0; i < step.packets; ++i) {
      batch.push_back(juggler::ClonePacket(capture.packets()[next++]));
    }
    timed([&] { engine->ReceiveBatch(batch.data(), batch.size()); });
  }
  // Drain whatever the engine still holds behind its timer (bounded: an
  // engine may keep a periodic timer armed while idle).
  for (int i = 0; i < 64 && host.armed != GroEngine::kNoTimer; ++i) {
    fire_timers_until(host.armed);
  }
  return busy_ns;
}

}  // namespace

double ReplayNsPerPacket(const GroCapture& capture,
                         const std::function<std::unique_ptr<GroEngine>()>& make, int passes) {
  if (capture.packets().empty()) return 0;
  std::vector<double> per_packet;
  for (int pass = 0; pass < passes; ++pass) {
    std::unique_ptr<GroEngine> engine = make();
    per_packet.push_back(static_cast<double>(ReplayOnce(capture, engine.get())) /
                         static_cast<double>(capture.packets().size()));
  }
  return Median(per_packet);
}

}  // namespace perfbench
