#include "src/scenario/host.h"

#include <utility>

#include "src/util/logging.h"

namespace juggler {

Host::Host(EventLoop* loop, PacketFactory* factory, const CpuCostModel* costs,
           const HostConfig& config, PacketSink* wire_out)
    : loop_(loop), factory_(factory), costs_(costs), config_(config) {
  JUG_CHECK(config_.gro_factory != nullptr);
  JUG_CHECK(config_.num_app_cores >= 1);
  for (size_t i = 0; i < config_.num_app_cores; ++i) {
    app_cores_.push_back(
        std::make_unique<CpuCore>(loop, config_.name + "/app" + std::to_string(i)));
  }
  pending_per_core_.resize(config_.num_app_cores, 0);
  nic_tx_ = std::make_unique<NicTx>(loop, factory, wire_out);
  nic_rx_ = MakeRxDriver(loop, costs, config_.rx, config_.gro_factory, this);
}

TcpEndpoint* Host::CreateEndpoint(const FiveTuple& local) {
  JUG_CHECK(local.src_ip == config_.ip);
  auto [endpoint, created] =
      endpoints_.FindOrEmplace(local, loop_, config_.tcp, local, nic_tx_.get());
  JUG_CHECK(created);
  // Receive-window backpressure reflects the backlog of the core this
  // flow's segments are processed on.
  const size_t core = AppCoreIndex(local.Reversed());
  endpoint->set_rwnd_pressure([this, core] { return pending_per_core_[core]; });
  return endpoint;
}

void Host::OnSegment(Segment segment) {
  // Charge app-core time: TCP processing + copy for data, ACK handling for
  // pure ACKs. The segment reaches the endpoint only after the core gets to
  // it — the coupling that turns segment-rate explosions into throughput
  // collapse (§5.1.1).
  const TimeNs cost = segment.payload_len == 0
                          ? costs_->ack_rx
                          : costs_->AppSegmentCost(segment.payload_len) + costs_->ack_tx;
  const size_t core = AppCoreIndex(segment.flow);
  pending_rx_bytes_ += segment.payload_len;
  pending_per_core_[core] += segment.payload_len;
  app_cores_[core]->Submit(cost, [this, core, segment = std::move(segment)] {
    pending_rx_bytes_ -= segment.payload_len;
    pending_per_core_[core] -= segment.payload_len;
    Demux(segment);
  });
}

void Host::OnSegmentBatch(Segment* segments, size_t count) {
  for (size_t i = 0; i < count; ++i) {
    Host::OnSegment(std::move(segments[i]));  // qualified: no per-segment vcall
  }
}

void Host::Demux(const Segment& segment) {
  // Inbound segments carry the sender's tuple; our endpoint owns the mirror.
  TcpEndpoint* endpoint = endpoints_.Find(segment.flow.Reversed());
  if (endpoint == nullptr) {
    ++stray_segments_;
    JUG_DEBUG("%s: stray segment for unknown flow", config_.name.c_str());
    return;
  }
  endpoint->OnSegment(segment);
}

EndpointPair ConnectHosts(Host* a, Host* b, uint16_t src_port, uint16_t dst_port) {
  FiveTuple forward;
  forward.src_ip = a->ip();
  forward.dst_ip = b->ip();
  forward.src_port = src_port;
  forward.dst_port = dst_port;
  EndpointPair pair;
  pair.a_to_b = a->CreateEndpoint(forward);
  pair.b_to_a = b->CreateEndpoint(forward.Reversed());
  return pair;
}

}  // namespace juggler
