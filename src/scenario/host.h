// An end host: NIC RX (with a pluggable GRO engine per queue), NIC TX, one
// application core, and a demultiplexer from merged segments to TCP
// endpoints. This is the receive path of Figure 2 assembled end to end:
//
//   wire -> NicRx ring -> NAPI poll -> GroEngine -> [RX core charge]
//        -> Host::OnSegment -> [app core charge] -> TcpEndpoint -> app
//
// Receive-window backpressure: bytes sitting in the app-core queue count
// against every local connection's advertised window, so a saturated
// application core throttles senders instead of growing unbounded queues.

#ifndef JUGGLER_SRC_SCENARIO_HOST_H_
#define JUGGLER_SRC_SCENARIO_HOST_H_

#include <memory>
#include <string>
#include <vector>

#include "src/cpu/cost_model.h"
#include "src/cpu/cpu_core.h"
#include "src/gro/flow_table.h"
#include "src/nic/nic_rx.h"
#include "src/nic/nic_tx.h"
#include "src/sim/event_loop.h"
#include "src/tcp/tcp_endpoint.h"

namespace juggler {

struct HostConfig {
  uint32_t ip = 0;
  NicRxConfig rx;
  TcpConfig tcp;
  RxDriver::GroFactory gro_factory;
  // Application cores. Flows are pinned to cores by hash (as a real host
  // pins one flow's RX queue + application thread to one core), so a single
  // flow is always bounded by one core — the paper's ~25Gb/s per-core
  // ceiling — while different flows can use different cores.
  size_t num_app_cores = 1;
  std::string name = "host";
};

class Host : public SegmentSink {
 public:
  // `wire_out` is where this host's NIC transmits (its uplink).
  Host(EventLoop* loop, PacketFactory* factory, const CpuCostModel* costs,
       const HostConfig& config, PacketSink* wire_out);

  // Where the network delivers packets destined to this host.
  PacketSink* wire_in() { return nic_rx_.get(); }

  // Creates a local endpoint transmitting with `local` (src must be this
  // host's IP) and registers it for demux of inbound segments.
  TcpEndpoint* CreateEndpoint(const FiveTuple& local);

  // SegmentSink: a merged segment from the NIC, still on the RX core clock.
  void OnSegment(Segment segment) override;
  // Batch form: one virtual hop per poll round; per-segment handling (app
  // core charge, backpressure accounting, demux order) is identical.
  void OnSegmentBatch(Segment* segments, size_t count) override;

  // The receive-path driver (RSS+NAPI or COREC, per config.rx.driver).
  RxDriver* nic_rx() { return nic_rx_.get(); }
  NicTx* nic_tx() { return nic_tx_.get(); }
  // The app core a given inbound flow is pinned to; no-arg form returns
  // core 0 (the only core in single-core configurations).
  CpuCore* app_core() { return app_cores_[0].get(); }
  CpuCore* app_core_for(const FiveTuple& inbound_flow) {
    return app_cores_[AppCoreIndex(inbound_flow)].get();
  }
  uint64_t pending_rx_bytes() const { return pending_rx_bytes_; }
  uint64_t stray_segments() const { return stray_segments_; }
  uint32_t ip() const { return config_.ip; }
  const std::string& name() const { return config_.name; }

 private:
  void Demux(const Segment& segment);

  size_t AppCoreIndex(const FiveTuple& inbound_flow) const {
    return static_cast<size_t>(inbound_flow.Hash() >> 7) % app_cores_.size();
  }

  EventLoop* loop_;
  PacketFactory* factory_;
  const CpuCostModel* costs_;
  HostConfig config_;
  std::vector<std::unique_ptr<CpuCore>> app_cores_;
  std::vector<uint64_t> pending_per_core_;
  std::unique_ptr<NicTx> nic_tx_;
  std::unique_ptr<RxDriver> nic_rx_;
  // Keyed by the *local* endpoint tuple; inbound segments carry the peer's
  // tuple and are looked up reversed. FlowTable, not unordered_map of
  // unique_ptrs: endpoints live inline in pinned 64-record slabs (no
  // per-endpoint node + control-block allocations, no pointer chase on
  // demux), which is what keeps bytes-per-connection flat to the 1M-flow
  // bench point. Slab pinning gives the same address stability the
  // unique_ptr indirection used to provide.
  FlowTable<TcpEndpoint> endpoints_;
  uint64_t pending_rx_bytes_ = 0;
  uint64_t stray_segments_ = 0;
};

// Creates a connected endpoint pair: `a_to_b` on host `a` sending to `b`,
// and the mirror endpoint on `b`.
struct EndpointPair {
  TcpEndpoint* a_to_b;
  TcpEndpoint* b_to_a;
};
EndpointPair ConnectHosts(Host* a, Host* b, uint16_t src_port, uint16_t dst_port);

}  // namespace juggler

#endif  // JUGGLER_SRC_SCENARIO_HOST_H_
