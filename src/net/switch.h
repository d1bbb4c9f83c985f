// A store-and-forward switch: static routes by destination IP, plus an
// optional default uplink group balanced by an LbPolicy. Output queueing is
// delegated to the Link attached to each port, so congestion, buffer
// build-up and drops happen where they do in a real switch.
//
// Routes live in a flat open-addressed table (power-of-two slots, at most
// half full, linear probing), so the per-hop lookup is a multiply and, at
// that load, usually a single slot compare.

#ifndef JUGGLER_SRC_NET_SWITCH_H_
#define JUGGLER_SRC_NET_SWITCH_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/net/link.h"
#include "src/net/load_balancer.h"
#include "src/net/packet_sink.h"

namespace juggler {

class Switch : public PacketSink {
 public:
  Switch(std::string name, LbPolicy uplink_policy)
      : name_(std::move(name)), uplink_policy_(uplink_policy) {}

  // Exact-match route: packets to `dst_ip` exit through `port`; a second
  // route to the same address replaces the first.
  void AddRoute(uint32_t dst_ip, PacketSink* port);

  // Default route: packets with no exact match are balanced across these.
  // Pass `link` when the port is a Link so congestion-aware policies
  // (flowlet) can read its queue occupancy.
  void AddUplink(PacketSink* port, const Link* link = nullptr);

  void Accept(PacketPtr packet) override;

  uint64_t forwarded() const { return forwarded_; }
  uint64_t dropped_no_route() const { return no_route_; }
  const std::string& name() const { return name_; }

 private:
  struct Route {
    uint32_t dst_ip = 0;
    PacketSink* port = nullptr;  // null: empty slot
  };

  // The slot holding `dst_ip`'s route, or the empty slot where it would go.
  // The table must be non-empty.
  size_t Probe(uint32_t dst_ip) const;

  std::string name_;
  LbPolicy uplink_policy_;
  std::vector<Route> routes_;  // 2^route_bits_ slots; empty until the first AddRoute
  int route_bits_ = 0;
  size_t route_count_ = 0;
  std::vector<PacketSink*> uplinks_;
  std::vector<const Link*> uplink_links_;  // nullable congestion probes
  // Flowlet congestion feedback, refilled per packet: one depth per uplink
  // when every uplink has a probe, else empty (new flowlets pick randomly).
  std::vector<int64_t> uplink_depths_;
  std::unique_ptr<LoadBalancer> balancer_;
  uint64_t forwarded_ = 0;
  uint64_t no_route_ = 0;
};

}  // namespace juggler

#endif  // JUGGLER_SRC_NET_SWITCH_H_
