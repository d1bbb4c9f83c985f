#include "src/net/switch.h"

#include <algorithm>
#include <memory>

#include "src/util/logging.h"

namespace juggler {

void Switch::AddRoute(uint32_t dst_ip, PacketSink* port) {
  JUG_CHECK(port != nullptr);
  if (2 * (route_count_ + 1) > routes_.size()) {
    // Double (from 8 slots) and re-insert, keeping the table at most half
    // full so every probe sequence ends at an empty slot within a few steps.
    std::vector<Route> old = std::move(routes_);
    route_bits_ = old.empty() ? 3 : route_bits_ + 1;
    routes_.assign(size_t{1} << route_bits_, Route{});
    for (const Route& r : old) {
      if (r.port != nullptr) {
        routes_[Probe(r.dst_ip)] = r;
      }
    }
  }
  Route& slot = routes_[Probe(dst_ip)];
  if (slot.port == nullptr) {
    ++route_count_;
  }
  slot = Route{dst_ip, port};
}

size_t Switch::Probe(uint32_t dst_ip) const {
  // Fibonacci hashing: the product's top bits mix every bit of the address.
  size_t i = static_cast<size_t>((dst_ip * 0x9E3779B9u) >> (32 - route_bits_));
  while (routes_[i].port != nullptr && routes_[i].dst_ip != dst_ip) {
    i = (i + 1) & (routes_.size() - 1);
  }
  return i;
}

void Switch::AddUplink(PacketSink* port, const Link* link) {
  uplinks_.push_back(port);
  uplink_links_.push_back(link);
  const bool probed = std::find(uplink_links_.begin(), uplink_links_.end(), nullptr) ==
                      uplink_links_.end();
  uplink_depths_.assign(probed ? uplink_links_.size() : 0, 0);
  uint64_t seed = 0x9e3779b97f4a7c15ULL;
  for (char c : name_) {
    seed = seed * 131 + static_cast<unsigned char>(c);
  }
  balancer_ = std::make_unique<LoadBalancer>(uplink_policy_, uplinks_.size(), seed);
}

void Switch::Accept(PacketPtr packet) {
  PacketSink* port = routes_.empty() ? nullptr : routes_[Probe(packet->flow.dst_ip)].port;
  if (port != nullptr) {
    ++forwarded_;
    port->Accept(std::move(packet));
    return;
  }
  if (!uplinks_.empty()) {
    ++forwarded_;
    size_t path;
    if (uplink_policy_ == LbPolicy::kFlowlet) {
      for (size_t i = 0; i < uplink_depths_.size(); ++i) {
        uplink_depths_[i] = uplink_links_[i]->queued_bytes();
      }
      path = balancer_->PickFlowletPath(*packet, uplink_depths_);
    } else {
      path = balancer_->PickPath(*packet);
    }
    uplinks_[path]->Accept(std::move(packet));
    return;
  }
  ++no_route_;
  JUG_WARN("switch %s: no route for dst %u, dropping", name_.c_str(), packet->flow.dst_ip);
}

}  // namespace juggler
