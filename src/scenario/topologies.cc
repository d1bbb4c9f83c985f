#include "src/scenario/topologies.h"

#include <string>
#include <utility>

namespace juggler {
namespace {

// Host IPs: 10.T.0.H encodes (ToR, host index).
uint32_t HostIp(uint32_t tor, uint32_t index) {
  return (10u << 24) | (tor << 16) | (index + 1);
}

// Drop-tail bound on every host link: the NetFPGA host links and the Clos
// and Dumbbell host->ToR uplinks, which model the NIC + qdisc. Deep enough
// (milliseconds at line rate) that the queue backs up under TCP
// backpressure and normal runs never touch the bound — TCP's in-flight
// ceiling is a 3MB cwnd — but finite, so overload storms hit a wall instead
// of an infinitely elastic buffer.
constexpr int64_t kHostLinkQueueBytes = 16'000'000;

constexpr size_t kClosSpines = 2;
constexpr int64_t kClosFabricLinkRateBps = 40 * kGbps;
// ECN ports CE-mark above this fraction of the switch buffer.
constexpr double kClosEcnThresholdFill = 0.1;

constexpr int64_t kDumbbellLinkRateBps = 40 * kGbps;
// Deep-buffer interconnect (the spine-tier chassis switches of §2.2, e.g.
// Arista 7500 class): the low-priority queue can hold ~400us at 40G, so
// mixing priorities produces severe reordering.
constexpr int64_t kDumbbellSwitchBufferBytes = 2'000'000;

}  // namespace

Partition Partition::OneDomain(SimWorld* world) {
  Partition p;
  p.shared_ = NodeDomain{&world->loop, &world->factory, nullptr};
  return p;
}

Partition Partition::OneDomain(ShardedEngine* engine, std::string name) {
  ShardDomain* domain = engine->AddDomain(std::move(name));
  Partition p;
  p.shared_ = NodeDomain{&domain->loop(), &domain->factory(), domain};
  return p;
}

Partition Partition::PerNode(ShardedEngine* engine) {
  Partition p;
  p.engine_ = engine;
  return p;
}

NodeDomain Partition::Place(std::string node) const {
  if (engine_ == nullptr) {
    return shared_;
  }
  ShardDomain* domain = engine_->AddDomain(std::move(node));
  return NodeDomain{&domain->loop(), &domain->factory(), domain};
}

Link* Partition::AddLink(Fabric* fabric, const NodeDomain& from, const NodeDomain& to,
                         std::string name, LinkConfig config, PacketSink* sink) const {
  if (from.shard != to.shard) {
    RemoteEndpoint* crossing =
        engine_->Connect(from.shard, to.shard, config.propagation_delay);
    crossing->set_sink(sink);
    sink = crossing;
    config.propagation_delay = 0;
  }
  return fabric->AddLink(from.loop, std::move(name), config, sink);
}

NetFpgaTestbed BuildNetFpga(SimWorld* world, NetFpgaOptions options) {
  return BuildNetFpga(Partition::OneDomain(world), &world->costs, std::move(options));
}

NetFpgaTestbed BuildNetFpga(const Partition& partition, const CpuCostModel* costs,
                            NetFpgaOptions options) {
  NetFpgaTestbed t;
  t.sender_domain = partition.Place("sender");
  t.receiver_domain = partition.Place("receiver");
  const NodeDomain& snd = t.sender_domain;
  const NodeDomain& rcv = t.receiver_domain;

  options.sender.ip = HostIp(0, 0);
  options.sender.name = "sender";
  options.receiver.ip = HostIp(1, 0);
  options.receiver.name = "receiver";

  LinkConfig host_link;
  host_link.rate_bps = options.link_rate_bps;
  host_link.propagation_delay = options.base_delay;
  host_link.queue_limit_bytes = kHostLinkQueueBytes;

  // Build back-to-front. The reverse (ACK) path ends at the sender, which
  // does not exist yet — latch it.
  LatchSink* to_sender = t.fabric.AddLatch();
  t.rev_link = partition.AddLink(&t.fabric, rcv, snd, "rev", host_link, to_sender);
  t.receiver = t.fabric.AddHost(rcv.loop, rcv.factory, costs, options.receiver, t.rev_link);

  // Forward pipeline: fwd_link -> reorder -> (fault) -> receiver NIC. The
  // fault stage sits nearest the NIC so its corruptions and delay spikes hit
  // after the topology's own reordering, like a last-hop fault.
  PacketSink* into_receiver = t.receiver->wire_in();
  if (!options.faults.empty()) {
    t.fault = t.fabric.AddFault(rcv.loop, "fault", options.faults, options.seed * 6151 + 29,
                                into_receiver);
    into_receiver = t.fault;
  }
  t.fabric.reorders.push_back(std::make_unique<ReorderStage>(
      rcv.loop, std::vector<TimeNs>{0, options.reorder_delay}, options.seed, into_receiver));
  t.reorder = t.fabric.reorders.back().get();

  t.fwd_link = partition.AddLink(&t.fabric, snd, rcv, "fwd", host_link, t.reorder);
  t.sender = t.fabric.AddHost(snd.loop, snd.factory, costs, options.sender, t.fwd_link);
  to_sender->set_target(t.sender->wire_in());
  return t;
}

namespace {

// The Clos builder body; the public entries pick the partition.
ClosTestbed BuildClos(const Partition& partition, const CpuCostModel* costs, ClosOptions options) {
  ClosTestbed t;

  // A rack (a ToR and its hosts) is one node of the partition, so only the
  // ToR<->spine links can cross between domains.
  const NodeDomain tor_a_at = partition.Place("rack_a");
  const NodeDomain tor_b_at = partition.Place("rack_b");
  t.tor_a = t.fabric.AddSwitch("tor_a", options.lb);
  t.tor_b = t.fabric.AddSwitch("tor_b", options.lb);
  std::vector<Switch*> spines;
  std::vector<NodeDomain> spine_at;
  for (size_t s = 0; s < kClosSpines; ++s) {
    // Spines route deterministically by destination ToR; no balancing.
    spines.push_back(t.fabric.AddSwitch("spine_" + std::to_string(s), LbPolicy::kEcmp));
    spine_at.push_back(partition.Place("spine_" + std::to_string(s)));
  }

  // Every switch port runs RED: early random drops (the ECN/WRED role) keep
  // competing flows desynchronized and fair.
  LinkConfig fabric_link;
  fabric_link.rate_bps = kClosFabricLinkRateBps;
  fabric_link.propagation_delay = kTopologyLinkDelay;
  fabric_link.queue_limit_bytes = options.switch_buffer_bytes;
  fabric_link.red = true;
  fabric_link.red_seed = options.seed * 977 + 5;
  fabric_link.ecn = options.ecn;
  fabric_link.ecn_threshold_fill = kClosEcnThresholdFill;

  // ToR uplinks and spine downlinks.
  std::vector<Link*> spine_to_a;
  std::vector<Link*> spine_to_b;
  for (size_t s = 0; s < kClosSpines; ++s) {
    const std::string spine = "spine" + std::to_string(s);
    Link* up_a = partition.AddLink(&t.fabric, tor_a_at, spine_at[s], "torA->" + spine,
                                   fabric_link, spines[s]);
    Link* up_b = partition.AddLink(&t.fabric, tor_b_at, spine_at[s], "torB->" + spine,
                                   fabric_link, spines[s]);
    t.tor_a->AddUplink(up_a, up_a);
    t.tor_b->AddUplink(up_b, up_b);
    t.tor_a_uplinks.push_back(up_a);
    t.tor_b_uplinks.push_back(up_b);
    spine_to_a.push_back(partition.AddLink(&t.fabric, spine_at[s], tor_a_at, spine + "->torA",
                                           fabric_link, t.tor_a));
    spine_to_b.push_back(partition.AddLink(&t.fabric, spine_at[s], tor_b_at, spine + "->torB",
                                           fabric_link, t.tor_b));
  }

  // Host->ToR "links" model the NIC + qdisc: the queue backs up under TCP
  // backpressure, shedding only at a bound far beyond any congestion-window
  // footprint. ToR->host downlinks are switch ports with drop-tail buffers.
  LinkConfig uplink_cfg;
  uplink_cfg.rate_bps = options.host_link_rate_bps;
  uplink_cfg.propagation_delay = kTopologyLinkDelay;
  uplink_cfg.queue_limit_bytes = kHostLinkQueueBytes;
  LinkConfig downlink_cfg = uplink_cfg;
  downlink_cfg.queue_limit_bytes = options.switch_buffer_bytes;
  downlink_cfg.red = true;
  downlink_cfg.red_seed = options.seed * 613 + 3;
  downlink_cfg.ecn = options.ecn;
  downlink_cfg.ecn_threshold_fill = kClosEcnThresholdFill;

  auto build_side = [&](Switch* tor, const NodeDomain& tor_at, uint32_t tor_id,
                        std::vector<Host*>* out, const std::vector<Link*>& spine_down) {
    for (size_t h = 0; h < options.hosts_per_tor; ++h) {
      HostConfig hc = options.host_template;
      hc.ip = HostIp(tor_id, static_cast<uint32_t>(h));
      hc.name = std::string(tor_id == 0 ? "srv" : "cli") + std::to_string(h);
      Link* uplink = t.fabric.AddLink(tor_at.loop, hc.name + "->" + tor->name(), uplink_cfg, tor);
      Host* host = t.fabric.AddHost(tor_at.loop, tor_at.factory, costs, hc, uplink);
      Link* downlink = t.fabric.AddLink(tor_at.loop, tor->name() + "->" + hc.name, downlink_cfg,
                                        host->wire_in());
      tor->AddRoute(hc.ip, downlink);
      for (size_t s = 0; s < spine_down.size(); ++s) {
        spines[s]->AddRoute(hc.ip, spine_down[s]);
      }
      out->push_back(host);
    }
  };
  build_side(t.tor_a, tor_a_at, 0, &t.left_hosts, spine_to_a);
  build_side(t.tor_b, tor_b_at, 1, &t.right_hosts, spine_to_b);
  return t;
}

}  // namespace

ClosTestbed BuildClos(SimWorld* world, ClosOptions options) {
  return BuildClos(Partition::OneDomain(world), &world->costs, std::move(options));
}

ShardedClosTestbed BuildShardedClos(ShardedEngine* engine, const CpuCostModel* costs,
                                    ClosOptions options) {
  return BuildClos(Partition::PerNode(engine), costs, std::move(options));
}

DumbbellTestbed BuildDumbbell(SimWorld* world, const HostConfig& host_template) {
  DumbbellTestbed t;
  EventLoop* loop = &world->loop;

  Switch* tor_l = t.fabric.AddSwitch("tor_l", LbPolicy::kEcmp);
  Switch* s2 = t.fabric.AddSwitch("s2", LbPolicy::kEcmp);
  Switch* tor_r = t.fabric.AddSwitch("tor_r", LbPolicy::kEcmp);

  // All inter-switch links carry two strict-priority queues (Figure 17).
  LinkConfig prio_link;
  prio_link.rate_bps = kDumbbellLinkRateBps;
  prio_link.propagation_delay = kTopologyLinkDelay;
  prio_link.queue_limit_bytes = kDumbbellSwitchBufferBytes;
  prio_link.num_priorities = 2;
  prio_link.red = true;
  // Deep-buffer ports run gentle RED: enough early dropping to keep the
  // competing flows desynchronized and fair, but a low ceiling so a flow
  // mixing a few percent of its packets into the congested low-priority
  // queue is not bled dry by drop probability.
  prio_link.red_min_fill = 0.3;
  prio_link.red_max_fill = 0.95;
  prio_link.red_pmax = 0.03;
  prio_link.red_seed = 396;

  Link* l_to_s2 = t.fabric.AddLink(loop, "torL->s2", prio_link, s2);
  Link* s2_to_r = t.fabric.AddLink(loop, "s2->torR", prio_link, tor_r);
  Link* r_to_s2 = t.fabric.AddLink(loop, "torR->s2", prio_link, s2);
  Link* s2_to_l = t.fabric.AddLink(loop, "s2->torL", prio_link, tor_l);

  // NIC/qdisc uplinks shed only at a deep explicit bound; switch downlinks
  // are drop-tail at the switch buffer size.
  LinkConfig uplink_cfg;
  uplink_cfg.rate_bps = kDumbbellLinkRateBps;
  uplink_cfg.propagation_delay = kTopologyLinkDelay;
  uplink_cfg.queue_limit_bytes = kHostLinkQueueBytes;
  LinkConfig downlink_cfg = uplink_cfg;
  downlink_cfg.queue_limit_bytes = kDumbbellSwitchBufferBytes;
  downlink_cfg.red = true;
  downlink_cfg.red_seed = 250;

  auto add_host = [&](Switch* tor, uint32_t tor_id, uint32_t index, const char* name) {
    HostConfig hc = host_template;
    hc.ip = HostIp(tor_id, index);
    hc.name = name;
    Link* uplink = t.fabric.AddLink(loop, hc.name + "->" + tor->name(), uplink_cfg, tor);
    Host* host = t.fabric.AddHost(loop, &world->factory, &world->costs, hc, uplink);
    Link* downlink =
        t.fabric.AddLink(loop, tor->name() + "->" + hc.name, downlink_cfg, host->wire_in());
    tor->AddRoute(hc.ip, downlink);
    return host;
  };

  t.sender1 = add_host(tor_l, 0, 0, "sender1");
  t.sender2 = add_host(tor_l, 0, 1, "sender2");
  t.receiver1 = add_host(tor_r, 1, 0, "receiver1");
  t.receiver2 = add_host(tor_r, 1, 1, "receiver2");

  // Cross-ToR routing through s2, both directions.
  for (Host* h : {t.receiver1, t.receiver2}) {
    tor_l->AddRoute(h->ip(), l_to_s2);
    s2->AddRoute(h->ip(), s2_to_r);
  }
  for (Host* h : {t.sender1, t.sender2}) {
    tor_r->AddRoute(h->ip(), r_to_s2);
    s2->AddRoute(h->ip(), s2_to_l);
  }
  return t;
}

}  // namespace juggler
