// Experiment topologies from the paper's evaluation:
//
//   NetFpgaTestbed — Figure 11: two hosts through a switch that hashes each
//                    packet uniformly onto one of two delay lanes (precisely
//                    controlled reordering), with optional receiver-side
//                    fault injection (FaultStage).
//   ClosTestbed    — Figure 19: two ToRs, two spines, N hosts per ToR, ToR
//                    uplinks balanced per-flow / per-TSO / per-packet.
//   DumbbellTestbed— Figure 17: two senders and two receivers across a
//                    two-priority 40Gb/s interconnect, for the bandwidth
//                    guarantee experiments.
//
// A SimWorld owns the event loop, packet factory and CPU cost model; a
// Fabric owns every network component so benches keep a single object alive.
//
// Each topology has one builder body, and its Partition says where the
// nodes run: all in one domain (a SimWorld, or a single ShardDomain), or
// each in its own ShardDomain of a ShardedEngine. A NetFPGA node is a host;
// a Clos node is a rack (a ToR and its hosts) or a spine. Only links cross
// between domains: a crossing link delivers into the engine's mailbox, and
// the crossing carries its propagation delay. The NetFPGA switch's stages
// run with the receiver, so its forward wire is the crossing.

#ifndef JUGGLER_SRC_SCENARIO_TOPOLOGIES_H_
#define JUGGLER_SRC_SCENARIO_TOPOLOGIES_H_

#include <memory>
#include <string>
#include <vector>

#include "src/fault/fault_stage.h"
#include "src/net/link.h"
#include "src/net/stages.h"
#include "src/net/switch.h"
#include "src/scenario/host.h"
#include "src/sim/event_loop.h"
#include "src/sim/sharded_engine.h"

namespace juggler {

struct SimWorld {
  EventLoop loop;
  PacketFactory factory;
  CpuCostModel costs;
};

// Where one node's components run: the loop and factory they are built
// against, and the shard domain owning both (null in a SimWorld).
struct NodeDomain {
  EventLoop* loop = nullptr;
  PacketFactory* factory = nullptr;
  ShardDomain* shard = nullptr;
};

struct Fabric;

// How a builder maps nodes onto domains. Under PerNode every Place() adds a
// domain, so placement order is domain order, which fixes worker
// assignment and the mailbox tie-break order. Components placed on one
// node share its domain, and links between them stay local.
class Partition {
 public:
  // Every node on the world's loop and factory.
  static Partition OneDomain(SimWorld* world);
  // Every node on one new domain of `engine`.
  static Partition OneDomain(ShardedEngine* engine, std::string name);
  // One new domain of `engine` per Place() call: per host for NetFPGA, per
  // rack and per spine for Clos.
  static Partition PerNode(ShardedEngine* engine);

  NodeDomain Place(std::string node) const;

  // A link driven from `from` into `sink`, which runs in `to`. Within one
  // domain the link's arrival timer adds the propagation delay; across
  // domains the link has none of its own and hands each frame, as its
  // serialization ends, to a crossing that carries the delay instead.
  Link* AddLink(Fabric* fabric, const NodeDomain& from, const NodeDomain& to, std::string name,
                LinkConfig config, PacketSink* sink) const;

 private:
  ShardedEngine* engine_ = nullptr;  // set for PerNode only
  NodeDomain shared_;                // the OneDomain domain
};

// Owns network components; hosts/switches/links stay valid for its lifetime.
struct Fabric {
  std::vector<std::unique_ptr<Switch>> switches;
  std::vector<std::unique_ptr<Link>> links;
  std::vector<std::unique_ptr<Host>> hosts;
  std::vector<std::unique_ptr<ReorderStage>> reorders;
  std::vector<std::unique_ptr<FaultStage>> faults;
  std::vector<std::unique_ptr<LatchSink>> latches;

  LatchSink* AddLatch() {
    latches.push_back(std::make_unique<LatchSink>());
    return latches.back().get();
  }
  FaultStage* AddFault(EventLoop* loop, std::string name, FaultTimeline timeline, uint64_t seed,
                       PacketSink* sink) {
    faults.push_back(std::make_unique<FaultStage>(loop, std::move(name), std::move(timeline),
                                                  seed, sink));
    return faults.back().get();
  }
  Switch* AddSwitch(std::string name, LbPolicy uplink_policy) {
    switches.push_back(std::make_unique<Switch>(std::move(name), uplink_policy));
    return switches.back().get();
  }
  Link* AddLink(EventLoop* loop, std::string name, const LinkConfig& config, PacketSink* sink) {
    links.push_back(std::make_unique<Link>(loop, std::move(name), config, sink));
    return links.back().get();
  }
  Host* AddHost(EventLoop* loop, PacketFactory* factory, const CpuCostModel* costs,
                const HostConfig& config, PacketSink* wire_out) {
    hosts.push_back(std::make_unique<Host>(loop, factory, costs, config, wire_out));
    return hosts.back().get();
  }
};

// ---------------------------------------------------------------- NetFPGA --

struct NetFpgaOptions {
  int64_t link_rate_bps = 10 * kGbps;
  TimeNs base_delay = Us(5);      // lane 0 delay (fabric latency)
  TimeNs reorder_delay = Us(500);  // lane 1 extra delay: "τ µs reordering"
  // Fault-injection schedule applied receiver-side, nearest the NIC (after
  // the reorder stage). Empty = no fault stage.
  FaultTimeline faults;
  uint64_t seed = 1;
  HostConfig sender;
  HostConfig receiver;
};

struct NetFpgaTestbed {
  Fabric fabric;
  NodeDomain sender_domain;
  NodeDomain receiver_domain;  // also runs the switch's stages
  Host* sender = nullptr;
  Host* receiver = nullptr;
  ReorderStage* reorder = nullptr;
  FaultStage* fault = nullptr;   // set when options.faults is non-empty
  Link* fwd_link = nullptr;      // sender -> receiver data path
  Link* rev_link = nullptr;      // receiver -> sender ACK path
};

NetFpgaTestbed BuildNetFpga(SimWorld* world, NetFpgaOptions options);

// The builder body. Under PerNode the sender and receiver get a domain
// each, in that order. An engine behind `partition` and `costs` must outlive
// the returned testbed (declare them first: the fabric's teardown releases
// packets into the engine's pools).
NetFpgaTestbed BuildNetFpga(const Partition& partition, const CpuCostModel* costs,
                            NetFpgaOptions options);

// ------------------------------------------------------------------- Clos --

// Propagation delay of every Clos and Dumbbell link. A sharded Clos's
// crossing ToR<->spine links carry it, so it is that engine's lookahead.
inline constexpr TimeNs kTopologyLinkDelay = Us(1);

// The fabric is fixed: two spines, 40Gb/s ToR<->spine links, 16MB host
// uplinks, and RED on every switch port.
struct ClosOptions {
  size_t hosts_per_tor = 8;
  int64_t host_link_rate_bps = 40 * kGbps;
  int64_t switch_buffer_bytes = 1'000'000;
  LbPolicy lb = LbPolicy::kPerPacket;
  // CE-mark instead of growing deep queues (pair with TcpConfig::dctcp).
  bool ecn = false;
  uint64_t seed = 1;
  // Per-host config template; ip/name are assigned by the builder.
  HostConfig host_template;
};

struct ClosTestbed {
  Fabric fabric;
  std::vector<Host*> left_hosts;   // under ToR A ("servers")
  std::vector<Host*> right_hosts;  // under ToR B ("clients")
  Switch* tor_a = nullptr;
  Switch* tor_b = nullptr;
  std::vector<Link*> tor_a_uplinks;
  std::vector<Link*> tor_b_uplinks;
};

ClosTestbed BuildClos(SimWorld* world, ClosOptions options);

// The same fabric with one domain per rack and one per spine: [rack_a,
// rack_b, spine_0, spine_1], where a rack is a ToR and its hosts. Host links
// stay inside their rack; each ToR<->spine link crosses with latency
// kTopologyLinkDelay, which is therefore the engine's lookahead.
// `engine` and `costs` must outlive the returned testbed.
using ShardedClosTestbed = ClosTestbed;
ShardedClosTestbed BuildShardedClos(ShardedEngine* engine, const CpuCostModel* costs,
                                    ClosOptions options);

// --------------------------------------------------------------- Dumbbell --

struct DumbbellTestbed {
  Fabric fabric;
  Host* sender1 = nullptr;    // the flow with the bandwidth guarantee
  Host* sender2 = nullptr;    // the antagonists
  Host* receiver1 = nullptr;
  Host* receiver2 = nullptr;
};

// The interconnect is fixed: 40Gb/s links, a 2MB deep-buffer switch and RED
// on its ports. Every host is built from `host_template` (ip/name assigned).
DumbbellTestbed BuildDumbbell(SimWorld* world, const HostConfig& host_template);

}  // namespace juggler

#endif  // JUGGLER_SRC_SCENARIO_TOPOLOGIES_H_
