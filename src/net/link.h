// Links and queues.
//
// A Link models a switch/NIC output port: a drop-tail buffer (optionally
// split into strict-priority levels, for the Figure 17 experiments), a
// serializer at a fixed bit rate, and a propagation delay. Packets that
// arrive while the port is busy queue; the queue occupancy is observable so
// benches can report buffer build-up.

#ifndef JUGGLER_SRC_NET_LINK_H_
#define JUGGLER_SRC_NET_LINK_H_

#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "src/net/packet_sink.h"
#include "src/obs/metrics.h"
#include "src/sim/event_loop.h"
#include "src/util/rng.h"
#include "src/util/time.h"

namespace juggler {

struct LinkConfig {
  int64_t rate_bps = 10 * kGbps;
  TimeNs propagation_delay = Us(1);
  // Drop-tail limit per priority level, in bytes of wire occupancy.
  // <= 0 means unbounded.
  int64_t queue_limit_bytes = 0;
  // Number of strict-priority levels (1 = plain FIFO, 2 = high/low as in the
  // bandwidth-guarantee experiments).
  int num_priorities = 1;
  // Random Early Detection: drop arriving packets with probability ramping
  // from 0 at `red_min_fill` of the queue limit to `red_pmax` at
  // `red_max_fill`. Desynchronizes flows and prevents the drop-tail capture
  // effect — the role ECN/WRED plays on real datacenter switch ports.
  bool red = false;
  double red_min_fill = 0.25;
  double red_max_fill = 0.9;
  double red_pmax = 0.06;
  uint64_t red_seed = 1;
  // DCTCP-style ECN: mark CE (instead of dropping) on packets that arrive
  // when the queue holds more than `ecn_threshold_fill` of the limit — the
  // step-marking-at-K scheme DCTCP relies on.
  bool ecn = false;
  double ecn_threshold_fill = 0.15;
};

struct LinkStats {
  uint64_t packets_tx = 0;
  uint64_t bytes_tx = 0;
  uint64_t drops = 0;
  uint64_t red_drops = 0;
  uint64_t ecn_marks = 0;
  uint64_t down_drops = 0;    // arrivals blackholed while the link was down
  uint64_t down_transitions = 0;
  int64_t max_queue_bytes = 0;
};

class Link : public PacketSink {
 public:
  Link(EventLoop* loop, std::string name, const LinkConfig& config, PacketSink* sink);

  void Accept(PacketPtr packet) override;

  // ---- failure modeling (fault-injection layer) ----
  //
  // SetDown() blackholes the port: arriving packets are dropped and the
  // serializer pauses after the in-flight frame drains; queued packets wait.
  // SetUp() resumes service. Both are idempotent. set_rate_bps /
  // set_queue_limit_bytes degrade the port at runtime (new values apply from
  // the next serialization / arrival), so load-balanced paths can flap or
  // brown-out mid-run.
  void SetDown();
  void SetUp();
  bool is_down() const { return down_; }
  void set_rate_bps(int64_t rate_bps);
  void set_queue_limit_bytes(int64_t limit) { config_.queue_limit_bytes = limit; }

  int64_t queued_bytes() const { return total_queued_bytes_; }
  const LinkStats& stats() const { return stats_; }
  const std::string& name() const { return name_; }
  int64_t rate_bps() const { return config_.rate_bps; }
  int64_t queue_limit_bytes() const { return config_.queue_limit_bytes; }

 private:
  void StartNextIfIdle();
  void OnTransmitDone();

  EventLoop* loop_;
  std::string name_;
  LinkConfig config_;
  PacketSink* sink_;
  bool down_ = false;

  // One FIFO per priority level; level 0 (kHigh) served first.
  std::vector<std::deque<PacketPtr>> queues_;
  std::vector<int64_t> queued_bytes_;
  int64_t total_queued_bytes_ = 0;
  bool transmitting_ = false;
  PacketPtr in_flight_;
  Rng red_rng_;
  LinkStats stats_;
};

// Snapshot a LinkStats into `registry` under `label` (the link's name).
void PublishLinkStats(const LinkStats& stats, const std::string& label,
                      MetricsRegistry* registry);

}  // namespace juggler

#endif  // JUGGLER_SRC_NET_LINK_H_
