// Links and queues.
//
// A Link models a switch/NIC output port: a drop-tail buffer (optionally
// split into strict-priority levels, for the Figure 17 experiments), a
// serializer at a fixed bit rate, and a propagation delay. Packets that
// arrive while the port is busy queue; the queue occupancy is observable so
// benches can report buffer build-up.
//
// Committed departures: a FIFO port knows a frame's serialization times the
// moment it admits the frame — start = max(now, busy_until), done = start +
// serialization — so the link commits them at admission and keeps its frames
// in departure order in one ring. A single timer is armed, for the oldest
// frame's arrival at done + propagation delay; delivering that frame arms
// the next. A hop therefore costs one event, and nothing fires when a frame
// merely finishes serializing: the ring's front is drained lazily, so drop
// decisions, queued_bytes() and stats() read the port's state at now()
// exactly as if it had.
//
// Strict priority: a frame of the top level (every frame, on a one-level
// link) is committed at admission, behind whatever is already committed. A
// lower-level frame waits uncommitted until the serializer reaches it — the
// moment every committed frame has started and finished — so a later
// top-level frame still overtakes it. Only while such a frame waits does the
// link arm a serializer event, at busy_until.

#ifndef JUGGLER_SRC_NET_LINK_H_
#define JUGGLER_SRC_NET_LINK_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/net/packet_sink.h"
#include "src/obs/metrics.h"
#include "src/sim/event_loop.h"
#include "src/util/flat_fifo.h"
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
  uint64_t packets_tx = 0;  // frames whose serialization has completed
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
  // Pending arrival and serializer events hold `this`.
  Link(const Link&) = delete;
  Link& operator=(const Link&) = delete;

  void Accept(PacketPtr packet) override;

  // ---- failure modeling (fault-injection layer) ----
  //
  // SetDown() blackholes the port: arriving packets are dropped, the frame
  // serializing drains (and arrives on time), and frames that have not
  // started lose their departure times and wait. SetUp() re-times them back
  // to back from then. Both are idempotent. set_rate_bps re-times only the
  // frames that have not started; set_queue_limit_bytes applies from the
  // next arrival. So load-balanced paths can flap or brown-out mid-run.
  void SetDown();
  void SetUp();
  bool is_down() const { return down_; }
  void set_rate_bps(int64_t rate_bps);
  void set_queue_limit_bytes(int64_t limit) { config_.queue_limit_bytes = limit; }

  // Bytes admitted whose serialization has not completed by now(),
  // including the frame serializing.
  int64_t queued_bytes() const {
    Drain();
    return queued_bytes_;
  }
  // Counters as of now(); packets_tx counts completed serializations.
  const LinkStats& stats() const {
    Drain();
    return stats_;
  }
  const std::string& name() const { return name_; }
  int64_t rate_bps() const { return config_.rate_bps; }
  int64_t queue_limit_bytes() const { return config_.queue_limit_bytes; }

 private:
  // Departure times of a frame that has none yet: after SetDown, until
  // SetUp re-times it. Never <= now(), so the drain cursors stop there.
  static constexpr TimeNs kUntimed = INT64_MAX;

  struct Frame {
    PacketPtr packet;
    TimeNs start = kUntimed;
    TimeNs done = kUntimed;
    uint32_t wire = 0;
    uint8_t level = 0;
  };

  // Frame `i` of the ring, by absolute position (head_ <= i < tail_).
  Frame& at(uint64_t i) { return frames_[i & (frames_.size() - 1)]; }
  const Frame& at(uint64_t i) const { return frames_[i & (frames_.size() - 1)]; }
  // Appends `frame` to the ring, doubling it when full; returns its position.
  uint64_t Push(Frame frame);
  // Gives frame `i` its departure times, back to back after busy_until_.
  void Commit(uint64_t i);
  // Re-times every frame that has not started, back to back from now() or
  // the end of the frame serializing, whichever is later; while the link
  // is down they lose their times instead. Re-arms the arrival and
  // serializer events to match.
  void Retime();
  // Advances the drain cursors to now(): frames that have started stop
  // counting as waiting; frames that finished are counted as transmitted.
  void Drain() const;
  // Arms the arrival timer for the oldest frame, if it has times and no
  // timer is armed.
  void ArmArrival();
  // Arrival timer: hands the oldest frame to the sink.
  void Arrive();
  // Strict priority: commits the first waiting lower-level frame once the
  // port is idle, and keeps the serializer event armed while any waits.
  void Serve();

  EventLoop* loop_;
  std::string name_;
  LinkConfig config_;
  PacketSink* sink_;
  bool down_ = false;

  // Committed frames (plus, while down, frames that lost their times) in
  // departure order: a power-of-two ring, empty until the first admission.
  // Positions only grow: [head_, done_) finished serializing and await
  // arrival, [done_, started_) is serializing, [started_, tail_) waits.
  std::vector<Frame> frames_;
  uint64_t head_ = 0;
  mutable uint64_t done_ = 0;
  mutable uint64_t started_ = 0;
  uint64_t tail_ = 0;
  TimeNs busy_until_ = 0;  // `done` of the last committed frame
  TimerId arrival_timer_ = kInvalidTimerId;

  // Lower strict-priority levels (level l at lower_[l - 1]); empty on a
  // one-level link.
  std::vector<FlatFifo<PacketPtr>> lower_;
  size_t lower_frames_ = 0;
  TimerId serializer_timer_ = kInvalidTimerId;

  // Bytes per level that have not started serializing: what drop-tail, RED
  // and ECN read at admission.
  mutable std::vector<int64_t> waiting_bytes_;
  mutable int64_t queued_bytes_ = 0;
  Rng red_rng_;
  mutable LinkStats stats_;
};

// Snapshot a LinkStats into `registry` under `label` (the link's name).
void PublishLinkStats(const LinkStats& stats, const std::string& label,
                      MetricsRegistry* registry);

}  // namespace juggler

#endif  // JUGGLER_SRC_NET_LINK_H_
