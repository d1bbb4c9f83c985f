// Link/path failure modeling: scheduled blackhole windows and rate
// brown-outs on a Link, so load-balanced paths can flap mid-run.
//
// A LinkFlapper owns a list of FlapWindows against one Link and schedules
// SetDown()/SetUp() (or a temporary rate/queue-limit degradation) on the
// event loop. Windows are fixed at Start(); randomized schedules come from
// MakeRandomWindows, which draws every parameter from a caller-seeded Rng —
// the fault layer's determinism contract.

#ifndef JUGGLER_SRC_FAULT_LINK_FLAPPER_H_
#define JUGGLER_SRC_FAULT_LINK_FLAPPER_H_

#include <cstdint>
#include <vector>

#include "src/net/link.h"
#include "src/sim/event_loop.h"
#include "src/util/rng.h"
#include "src/util/time.h"

namespace juggler {

struct FlapWindow {
  TimeNs down_at = 0;
  TimeNs up_at = 0;
  // 0: full blackhole (SetDown/SetUp). > 0: the link stays up but its rate
  // degrades to this value for the window (brown-out).
  int64_t degraded_rate_bps = 0;
  // <= 0: leave the queue limit alone; > 0: shrink it for the window.
  int64_t degraded_queue_limit_bytes = 0;
};

class LinkFlapper {
 public:
  LinkFlapper(EventLoop* loop, Link* link, std::vector<FlapWindow> windows);

  // Schedules every window. Call once, before (or while) traffic flows.
  void Start();

  uint64_t flaps_started() const { return flaps_started_; }
  uint64_t flaps_finished() const { return flaps_finished_; }

  // `count` windows of length [min_down, max_down] placed uniformly in
  // [horizon/8, horizon), non-overlapping (later windows are pushed past
  // earlier ones). With `blackhole` false, windows degrade the rate to
  // between 5% and 50% of `full_rate_bps` instead of going down.
  static std::vector<FlapWindow> MakeRandomWindows(Rng* rng, TimeNs horizon, int count,
                                                   TimeNs min_down, TimeNs max_down,
                                                   bool blackhole, int64_t full_rate_bps);

 private:
  void Apply(const FlapWindow& w);
  void Restore(const FlapWindow& w);

  EventLoop* loop_;
  Link* link_;
  std::vector<FlapWindow> windows_;
  int64_t original_rate_bps_;
  int64_t original_queue_limit_bytes_;
  uint64_t flaps_started_ = 0;
  uint64_t flaps_finished_ = 0;
  bool started_ = false;
};

}  // namespace juggler

#endif  // JUGGLER_SRC_FAULT_LINK_FLAPPER_H_
