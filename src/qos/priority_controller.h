// Bandwidth guarantees by dynamic packet prioritization (§2.1, §5.3.1).
//
// The controller marks each outgoing packet of a flow high-priority with
// probability p, adapting p once per update period with the paper's control
// law, Eq. (1):
//
//     p <- p + alpha * (Rt - Rm)
//
// where Rt is the target (guaranteed) rate and Rm the measured rate, both
// normalized to the line rate. When the flow runs below its guarantee, p
// rises, more of its packets jump the low-priority queue, and its rate
// recovers — entirely passively, with no rate limiting or hypervisor layer.
// The mechanism only works if the receiver tolerates the reordering that
// mixed-priority queueing induces; that is what Juggler provides.

#ifndef JUGGLER_SRC_QOS_PRIORITY_CONTROLLER_H_
#define JUGGLER_SRC_QOS_PRIORITY_CONTROLLER_H_

#include "src/sim/event_loop.h"
#include "src/tcp/tcp_endpoint.h"
#include "src/util/rng.h"

namespace juggler {

struct PriorityControllerConfig {
  double alpha = 0.1;
  int64_t target_rate_bps = 20 * kGbps;
  int64_t line_rate_bps = 40 * kGbps;  // normalization for Rt and Rm
  uint64_t seed = 42;
};

class PriorityController {
 public:
  // The paper measures the achieved rate "for every ACK received"; a short
  // period approximates that per-ACK cadence. A fast loop keeps priorities
  // genuinely mixed around the equilibrium p — which is exactly what makes
  // the scheme reorder packets and require Juggler. Rm is the raw rate over
  // the last period, unsmoothed, as the paper's per-ACK measurement is; the
  // resulting control noise keeps p exploring below 1.0.
  static constexpr TimeNs kUpdatePeriod = Us(50);

  PriorityController(EventLoop* loop, const PriorityControllerConfig& config,
                     TcpEndpoint* connection);

  // Installs the per-packet marker on the connection and begins the update
  // loop. Call once.
  void Start();
  void Stop() { running_ = false; }

  double p() const { return p_; }

 private:
  void Update();
  Priority Mark();

  EventLoop* loop_;
  PriorityControllerConfig config_;
  TcpEndpoint* connection_;
  Rng rng_;
  double p_ = 0.0;  // all flows start at lowest priority (§5.3.1)
  uint64_t last_bytes_acked_ = 0;
  bool running_ = false;
};

}  // namespace juggler

#endif  // JUGGLER_SRC_QOS_PRIORITY_CONTROLLER_H_
