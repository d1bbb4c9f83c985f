// Shared helpers for the figure-reproduction benches. Each bench binary
// reproduces one table/figure from the paper and prints the series as an
// aligned table (see EXPERIMENTS.md for the paper-vs-measured record).

#ifndef JUGGLER_BENCH_BENCH_COMMON_H_
#define JUGGLER_BENCH_BENCH_COMMON_H_

#include <cstdio>
#include <string>

#include "src/qos/priority_controller.h"
#include "src/scenario/gro_factories.h"
#include "src/scenario/sampler.h"
#include "src/scenario/topologies.h"
#include "src/stats/stats.h"
#include "src/stats/table_printer.h"
#include "src/workload/message_stream.h"
#include "src/workload/rpc_generator.h"

namespace juggler {

inline void PrintHeader(const char* figure, const char* description) {
  std::printf("\n=== %s ===\n%s\n\n", figure, description);
}

// Goodput of an endpoint pair measured at the receiver over [t1, t2].
class GoodputMeter {
 public:
  explicit GoodputMeter(const TcpEndpoint* receiver) : receiver_(receiver) {}

  void Reset() { start_bytes_ = receiver_->bytes_delivered(); }

  double Gbps(TimeNs window) const {
    return ToGbps(
        RateBps(static_cast<int64_t>(receiver_->bytes_delivered() - start_bytes_), window));
  }

 private:
  const TcpEndpoint* receiver_;
  uint64_t start_bytes_ = 0;
};

// The paper's default host: 125us interrupt moderation, standard GRO unless
// overridden, default TCP.
inline HostConfig DefaultHost() {
  HostConfig hc;
  hc.rx.int_coalesce = Us(125);
  hc.gro_factory = MakeStandardGroFactory();
  return hc;
}

// Juggler tuned per §5.2.1 for a given line rate and expected reordering:
// inseq_timeout = time to receive one 64KB TSO at line rate; ofo_timeout =
// the expected reordering plus 50us of headroom.
inline JugglerConfig TunedJuggler(int64_t line_rate_bps, TimeNs expected_reorder) {
  JugglerConfig config;
  config.inseq_timeout = SerializationTime(kMaxTsoPayload, line_rate_bps);
  // §5.2.1: "it is better to slightly over-estimate ofo_timeout since packet
  // loss is rare in datacenters". Under continuous line-rate load NAPI stays
  // in polling mode, so interrupt coalescing absorbs less than a full tau0 of
  // the reordering; tune with headroom above tau rather than shaving tau0.
  const TimeNs ofo = expected_reorder + Us(50);
  config.ofo_timeout = ofo > Us(50) ? ofo : Us(50);
  return config;
}

}  // namespace juggler

#endif  // JUGGLER_BENCH_BENCH_COMMON_H_
