// perf_core: the repo's perf binary. One run measures every tracked rate and
// writes the whole BENCH_core.json; nothing is read back or merged.
//
// Unlike the fig* benches (which measure the *simulated* system), perf_core
// measures the simulator itself:
//
//   * timed rates, each the best of N passes: EventLoop events/sec, timer
//     churn, the single-flow GRO datapath with and without a flight
//     recorder, and the full RSS and COREC receive drivers. These are the
//     rates every experiment is bottlenecked by. After every pass a fixed
//     calibration kernel is timed too, and `--gate` judges the event-loop,
//     timer-churn and GRO rates in kernel units against the reference ratios
//     in kGatedRates, so the verdict does not move with the box's speed.
//   * fabric_scaling: ONE large scenario (a 32-host sharded Clos) at 1/2/4/8
//     workers on the conservative-lookahead engine.
//   * flow_scale / tcp_scale: the GRO datapath and the TCP endpoint table at
//     10k / 100k / 1M flows, plus the ungated gro_churn row: 256 flows
//     against a 16-entry gro_table, evicting on nearly every packet.
//
// The simulated parts are deterministic, so every run also checks them and
// exits 1 on a miss: every fabric transfer completes within its time limit
// with the same outcome at every worker count, every TCP demux lookup hits,
// and bytes per flow and per connection grow at most 1.2x across the top
// decade.
//
// Modes:
//   perf_core [--smoke] [--out PATH] [--gate RATIO]
//       run the suite and write BENCH_core.json. --gate (RATIO in (0, 1])
//       fails a gated rate whose kernel ratio is below RATIO of its
//       reference, or a COREC per-packet cost above 1.3x of RSS's; a gated
//       --smoke takes passes for 10 s, up to 30 s while a check fails.
//   perf_core --check PATH
//       schema-check an existing BENCH_core.json

#include <time.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <initializer_list>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_common.h"
#include "src/core/juggler.h"
#include "src/gro/flow_table.h"
#include "src/nic/rx_driver.h"
#include "src/obs/flight_recorder.h"
#include "src/packet/packet.h"
#include "src/sim/event_loop.h"
#include "src/tcp/tcp_endpoint.h"
#include "src/util/json.h"
#include "src/util/thread_budget.h"
#include "src/util/time.h"

namespace juggler {
namespace {

double Seconds(std::chrono::steady_clock::duration d) {
  return std::chrono::duration<double>(d).count();
}

// CPU seconds the calling thread has used. Every single-threaded rate and the
// calibration kernel are timed on this clock, not the wall clock, so no
// reading is charged for the slices another process (or, on a guest that
// accounts steal time, another guest) takes from its core mid-timing. On
// the wall clock, a run pinned to one CPU beside a busy loop read
// event_loop at 0.5x of its kernel ratio: the scheduler's 4 ms slices cut
// every timing longer than a slice, while the shorter kernel slipped
// between them.
double ThreadCpuSeconds() {
  timespec ts{};
  if (clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts) != 0) {
    std::perror("perf_core: clock_gettime(CLOCK_THREAD_CPUTIME_ID)");
    std::exit(1);
  }
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

// The best of `reps` runs of `measure`, by the rate `per_sec` names.
template <typename Measure, typename Rate>
auto BestOf(int reps, Measure measure, Rate per_sec) {
  auto best = measure();
  for (int i = 1; i < reps; ++i) {
    auto cur = measure();
    if (cur.*per_sec > best.*per_sec) {
      best = std::move(cur);
    }
  }
  return best;
}

// ---------------------------------------------------------------- events --

// Self-rescheduling event chains, the pattern links/NICs/TCP use. Captures
// are sized like real call sites (a couple of pointers plus flags), which is
// past std::function's inline buffer but inside TimerCallback's.
struct Chain {
  EventLoop* loop = nullptr;
  uint64_t remaining = 0;
  uint64_t fired = 0;
  uint64_t pad0 = 0, pad1 = 0;  // mimic per-callsite state captured by value

  void Arm() {
    loop->Schedule(1, [this, a = pad0, b = pad1] {
      pad0 = a + b;
      ++fired;
      if (--remaining > 0) {
        Arm();
      }
    });
  }
};

double MeasureEventsPerSec(uint64_t total_events) {
  EventLoop loop;
  constexpr uint64_t kChains = 8;
  std::vector<Chain> chains(kChains);
  // Untimed warm-up: first-touching the wheel arrays, callback slab, and
  // malloc arenas is a fixed cost (~ms) that would otherwise dominate
  // smoke-sized runs and read as a throughput regression.
  for (auto& c : chains) {
    c.loop = &loop;
    c.remaining = total_events / kChains / 16 + 1;
  }
  for (auto& c : chains) {
    c.Arm();
  }
  loop.Run();
  for (auto& c : chains) {
    c.fired = 0;
    c.remaining = total_events / kChains;
  }
  const double t0 = ThreadCpuSeconds();
  for (auto& c : chains) {
    c.Arm();
  }
  loop.Run();
  const double secs = ThreadCpuSeconds() - t0;
  uint64_t fired = 0;
  for (const auto& c : chains) {
    fired += c.fired;
  }
  return static_cast<double>(fired) / secs;
}

// TCP-RTO-style churn: arm a far-future timer, cancel it on the next "ACK".
// Schedule+cancel dominates; the loop must keep its bookkeeping cheap and its
// heap compact while almost nothing ever fires.
double MeasureTimerChurnOpsPerSec(uint64_t total_ops) {
  EventLoop loop;
  uint64_t fires = 0;
  uint64_t sink = 0;
  // Untimed warm-up, same rationale as the events bench: first-touch of the
  // wheel slots and the callback freelist is a fixed cost the steady-state
  // rate should not carry.
  for (uint64_t i = 0; i < total_ops / 16 + 1; ++i) {
    loop.Cancel(loop.Schedule(Ms(200), [&fires] { ++fires; }));
  }
  loop.Run();
  const double t0 = ThreadCpuSeconds();
  for (uint64_t i = 0; i < total_ops; ++i) {
    const TimerId id =
        loop.Schedule(Ms(200), [&fires, &sink, i] { fires += 1 + (sink & 0) + (i & 0); });
    loop.Cancel(id);
    if ((i & 1023) == 0) {
      // Keep a trickle of real fires mixed in so the heap never goes fully
      // dead (matches ACK-clocked RTO re-arming).
      loop.Schedule(0, [&fires] { ++fires; });
      loop.RunSteps(1);
    }
  }
  loop.Run();
  const double secs = ThreadCpuSeconds() - t0;
  return static_cast<double>(total_ops) / secs;
}

// ------------------------------------------------------------- datapath --

// Bench-local host: collects segments, records the armed timer deadline.
struct BenchGroHost : GroHost {
  std::vector<Segment> delivered;
  TimeNs armed = GroEngine::kNoTimer;

  void GroDeliver(Segment s) override { delivered.push_back(std::move(s)); }
  void GroArmTimer(TimeNs when) override { armed = when; }
};

// Distinct five-tuples spread across source addresses and ports, in flow
// order for round-robin drives.
std::vector<FiveTuple> MakeTuples(size_t flows) {
  std::vector<FiveTuple> tuples(flows);
  for (size_t i = 0; i < flows; ++i) {
    tuples[i].src_ip = 0x0a000000u + static_cast<uint32_t>(i / 40'000);
    tuples[i].dst_ip = 0x0a800001;
    tuples[i].src_port = static_cast<uint16_t>(1024 + i % 40'000);
    tuples[i].dst_port = 443;
  }
  return tuples;
}

struct GroPoint {
  size_t flows = 0;
  double packets_per_sec = 0;
  double bytes_per_flow = 0;  // flow-table memory over resident flows
};

// The one GRO drive: in-order MTU packets round-robin across `flows` flows,
// one NAPI-budget batch per poll round through a Juggler whose gro_table
// holds `max_flows`, segments delivered through the engine's GroHost.
//   * One flow is the Fig. 9 fast path, the per-packet cost every simulated
//     byte pays (gro_datapath).
//   * A population that fits the table is the worst realistic locality:
//     every packet is a different flow, so every lookup starts cold
//     (flow_scale).
//   * A population past the cap evicts on nearly every packet (gro_churn).
// `recorder` null measures the shipped configuration (the flight-recorder
// branches compile in but never fire); non-null measures the fully
// instrumented path, ring writes included.
GroPoint DriveGro(size_t flows, size_t max_flows, uint64_t total_packets,
                  FlightRecorder* recorder = nullptr) {
  CpuCostModel costs;
  JugglerConfig config;
  config.max_flows = max_flows;
  Juggler engine(&costs, config);

  TimeNs now = 0;
  BenchGroHost host;
  GroEngine::Context ctx;
  ctx.now = &now;
  ctx.host = &host;
  ctx.recorder = recorder;
  engine.set_context(ctx);

  PacketFactory factory;
  constexpr uint64_t kBudget = 64;  // NAPI budget per poll round
  std::vector<PacketPtr> batch;
  batch.reserve(kBudget);
  // Allocated after the engine, factory and batch so those sit on the heap
  // where a tuple-less single-flow loop puts them: heap placement alone
  // moved gro_datapath by up to a third on a shared 4-vCPU VM.
  const std::vector<FiveTuple> tuples = MakeTuples(flows);
  size_t cursor = 0;
  Seq seq = 0;  // round-robin, so every flow of one round sends the same seq
  uint64_t done = 0;
  const double t0 = ThreadCpuSeconds();
  while (done < total_packets) {
    batch.clear();
    for (uint64_t j = 0; j < kBudget; ++j) {
      PacketPtr p = factory.Make();
      p->flow = tuples[cursor];
      p->seq = seq;
      p->payload_len = kMss;
      p->flags = kFlagAck;
      p->nic_rx_time = now;
      batch.push_back(std::move(p));
      if (++cursor == flows) {
        cursor = 0;
        seq += kMss;
      }
    }
    // One batch per poll round, as NicRx::DoPoll hands them off.
    engine.ReceiveBatch(batch.data(), batch.size());
    done += kBudget;
    engine.PollComplete();
    now += Us(5);
    if (host.armed != GroEngine::kNoTimer && host.armed <= now) {
      host.armed = GroEngine::kNoTimer;
      engine.OnTimer();
    }
    host.delivered.clear();
  }
  const double secs = ThreadCpuSeconds() - t0;

  GroPoint point;
  point.flows = flows;
  point.packets_per_sec = static_cast<double>(done) / secs;
  point.bytes_per_flow = static_cast<double>(engine.flow_table_resident_bytes()) /
                         static_cast<double>(engine.flow_table_size());
  return point;
}

// ------------------------------------------------------------ rx drivers --

// Full receive-driver datapath on a live EventLoop: wire -> ring ->
// poll/claim machinery -> batched GRO -> segment sink. Unlike the NIC-less
// gro_datapath bench above, this pays each driver's own bookkeeping (NAPI
// sessions for RSS; claim/commit windows and the in-order hand-off for
// COREC), which is exactly the per-packet overhead the corec gate bounds.
struct CountingSink : SegmentSink {
  uint64_t bytes = 0;
  void OnSegment(Segment s) override { bytes += s.payload_len; }
};

double MeasureRxDriverPacketsPerSec(RxDriverKind kind, uint64_t total_packets) {
  EventLoop loop;
  CpuCostModel costs;
  CountingSink sink;
  NicRxConfig cfg;
  cfg.driver = kind;
  std::unique_ptr<RxDriver> nic = MakeRxDriver(
      &loop, &costs, cfg,
      [](const CpuCostModel* c) -> std::unique_ptr<GroEngine> {
        return std::make_unique<Juggler>(c, JugglerConfig{});
      },
      &sink);

  PacketFactory factory;
  FiveTuple flow;
  flow.src_ip = 0x0a000001;
  flow.dst_ip = 0x0a000002;
  flow.src_port = 1000;
  flow.dst_port = 2000;

  constexpr uint64_t kBurst = 64;
  Seq seq = 0;
  auto burst = [&] {
    for (uint64_t j = 0; j < kBurst; ++j) {
      PacketPtr p = factory.Make();
      p->flow = flow;
      p->seq = seq;
      p->payload_len = kMss;
      p->flags = kFlagAck;
      nic->Accept(std::move(p));
      seq += kMss;
    }
    loop.Run();
  };
  // Untimed warm-up (first-touch of rings, cores, GRO tables).
  for (uint64_t done = 0; done < total_packets / 16 + kBurst; done += kBurst) {
    burst();
  }
  uint64_t done = 0;
  const double t0 = ThreadCpuSeconds();
  while (done < total_packets) {
    burst();
    done += kBurst;
  }
  const double secs = ThreadCpuSeconds() - t0;
  return static_cast<double>(done) / secs;
}

// ----------------------------------------------------------- calibration --

// The gate's yardstick, timed after every pass in the same process as the
// rates it judges. It runs two halves of about equal length:
//   * a dependent pointer chase: each step loads a slot of a 256 KB table
//     (resident in a server core's L2) at an address hashed from the last
//     load, so it waits on load and multiply latency;
//   * an ALU chain: four independent multiply/xor lanes, bound by execution
//     throughput, of which a busy sibling hyperthread takes a share.
// The simulator's hot paths pay both kinds of cost, so a slow clock, a
// neighbour's cache pressure or a shared core slows the kernel as it slows
// them, while the kernel's work is the same in every run and build. In the
// passes of a 10-minute trace on a shared VM where the gated rates read
// below 0.65x of their usual best, the chase alone read 0.79x of its own,
// the lanes alone 0.72x and the two together 0.75x.
class CalibrationKernel {
 public:
  CalibrationKernel() : slots_(kSlots) {
    uint64_t s = 1;
    for (uint32_t& slot : slots_) {
      s = s * 6364136223846793005u + 1442695040888963407u;  // Knuth's MMIX LCG
      slot = static_cast<uint32_t>(s >> 32);
    }
  }

  // Steps per second, a step being one chase load and four rounds of the
  // lanes.
  double StepsPerSec() const {
    constexpr uint64_t kMul = 0x9E3779B97F4A7C15u;
    uint64_t x = 0;
    for (uint32_t slot : slots_) {  // untimed: the pass before evicted the table
      x += slot;
    }
    uint64_t a = 1, b = 2, c = 3, d = 4;
    const double t0 = ThreadCpuSeconds();
    for (uint64_t i = 0; i < kSteps; ++i) {
      x = (x ^ slots_[x >> 48]) * kMul;  // x >> 48 < kSlots
    }
    for (uint64_t i = 0; i < 4 * kSteps; ++i) {
      a = (a ^ (a >> 29)) * kMul;
      b = (b ^ (b >> 31)) * kMul;
      c = (c ^ (c >> 27)) * kMul;
      d = (d ^ (d >> 33)) * kMul;
    }
    const double secs = ThreadCpuSeconds() - t0;
    volatile uint64_t sink = x + a + b + c + d;  // the results are used, so both halves run
    (void)sink;
    return static_cast<double>(kSteps) / secs;
  }

 private:
  static constexpr size_t kSlots = size_t{1} << 16;  // 64k x 4 B = 256 KB
  // ~4 ms on a current server core, about as long as one gated timing.
  static constexpr uint64_t kSteps = uint64_t{1} << 18;
  std::vector<uint32_t> slots_;
};

// ----------------------------------------------------------- timed rates --

struct Rates {
  double events_per_sec = 0;
  double churn_ops_per_sec = 0;
  double packets_per_sec = 0;
  double obs_on_packets_per_sec = 0;  // same datapath, flight recorder attached
  double rss_driver_packets_per_sec = 0;    // full NicRx (RSS+NAPI) datapath
  double corec_driver_packets_per_sec = 0;  // full CorecRx datapath
  double kernel_steps_per_sec = 0;          // the calibration kernel
  int passes = 0;                           // each rate is the best of this many
  double seconds = 0;                       // wall time the passes took
};

double Ratio(double cur, double base) { return base > 0 ? cur / base : 0.0; }

// COREC's per-packet cost = rss_rate / corec_rate (rates invert costs).
double CorecCostRatio(const Rates& r) {
  return Ratio(r.rss_driver_packets_per_sec, r.corec_driver_packets_per_sec);
}

// The COREC acceptance bar: the concurrent single-queue driver's per-packet
// cost, through the full driver datapath, stays within this factor of
// RSS+NAPI's. Its claim/commit and hand-off bookkeeping may cost something,
// but must not change the simulator's complexity class.
constexpr double kCorecMaxCostRatio = 1.3;

// The gated rates and their references in kernel units: the rate's best
// reading over a gated smoke divided by the calibration kernel's best over
// the same window. Read with src/ at commit 4bf998b, RelWithDebInfo (GCC 12),
// on a shared 4-vCPU KVM VM (Intel Xeon, family 6 model 207, 2 MB L2 per
// core): medians of 12 gated smokes, quiet and beside busy-loop hogs. After
// a deliberate speed change, re-read them from the `per kernel` column of a
// few `perf_core --smoke --gate 0.7` runs and edit them here.
struct GatedRate {
  const char* key;    // under "calibrated" in BENCH_core.json
  const char* label;  // printed metric name
  double Rates::*rate;
  double reference;
};
constexpr GatedRate kGatedRates[] = {
    {"event_loop", "event_loop events/sec", &Rates::events_per_sec, 0.698},
    {"timer_churn", "timer_churn ops/sec", &Rates::churn_ops_per_sec, 1.99},
    {"gro_datapath", "gro_datapath packets/sec", &Rates::packets_per_sec, 1.06},
};

double KernelRatio(const Rates& r, const GatedRate& g) {
  return Ratio(r.*g.rate, r.kernel_steps_per_sec);
}

// The perf gate: every gated rate's kernel ratio must hold at least
// `tolerance` of its reference, and COREC must hold its cost bar. Returns
// the number of failures. With `report`, each failure names the metric with
// its rate, the kernel's rate, the ratio, the reference and the line it
// crossed, so a CI log is actionable without rerunning.
int Gate(const Rates& r, double tolerance, bool report) {
  int failures = 0;
  for (const GatedRate& g : kGatedRates) {
    const double ratio = KernelRatio(r, g);
    if (ratio < tolerance * g.reference) {
      if (report) {
        std::fprintf(stderr,
                     "PERF GATE FAIL: %s = %.0f at kernel %.0f steps/sec is %.4f per kernel "
                     "step, %.2fx of reference %.4f (tolerance %.2fx)\n",
                     g.label, r.*g.rate, r.kernel_steps_per_sec, ratio, ratio / g.reference,
                     g.reference, tolerance);
      }
      ++failures;
    }
  }
  const double cost_ratio = CorecCostRatio(r);
  if (cost_ratio <= 0.0 || cost_ratio > kCorecMaxCostRatio) {
    if (report) {
      std::fprintf(stderr,
                   "COREC GATE FAIL: corec per-packet cost is %.2fx of rss "
                   "(tolerance %.2fx) — the claim/commit path got expensive\n",
                   cost_ratio, kCorecMaxCostRatio);
    }
    ++failures;
  }
  if (report && failures == 0) {
    std::printf("perf gate: all kernel ratios >= %.2fx of reference, corec cost <= %.1fx of rss\n",
                tolerance, kCorecMaxCostRatio);
  }
  return failures;
}

// A smoke pass takes ~35 ms, and on a shared box a single pass reads anywhere
// from 0.5x to 1.0x of the code's rate as busy neighbours come and go, in
// spells that last seconds. So a gated smoke keeps taking passes for
// kGatedSmokeBudget and judges each rate's best reading over the window
// divided by the kernel's best over the same window (min-of-N timing on
// both sides, like the full run's best of 3): a box that is slow for the
// whole window slows both alike, and a window long enough to hold a fast
// spell lets both catch it. In a 10-minute trace on a shared 4-vCPU VM the
// ratios of 3 s windows read as low as 0.60x of their median, those of
// 10 s windows 0.91x. A spell can outlast a window (one held the gated
// rates at 0.6x and a chase-only kernel at 0.94x for a whole 10 s), so
// while the verdict is a failure the smoke keeps taking passes, up to
// kGatedSmokeMaxBudget. That cannot pass a real regression: more passes
// only move both best readings, and so their ratio, closer to their true
// values. An ungated smoke (the sanitizer builds, whose passes are slow)
// takes exactly one pass.
constexpr std::chrono::seconds kGatedSmokeBudget{10};
constexpr std::chrono::seconds kGatedSmokeMaxBudget{30};

Rates MeasureRates(bool smoke, double gate_tolerance) {
  const uint64_t events = smoke ? 200'000 : 4'000'000;
  // Churn ops are ~10ns each: 200k would be a 2ms window where one scheduler
  // preemption halves the reading. 1M keeps a smoke pass under 15ms.
  const uint64_t churn = smoke ? 1'000'000 : 4'000'000;
  const uint64_t packets = smoke ? 128'000 : 2'048'000;
  const size_t default_cap = JugglerConfig{}.max_flows;
  const int min_passes = smoke ? 1 : 3;
  const bool windowed = smoke && gate_tolerance > 0.0;
  const CalibrationKernel kernel;
  const auto start = std::chrono::steady_clock::now();
  auto done = [&](const Rates& best) {
    const auto elapsed = std::chrono::steady_clock::now() - start;
    return best.passes >= min_passes &&
           (!windowed || elapsed >= kGatedSmokeMaxBudget ||
            (elapsed >= kGatedSmokeBudget && Gate(best, gate_tolerance, false) == 0));
  };

  Rates best;
  while (!done(best)) {
    ++best.passes;
    Rates cur;
    cur.events_per_sec = MeasureEventsPerSec(events);
    cur.churn_ops_per_sec = MeasureTimerChurnOpsPerSec(churn);
    cur.packets_per_sec = DriveGro(1, default_cap, packets).packets_per_sec;
    {
      FlightRecorder recorder(/*shard=*/0);
      cur.obs_on_packets_per_sec = DriveGro(1, default_cap, packets, &recorder).packets_per_sec;
    }
    const uint64_t driver_packets = packets / 4;  // full drivers are ~4x costlier
    cur.rss_driver_packets_per_sec =
        MeasureRxDriverPacketsPerSec(RxDriverKind::kRss, driver_packets);
    cur.corec_driver_packets_per_sec =
        MeasureRxDriverPacketsPerSec(RxDriverKind::kCorec, driver_packets);
    cur.kernel_steps_per_sec = kernel.StepsPerSec();
    best.events_per_sec = std::max(best.events_per_sec, cur.events_per_sec);
    best.churn_ops_per_sec = std::max(best.churn_ops_per_sec, cur.churn_ops_per_sec);
    best.packets_per_sec = std::max(best.packets_per_sec, cur.packets_per_sec);
    best.obs_on_packets_per_sec =
        std::max(best.obs_on_packets_per_sec, cur.obs_on_packets_per_sec);
    best.rss_driver_packets_per_sec =
        std::max(best.rss_driver_packets_per_sec, cur.rss_driver_packets_per_sec);
    best.corec_driver_packets_per_sec =
        std::max(best.corec_driver_packets_per_sec, cur.corec_driver_packets_per_sec);
    best.kernel_steps_per_sec = std::max(best.kernel_steps_per_sec, cur.kernel_steps_per_sec);
  }
  best.seconds = Seconds(std::chrono::steady_clock::now() - start);
  return best;
}

// ---------------------------------------------------------------- fabric --

// A 32-host Clos (16 per ToR, 2 spines) runs 16 concurrent bulk transfers
// (left host i -> right host i). The engine gives each rack (a ToR and its
// hosts) and each spine a domain, and the worker count is a pure
// multiplexing knob, so the outcome must be identical at every count: the
// curve is pure engine scaling, not workload drift. `hardware_threads` goes
// into the JSON so a curve measured on a small machine is not mistaken for
// the engine's ceiling.
struct FabricPoint {
  size_t requested = 0;  // worker threads asked of the engine
  size_t workers = 0;    // granted by the thread budget
  double wall_s = 0;
  uint64_t packets = 0;          // sum of NicRx packets_in over all 32 hosts
  uint64_t delivered_bytes = 0;  // sum over the 16 receivers
  uint64_t target_bytes = 0;     // what the 16 transfers send
  uint64_t windows = 0;          // engine lookahead windows
  uint64_t events = 0;           // events executed across all domain loops
  double packets_per_sec = 0;    // simulated packets per wall second
};

constexpr TimeNs kFabricLimit = Ms(800);

FabricPoint RunFabric(size_t workers, uint64_t bytes_per_pair) {
  CpuCostModel costs;
  ShardedEngine engine(workers);
  ClosOptions opt;
  opt.hosts_per_tor = 16;
  opt.host_template = DefaultHost();
  opt.host_template.rx.int_coalesce = Us(20);
  opt.host_template.gro_factory =
      MakeJugglerFactory(TunedJuggler(opt.host_link_rate_bps, Us(100)));
  ShardedClosTestbed t = BuildShardedClos(&engine, &costs, opt);

  std::vector<EndpointPair> pairs;
  pairs.reserve(t.left_hosts.size());
  for (size_t i = 0; i < t.left_hosts.size(); ++i) {
    pairs.push_back(ConnectHosts(t.left_hosts[i], t.right_hosts[i], 1000, 2000));
    pairs.back().a_to_b->Send(bytes_per_pair);
  }

  FabricPoint p;
  p.requested = workers;
  p.target_bytes = bytes_per_pair * pairs.size();
  const auto t0 = std::chrono::steady_clock::now();
  TimeNs now = 0;
  while (now < kFabricLimit && p.delivered_bytes < p.target_bytes) {
    now += Ms(5);
    engine.Run(now);
    p.delivered_bytes = 0;
    for (const EndpointPair& pair : pairs) {
      p.delivered_bytes += pair.b_to_a->bytes_delivered();
    }
  }
  p.wall_s = Seconds(std::chrono::steady_clock::now() - t0);

  p.workers = engine.stats().workers;
  p.windows = engine.stats().windows;
  for (Host* h : t.left_hosts) {
    p.packets += h->nic_rx()->stats().packets_in;
  }
  for (Host* h : t.right_hosts) {
    p.packets += h->nic_rx()->stats().packets_in;
  }
  for (size_t d = 0; d < engine.domain_count(); ++d) {
    p.events += engine.domain(d)->loop().executed_events();
  }
  p.packets_per_sec = static_cast<double>(p.packets) / p.wall_s;
  return p;
}

// Runs 1/2/4/8 workers. Counts a failure when a run misses the time limit or
// any worker count changes the simulated outcome (a determinism bug, not a
// perf problem).
std::vector<FabricPoint> RunFabricSweep(bool smoke, int* failures) {
  const uint64_t bytes_per_pair = smoke ? 200'000 : 16'000'000;
  std::printf("\n=== fabric_scaling ===\n32-host Clos, 16 bulk pairs of %llu bytes, "
              "%u hardware thread(s), budget %zu\n\n",
              static_cast<unsigned long long>(bytes_per_pair),
              std::thread::hardware_concurrency(), ThreadBudget::Total());
  std::printf("%8s %8s %10s %12s %10s %12s %10s %10s %8s\n", "workers", "granted", "wall(s)",
              "pkts/sec", "packets", "bytes", "windows", "events", "speedup");

  std::vector<FabricPoint> points;
  for (size_t workers : {size_t{1}, size_t{2}, size_t{4}, size_t{8}}) {
    const FabricPoint p = BestOf(
        smoke ? 1 : 3, [&] { return RunFabric(workers, bytes_per_pair); },
        &FabricPoint::packets_per_sec);
    if (p.delivered_bytes < p.target_bytes) {
      std::fprintf(stderr, "FABRIC FAIL at %zu workers: %llu of %llu bytes delivered in %lld ms\n",
                   workers, static_cast<unsigned long long>(p.delivered_bytes),
                   static_cast<unsigned long long>(p.target_bytes),
                   static_cast<long long>(kFabricLimit / Ms(1)));
      ++*failures;
    }
    if (!points.empty()) {
      const FabricPoint& base = points.front();
      if (p.packets != base.packets || p.delivered_bytes != base.delivered_bytes ||
          p.windows != base.windows || p.events != base.events) {
        std::fprintf(stderr,
                     "DETERMINISM FAIL at %zu workers: packets %llu vs %llu, bytes %llu "
                     "vs %llu, windows %llu vs %llu, events %llu vs %llu\n",
                     workers, static_cast<unsigned long long>(p.packets),
                     static_cast<unsigned long long>(base.packets),
                     static_cast<unsigned long long>(p.delivered_bytes),
                     static_cast<unsigned long long>(base.delivered_bytes),
                     static_cast<unsigned long long>(p.windows),
                     static_cast<unsigned long long>(base.windows),
                     static_cast<unsigned long long>(p.events),
                     static_cast<unsigned long long>(base.events));
        ++*failures;
      }
    }
    std::printf("%8zu %8zu %10.3f %12.0f %10llu %12llu %10llu %10llu %7.1fx\n", p.requested,
                p.workers, p.wall_s, p.packets_per_sec, static_cast<unsigned long long>(p.packets),
                static_cast<unsigned long long>(p.delivered_bytes),
                static_cast<unsigned long long>(p.windows),
                static_cast<unsigned long long>(p.events),
                points.empty() ? 1.0 : p.packets_per_sec / points.front().packets_per_sec);
    points.push_back(p);
  }
  return points;
}

// ----------------------------------------------------------------- scale --

struct NullSink : PacketSink {
  void Accept(PacketPtr) override {}
};

struct TcpScalePoint {
  size_t connections = 0;
  double bytes_per_connection = 0;
  double lookups_per_sec = 0;
  uint64_t misses = 0;  // demux lookups that found no endpoint
};

// Creates `connections` TcpEndpoints inline in a FlowTable slab — the Host
// arrangement — then measures slab bytes per connection and the demux
// lookup rate (reversed-tuple Find across the whole population, round
// robin: every lookup cold, like flow_scale).
TcpScalePoint MeasureTcpAtConnCount(size_t connections, uint64_t total_lookups) {
  EventLoop loop;
  PacketFactory factory;
  NullSink sink;
  NicTx nic(&loop, &factory, &sink);
  TcpConfig tcp;

  const std::vector<FiveTuple> tuples = MakeTuples(connections);
  FlowTable<TcpEndpoint> table;
  for (const FiveTuple& local : tuples) {
    table.FindOrEmplace(local, &loop, tcp, local, &nic);
  }

  // Demux drill: inbound segments carry the peer's tuple, looked up
  // reversed — exercise exactly that access pattern.
  std::vector<FiveTuple> inbound(tuples.size());
  for (size_t i = 0; i < tuples.size(); ++i) {
    inbound[i] = tuples[i].Reversed();
  }
  uint64_t found = 0;
  size_t cursor = 0;
  const double t0 = ThreadCpuSeconds();
  for (uint64_t i = 0; i < total_lookups; ++i) {
    found += table.Find(inbound[cursor].Reversed()) != nullptr;
    cursor = cursor + 1 == inbound.size() ? 0 : cursor + 1;
  }
  const double secs = ThreadCpuSeconds() - t0;

  TcpScalePoint point;
  point.connections = connections;
  point.bytes_per_connection =
      static_cast<double>(table.resident_bytes()) / static_cast<double>(table.size());
  point.lookups_per_sec = static_cast<double>(total_lookups) / secs;
  point.misses = total_lookups - found;
  return point;
}

// Memory must stay flat across the top decade: the largest population's
// per-entry figure within 1.2x of the one below. Returns 1 on a miss.
int CheckFlat(const char* unit, size_t lo_n, double lo, size_t hi_n, double hi) {
  if (hi > 1.2 * lo) {
    std::fprintf(stderr, "SCALE FAIL: bytes/%s grew %zu->%zu: %.1f -> %.1f (>1.2x)\n", unit,
                 lo_n, hi_n, lo, hi);
    return 1;
  }
  return 0;
}

struct Scale {
  std::vector<GroPoint> flows;
  std::vector<TcpScalePoint> tcp;
  double churn_packets_per_sec = 0;
};

// Flow-count scaling of the GRO datapath and the TCP endpoint table (10k /
// 100k / 1M; smaller in --smoke), then gro_churn. Counts a failure for
// each population whose demux drill misses and for memory that is not flat.
Scale RunScale(bool smoke, int* failures) {
  const std::vector<size_t> populations =
      smoke ? std::vector<size_t>{1'000, 10'000}
            : std::vector<size_t>{10'000, 100'000, 1'000'000};
  const int reps = smoke ? 1 : 3;
  Scale s;

  std::printf("\n=== flow_scale ===\n\n%12s %18s %22s\n", "flows", "packets/sec",
              "resident bytes/flow");
  for (size_t flows : populations) {
    // Enough rounds that every flow is touched repeatedly once the table is
    // fully populated (at least ~8 packets per flow, floor of 512k total).
    // The table holds the whole population: no eviction mid-measurement.
    const uint64_t total = std::max<uint64_t>(8 * flows, smoke ? 128'000 : 512'000);
    const GroPoint p = BestOf(
        reps, [&] { return DriveGro(flows, flows, total); }, &GroPoint::packets_per_sec);
    std::printf("%12zu %18.0f %22.1f\n", p.flows, p.packets_per_sec, p.bytes_per_flow);
    s.flows.push_back(p);
  }

  std::printf("\n%12s %22s %18s\n", "connections", "resident bytes/conn", "demux/sec");
  for (size_t conns : populations) {
    const uint64_t lookups = std::max<uint64_t>(2 * conns, smoke ? 128'000 : 512'000);
    const TcpScalePoint p = BestOf(
        reps, [&] { return MeasureTcpAtConnCount(conns, lookups); },
        &TcpScalePoint::lookups_per_sec);
    std::printf("%12zu %22.1f %18.0f\n", p.connections, p.bytes_per_connection,
                p.lookups_per_sec);
    if (p.misses > 0) {
      std::fprintf(stderr, "SCALE FAIL: tcp demux missed %llu lookups at %zu connections\n",
                   static_cast<unsigned long long>(p.misses), conns);
      ++*failures;
    }
    s.tcp.push_back(p);
  }

  const GroPoint& hi = s.flows.back();
  const GroPoint& mid = s.flows[s.flows.size() - 2];
  const TcpScalePoint& thi = s.tcp.back();
  const TcpScalePoint& tmid = s.tcp[s.tcp.size() - 2];
  *failures += CheckFlat("flow", mid.flows, mid.bytes_per_flow, hi.flows, hi.bytes_per_flow);
  *failures += CheckFlat("conn", tmid.connections, tmid.bytes_per_connection, thi.connections,
                         thi.bytes_per_connection);

  // gro_churn: many flows against a small table, lookup + eviction on
  // nearly every packet (§3.3's strictly capped gro_table).
  constexpr size_t kChurnFlows = 256;
  constexpr size_t kChurnCap = 16;
  const uint64_t churn_packets = smoke ? 128'000 : 2'048'000;
  const GroPoint churn = BestOf(
      reps, [&] { return DriveGro(kChurnFlows, kChurnCap, churn_packets); },
      &GroPoint::packets_per_sec);
  s.churn_packets_per_sec = churn.packets_per_sec;
  std::printf("\ngro_churn: %zu flows against max_flows %zu: %.0f packets/sec\n", kChurnFlows,
              kChurnCap, s.churn_packets_per_sec);
  return s;
}

// ---------------------------------------------------------------- output --

Json BuildJson(const Rates& r, const std::vector<FabricPoint>& fabric, const Scale& scale) {
  Json doc = Json::Object();
  doc.Set("bench", Json::Str("perf_core"));
  Json current = Json::Object();
  current.Set("event_loop_events_per_sec", Json::Double(r.events_per_sec));
  current.Set("timer_churn_ops_per_sec", Json::Double(r.churn_ops_per_sec));
  current.Set("gro_datapath_packets_per_sec", Json::Double(r.packets_per_sec));
  current.Set("gro_datapath_obs_on_packets_per_sec", Json::Double(r.obs_on_packets_per_sec));
  current.Set("rx_driver_rss_packets_per_sec", Json::Double(r.rss_driver_packets_per_sec));
  current.Set("rx_driver_corec_packets_per_sec",
              Json::Double(r.corec_driver_packets_per_sec));
  current.Set("gro_churn_packets_per_sec", Json::Double(scale.churn_packets_per_sec));
  current.Set("calibration_kernel_steps_per_sec", Json::Double(r.kernel_steps_per_sec));
  doc.Set("current", std::move(current));
  Json calibrated = Json::Object();
  for (const GatedRate& g : kGatedRates) {
    Json entry = Json::Object();
    entry.Set("ratio", Json::Double(KernelRatio(r, g)));
    entry.Set("reference", Json::Double(g.reference));
    calibrated.Set(g.key, std::move(entry));
  }
  doc.Set("calibrated", std::move(calibrated));

  Json section = Json::Object();
  section.Set("scenario", Json::Str("clos_32_hosts_16_bulk_pairs"));
  section.Set("hardware_threads", Json::Uint(std::thread::hardware_concurrency()));
  Json points = Json::Array();
  for (const FabricPoint& p : fabric) {
    Json entry = Json::Object();
    entry.Set("requested_workers", Json::Uint(p.requested));
    entry.Set("granted_workers", Json::Uint(p.workers));
    entry.Set("packets_per_sec", Json::Double(p.packets_per_sec));
    entry.Set("speedup_vs_1worker",
              Json::Double(Ratio(p.packets_per_sec, fabric.front().packets_per_sec)));
    points.Push(std::move(entry));
  }
  section.Set("points", std::move(points));
  doc.Set("fabric_scaling", std::move(section));

  Json flows = Json::Array();
  for (const GroPoint& p : scale.flows) {
    Json entry = Json::Object();
    entry.Set("flows", Json::Uint(p.flows));
    entry.Set("packets_per_sec", Json::Double(p.packets_per_sec));
    entry.Set("resident_bytes_per_flow", Json::Double(p.bytes_per_flow));
    flows.Push(std::move(entry));
  }
  doc.Set("flow_scale", std::move(flows));
  Json tcp = Json::Array();
  for (const TcpScalePoint& p : scale.tcp) {
    Json entry = Json::Object();
    entry.Set("connections", Json::Uint(p.connections));
    entry.Set("resident_bytes_per_connection", Json::Double(p.bytes_per_connection));
    entry.Set("demux_lookups_per_sec", Json::Double(p.lookups_per_sec));
    tcp.Push(std::move(entry));
  }
  doc.Set("tcp_scale", std::move(tcp));
  return doc;
}

// Schema check: the file parses as a JSON object and every section carries
// its keys — numbers, except the two strings.
int CheckSchema(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "perf_core --check: cannot open %s\n", path.c_str());
    return 1;
  }
  std::stringstream ss;
  ss << in.rdbuf();
  Json doc;
  std::string error;
  if (!Json::Parse(ss.str(), &doc, &error) || !doc.is_object()) {
    std::fprintf(stderr, "perf_core --check: %s is not a JSON object (%s)\n", path.c_str(),
                 error.c_str());
    return 1;
  }
  int missing = 0;
  auto require = [&](const Json* section, const std::string& where,
                     std::initializer_list<const char*> keys, bool strings = false) {
    for (const char* key : keys) {
      const Json* v = section != nullptr ? section->Find(key) : nullptr;
      if (v == nullptr || (strings ? !v->is_string() : !v->is_number())) {
        std::fprintf(stderr, "perf_core --check: missing %s.%s\n", where.c_str(), key);
        ++missing;
      }
    }
  };
  auto require_rows = [&](const Json* rows, const char* where,
                          std::initializer_list<const char*> keys) {
    if (rows == nullptr || !rows->is_array() || rows->size() == 0) {
      std::fprintf(stderr, "perf_core --check: missing %s rows\n", where);
      ++missing;
      return;
    }
    for (const Json& row : rows->items()) {
      require(&row, where, keys);
    }
  };
  require(&doc, "", {"bench"}, /*strings=*/true);
  require(doc.Find("current"), "current",
          {"event_loop_events_per_sec", "timer_churn_ops_per_sec",
           "gro_datapath_packets_per_sec", "gro_datapath_obs_on_packets_per_sec",
           "rx_driver_rss_packets_per_sec", "rx_driver_corec_packets_per_sec",
           "gro_churn_packets_per_sec", "calibration_kernel_steps_per_sec"});
  const Json* calibrated = doc.Find("calibrated");
  for (const GatedRate& g : kGatedRates) {
    require(calibrated != nullptr ? calibrated->Find(g.key) : nullptr,
            std::string("calibrated.") + g.key, {"ratio", "reference"});
  }
  const Json* fabric = doc.Find("fabric_scaling");
  require(fabric, "fabric_scaling", {"scenario"}, /*strings=*/true);
  require(fabric, "fabric_scaling", {"hardware_threads"});
  require_rows(fabric != nullptr ? fabric->Find("points") : nullptr, "fabric_scaling.points",
               {"requested_workers", "granted_workers", "packets_per_sec",
                "speedup_vs_1worker"});
  require_rows(doc.Find("flow_scale"), "flow_scale",
               {"flows", "packets_per_sec", "resident_bytes_per_flow"});
  require_rows(doc.Find("tcp_scale"), "tcp_scale",
               {"connections", "resident_bytes_per_connection", "demux_lookups_per_sec"});
  if (missing > 0) {
    return 1;
  }
  std::printf("perf_core --check: %s ok\n", path.c_str());
  return 0;
}

void PrintRates(const Rates& r, bool smoke) {
  std::printf("\n=== perf_core ===\n(%s sizes, best of %d passes in %.1f s)\n\n",
              smoke ? "smoke" : "full", r.passes, r.seconds);
  std::printf("%-32s %16s %12s %12s %10s\n", "metric", "current", "per kernel", "reference",
              "vs ref");
  std::printf("%-32s %16.0f\n", "calibration kernel steps/sec", r.kernel_steps_per_sec);
  for (const GatedRate& g : kGatedRates) {
    const double ratio = KernelRatio(r, g);
    std::printf("%-32s %16.0f %12.4f %12.4f %9.2fx\n", g.label, r.*g.rate, ratio, g.reference,
                Ratio(ratio, g.reference));
  }
  std::printf("%-32s %16.0f %25s %9.2fx\n", "gro_datapath obs-on pkts/sec",
              r.obs_on_packets_per_sec, "(vs obs-off)",
              Ratio(r.obs_on_packets_per_sec, r.packets_per_sec));
  std::printf("%-32s %16.0f\n", "rx_driver rss pkts/sec", r.rss_driver_packets_per_sec);
  std::printf("%-32s %16.0f %25s %9.2fx\n", "rx_driver corec pkts/sec",
              r.corec_driver_packets_per_sec, "(cost vs rss)", CorecCostRatio(r));
}

int Main(int argc, char** argv) {
  bool smoke = false;
  double gate_tolerance = 0.0;  // 0 = no gate
  std::string out_path = "BENCH_core.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_path = argv[++i];
    } else if (std::strcmp(argv[i], "--gate") == 0 && i + 1 < argc) {
      const char* arg = argv[++i];
      char* end = nullptr;
      gate_tolerance = std::strtod(arg, &end);
      // The whole argument must parse: strtod alone reads "0.5x" as 0.5. A
      // tolerance above 1 would demand a speed-up.
      if (end == arg || *end != '\0' || !(gate_tolerance > 0.0 && gate_tolerance <= 1.0)) {
        std::fprintf(stderr, "perf_core: --gate needs a tolerance in (0, 1], got '%s'\n", arg);
        return 2;
      }
    } else if (std::strcmp(argv[i], "--check") == 0 && i + 1 < argc) {
      return CheckSchema(argv[++i]);
    } else {
      std::fprintf(stderr,
                   "usage: perf_core [--smoke] [--out PATH] [--gate RATIO] [--check PATH]\n");
      return 2;
    }
  }
  // Opened before the run, so an unwritable path fails in milliseconds.
  std::ofstream out(out_path);
  if (!out) {
    std::fprintf(stderr, "perf_core: cannot write %s\n", out_path.c_str());
    return 1;
  }

  const Rates r = MeasureRates(smoke, gate_tolerance);
  PrintRates(r, smoke);
  int failures = 0;
  const std::vector<FabricPoint> fabric = RunFabricSweep(smoke, &failures);
  const Scale scale = RunScale(smoke, &failures);

  out << BuildJson(r, fabric, scale).Dump(2) << "\n";
  out.close();
  if (!out) {
    std::fprintf(stderr, "perf_core: cannot write %s\n", out_path.c_str());
    return 1;
  }
  std::printf("\nwrote %s\n", out_path.c_str());
  if (gate_tolerance > 0.0) {
    failures += Gate(r, gate_tolerance, /*report=*/true);
  }
  return failures == 0 ? 0 : 1;
}

}  // namespace
}  // namespace juggler

int main(int argc, char** argv) { return juggler::Main(argc, argv); }
