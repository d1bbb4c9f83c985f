#include "perfbench/workloads.h"

#include <algorithm>
#include <cstdio>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "perfbench/harness.h"
#include "perfbench/timed_gro.h"
#include "src/scenario/chaos_scenario.h"
#include "src/scenario/gro_factories.h"
#include "src/scenario/topologies.h"
#include "src/workload/message_stream.h"
#include "src/workload/rpc_generator.h"

namespace perfbench {
namespace {

using namespace juggler;

// Run steps: callers advance scenarios in slices of simulated time and look
// at the outcome in between (the figure benches and the chaos engine use
// 10 ms, perf_fabric 5 ms on the sharded engine).
constexpr TimeNs kStep = Ms(10);
constexpr TimeNs kShardedStep = Ms(5);

// netfpga_reorder: one 10 Gb/s bulk transfer of a fixed size, so every seed
// moves the same simulated work. (A fixed window would not: with some seeds
// the flow stalls early and moves a quarter of the packets.)
constexpr uint64_t kNetFpgaBytes = 100'000'000;
constexpr TimeNs kNetFpgaLimit = Sec(2);
constexpr TimeNs kNetFpgaReorder = Us(500);
// Packets of the first netfpga scenario captured for the GRO replay.
constexpr size_t kCapturePackets = 200'000;
constexpr int kReplayPasses = 5;

// clos_rpc: RPC arrivals for 20 ms, then 10 ms of drain.
constexpr TimeNs kRpcArrivals = Ms(20);
constexpr TimeNs kRpcDrain = Ms(10);
constexpr double kRpcLoad = 0.75;

// clos_bulk_sharded: 16 transfers of this many bytes, 2 workers.
constexpr uint64_t kBulkBytesPerPair = 8'000'000;
constexpr size_t kBulkWorkers = 2;
constexpr TimeNs kBulkLimit = Ms(800);

// chaos_soak: consecutive chaos seeds per run (100, so that the p90 over
// them has ten samples beyond it).
constexpr size_t kChaosSeeds = 100;
// One-segment chaos scenarios timed per run for its set-up metric: this
// many seeds, each timed by its best of a few repeats.
constexpr int kChaosSetupSeeds = 20;
constexpr int kChaosSetupRepeats = 5;

// The paper's default host (125 us interrupt moderation, standard GRO).
HostConfig PaperHost(TimeNs int_coalesce) {
  HostConfig hc;
  hc.rx.int_coalesce = int_coalesce;
  hc.gro_factory = MakeStandardGroFactory();
  return hc;
}

// Juggler tuned per §5.2.1: inseq_timeout is one 64 KB TSO at line rate,
// ofo_timeout the expected reordering plus headroom.
JugglerConfig TunedJuggler(int64_t line_rate_bps, TimeNs expected_reorder) {
  JugglerConfig config;
  config.inseq_timeout = SerializationTime(kMaxTsoPayload, line_rate_bps);
  config.ofo_timeout = std::max(expected_reorder + Us(50), Us(50));
  return config;
}

// Optional spans: no-ops in untraced runs.
class Spans {
 public:
  explicit Spans(LayerProbe* probe)
      : tracer_(probe != nullptr ? probe->tracer() : nullptr),
        scenario_(probe != nullptr ? probe->scenario() : 0) {}

  bool on() const { return tracer_ != nullptr; }
  int Begin(const char* name, int parent = -1) {
    return tracer_ != nullptr ? tracer_->Begin(name, scenario_, parent) : -1;
  }
  // Seconds spent in the span; 0 when untraced.
  double End(int id, int64_t gro_busy_ns = -1) {
    return tracer_ != nullptr ? tracer_->End(id, gro_busy_ns) : 0.0;
  }

 private:
  Tracer* tracer_;
  uint64_t scenario_;
};

// The per-layer metric counting GRO flushes of one Table-2 reason.
std::string FlushMetric(int reason) {
  return std::string("gro.flush.") + FlushReasonName(static_cast<FlushReason>(reason));
}

// Packet-pool counters, read before and after a scenario's run phase.
struct PoolCounts {
  uint64_t acquired = 0;
  uint64_t fresh = 0;
  uint64_t exhausted = 0;

  void Add(const PacketPool& pool) {
    acquired += pool.acquired();
    fresh += pool.acquired() - pool.recycled();
    exhausted += pool.exhausted();
  }
  static PoolCounts ThreadPool() {
    PoolCounts c;
    c.Add(PacketPool::ThreadLocal());
    return c;
  }
};

void CountPools(const PoolCounts& before, const PoolCounts& after, LayerProbe* probe) {
  probe->Count("packet.acquired", static_cast<double>(after.acquired - before.acquired));
  probe->Count("packet.fresh_allocs", static_cast<double>(after.fresh - before.fresh));
  probe->Count("packet.exhausted", static_cast<double>(after.exhausted - before.exhausted));
}

// Receive-stack counters summed over hosts and TCP endpoints.
struct StackTotals {
  NicRxStats nic;
  GroStats gro;
  TcpSenderStats snd;
  TcpReceiverStats rcv;
  uint64_t stray_segments = 0;

  void AddHost(Host* host) {
    const NicRxStats& n = host->nic_rx()->stats();
    nic.packets_in += n.packets_in;
    nic.ring_drops += n.ring_drops;
    nic.interrupts += n.interrupts;
    nic.polls += n.polls;
    nic.ring_high_watermark = std::max(nic.ring_high_watermark, n.ring_high_watermark);
    const GroStats g = host->nic_rx()->TotalGroStats();
    gro.packets_in += g.packets_in;
    gro.data_packets_in += g.data_packets_in;
    gro.ooo_packets += g.ooo_packets;
    gro.segments_out += g.segments_out;
    gro.data_segments_out += g.data_segments_out;
    gro.mtus_out += g.mtus_out;
    gro.evictions += g.evictions;
    for (int i = 0; i < static_cast<int>(FlushReason::kReasonCount); ++i) {
      gro.flush_by_reason[i] += g.flush_by_reason[i];
    }
    stray_segments += host->stray_segments();
  }

  void AddEndpoint(const TcpEndpoint* e) {
    const TcpSenderStats& s = e->sender_stats();
    snd.bytes_sent += s.bytes_sent;
    snd.dupacks_in += s.dupacks_in;
    snd.fast_retransmits += s.fast_retransmits;
    snd.rtos += s.rtos;
    snd.retransmitted_bytes += s.retransmitted_bytes;
    snd.spurious_retransmits_detected += s.spurious_retransmits_detected;
    const TcpReceiverStats& r = e->receiver_stats();
    rcv.segments_in += r.segments_in;
    rcv.ooo_segments_in += r.ooo_segments_in;
    rcv.acks_sent += r.acks_sent;
    rcv.bytes_delivered += r.bytes_delivered;
  }

  void AddHosts(const std::vector<Host*>& hosts) {
    for (Host* h : hosts) AddHost(h);
  }
  void AddPairs(const std::vector<EndpointPair>& pairs) {
    for (const EndpointPair& p : pairs) {
      AddEndpoint(p.a_to_b);
      AddEndpoint(p.b_to_a);
    }
  }

  void DigestInto(Digest* d) const {
    for (uint64_t v : {nic.packets_in, nic.ring_drops, nic.interrupts, nic.polls,
                       gro.packets_in, gro.ooo_packets, gro.segments_out, gro.mtus_out,
                       gro.evictions, snd.bytes_sent, snd.dupacks_in, snd.fast_retransmits,
                       snd.rtos, snd.retransmitted_bytes, rcv.segments_in, rcv.ooo_segments_in,
                       rcv.acks_sent, rcv.bytes_delivered, stray_segments}) {
      d->Add(v);
    }
    for (uint64_t v : gro.flush_by_reason) d->Add(v);
  }

  void CountInto(LayerProbe* p) const {
    p->Count("nic.pkts_in", static_cast<double>(nic.packets_in));
    p->Count("nic.polls", static_cast<double>(nic.polls));
    p->Count("nic.interrupts", static_cast<double>(nic.interrupts));
    p->Count("nic.ring_drops", static_cast<double>(nic.ring_drops));
    p->CountMax("nic.ring_hwm", static_cast<double>(nic.ring_high_watermark));
    p->Count("gro.pkts_in", static_cast<double>(gro.packets_in));
    p->Count("gro.data_pkts_in", static_cast<double>(gro.data_packets_in));
    p->Count("gro.ooo_pkts", static_cast<double>(gro.ooo_packets));
    p->Count("gro.data_segments_out", static_cast<double>(gro.data_segments_out));
    p->Count("gro.mtus_out", static_cast<double>(gro.mtus_out));
    p->Count("gro.evictions", static_cast<double>(gro.evictions));
    for (int i = 0; i < static_cast<int>(FlushReason::kReasonCount); ++i) {
      p->Count(FlushMetric(i), static_cast<double>(gro.flush_by_reason[i]));
    }
    p->Count("tcp.segments_in", static_cast<double>(rcv.segments_in));
    p->Count("tcp.ooo_segments_in", static_cast<double>(rcv.ooo_segments_in));
    p->Count("tcp.acks_sent", static_cast<double>(rcv.acks_sent));
    p->Count("tcp.dupacks_in", static_cast<double>(snd.dupacks_in));
    p->Count("tcp.fast_retransmits", static_cast<double>(snd.fast_retransmits));
    p->Count("tcp.rtos", static_cast<double>(snd.rtos));
    p->Count("tcp.bytes_sent", static_cast<double>(snd.bytes_sent));
    p->Count("tcp.rtx_bytes", static_cast<double>(snd.retransmitted_bytes));
    p->Count("tcp.spurious_rtx", static_cast<double>(snd.spurious_retransmits_detected));
  }
};

void CountFabric(const Fabric& fabric, LayerProbe* p) {
  for (const auto& link : fabric.links) {
    const LinkStats& s = link->stats();
    p->Count("net.link_pkts_tx", static_cast<double>(s.packets_tx));
    p->Count("net.link_drops", static_cast<double>(s.drops));
    p->Count("net.red_drops", static_cast<double>(s.red_drops));
    p->CountMax("net.link_max_queue_bytes", static_cast<double>(s.max_queue_bytes));
  }
  for (const auto& sw : fabric.switches) {
    p->Count("net.switch_forwarded", static_cast<double>(sw->forwarded()));
  }
}

// One run step: times `advance` into the outcome's run phase and, traced,
// records its span with the GRO busy time spent inside it.
template <typename F>
void RunStep(const char* name, Spans* spans, int parent, const std::vector<TimedGro*>& engines,
             ScenarioOutcome* o, int64_t* gro_busy_ns, F&& advance) {
  const int64_t busy_before = TotalBusyNs(engines);
  const int id = spans->Begin(name, parent);
  const Clock::time_point start = Clock::now();
  advance();
  o->run_s += SecondsSince(start);
  const int64_t busy = TotalBusyNs(engines) - busy_before;
  *gro_busy_ns += busy;
  spans->End(id, spans->on() ? busy : -1);
}

// Per-scenario samples the workloads built from topology builders share.
void SampleRun(const ScenarioOutcome& o, const StackTotals& s, int64_t gro_busy_ns,
               double build_s, double connect_s, const std::vector<TimedGro*>& engines,
               LayerProbe* p) {
  p->Sample("sim.run_s", o.run_s);
  p->Sample("gro.busy_s", static_cast<double>(gro_busy_ns) * 1e-9);
  p->Sample("gro.pkts", static_cast<double>(s.gro.packets_in));
  p->Sample("sim.non_gro_s", o.run_s - static_cast<double>(gro_busy_ns) * 1e-9);
  p->Sample("scenario.build_s", build_s);
  p->Sample("scenario.connect_s", connect_s);
  p->Count("gro.calls", static_cast<double>(TotalCalls(engines)));
}

// ------------------------------------------------------- netfpga_reorder --

ScenarioOutcome RunNetFpgaReorder(uint64_t seed, LayerProbe* probe, GroCapture* capture) {
  ScenarioOutcome o;
  Spans spans(probe);
  std::vector<TimedGro*> engines;
  const int top = spans.Begin("scenario");
  const Clock::time_point start = Clock::now();
  const int setup = spans.Begin("setup", top);
  const int build = spans.Begin("scenario.build", setup);
  SimWorld world;
  NetFpgaOptions opt;
  opt.link_rate_bps = 10 * kGbps;
  opt.reorder_delay = kNetFpgaReorder;
  opt.seed = seed;
  opt.sender = PaperHost(Us(125));
  opt.receiver = PaperHost(Us(125));
  opt.receiver.gro_factory =
      MakeJugglerFactory(TunedJuggler(opt.link_rate_bps, opt.reorder_delay));
  if (probe != nullptr) {
    opt.sender.gro_factory = MakeTimedFactory(std::move(opt.sender.gro_factory), &engines);
    opt.receiver.gro_factory =
        MakeTimedFactory(std::move(opt.receiver.gro_factory), &engines, capture);
  }
  NetFpgaTestbed t = BuildNetFpga(&world, opt);
  const double build_s = spans.End(build);
  const int connect = spans.Begin("scenario.connect", setup);
  const std::vector<EndpointPair> pairs = {ConnectHosts(t.sender, t.receiver, 1000, 2000)};
  pairs[0].a_to_b->Send(kNetFpgaBytes);
  const double connect_s = spans.End(connect);
  spans.End(setup);
  o.setup_s = SecondsSince(start);

  const PoolCounts pool_before = PoolCounts::ThreadPool();
  int64_t gro_busy_ns = 0;
  size_t timers_max = 0;
  while (world.loop.now() < kNetFpgaLimit && pairs[0].b_to_a->bytes_delivered() < kNetFpgaBytes) {
    RunStep("run_step", &spans, top, engines, &o, &gro_busy_ns,
            [&] { world.loop.RunUntil(world.loop.now() + kStep); });
    timers_max = std::max(timers_max, world.loop.pending_timer_ids());
  }

  StackTotals s;
  s.AddHosts({t.sender, t.receiver});
  s.AddPairs(pairs);
  o.packets = s.nic.packets_in;
  Digest d;
  s.DigestInto(&d);
  d.Add(world.loop.executed_events());
  o.digest = d.value();
  if (s.stray_segments != 0) o.Fail("stray segments");
  if (s.rcv.bytes_delivered != kNetFpgaBytes) o.Fail("transfer incomplete");

  if (probe != nullptr) {
    s.CountInto(probe);
    CountFabric(t.fabric, probe);
    CountPools(pool_before, PoolCounts::ThreadPool(), probe);
    probe->Count("sim.events", static_cast<double>(world.loop.executed_events()));
    probe->CountMax("sim.pending_timers_max", static_cast<double>(timers_max));
    SampleRun(o, s, gro_busy_ns, build_s, connect_s, engines, probe);
    spans.End(top);
  }
  return o;
}

// ------------------------------------------------------------- clos_rpc --

ScenarioOutcome RunClosRpc(uint64_t seed, LayerProbe* probe) {
  ScenarioOutcome o;
  Spans spans(probe);
  std::vector<TimedGro*> engines;
  const int top = spans.Begin("scenario");
  const Clock::time_point start = Clock::now();
  const int setup = spans.Begin("setup", top);
  const int build = spans.Begin("scenario.build", setup);
  SimWorld world;
  ClosOptions opt;
  opt.hosts_per_tor = 8;
  opt.lb = LbPolicy::kPerPacket;
  opt.seed = seed;
  opt.host_template = PaperHost(Us(20));
  opt.host_template.rx.num_queues = 8;
  opt.host_template.num_app_cores = 8;
  JugglerConfig jcfg;
  jcfg.inseq_timeout = Us(13);
  jcfg.ofo_timeout = Us(300);
  opt.host_template.gro_factory = MakeJugglerFactory(jcfg);
  if (probe != nullptr) {
    opt.host_template.gro_factory =
        MakeTimedFactory(std::move(opt.host_template.gro_factory), &engines);
  }
  opt.host_template.tcp.initial_rto = Ms(10);
  opt.host_template.tcp.max_rto = Ms(16);
  ClosTestbed t = BuildClos(&world, opt);
  const double build_s = spans.End(build);

  // Hosts 0-3 send 1 MB RPCs, hosts 4-7 150 B RPCs, each over 8 sessions to
  // its peer under the other ToR; the large RPCs fill the offered load.
  const int connect = spans.Begin("scenario.connect", setup);
  std::vector<EndpointPair> pairs;
  std::vector<std::unique_ptr<MessageStream>> streams;
  std::vector<std::unique_ptr<OpenLoopRpcGenerator>> generators;
  const double small_bps = 100e6;
  const double large_bps = (kRpcLoad * 80e9 - 4 * small_bps) / 4.0;
  for (size_t h = 0; h < 8; ++h) {
    const bool large = h < 4;
    std::vector<MessageStream*> host_streams;
    for (uint16_t c = 0; c < 8; ++c) {
      pairs.push_back(ConnectHosts(t.left_hosts[h], t.right_hosts[h],
                                   static_cast<uint16_t>(1000 + c), 2000));
      streams.push_back(std::make_unique<MessageStream>(&world.loop, pairs.back().a_to_b,
                                                        pairs.back().b_to_a, nullptr));
      host_streams.push_back(streams.back().get());
    }
    RpcGeneratorConfig gcfg;
    gcfg.message_bytes = large ? 1'000'000 : 150;
    gcfg.messages_per_sec =
        (large ? large_bps : small_bps) / (static_cast<double>(gcfg.message_bytes) * 8.0);
    gcfg.stop_time = kRpcArrivals;
    gcfg.seed = seed * 16 + h;
    generators.push_back(
        std::make_unique<OpenLoopRpcGenerator>(&world.loop, gcfg, std::move(host_streams)));
  }
  for (auto& gen : generators) gen->Start();
  const double connect_s = spans.End(connect);
  spans.End(setup);
  o.setup_s = SecondsSince(start);

  const PoolCounts pool_before = PoolCounts::ThreadPool();
  int64_t gro_busy_ns = 0;
  size_t timers_max = 0;
  while (world.loop.now() < kRpcArrivals + kRpcDrain) {
    if (world.loop.now() == kRpcArrivals) {
      // Arrivals are over: deliveries from here on are late.
      for (auto& st : streams) st->Close();
    }
    RunStep("run_step", &spans, top, engines, &o, &gro_busy_ns,
            [&] { world.loop.RunUntil(world.loop.now() + kStep); });
    timers_max = std::max(timers_max, world.loop.pending_timer_ids());
  }

  uint64_t generated = 0;
  uint64_t completed = 0;
  uint64_t late = 0;
  for (const auto& gen : generators) generated += gen->generated();
  for (const auto& st : streams) {
    completed += st->completed();
    late += st->late_deliveries();
  }
  StackTotals s;
  s.AddHosts(t.left_hosts);
  s.AddHosts(t.right_hosts);
  s.AddPairs(pairs);
  o.packets = s.nic.packets_in;
  Digest d;
  s.DigestInto(&d);
  for (uint64_t v : {generated, completed, late, world.loop.executed_events()}) d.Add(v);
  o.digest = d.value();
  if (s.stray_segments != 0) o.Fail("stray segments");
  if (completed == 0) o.Fail("no RPC completed");

  if (probe != nullptr) {
    s.CountInto(probe);
    CountFabric(t.fabric, probe);
    CountPools(pool_before, PoolCounts::ThreadPool(), probe);
    probe->Count("sim.events", static_cast<double>(world.loop.executed_events()));
    probe->CountMax("sim.pending_timers_max", static_cast<double>(timers_max));
    probe->Count("workload.rpcs_generated", static_cast<double>(generated));
    probe->Count("workload.rpcs_completed", static_cast<double>(completed));
    probe->Count("workload.late_deliveries", static_cast<double>(late));
    SampleRun(o, s, gro_busy_ns, build_s, connect_s, engines, probe);
    spans.End(top);
  }
  return o;
}

// ---------------------------------------------------- clos_bulk_sharded --

ScenarioOutcome RunClosBulkSharded(uint64_t seed, size_t workers, LayerProbe* probe) {
  ScenarioOutcome o;
  Spans spans(probe);
  std::vector<TimedGro*> engines;
  const int top = spans.Begin("scenario");
  const Clock::time_point start = Clock::now();
  const int setup = spans.Begin("setup", top);
  const int build = spans.Begin("scenario.build", setup);
  // Declared before the testbed: its teardown releases packets into the
  // engine's domain pools.
  CpuCostModel costs;
  ShardedEngine engine(workers);
  ClosOptions opt;
  opt.hosts_per_tor = 16;
  opt.seed = seed;
  opt.host_template = PaperHost(Us(20));
  opt.host_template.gro_factory =
      MakeJugglerFactory(TunedJuggler(opt.host_link_rate_bps, Us(100)));
  if (probe != nullptr) {
    opt.host_template.gro_factory =
        MakeTimedFactory(std::move(opt.host_template.gro_factory), &engines);
  }
  ShardedClosTestbed t = BuildShardedClos(&engine, &costs, opt);
  const double build_s = spans.End(build);
  const int connect = spans.Begin("scenario.connect", setup);
  std::vector<EndpointPair> pairs;
  for (size_t i = 0; i < t.left_hosts.size(); ++i) {
    pairs.push_back(ConnectHosts(t.left_hosts[i], t.right_hosts[i], 1000, 2000));
    pairs.back().a_to_b->Send(kBulkBytesPerPair);
  }
  const uint64_t target = kBulkBytesPerPair * pairs.size();
  const double connect_s = spans.End(connect);
  spans.End(setup);
  o.setup_s = SecondsSince(start);

  PoolCounts pool_before = PoolCounts::ThreadPool();
  for (size_t i = 0; i < engine.domain_count(); ++i) pool_before.Add(engine.domain(i)->pool());
  int64_t gro_busy_ns = 0;
  uint64_t barrier_wait_ns = 0;
  uint64_t run_calls = 0;
  TimeNs now = 0;
  uint64_t delivered = 0;
  while (now < kBulkLimit && delivered < target) {
    now += kShardedStep;
    RunStep("shard.run", &spans, top, engines, &o, &gro_busy_ns, [&] { engine.Run(now); });
    ++run_calls;
    for (uint64_t w : engine.stats().barrier_wait_ns) barrier_wait_ns += w;
    delivered = 0;
    for (const EndpointPair& p : pairs) delivered += p.b_to_a->bytes_delivered();
  }

  const ShardedEngineStats& es = engine.stats();
  uint64_t events = 0;
  for (size_t i = 0; i < engine.domain_count(); ++i) {
    events += engine.domain(i)->executed_events();
  }
  StackTotals s;
  s.AddHosts(t.left_hosts);
  s.AddHosts(t.right_hosts);
  s.AddPairs(pairs);
  o.packets = s.nic.packets_in;
  Digest d;
  s.DigestInto(&d);
  for (uint64_t v : {es.windows, es.crossings, events, delivered}) d.Add(v);
  o.digest = d.value();
  if (delivered != target) o.Fail("transfers incomplete");
  if (s.stray_segments != 0) o.Fail("stray segments");
  if (es.mailbox_overflow_drops != 0) o.Fail("shard mailbox overflow drops");

  if (probe != nullptr) {
    s.CountInto(probe);
    CountFabric(t.fabric, probe);
    PoolCounts pool_after = PoolCounts::ThreadPool();
    for (size_t i = 0; i < engine.domain_count(); ++i) pool_after.Add(engine.domain(i)->pool());
    CountPools(pool_before, pool_after, probe);
    probe->Count("sim.events", static_cast<double>(events));
    probe->Count("shard.run_calls", static_cast<double>(run_calls));
    probe->Count("shard.windows", static_cast<double>(es.windows));
    probe->Count("shard.crossings", static_cast<double>(es.crossings));
    probe->CountMax("shard.mailbox_hwm", static_cast<double>(es.mailbox_high_watermark));
    probe->Count("shard.mailbox_overflow_drops", static_cast<double>(es.mailbox_overflow_drops));
    probe->Sample("shard.barrier_wait_s", static_cast<double>(barrier_wait_ns) * 1e-9);
    probe->Sample("shard.busy_frac",
                  1.0 - static_cast<double>(barrier_wait_ns) * 1e-9 /
                            (static_cast<double>(es.workers) * o.run_s));
    SampleRun(o, s, gro_busy_ns, build_s, connect_s, engines, probe);
    spans.End(top);
  }
  return o;
}

// ----------------------------------------------------------- chaos_soak --

ChaosOptions ChaosFor(uint64_t seed) {
  ChaosOptions c;
  c.seed = seed;
  c.family = FaultFamily::kMixed;
  // The per-layer snapshot is taken after each run's digest; the benchmark
  // reads its NIC packet counts.
  c.obs.metrics = true;
  return c;
}

// Sum of every counter (or the largest gauge) of `family` over its labels,
// keeping only labels that end in `label_suffix` when one is given.
uint64_t SumCounters(const MetricsRegistry& m, const std::string& family, bool gauge = false,
                     const std::string& label_suffix = "") {
  const Json doc = m.ToJson();
  const Json* section = doc.Find(gauge ? "gauges" : "counters");
  uint64_t total = 0;
  for (const auto& [key, value] : section->members()) {
    const bool in_family = key == family || key.rfind(family + "/", 0) == 0;
    const bool suffix_ok = label_suffix.empty() ||
                           (key.size() >= label_suffix.size() &&
                            key.compare(key.size() - label_suffix.size(), label_suffix.size(),
                                        label_suffix) == 0);
    if (in_family && suffix_ok) {
      total = gauge ? std::max(total, value.AsUint()) : total + value.AsUint();
    }
  }
  return total;
}

// RunChaos's verdict, for two engine runs made separately.
bool ChaosOk(const ChaosEngineResult& j, const ChaosEngineResult& b) {
  return j.completed && b.completed && j.violations == 0 && b.violations == 0 &&
         j.bytes_delivered == b.bytes_delivered && j.stream_digest == b.stream_digest;
}

void FinishChaos(const ChaosEngineResult& j, const ChaosEngineResult& b, bool ok,
                 ScenarioOutcome* o) {
  o->packets = SumCounters(j.obs.metrics, "nic.packets_in") +
               SumCounters(b.obs.metrics, "nic.packets_in");
  Digest d;
  for (uint64_t v : {j.digest, j.stream_digest, b.digest, b.stream_digest, o->packets}) d.Add(v);
  o->digest = d.value();
  if (!ok) o->Fail("RunChaos not ok");
  if (j.violations + b.violations != 0) o->Fail("auditor violations");
}

void CountChaosEngine(const ChaosEngineResult& r, LayerProbe* p) {
  const MetricsRegistry& m = r.obs.metrics;
  p->Count("nic.pkts_in", static_cast<double>(SumCounters(m, "nic.packets_in")));
  p->Count("nic.polls", static_cast<double>(SumCounters(m, "nic.polls")));
  p->Count("nic.interrupts", static_cast<double>(SumCounters(m, "nic.interrupts")));
  p->Count("nic.ring_drops", static_cast<double>(SumCounters(m, "nic.ring_drops")));
  p->CountMax("nic.ring_hwm", static_cast<double>(SumCounters(m, "nic.ring_high_watermark", true)));
  p->Count("gro.pkts_in", static_cast<double>(SumCounters(m, "gro.packets_in")));
  p->Count("gro.data_pkts_in", static_cast<double>(SumCounters(m, "gro.data_packets_in")));
  p->Count("gro.ooo_pkts", static_cast<double>(SumCounters(m, "gro.ooo_packets")));
  p->Count("gro.data_segments_out", static_cast<double>(SumCounters(m, "gro.data_segments_out")));
  p->Count("gro.mtus_out", static_cast<double>(SumCounters(m, "gro.mtus_out")));
  p->Count("gro.evictions", static_cast<double>(SumCounters(m, "gro.evictions")));
  for (int i = 0; i < static_cast<int>(FlushReason::kReasonCount); ++i) {
    const char* reason = FlushReasonName(static_cast<FlushReason>(i));
    p->Count(FlushMetric(i),
             static_cast<double>(SumCounters(m, "gro.flush", false, std::string("/") + reason)));
  }
  p->Count("tcp.segments_in", static_cast<double>(SumCounters(m, "tcp.segments_in")));
  p->Count("tcp.ooo_segments_in", static_cast<double>(SumCounters(m, "tcp.ooo_segments_in")));
  p->Count("tcp.acks_sent", static_cast<double>(SumCounters(m, "tcp.acks_sent")));
  p->Count("tcp.dupacks_in", static_cast<double>(SumCounters(m, "tcp.dupacks_in")));
  p->Count("tcp.fast_retransmits", static_cast<double>(SumCounters(m, "tcp.fast_retransmits")));
  p->Count("tcp.rtos", static_cast<double>(SumCounters(m, "tcp.rtos")));
  p->Count("tcp.bytes_sent", static_cast<double>(SumCounters(m, "tcp.bytes_sent")));
  p->Count("tcp.rtx_bytes", static_cast<double>(SumCounters(m, "tcp.retransmitted_bytes")));
  p->Count("tcp.spurious_rtx", static_cast<double>(SumCounters(m, "tcp.spurious_retransmits")));
  p->Count("net.link_pkts_tx", static_cast<double>(SumCounters(m, "net.link.packets_tx")));
  p->Count("net.link_drops", static_cast<double>(SumCounters(m, "net.link.drops")));
  p->Count("net.red_drops", static_cast<double>(SumCounters(m, "net.link.red_drops")));
  const FaultStats& f = r.faults;
  p->Count("fault.injected",
           static_cast<double>(f.drops + f.duplicates + f.corruptions + f.truncations + f.delayed +
                               r.flaps));
  p->Count("fault.audits", static_cast<double>(r.audits));
  p->Count("fault.violations", static_cast<double>(r.violations));
}

ScenarioOutcome RunChaosSoak(uint64_t seed, LayerProbe* probe) {
  ScenarioOutcome o;
  if (probe == nullptr) {
    const Clock::time_point start = Clock::now();
    const ChaosResult r = RunChaos(ChaosFor(seed));
    o.run_s = SecondsSince(start);
    FinishChaos(r.juggler, r.baseline, r.ok, &o);
    return o;
  }
  // Traced: the two engine runs RunChaos makes, each in its own span.
  Spans spans(probe);
  const ChaosOptions c = ChaosFor(seed);
  const PoolCounts pool_before = PoolCounts::ThreadPool();
  const int top = spans.Begin("scenario");
  const int js = spans.Begin("chaos_engine.juggler", top);
  const ChaosEngineResult j = RunChaosEngineStack(c, StackKind::kJuggler);
  const double j_s = spans.End(js);
  const int vs = spans.Begin("chaos_engine.vanilla", top);
  const ChaosEngineResult b = RunChaosEngineStack(c, StackKind::kVanilla);
  const double v_s = spans.End(vs);
  spans.End(top);
  o.run_s = j_s + v_s;
  FinishChaos(j, b, ChaosOk(j, b), &o);

  CountPools(pool_before, PoolCounts::ThreadPool(), probe);
  CountChaosEngine(j, probe);
  CountChaosEngine(b, probe);
  probe->Sample("scenario.chaos_engine_ms.juggler", j_s * 1e3);
  probe->Sample("scenario.chaos_engine_ms.vanilla", v_s * 1e3);
  probe->Sample("sim.run_s", o.run_s);
  // GRO time inside RunChaos is out of the benchmark's reach.
  probe->Sample("sim.non_gro_s", o.run_s);
  return o;
}

// Set-up of a chaos scenario seen from outside RunChaos: the wall time of
// RunChaos call that transfers a single segment (both stacks built,
// connected, run through the drain and torn down).
double ChaosSetupSeconds(uint64_t seed, std::string* error) {
  std::vector<double> best;
  for (int i = 0; i < kChaosSetupSeeds; ++i) {
    ChaosOptions c = ChaosFor(seed + static_cast<uint64_t>(i));
    c.transfer_bytes = kMss;
    double best_s = 0;
    for (int repeat = 0; repeat < kChaosSetupRepeats; ++repeat) {
      const Clock::time_point start = Clock::now();
      const ChaosResult r = RunChaos(c);
      const double s = SecondsSince(start);
      best_s = repeat == 0 ? s : std::min(best_s, s);
      if (!r.ok && error->empty()) *error = "one-segment chaos scenario not ok";
    }
    best.push_back(best_s);
  }
  return Median(best);
}

// ------------------------------------------------------------ reporting --

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

double PeakRssMb() {
  FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0;
  char line[256];
  double kb = 0;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::sscanf(line, "VmHWM: %lf kB", &kb) == 1) break;
  }
  std::fclose(f);
  return kb / 1024.0;
}

// The per-layer metrics of a traced batch, in BENCHMARK.json's order.
void LayerMetrics(const LayerProbe& p, const BatchResult& traced, double untraced_pkts_per_s,
                  const GroCapture* capture, const std::vector<double>& replay,
                  RunReport* report) {
  auto add = [report](const char* name, const char* unit, double value) {
    report->metrics.push_back(Metric{name, unit, value});
  };
  auto median = [&p](const char* name) {
    auto it = p.samples().find(name);
    return it == p.samples().end() ? 0.0 : Median(it->second);
  };
  const double pkts = p.count("nic.pkts_in");

  add("sim.run_s", "s", median("sim.run_s"));
  add("sim.events", "count", p.count("sim.events"));
  add("sim.events_per_pkt", "events/pkt", Ratio(p.count("sim.events"), pkts));
  add("sim.pending_timers_max", "count", p.count("sim.pending_timers_max"));
  add("sim.non_gro_s", "s", median("sim.non_gro_s"));

  add("shard.run_calls", "count", p.count("shard.run_calls"));
  add("shard.windows", "count", p.count("shard.windows"));
  add("shard.events_per_window", "events", Ratio(p.count("sim.events"), p.count("shard.windows")));
  add("shard.crossings", "count", p.count("shard.crossings"));
  add("shard.barrier_wait_s", "s", median("shard.barrier_wait_s"));
  add("shard.busy_frac", "frac", median("shard.busy_frac"));
  add("shard.mailbox_hwm", "count", p.count("shard.mailbox_hwm"));
  add("shard.mailbox_overflow_drops", "count", p.count("shard.mailbox_overflow_drops"));

  add("packet.acquired", "count", p.count("packet.acquired"));
  add("packet.fresh_allocs", "count", p.count("packet.fresh_allocs"));
  add("packet.recycle_frac", "frac",
      Ratio(p.count("packet.acquired") - p.count("packet.fresh_allocs"),
            p.count("packet.acquired")));
  add("packet.exhausted", "count", p.count("packet.exhausted"));

  add("net.link_pkts_tx", "count", p.count("net.link_pkts_tx"));
  add("net.hops_per_pkt", "hops", Ratio(p.count("net.link_pkts_tx"), pkts));
  add("net.link_drops", "count", p.count("net.link_drops"));
  add("net.red_drops", "count", p.count("net.red_drops"));
  add("net.link_max_queue_bytes", "bytes", p.count("net.link_max_queue_bytes"));
  add("net.switch_forwarded", "count", p.count("net.switch_forwarded"));

  add("nic.pkts_in", "count", pkts);
  add("nic.polls", "count", p.count("nic.polls"));
  add("nic.pkts_per_poll", "pkts", Ratio(pkts, p.count("nic.polls")));
  add("nic.interrupts", "count", p.count("nic.interrupts"));
  add("nic.ring_drops", "count", p.count("nic.ring_drops"));
  add("nic.ring_hwm", "count", p.count("nic.ring_hwm"));

  add("gro.calls", "count", p.count("gro.calls"));
  add("gro.busy_s", "s", median("gro.busy_s"));
  // Per packet over the whole traced batch, not only the counted pass.
  auto sum = [&p](const char* name) {
    double total = 0;
    if (auto it = p.samples().find(name); it != p.samples().end()) {
      for (double v : it->second) total += v;
    }
    return total;
  };
  add("gro.ns_per_pkt", "ns", Ratio(sum("gro.busy_s") * 1e9, sum("gro.pkts")));
  add("gro.ooo_frac", "frac", Ratio(p.count("gro.ooo_pkts"), p.count("gro.data_pkts_in")));
  add("gro.batching", "mtus/seg", Ratio(p.count("gro.mtus_out"), p.count("gro.data_segments_out")));
  for (int i = 0; i < static_cast<int>(FlushReason::kReasonCount); ++i) {
    report->metrics.push_back(Metric{FlushMetric(i), "count", p.count(FlushMetric(i))});
  }
  add("gro.evictions", "count", p.count("gro.evictions"));
  add("gro.replay.juggler_ns_per_pkt", "ns", replay.size() > 0 ? replay[0] : 0.0);
  add("gro.replay.vanilla_ns_per_pkt", "ns", replay.size() > 1 ? replay[1] : 0.0);
  add("gro.replay.presto_ns_per_pkt", "ns", replay.size() > 2 ? replay[2] : 0.0);
  add("gro.replay.packets", "count",
      capture != nullptr ? static_cast<double>(capture->packets().size()) : 0.0);

  add("tcp.segments_in", "count", p.count("tcp.segments_in"));
  add("tcp.ooo_segments_in", "count", p.count("tcp.ooo_segments_in"));
  add("tcp.acks_sent", "count", p.count("tcp.acks_sent"));
  add("tcp.dupacks_in", "count", p.count("tcp.dupacks_in"));
  add("tcp.fast_retransmits", "count", p.count("tcp.fast_retransmits"));
  add("tcp.rtos", "count", p.count("tcp.rtos"));
  add("tcp.rtx_frac", "frac", Ratio(p.count("tcp.rtx_bytes"), p.count("tcp.bytes_sent")));
  add("tcp.spurious_rtx", "count", p.count("tcp.spurious_rtx"));

  add("workload.rpcs_generated", "count", p.count("workload.rpcs_generated"));
  add("workload.rpcs_completed", "count", p.count("workload.rpcs_completed"));
  add("workload.late_deliveries", "count", p.count("workload.late_deliveries"));

  add("scenario.build_s", "s", median("scenario.build_s"));
  add("scenario.connect_s", "s", median("scenario.connect_s"));
  add("scenario.chaos_engine_ms.juggler", "ms", median("scenario.chaos_engine_ms.juggler"));
  add("scenario.chaos_engine_ms.vanilla", "ms", median("scenario.chaos_engine_ms.vanilla"));

  add("fault.injected", "count", p.count("fault.injected"));
  add("fault.audits", "count", p.count("fault.audits"));
  add("fault.violations", "count", p.count("fault.violations"));

  add("trace.overhead_ratio", "ratio", Ratio(traced.PacketsPerSec(), untraced_pkts_per_s));
  add("trace.scenarios", "count", static_cast<double>(traced.attempted));
}

void EndToEndMetrics(const BatchResult& r, double setup_s, RunReport* report) {
  std::vector<double> ms;
  for (double s : r.best_scenario_s) ms.push_back(s * 1e3);
  report->metrics.push_back(Metric{"sim_pkts_per_s", "1/s", r.PacketsPerSec()});
  report->metrics.push_back(Metric{"scenario_ms_p50", "ms", Percentile(ms, 50)});
  report->metrics.push_back(Metric{"scenario_ms_p90", "ms", Percentile(ms, 90)});
  report->metrics.push_back(Metric{"setup_s", "s", setup_s});
  report->metrics.push_back(Metric{"peak_rss_mb", "MB", PeakRssMb()});
}

struct Workload {
  std::string name;
  size_t inputs = 1;
  // Runs one scenario with scenario seed `seed`. `capture` is non-null only
  // in a traced run of a workload that feeds the GRO replay.
  std::function<ScenarioOutcome(uint64_t seed, LayerProbe* probe, GroCapture* capture)> run;
  // The 1-worker reference of a sharded workload: its digest per input must
  // equal the measured runs' (null: no reference).
  std::function<ScenarioOutcome(uint64_t seed)> reference;
  bool replay = false;  // capture the first traced scenario for GRO replay
};

// Each run cycles through several inputs, so that the seed-to-seed spread
// of the simulated work averages out within one run, and keeps one pass over
// them short (under a second), so that every input gets repeats inside the
// box's fast spells that best-of-N timing picks up. Input i of a run seeded
// N uses scenario seed N * inputs + i.
std::vector<Workload> MakeWorkloads() {
  std::vector<Workload> w;
  w.push_back({"netfpga_reorder", 16,
               [](uint64_t seed, LayerProbe* probe, GroCapture* capture) {
                 return RunNetFpgaReorder(seed, probe, capture);
               },
               nullptr, true});
  w.push_back({"clos_rpc", 4,
               [](uint64_t seed, LayerProbe* probe, GroCapture*) {
                 return RunClosRpc(seed, probe);
               },
               nullptr, false});
  w.push_back({"clos_bulk_sharded", 4,
               [](uint64_t seed, LayerProbe* probe, GroCapture*) {
                 return RunClosBulkSharded(seed, kBulkWorkers, probe);
               },
               [](uint64_t seed) { return RunClosBulkSharded(seed, 1, nullptr); }, false});
  w.push_back({"chaos_soak", kChaosSeeds,
               [](uint64_t seed, LayerProbe* probe, GroCapture*) {
                 return RunChaosSoak(seed, probe);
               },
               nullptr, false});
  return w;
}

// Failures found outside the measured batches (references, set-up probes).
struct Checks {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> errors;

  void Add(bool ok, const std::string& what) {
    ++attempted;
    if (!ok) {
      ++failed;
      errors.push_back(what);
    }
  }
  void AddBatch(const BatchResult& r) {
    attempted += r.attempted;
    failed += r.failed;
    errors.insert(errors.end(), r.errors.begin(), r.errors.end());
  }
  void Report(RunReport* report) const {
    report->attempted = attempted;
    report->failed = failed;
    for (const std::string& e : errors) report->log.push_back("FAIL " + e);
  }
};

}  // namespace

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> names = [] {
    std::vector<std::string> n;
    for (const Workload& w : MakeWorkloads()) n.push_back(w.name);
    return n;
  }();
  return names;
}

bool RunWorkload(const std::string& name, const RunOptions& options, RunReport* report) {
  const std::vector<Workload> all = MakeWorkloads();
  auto it = std::find_if(all.begin(), all.end(), [&](const Workload& w) { return w.name == name; });
  if (it == all.end()) return false;
  const Workload& w = *it;
  auto input_seed = [&](size_t input) { return options.seed * w.inputs + input; };
  GroCapture capture(kCapturePackets);
  const Scenario scenario = [&](size_t input, LayerProbe* probe) {
    const bool capturing = w.replay && probe != nullptr && probe->scenario() == 0;
    return w.run(input_seed(input), probe, capturing ? &capture : nullptr);
  };

  Checks checks;
  std::vector<uint64_t> reference;
  if (w.reference) {
    for (size_t i = 0; i < w.inputs; ++i) {
      const ScenarioOutcome ref = w.reference(input_seed(i));
      reference.push_back(ref.digest);
      checks.Add(ref.ok, "1-worker reference: " + ref.error);
    }
  }
  const std::vector<uint64_t>* expect = reference.empty() ? nullptr : &reference;

  if (!options.trace) {
    const BatchResult r = RunBatch(scenario, w.inputs, options.seconds, nullptr, expect);
    checks.AddBatch(r);
    double setup_s = Median(r.best_setup_s);
    if (name == "chaos_soak") {
      std::string error;
      setup_s = ChaosSetupSeconds(input_seed(0), &error);
      checks.Add(error.empty(), error);
    }
    checks.Report(report);
    EndToEndMetrics(r, setup_s, report);
    report->log.push_back(name + ": " + std::to_string(r.attempted) + " scenarios, " +
                          std::to_string(r.packets) + " simulated packets in " +
                          std::to_string(r.run_s) + " s of run phase");
    return true;
  }

  // Traced: an untraced batch first (its digests are what the traced
  // scenarios must reproduce, its packet rate the base of the overhead
  // ratio), then the traced batch, then the replay of the captured GRO input.
  const BatchResult plain = RunBatch(scenario, w.inputs, options.seconds * 0.3, nullptr, expect);
  checks.AddBatch(plain);
  Tracer tracer;
  LayerProbe probe(&tracer, w.inputs);
  const BatchResult traced =
      RunBatch(scenario, w.inputs, options.seconds * 0.6, &probe, &plain.digests);
  checks.AddBatch(traced);
  checks.Report(report);

  std::vector<double> replay_ns;
  if (w.replay) {
    CpuCostModel costs;
    const JugglerConfig jcfg = TunedJuggler(10 * kGbps, kNetFpgaReorder);
    replay_ns.push_back(ReplayNsPerPacket(
        capture, [&] { return std::make_unique<Juggler>(&costs, jcfg); }, kReplayPasses));
    replay_ns.push_back(ReplayNsPerPacket(
        capture, [&] { return std::make_unique<StandardGro>(&costs); }, kReplayPasses));
    replay_ns.push_back(ReplayNsPerPacket(
        capture, [&] { return std::make_unique<PrestoGro>(&costs, PrestoGroConfig{}); },
        kReplayPasses));
  }

  LayerMetrics(probe, traced, plain.PacketsPerSec(), w.replay ? &capture : nullptr, replay_ns,
               report);
  report->log.push_back(name + " traced: " + std::to_string(traced.attempted) +
                        " traced scenarios, " + std::to_string(tracer.size()) +
                        " spans, traced/untraced sim_pkts_per_s " +
                        std::to_string(Ratio(traced.PacketsPerSec(), plain.PacketsPerSec())));
  if (!options.spans_path.empty() && !tracer.Write(options.spans_path)) {
    report->log.push_back("could not write spans to " + options.spans_path);
  }
  return true;
}

}  // namespace perfbench
