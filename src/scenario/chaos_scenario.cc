#include "src/scenario/chaos_scenario.h"

#include <algorithm>
#include <cstring>
#include <optional>
#include <utility>

#include "src/core/juggler.h"
#include "src/fault/audit_log.h"
#include "src/fault/juggler_auditor.h"
#include "src/fault/link_flapper.h"
#include "src/fault/stream_integrity.h"
#include "src/scenario/app_traffic.h"
#include "src/scenario/gro_factories.h"
#include "src/scenario/topologies.h"
#include "src/util/logging.h"
#include "src/util/rng.h"

namespace juggler {
namespace {

// Flight-recorder ring capacity per shard domain, in events.
constexpr size_t kTraceCapacity = 1u << 16;

// FNV-1a, folded over every counter that must reproduce bit-identically.
struct Digest {
  uint64_t h = 1469598103934665603ULL;
  void Mix(uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (i * 8)) & 0xff;
      h *= 1099511628211ULL;
    }
  }
};

FaultProfile DropBurstProfile(Rng* rng) {
  FaultProfile p;
  p.burst_prob = 0.002 + rng->NextDouble() * 0.004;
  p.burst_len_min = 2;
  p.burst_len_max = 2 + static_cast<int>(rng->NextBounded(5));
  p.drop_prob = rng->NextDouble() * 0.002;
  return p;
}

FaultProfile DuplicateProfile(Rng* rng) {
  FaultProfile p;
  p.dup_prob = 0.02 + rng->NextDouble() * 0.06;
  return p;
}

FaultProfile CorruptProfile(Rng* rng) {
  FaultProfile p;
  p.corrupt_prob = 0.005 + rng->NextDouble() * 0.01;
  p.truncate_prob = rng->NextDouble() * 0.005;
  return p;
}

FaultProfile DelaySpikeProfile(Rng* rng) {
  FaultProfile p;
  p.delay_prob = 0.01 + rng->NextDouble() * 0.03;
  p.delay_min = Us(100);
  p.delay_max = Us(100) + rng->NextInRange(Us(200), Us(700));
  return p;
}

// The transfer's line-rate duration, the anchor for fault and flap windows —
// anchoring to the (generous) time budget would schedule every fault after
// the last byte already landed.
TimeNs NominalTransferTime(const ChaosOptions& opt) {
  return static_cast<TimeNs>(static_cast<int64_t>(opt.transfer_bytes) * 8 * 1'000'000'000LL /
                             opt.link_rate_bps);
}

// The engine name a stack reports and digests under.
std::string EngineName(StackKind stack) {
  switch (stack) {
    case StackKind::kJuggler:
      return "juggler+audit";
    case StackKind::kVanilla:
      return "standard-gro";
    case StackKind::kPresto:
      return "presto-gro";
  }
  return "?";
}

// The NetFPGA options a chaos run uses.
NetFpgaOptions ChaosTestbedOptions(const ChaosOptions& opt, StackKind stack, AuditLog* log,
                                   FlightRecorder* sender_rec, FlightRecorder* receiver_rec) {
  NetFpgaOptions nopt;
  nopt.link_rate_bps = opt.link_rate_bps;
  nopt.base_delay = opt.base_delay;
  nopt.reorder_delay = opt.reorder_delay;
  nopt.seed = opt.seed * 2654435761ULL + static_cast<uint64_t>(opt.family);
  nopt.sender.rx.int_coalesce = opt.int_coalesce;
  nopt.sender.rx.recorder = sender_rec;
  nopt.sender.rx.per_packet_dispatch = opt.per_packet_dispatch;
  nopt.sender.rx.driver = opt.rx_driver;
  nopt.sender.gro_factory = MakeStandardGroFactory();
  nopt.receiver.rx.int_coalesce = opt.int_coalesce;
  nopt.receiver.rx.recorder = receiver_rec;
  nopt.receiver.rx.per_packet_dispatch = opt.per_packet_dispatch;
  nopt.receiver.rx.driver = opt.rx_driver;
  // The hand-off wedge plant targets the receiver: that is where the data
  // stream (and so the integrity oracle) lives.
  nopt.receiver.rx.debug_corec_wedge = opt.plant_corec_wedge;

  JugglerConfig jcfg;
  jcfg.inseq_timeout = opt.inseq_timeout;
  jcfg.ofo_timeout = opt.ofo_timeout;
  jcfg.max_flows = opt.max_flows;
  jcfg.debug_flush_accounting_skew = opt.plant_flush_skew;
  switch (stack) {
    case StackKind::kJuggler:
      nopt.receiver.gro_factory = MakeAuditedJugglerFactory(jcfg, log);
      break;
    case StackKind::kVanilla:
      nopt.receiver.gro_factory = MakeStandardGroFactory();
      break;
    case StackKind::kPresto:
      nopt.receiver.gro_factory = MakePrestoGroFactory();
      break;
  }

  nopt.faults = opt.use_explicit_faults ? opt.fault_override : DeriveChaosFaults(opt);
  return nopt;
}

// Link flaps: blackhole windows on the forward path, short relative to
// TCP's max RTO (200ms) so the sender always recovers. `loop` must be the
// loop `fwd_link` runs on.
std::unique_ptr<LinkFlapper> MaybeStartFlapper(const ChaosOptions& opt, EventLoop* loop,
                                               Link* fwd_link) {
  std::vector<FlapWindow> windows =
      opt.use_explicit_flaps ? opt.flap_override : DeriveChaosFlaps(opt);
  if (windows.empty()) {
    return nullptr;
  }
  auto flapper = std::make_unique<LinkFlapper>(loop, fwd_link, std::move(windows));
  flapper->Start();
  return flapper;
}

// Per-layer metrics snapshot, taken after the run completes and the workers
// have joined (the registry needs no atomics). Everything published here is
// invariant across worker counts.
void PublishChaosMetrics(const NetFpgaTestbed* t, const EndpointPair* pair, LinkFlapper* flapper,
                         StackKind stack, const AppHarness* app, MetricsRegistry* m) {
  PublishNicRxStats(t->sender->nic_rx()->stats(), "sender", m);
  PublishNicRxStats(t->receiver->nic_rx()->stats(), "receiver", m);
  if (const CorecRxStats* cs = t->sender->nic_rx()->corec_stats()) {
    PublishCorecRxStats(*cs, "sender", m);
  }
  if (const CorecRxStats* cs = t->receiver->nic_rx()->corec_stats()) {
    PublishCorecRxStats(*cs, "receiver", m);
  }
  PublishNicTxStats(t->sender->nic_tx()->stats(), "sender", m);
  PublishNicTxStats(t->receiver->nic_tx()->stats(), "receiver", m);
  PublishGroStats(t->receiver->nic_rx()->TotalGroStats(),
                  stack == StackKind::kJuggler
                      ? "juggler"
                      : (stack == StackKind::kPresto ? "presto" : "baseline"),
                  m);
  for (size_t q = 0; q < t->receiver->nic_rx()->num_queues(); ++q) {
    if (auto* auditor = dynamic_cast<JugglerAuditor*>(t->receiver->nic_rx()->gro(q))) {
      PublishJugglerStats(auditor->inner()->juggler_stats(), "receiver", m);
    }
  }
  if (t->fault != nullptr) {
    PublishFaultStats(t->fault->stats(), t->fault->name(), m);
  }
  if (t->reorder != nullptr) {
    PublishReorderStats(*t->reorder, "netfpga", m);
  }
  if (t->fwd_link != nullptr) {
    PublishLinkStats(t->fwd_link->stats(), t->fwd_link->name(), m);
  }
  if (t->rev_link != nullptr) {
    PublishLinkStats(t->rev_link->stats(), t->rev_link->name(), m);
  }
  PublishTcpStats(pair->a_to_b->sender_stats(), pair->b_to_a->receiver_stats(), "a_to_b", m);
  PublishTcpStats(pair->b_to_a->sender_stats(), pair->a_to_b->receiver_stats(), "b_to_a", m);
  if (flapper != nullptr) {
    m->AddCounter("net.flaps", "", flapper->flaps_started());
  }
  if (app != nullptr) {
    app->PublishMetrics(m);
  }
}

// Result assembly + digest. Exactly one of `integrity` (raw bulk transfer)
// and `app` (application workload) is non-null; for app runs the completion
// oracle is "no request was left hanging" and the auditor's FinalCheck
// (inside AppHarness::Finish) stands in for the byte total.
void FinishRun(const ChaosOptions& opt, NetFpgaTestbed* t, EndpointPair* pair, LinkFlapper* flapper,
               StreamIntegrityChecker* integrity, AppHarness* app, OverloadDriver* ovl,
               OverloadAuditor* ovl_audit, AuditLog* log, StackKind stack, TimeNs finish_time,
               ChaosEngineResult* r) {
  r->bytes_delivered = pair->b_to_a->bytes_delivered();
  r->finish_time = finish_time;
  if (app != nullptr) {
    app->Finish();
    r->app = app->totals();
    r->completed = r->app.forced_terminal == 0;
    if (!r->completed) {
      log->Violation(r->engine, "requests hung at run end: " +
                                    std::to_string(r->app.forced_terminal) + " of " +
                                    std::to_string(r->app.issued) + " issued");
    }
  } else {
    r->completed = r->bytes_delivered == opt.transfer_bytes;
    integrity->FinalCheck();
    if (!r->completed) {
      log->Violation(r->engine, "transfer incomplete: " + std::to_string(r->bytes_delivered) +
                                    " of " + std::to_string(opt.transfer_bytes) + " bytes");
    }
    // Chunk-independent stream identity: equal across receive drivers for
    // the same (seed, options). NOT mixed into the run digest.
    r->stream_digest = integrity->stream_digest();
  }
  // Overload finalization before the log is read: FinalCheck's violations
  // (conservation, recovery, drained tables) must count and digest.
  if (ovl_audit != nullptr) {
    ovl_audit->FinalCheck(finish_time, r->bytes_delivered, r->completed, ovl->stats());
    r->overload = ovl->stats();
    r->overload_probes = ovl_audit->probes();
    r->overload_peak_pool = ovl_audit->peak_outstanding();
    r->overload_pool_exhausted = ovl_audit->pool_exhausted();
    r->overload_ring_drops = t->receiver->nic_rx()->stats().ring_drops;
  }
  r->violations = log->violations();
  r->violation_messages = log->messages();
  if (t->fault != nullptr) {
    r->faults = t->fault->stats();
  }
  if (flapper != nullptr) {
    r->flaps = flapper->flaps_started();
  }
  r->checksum_drops = t->receiver->nic_rx()->stats().checksum_drops;
  if (stack == StackKind::kJuggler) {
    for (size_t q = 0; q < t->receiver->nic_rx()->num_queues(); ++q) {
      if (auto* auditor = dynamic_cast<JugglerAuditor*>(t->receiver->nic_rx()->gro(q))) {
        r->audits += auditor->audits();
      }
    }
  }

  Digest d;
  d.Mix(r->bytes_delivered);
  d.Mix(static_cast<uint64_t>(r->finish_time));
  d.Mix(r->violations);
  d.Mix(r->checksum_drops);
  d.Mix(r->faults.packets_in);
  d.Mix(r->faults.drops);
  d.Mix(r->faults.duplicates);
  d.Mix(r->faults.corruptions);
  d.Mix(r->faults.truncations);
  d.Mix(r->faults.delayed);
  d.Mix(r->flaps);
  const GroStats gro = t->receiver->nic_rx()->TotalGroStats();
  d.Mix(gro.packets_in);
  d.Mix(gro.segments_out);
  d.Mix(gro.ooo_packets);
  const TcpSenderStats& snd = pair->a_to_b->sender_stats();
  d.Mix(snd.fast_retransmits);
  d.Mix(snd.rtos);
  d.Mix(snd.retransmitted_bytes);
  // Every run mixes every counter: a raw run's app block and a run
  // without overload windows contribute zeros. Overload digests must
  // reproduce across shard counts.
  d.Mix(r->app.issued);
  d.Mix(r->app.ok);
  d.Mix(r->app.timeouts);
  d.Mix(r->app.aborted);
  d.Mix(r->app.attempts);
  d.Mix(r->app.retries);
  d.Mix(r->app.duplicate_responses);
  d.Mix(r->app.executions);
  d.Mix(r->app.duplicates_suppressed);
  d.Mix(r->app.forced_terminal);
  d.Mix(app != nullptr ? app->frames_delivered() : 0);
  d.Mix(r->overload.windows_started);
  d.Mix(r->overload.windows_ended);
  d.Mix(r->overload.bursts);
  d.Mix(r->overload.injected_packets);
  d.Mix(r->overload.inject_alloc_drops);
  d.Mix(r->overload.churn_tuples);
  d.Mix(r->overload.brownouts);
  d.Mix(r->overload.cap_restores);
  d.Mix(r->overload_probes);
  d.Mix(r->overload_peak_pool);
  d.Mix(r->overload_pool_exhausted);
  d.Mix(r->overload_ring_drops);
  d.Mix(r->faults.dup_pool_exhausted);
  d.Mix(t->receiver->stray_segments());
  d.Mix(t->sender->nic_tx()->stats().pool_exhausted_drops);
  d.Mix(t->receiver->nic_tx()->stats().pool_exhausted_drops);
  r->digest = d.h;

  // Observability snapshot last, strictly after the digest: metrics must
  // never enter it.
  r->obs.metrics_enabled = opt.obs.metrics;
  r->obs.trace_enabled = opt.obs.trace;
  if (opt.obs.metrics) {
    PublishChaosMetrics(t, pair, flapper, stack, app, &r->obs.metrics);
    if (ovl != nullptr) {
      PublishOverloadStats(ovl->stats(), r->engine, &r->obs.metrics);
      ovl_audit->Publish(&r->obs.metrics);
    }
  }
}

}  // namespace

// Satellite of the overload family: a run that applies overload pressure
// against links with no queue bound would hide every queue-growth pathology
// inside an infinitely elastic buffer — flag it as a setup bug.
void CheckLinksBounded(std::initializer_list<const Link*> links, const std::string& engine,
                       AuditLog* log) {
  for (const Link* link : links) {
    if (link != nullptr && link->queue_limit_bytes() <= 0) {
      log->Violation(engine + "/overload", "link " + link->name() +
                                               " has no queue bound while overload faults "
                                               "are active");
    }
  }
}

ChaosEngineResult RunChaosEngineStack(const ChaosOptions& opt, StackKind stack) {
  ChaosEngineResult r;
  r.engine = EngineName(stack);

  // shards=0 runs the testbed as one domain; shards>=1 gives the sender and
  // the receiver a domain each, run by up to opt.shards workers.
  const size_t num_domains = opt.shards == 0 ? 1 : 2;

  // One flight recorder per domain, so workers write without any
  // synchronization: the sender's domain records as shard 0, the
  // receiver's (NIC and switch stages) as the last. Declared before the
  // engine so they outlive everything holding a pointer.
  std::vector<std::unique_ptr<FlightRecorder>> recorders;
  if (opt.obs.trace) {
    for (size_t i = 0; i < num_domains; ++i) {
      recorders.push_back(
          std::make_unique<FlightRecorder>(static_cast<uint32_t>(i), kTraceCapacity));
    }
  }
  FlightRecorder* sender_rec = opt.obs.trace ? recorders.front().get() : nullptr;
  FlightRecorder* receiver_rec = opt.obs.trace ? recorders.back().get() : nullptr;

  AuditLog log;
  NetFpgaOptions nopt = ChaosTestbedOptions(opt, stack, &log, sender_rec, receiver_rec);

  // Declared before the testbed: the fabric's teardown releases packets
  // back into the engine's domain pools.
  ShardedEngine engine(opt.shards);
  engine.set_mailbox_capacity(opt.shard_mailbox_capacity);
  CpuCostModel costs;
  const Partition partition = num_domains == 1 ? Partition::OneDomain(&engine, "netfpga")
                                               : Partition::PerNode(&engine);
  // Held in an optional so overload runs can tear the fabric down early and
  // measure leaked packets while the engine (and its pools) still live.
  std::optional<NetFpgaTestbed> t_opt(BuildNetFpga(partition, &costs, nopt));
  NetFpgaTestbed& t = *t_opt;
  if (t.fault != nullptr) {
    t.fault->set_recorder(receiver_rec);
  }

  std::unique_ptr<LinkFlapper> flapper =
      MaybeStartFlapper(opt, t.sender_domain.loop, t.fwd_link);

  std::unique_ptr<OverloadDriver> ovl;
  std::unique_ptr<OverloadAuditor> ovl_audit;
  if (opt.overload.enabled()) {
    CheckLinksBounded({t.fwd_link, t.rev_link}, r.engine, &log);
    // The driver runs on the receiver's loop. Every domain pool is capped;
    // brown-outs shrink the receiver's.
    OverloadWiring w;
    w.loop = t.receiver_domain.loop;
    w.inject = t.receiver->wire_in();
    w.factory = t.receiver_domain.factory;
    w.receiver_nic = t.receiver->nic_rx();
    w.sender_tx = &t.sender->nic_tx()->stats();
    w.receiver_tx = &t.receiver->nic_tx()->stats();
    w.fault = t.fault != nullptr ? &t.fault->stats() : nullptr;
    for (size_t i = 0; i < engine.domain_count(); ++i) {
      w.pools.push_back(&engine.domain(i)->pool());
    }
    w.brownout_pool = &t.receiver_domain.shard->pool();
    w.target_ip = t.receiver->ip();
    w.pool_capacity = opt.overload.pool_capacity;
    w.ring_capacity = opt.overload.ring_capacity;
    w.gro_flow_cap = opt.max_flows;
    w.progress = [eng = &engine] {
      OverloadWiring::Progress p;
      for (size_t i = 0; i < eng->domain_count(); ++i) {
        EventLoop& loop = eng->domain(i)->loop();
        p.executed_events += loop.executed_events();
        p.event_pending = p.event_pending || loop.next_event_time() != EventLoop::kNoEvent;
      }
      return p;
    };
    w.crossing_drops = [eng = &engine] { return eng->stats().crossing_drops; };
    ovl = std::make_unique<OverloadDriver>(opt.overload.windows, w);
    ovl->Start();
    ovl_audit =
        std::make_unique<OverloadAuditor>(r.engine + "/overload", w, opt.overload.windows, &log);
  }

  // Setup-phase sends (connection setup, the initial congestion window)
  // execute synchronously on this thread, before any worker runs. Stamp
  // their allocations with a domain pool for the duration: an unstamped
  // packet released later on a worker would bump that domain pool's release
  // ledger with no matching acquire, skewing the occupancy view the
  // overload capacity caps key off.
  struct PoolStamp {
    PacketPool* prev;
    explicit PoolStamp(PacketPool* pool) : prev(PacketPool::SwapThreadPool(pool)) {}
    ~PoolStamp() { PacketPool::SwapThreadPool(prev); }
  };
  PacketPool* sender_pool = &t.sender_domain.shard->pool();

  std::unique_ptr<StreamIntegrityChecker> integrity;
  std::unique_ptr<AppHarness> app;
  EndpointPair pair;
  TimeNs now = 0;
  if (opt.app.enabled()) {
    AppHarnessWiring wiring;
    wiring.a = t.sender;
    wiring.b = t.receiver;
    wiring.a_loop = t.sender_domain.loop;
    wiring.b_loop = t.receiver_domain.loop;
    wiring.a_rec = sender_rec;
    wiring.b_rec = receiver_rec;
    wiring.log = &log;
    wiring.name = r.engine;
    {
      PoolStamp stamp(sender_pool);
      app = std::make_unique<AppHarness>(opt.app, wiring, opt.seed * 1000003ULL + 7);
      pair = app->primary();
      app->Start();
    }
    while (now < opt.time_limit && !app->Done()) {
      now += Ms(10);
      engine.Run(now);
      if (ovl_audit != nullptr) {
        ovl_audit->Probe(now, pair.b_to_a->bytes_delivered());
      }
    }
  } else {
    {
      PoolStamp stamp(sender_pool);
      pair = ConnectHosts(t.sender, t.receiver, 1000, 2000);
      integrity = std::make_unique<StreamIntegrityChecker>(r.engine + "/stream", &log);
      integrity->Attach(pair.b_to_a);
      integrity->set_expected_bytes(opt.transfer_bytes);
      pair.a_to_b->Send(opt.transfer_bytes);
    }
    while (now < opt.time_limit && pair.b_to_a->bytes_delivered() < opt.transfer_bytes) {
      now += Ms(10);
      engine.Run(now);
      if (ovl_audit != nullptr) {
        ovl_audit->Probe(now, pair.b_to_a->bytes_delivered());
      }
    }
  }
  // Let the tail drain (final ACKs, pending GRO flushes, late duplicates).
  // If the workload finished while overload windows were still open, keep
  // running until the last window closes and its flush timers fire — the
  // auditor's quiescence invariants only hold after pressure ends.
  now += Ms(5);
  if (ovl != nullptr) {
    now = std::max(now, ovl->pressure_end() + Ms(5));
  }
  engine.Run(now);

  FinishRun(opt, &t, &pair, flapper.get(), integrity.get(), app.get(), ovl.get(),
            ovl_audit.get(), &log, stack, now, &r);

  const ShardedEngineStats& es = engine.stats();
  r.shard_workers = es.workers;
  r.shard_windows = es.windows;
  r.shard_crossings = es.crossings;
  r.shard_barrier_wait_ns = es.barrier_wait_ns;
  r.shard_mailbox_hwm = es.mailbox_high_watermark;
  r.shard_mailbox_overflows = es.mailbox_overflow_drops;
  for (size_t i = 0; i < engine.domain_count(); ++i) {
    r.shard_names.push_back(engine.domain(i)->name());
    r.shard_events.push_back(engine.domain(i)->executed_events());
  }
  // A one-domain run has no crossings or mailboxes to report, and its
  // metrics stay exactly what the single loop published.
  if (opt.obs.metrics && opt.shards >= 1) {
    PublishShardedEngineStats(&engine, &r.obs.metrics);
  }
  if (opt.obs.trace) {
    std::vector<const FlightRecorder*> recs;
    for (const auto& rec : recorders) {
      recs.push_back(rec.get());
      r.obs.trace_dropped += rec->dropped();
    }
    r.obs.events = MergeTraces(recs);
  }
  // The no-leak proof: destroy everything that can hold a packet (fabric
  // teardown returns link/ring/GRO-held storage; ReleaseResidualPackets
  // frees mailbox contents and timer-riding packets), then any outstanding
  // remainder across the domain pools is storage the stack lost track of.
  if (ovl_audit != nullptr) {
    app.reset();
    integrity.reset();
    flapper.reset();
    pair = EndpointPair{};
    t_opt.reset();
    engine.ReleaseResidualPackets();
    r.overload_pool_leaked = ovl_audit->MeasureLeakedPackets();
  }
  return r;
}

namespace {

const char* TraceFlushReasonName(int reason) {
  if (reason < 0 || reason >= static_cast<int>(FlushReason::kReasonCount)) {
    return "unknown";
  }
  return FlushReasonName(static_cast<FlushReason>(reason));
}

const char* TracePhaseName(int phase) {
  if (phase == kFlowPhaseNone) {
    return "none";
  }
  if (phase < 0 || phase >= kFlowPhaseCount) {
    return "unknown";
  }
  return FlowPhaseName(static_cast<FlowPhase>(phase));
}

}  // namespace

TraceNamer ChaosTraceNamer() {
  TraceNamer namer;
  namer.flush_reason = TraceFlushReasonName;
  namer.phase = TracePhaseName;
  return namer;
}

const char* FaultFamilyName(FaultFamily family) {
  switch (family) {
    case FaultFamily::kDropBurst:
      return "drop-burst";
    case FaultFamily::kDuplicate:
      return "duplicate";
    case FaultFamily::kCorrupt:
      return "corrupt";
    case FaultFamily::kDelaySpike:
      return "delay-spike";
    case FaultFamily::kLinkFlap:
      return "link-flap";
    case FaultFamily::kMixed:
      return "mixed";
  }
  return "?";
}

bool ParseFaultFamily(const char* name, FaultFamily* out) {
  static constexpr FaultFamily kParseable[] = {
      FaultFamily::kDropBurst, FaultFamily::kDuplicate, FaultFamily::kCorrupt,
      FaultFamily::kDelaySpike, FaultFamily::kLinkFlap, FaultFamily::kMixed,
  };
  for (FaultFamily f : kParseable) {
    if (std::strcmp(name, FaultFamilyName(f)) == 0) {
      *out = f;
      return true;
    }
  }
  return false;
}

FaultTimeline MakeChaosTimeline(FaultFamily family, uint64_t seed, TimeNs horizon,
                                int num_windows) {
  JUG_CHECK(num_windows >= 1 && horizon > 0);
  Rng rng(seed * 6364136223846793005ULL + 1442695040888963407ULL +
          static_cast<uint64_t>(family));
  FaultTimeline timeline;
  if (family == FaultFamily::kLinkFlap) {
    return timeline;  // link flaps are scheduled on the Link, not per packet
  }
  // Windows tile [horizon/32, horizon] with jittered boundaries and ~20%
  // gaps between them: connection establishment stays clean, faults flare
  // and subside across the bulk of the transfer (whose duration is
  // congestion-limited and engine-dependent, hence the wide span), and
  // everything after `horizon` is fault-free recovery time.
  const TimeNs lo = horizon / 32;
  const TimeNs span = (horizon - lo) / num_windows;
  for (int i = 0; i < num_windows; ++i) {
    const TimeNs wlo = lo + span * i;
    const TimeNs start = wlo + rng.NextBounded(static_cast<uint64_t>(span / 8));
    const TimeNs end = wlo + span - span / 8 - rng.NextBounded(static_cast<uint64_t>(span / 8));
    FaultFamily f = family;
    if (family == FaultFamily::kMixed) {
      f = static_cast<FaultFamily>(rng.NextBounded(4));  // packet families only
    }
    FaultProfile p;
    switch (f) {
      case FaultFamily::kDropBurst:
        p = DropBurstProfile(&rng);
        break;
      case FaultFamily::kDuplicate:
        p = DuplicateProfile(&rng);
        break;
      case FaultFamily::kCorrupt:
        p = CorruptProfile(&rng);
        break;
      case FaultFamily::kDelaySpike:
        p = DelaySpikeProfile(&rng);
        break;
      default:
        break;
    }
    timeline.Add(start, end, p);
  }
  return timeline;
}

FaultTimeline DeriveChaosFaults(const ChaosOptions& options) {
  if (options.family == FaultFamily::kLinkFlap) {
    return FaultTimeline();  // flaps are scheduled on the Link, not per packet
  }
  // 12x the line-rate duration: the transfer is congestion-limited (more so
  // for the baseline engine under reordering), so faults must stay active
  // across the real, much longer, delivery timeline.
  return MakeChaosTimeline(options.family, options.seed,
                           /*horizon=*/NominalTransferTime(options) * 12, options.num_windows);
}

std::vector<FlapWindow> DeriveChaosFlaps(const ChaosOptions& options) {
  if (options.family != FaultFamily::kLinkFlap && options.family != FaultFamily::kMixed) {
    return {};
  }
  // Blackhole windows on the forward path, short relative to TCP's max RTO
  // (200ms) so the sender always recovers.
  Rng flap_rng(options.seed * 40503 + 271);
  const bool blackhole = options.family == FaultFamily::kLinkFlap || flap_rng.NextBool(0.5);
  return LinkFlapper::MakeRandomWindows(
      &flap_rng, /*horizon=*/NominalTransferTime(options),
      /*count=*/options.family == FaultFamily::kLinkFlap ? 3 : 1,
      /*min_down=*/Ms(2), /*max_down=*/Ms(12), blackhole, options.link_rate_bps);
}

ChaosResult RunChaos(const ChaosOptions& options) {
  ChaosResult result;
  result.juggler = RunChaosEngineStack(options, StackKind::kJuggler);
  result.baseline = RunChaosEngineStack(options, StackKind::kVanilla);
  if (options.app.enabled()) {
    // App workloads put engine-dependent byte totals on the wire (retries
    // are timing dependent), so the raw byte comparison does not apply; the
    // per-engine auditor + hung-request oracles already ran.
    result.streams_match = true;
  } else {
    // The two engines must agree on the application byte stream. Totals
    // plus each run's own integrity check (contiguity, exactly-once) make
    // the comparison: identical totals of identical contiguous prefixes are
    // the identical stream. The stream digest folds the same facts plus any
    // delivery anomalies, so it must agree whenever the totals do.
    result.streams_match =
        result.juggler.bytes_delivered == result.baseline.bytes_delivered &&
        result.juggler.stream_digest == result.baseline.stream_digest;
  }
  result.ok = result.juggler.completed && result.baseline.completed &&
              result.juggler.violations == 0 && result.baseline.violations == 0 &&
              result.streams_match;
  return result;
}

const char* StackKindName(StackKind stack) {
  switch (stack) {
    case StackKind::kJuggler:
      return "juggler";
    case StackKind::kVanilla:
      return "vanilla";
    case StackKind::kPresto:
      return "presto";
  }
  return "?";
}

bool ParseStackKind(const char* name, StackKind* out) {
  static constexpr StackKind kParseable[] = {
      StackKind::kJuggler,
      StackKind::kVanilla,
      StackKind::kPresto,
  };
  for (StackKind s : kParseable) {
    if (std::strcmp(name, StackKindName(s)) == 0) {
      *out = s;
      return true;
    }
  }
  return false;
}

}  // namespace juggler

