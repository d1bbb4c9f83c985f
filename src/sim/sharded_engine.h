// Conservative parallel discrete-event engine: one large scenario, many
// cores, zero rollback.
//
// The scenario is split into *domains* — fixed partitions (the whole
// testbed, one host each, or one Clos rack or spine each; see Partition in
// src/scenario/topologies.h) that each own a private EventLoop, PacketPool
// and PacketFactory. The only coupling between domains is a wire crossing
// with a fixed minimum latency, registered via Connect(); the smallest such
// latency is the engine's *lookahead* L. Execution proceeds in windows:
//
//   1. m  = min over all domains of the next pending event time.
//   2. Every domain runs independently (in parallel) up to
//      window_end = min(deadline, m + L). No event executed in this window
//      can affect another domain before window_end: a packet emitted at
//      local time t >= m crosses the wire no earlier than t + L >= m + L.
//   3. Barrier. Each domain drains its inbound mailboxes and schedules the
//      arrivals (all >= window_end by the argument above — checked) into its
//      own loop, each in storage from its own pool, then reports its next
//      event time. Barrier; its completion step takes the minimum of those
//      times as the next m. Repeat.
//
// Determinism is by construction, not by tie-breaking heuristics: the domain
// graph, the window sequence (a function of global event times and L only)
// and each domain's intra-window execution are all independent of how many
// worker threads multiplex the domains. `shards=N` therefore changes wall
// clock and nothing else — byte-identical digests for N=1 and N=8. Equal
// arrival timestamps order by (inbound-mailbox registration order, push
// order) via the destination loop's FIFO tie-break, which is the
// (timestamp, source shard, sequence) ordering in concrete form.
//
// Threading: worker 0 is the calling thread; W-1 helpers are spawned per
// Run() (W is the shard knob clamped by ThreadBudget and the domain count).
// Domains are assigned statically (index mod W), and every W runs the same
// worker loop, with two barrier crossings per window:
//
//   run the owned domains to window_end -> barrier -> per owned domain,
//   inject its mailboxes and note its next event time -> barrier, whose
//   completion step (run by the last worker to arrive) takes the minimum of
//   those times and sizes the next window.
//
// All cross-thread data (mailboxes, the per-worker next-event slots, the
// window parameters) is touched only on the correct side of a barrier, so
// the engine needs no locks and runs TSan-clean. The barrier spins briefly,
// then parks; with one worker it is a plain call. While a worker executes or
// injects a domain, that domain's pool is made thread-ambient
// (PacketPool::SwapThreadPool), so allocations stamp the domain pool. A
// crossing carries a copy of the packet (see ShardMailbox): the source frees
// its packet into its own pool, and the destination injects the arrival in
// storage from its own pool, so a packet never leaves the domain that
// allocated it and each pool is touched by one worker at a time. A capped
// destination pool can refuse an arrival; it is shed like wire loss and
// counted (crossing_drops). An exception thrown by a domain's events stops
// the run at the end of that window on every worker; Run() then rethrows the
// exception of the lowest-indexed domain that threw, whatever W is.
//
// Teardown: ~ShardedEngine Shutdown()s every loop (freeing packets riding
// timers, each into its own domain's pool), and only then lets the domain
// pools die — satisfying the stamped-pool lifetime contract. A one-domain
// engine borrows the constructing thread's idle packet storage for its pool
// and hands it back at teardown.

#ifndef JUGGLER_SRC_SIM_SHARDED_ENGINE_H_
#define JUGGLER_SRC_SIM_SHARDED_ENGINE_H_

#include <cstdint>
#include <exception>
#include <memory>
#include <string>
#include <vector>

#include "src/obs/metrics.h"
#include "src/packet/packet.h"
#include "src/sim/event_loop.h"
#include "src/sim/shard_mailbox.h"
#include "src/util/time.h"

namespace juggler {

// One partition of the scenario: a private event loop, packet pool (which
// stamps its packets, so they return to it) and id-assigning factory.
// Components of this domain are constructed against loop()/factory()
// exactly as they would be against a scenario-wide loop.
class ShardDomain {
 public:
  explicit ShardDomain(std::string name) : name_(std::move(name)) {}

  EventLoop& loop() { return loop_; }
  PacketFactory& factory() { return factory_; }
  PacketPool& pool() { return pool_; }
  const std::string& name() const { return name_; }
  uint64_t executed_events() const { return loop_.executed_events(); }

 private:
  friend class ShardedEngine;

  std::string name_;
  // Pool declared before the loop: the loop (which may still reference pool
  // storage until Shutdown) is destroyed first.
  PacketPool pool_{PacketPool::OriginStampTag{}};
  EventLoop loop_;
  PacketFactory factory_;
  std::vector<ShardMailbox*> inbound_;  // registration order = tie-break order
  uint64_t injected_ = 0;               // packets received from other domains
  uint64_t crossing_drops_ = 0;         // of those, refused by pool_'s cap
};

struct ShardedEngineStats {
  uint64_t windows = 0;          // lookahead rounds executed
  uint64_t crossings = 0;        // packets handed between domains
  // Crossing arrivals shed because the destination domain's pool sat at its
  // capacity cap (only capped pools refuse); counted in crossings too.
  uint64_t crossing_drops = 0;
  size_t workers = 0;            // actual worker threads used by last Run()
  TimeNs lookahead = 0;          // 0 when no cross-domain links exist
  // Mailbox pressure across all (src, dst) pairs: the deepest any one
  // buffer ever got, and how many envelopes hit the capacity fuse. Nonzero
  // overflow means the run shed cross-shard packets — visible degradation
  // instead of unbounded growth behind a stuck consumer.
  size_t mailbox_high_watermark = 0;
  uint64_t mailbox_overflow_drops = 0;
  // Wall-clock nanoseconds each worker spent blocked on barriers (imbalance
  // indicator); index 0 is the calling thread.
  std::vector<uint64_t> barrier_wait_ns;
};

class ShardedEngine {
 public:
  // `shards` is the requested worker count; the effective count is clamped
  // to [1, domains] and to the process ThreadBudget at Run() time.
  explicit ShardedEngine(size_t shards);
  ~ShardedEngine();

  ShardedEngine(const ShardedEngine&) = delete;
  ShardedEngine& operator=(const ShardedEngine&) = delete;

  // Topology construction (single-threaded, before Run).
  ShardDomain* AddDomain(std::string name);

  // Register a wire crossing from `src` to `dst` with the given minimum
  // latency (> 0); returns the endpoint producers in `src` write to. The
  // engine's lookahead is the minimum latency over all crossings.
  RemoteEndpoint* Connect(ShardDomain* src, ShardDomain* dst, TimeNs latency);

  // Per-pair mailbox capacity, applied to existing and future crossings.
  // 0 restores ShardMailbox::kDefaultCapacity. Call before Run().
  void set_mailbox_capacity(size_t capacity);

  // Run every domain to `deadline` under the window protocol; afterwards
  // each domain's loop sits at now() == deadline, exactly like RunUntil.
  // If events throw, the run stops at the end of that window and Run()
  // rethrows the exception of the lowest-indexed domain that threw.
  void Run(TimeNs deadline);

  // Frees every packet still riding loop timers — the destructor's teardown
  // sequence, exposed so overload audits can measure pool occupancy *after*
  // all in-flight storage has drained (a nonzero remainder is a true leak).
  // Idempotent; the engine must not be Run() again afterwards.
  void ReleaseResidualPackets();

  size_t domain_count() const { return domains_.size(); }
  ShardDomain* domain(size_t i) { return domains_[i].get(); }
  const ShardedEngineStats& stats() const { return stats_; }

 private:
  // Sizes the next window from `m`, the earliest pending event over all
  // domains, or sets stop_ once the deadline window has run. Called while
  // no worker is running or injecting.
  void PlanWindow(TimeNs m);
  // Runs the domains `worker` owns (index mod num_workers) to window_end_.
  // A throwing domain ends the pass: returns its exception and index.
  std::exception_ptr RunOwnedDomains(size_t worker, size_t num_workers, size_t* failed_domain);
  // Injects the domains `worker` owns; returns their earliest pending event
  // time (kNoEvent once the deadline window has run).
  TimeNs InjectOwnedDomains(size_t worker, size_t num_workers);

  static constexpr TimeNs kNoLookahead = INT64_MAX;

  const size_t requested_shards_;
  size_t mailbox_capacity_ = 0;  // 0 = ShardMailbox default
  std::vector<std::unique_ptr<ShardDomain>> domains_;
  std::vector<std::unique_ptr<ShardMailbox>> mailboxes_;
  std::vector<std::unique_ptr<RemoteEndpoint>> endpoints_;
  TimeNs lookahead_ = kNoLookahead;

  // Per-Run() window state. Written by PlanWindow, read by all workers
  // after the barrier it completes.
  TimeNs deadline_ = 0;
  TimeNs window_end_ = 0;
  bool stop_ = false;
  bool final_round_pending_ = false;

  ShardedEngineStats stats_;
};

// Snapshot the engine's worker-invariant stats into `registry`: windows,
// crossings and their drops, lookahead, mailbox pressure, per-domain
// executed-event counts.
// Deliberately excludes `workers` and `barrier_wait_ns` — those depend on
// the worker count / wall clock, and published metrics must stay
// byte-identical across --shards=N.
void PublishShardedEngineStats(ShardedEngine* engine, MetricsRegistry* registry);

}  // namespace juggler

#endif  // JUGGLER_SRC_SIM_SHARDED_ENGINE_H_
