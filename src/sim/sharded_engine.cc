#include "src/sim/sharded_engine.h"

#include <barrier>
#include <chrono>
#include <thread>
#include <utility>

#include "src/util/logging.h"
#include "src/util/thread_budget.h"

namespace juggler {

ShardedEngine::ShardedEngine(size_t shards) : requested_shards_(shards < 1 ? 1 : shards) {}

ShardedEngine::~ShardedEngine() {
  ReleaseResidualPackets();
  if (domains_.size() == 1) {
    domains_[0]->pool_.MoveFreeStorageTo(&PacketPool::ThreadLocal());
  }
}

void ShardedEngine::ReleaseResidualPackets() {
  // Free packets parked in mailboxes, then packets riding timers in any
  // loop, before the domain pools (where all that storage returns) die.
  // Releases from a loop Shutdown land on the owning pool directly (this is
  // the owning thread), or on a sibling pool's remote stack when the packet
  // crossed domains — so reconcile every pool's ledger afterwards, on this
  // one thread, once all releases have happened.
  for (auto& mailbox : mailboxes_) {
    mailbox->Clear();
  }
  for (auto& domain : domains_) {
    PacketPool* prev = PacketPool::SwapThreadPool(&domain->pool_);
    domain->loop_.Shutdown();
    PacketPool::SwapThreadPool(prev);
  }
  for (auto& domain : domains_) {
    domain->pool_.ReconcileRemoteReleases();
  }
}

ShardDomain* ShardedEngine::AddDomain(std::string name) {
  // A one-domain engine runs like a plain loop on the constructing thread,
  // so its pool borrows that thread's idle packet storage (returned at
  // teardown): an engine per run then recycles packets instead of
  // reallocating them. A second domain ends the loan, since a per-node
  // partition's first domain (a switch) would only hold the storage idle.
  if (domains_.size() == 1) {
    domains_[0]->pool_.MoveFreeStorageTo(&PacketPool::ThreadLocal());
  }
  domains_.push_back(std::make_unique<ShardDomain>(std::move(name)));
  if (domains_.size() == 1) {
    PacketPool::ThreadLocal().MoveFreeStorageTo(&domains_[0]->pool_);
  }
  return domains_.back().get();
}

RemoteEndpoint* ShardedEngine::Connect(ShardDomain* src, ShardDomain* dst, TimeNs latency) {
  JUG_CHECK(src != nullptr && dst != nullptr);
  JUG_CHECK(src != dst);  // intra-domain traffic never needs a mailbox
  JUG_CHECK(latency > 0);
  mailboxes_.push_back(std::make_unique<ShardMailbox>());
  ShardMailbox* mailbox = mailboxes_.back().get();
  mailbox->set_capacity(mailbox_capacity_);
  dst->inbound_.push_back(mailbox);
  endpoints_.push_back(
      std::make_unique<RemoteEndpoint>(mailbox, src->loop_.now_ptr(), latency));
  if (latency < lookahead_) {
    lookahead_ = latency;
  }
  return endpoints_.back().get();
}

void ShardedEngine::set_mailbox_capacity(size_t capacity) {
  mailbox_capacity_ = capacity;
  for (auto& mailbox : mailboxes_) {
    mailbox->set_capacity(capacity);
  }
}

void ShardedEngine::PrepareRound() {
  if (final_round_pending_) {
    stop_ = true;
    return;
  }
  TimeNs m = EventLoop::kNoEvent;
  for (auto& domain : domains_) {
    const TimeNs t = domain->loop_.next_event_time();
    if (t < m) {
      m = t;
    }
  }
  if (m == EventLoop::kNoEvent || m >= deadline_) {
    // Nothing (left) before the deadline: one final window pins every clock
    // to the deadline and executes any events at exactly the deadline; such
    // events can only emit arrivals >= deadline + lookahead, so the round
    // after this one stops.
    window_end_ = deadline_;
    final_round_pending_ = true;
  } else if (lookahead_ == kNoLookahead || lookahead_ >= deadline_ - m) {
    window_end_ = deadline_;
  } else {
    window_end_ = m + lookahead_;
  }
  ++stats_.windows;
}

void ShardedEngine::RunPhase(size_t worker, size_t num_workers) {
  for (size_t i = worker; i < domains_.size(); i += num_workers) {
    ShardDomain* domain = domains_[i].get();
    // Make the domain's pool thread-ambient while its events run, so
    // allocations stamp — and recycle through — the domain pool no matter
    // which worker executes it.
    PacketPool* prev = PacketPool::SwapThreadPool(&domain->pool_);
    domain->loop_.RunUntil(window_end_);
    PacketPool::SwapThreadPool(prev);
  }
}

void ShardedEngine::InjectPhase(size_t worker, size_t num_workers) {
  for (size_t i = worker; i < domains_.size(); i += num_workers) {
    ShardDomain* domain = domains_[i].get();
    // Deterministic reconcile point for the pool's remote-release ledger:
    // the barrier before this phase orders every ReleaseRemote performed
    // during the window behind this fold, and which releases those are is a
    // property of the window schedule, not of worker interleaving. Occupancy
    // (and so every capacity verdict next window) is identical for any
    // worker count.
    domain->pool_.ReconcileRemoteReleases();
    EventLoop& loop = domain->loop_;
    for (ShardMailbox* mailbox : domain->inbound_) {
      for (ShardEnvelope& env : mailbox->buffer()) {
        // The conservative invariant: nothing emitted inside a window may
        // arrive before the window's end. An arrival exactly at the horizon
        // is legal — it executes in the next window (loop now() == end, and
        // ScheduleAt accepts when == now).
        JUG_CHECK(env.arrival >= window_end_);
        ++domain->injected_;
        loop.ScheduleAt(env.arrival,
                        [sink = env.sink, p = std::move(env.packet)]() mutable {
                          sink->Accept(std::move(p));
                        });
      }
      mailbox->Clear();
    }
  }
}

void ShardedEngine::RunSingleThreaded() {
  for (;;) {
    PrepareRound();
    if (stop_) {
      return;
    }
    RunPhase(0, 1);
    InjectPhase(0, 1);
  }
}

void ShardedEngine::RunMultiThreaded(size_t num_workers) {
  std::barrier<> barrier(static_cast<std::ptrdiff_t>(num_workers));
  stats_.barrier_wait_ns.assign(num_workers, 0);
  // Distinct vector elements: each worker writes only its own slot.
  auto wait = [&](size_t worker) {
    const auto start = std::chrono::steady_clock::now();
    barrier.arrive_and_wait();
    stats_.barrier_wait_ns[worker] += static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - start)
            .count());
  };
  // Worker 0 (the calling thread) additionally computes each round while the
  // helpers are parked at the round-publication barrier; the barrier pair
  // around every phase supplies all the happens-before edges the shared
  // state (round parameters, loops, mailboxes) needs.
  auto body = [&](size_t worker) {
    for (;;) {
      if (worker == 0) {
        PrepareRound();
      }
      wait(worker);  // round published
      if (stop_) {
        return;
      }
      RunPhase(worker, num_workers);
      wait(worker);  // every domain reached window_end_
      InjectPhase(worker, num_workers);
      wait(worker);  // every mailbox drained
    }
  };
  std::vector<std::thread> helpers;
  helpers.reserve(num_workers - 1);
  for (size_t worker = 1; worker < num_workers; ++worker) {
    helpers.emplace_back(body, worker);
  }
  body(0);
  for (std::thread& t : helpers) {
    t.join();
  }
}

void ShardedEngine::Run(TimeNs deadline) {
  JUG_CHECK(!domains_.empty());
  deadline_ = deadline;
  stop_ = false;
  final_round_pending_ = false;
  size_t want = requested_shards_;
  if (want > domains_.size()) {
    want = domains_.size();
  }
  const size_t workers = ThreadBudget::Acquire(want);
  stats_.workers = workers;
  stats_.lookahead = lookahead_ == kNoLookahead ? 0 : lookahead_;
  if (workers <= 1) {
    stats_.barrier_wait_ns.assign(1, 0);
    RunSingleThreaded();
  } else {
    RunMultiThreaded(workers);
  }
  ThreadBudget::Release(workers);
  stats_.crossings = 0;
  for (auto& domain : domains_) {
    stats_.crossings += domain->injected_;
  }
  stats_.mailbox_high_watermark = 0;
  stats_.mailbox_overflow_drops = 0;
  for (auto& mailbox : mailboxes_) {
    if (mailbox->high_watermark() > stats_.mailbox_high_watermark) {
      stats_.mailbox_high_watermark = mailbox->high_watermark();
    }
    stats_.mailbox_overflow_drops += mailbox->overflow_drops();
  }
}

void PublishShardedEngineStats(ShardedEngine* engine, MetricsRegistry* registry) {
  const ShardedEngineStats& stats = engine->stats();
  registry->AddCounter("sim.windows", "", stats.windows);
  registry->AddCounter("sim.crossings", "", stats.crossings);
  registry->SetGauge("sim.lookahead_ns", "", static_cast<uint64_t>(stats.lookahead));
  registry->MaxGauge("sim.mailbox_high_watermark", "", stats.mailbox_high_watermark);
  registry->AddCounter("sim.mailbox_overflow_drops", "", stats.mailbox_overflow_drops);
  for (size_t i = 0; i < engine->domain_count(); ++i) {
    ShardDomain* d = engine->domain(i);
    registry->AddCounter("sim.executed_events", d->name(), d->executed_events());
  }
}

}  // namespace juggler
