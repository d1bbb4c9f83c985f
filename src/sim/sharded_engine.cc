#include "src/sim/sharded_engine.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <thread>
#include <utility>

#include "src/util/logging.h"
#include "src/util/thread_budget.h"

namespace juggler {
namespace {

constexpr size_t kCacheLine = 64;

// A barrier waiter spins this many pause hints (~66 us on a 4-vCPU Xeon VM)
// before parking on the phase word, and yields the CPU every
// kPausesPerYield of them. A Clos window is ~10 us of work, so parking at
// once pays a futex sleep and wake-up on almost every window, and a spin
// that never yields starves a worker the scheduler put on the same core.
// Sharded 32-host Clos at 2 workers on that VM, simulated packets/s with
// free cores / with both workers pinned to one core: park at once
// 0.26-0.41M / 0.55M; spin 4096 without yielding 0.67-0.88M / 0.04M; spin
// 4096 yielding every 64 0.75-0.84M / 0.44M. Spins of 64 and 512 pauses
// gave 0.53-0.67M and 0.71-0.75M on free cores.
constexpr int kSpinPauses = 4096;
constexpr int kPausesPerYield = 64;

inline void CpuPause() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#endif
}

// A barrier for a fixed set of threads. The last thread to arrive runs the
// completion step, then opens the next phase; the others spin on the phase
// word (see kSpinPauses) and then park on it. Each arrival adds its
// wall-clock time in the barrier to *wait_ns. With one participant,
// arriving just runs the completion step: no atomics and no clock reads.
class WindowBarrier {
 public:
  explicit WindowBarrier(size_t participants) : participants_(participants) {}

  template <typename Completion>
  void ArriveAndWait(Completion&& completion, uint64_t* wait_ns) {
    if (participants_ == 1) {
      completion();
      return;
    }
    const auto start = std::chrono::steady_clock::now();
    // The phase cannot advance before this thread arrives.
    const uint32_t phase = phase_.load(std::memory_order_relaxed);
    // The arrivals form one release sequence, so the last arriver sees every
    // participant's writes before its completion step runs.
    if (arrived_.fetch_add(1, std::memory_order_acq_rel) + 1 == participants_) {
      completion();
      arrived_.store(0, std::memory_order_relaxed);
      phase_.store(phase + 1, std::memory_order_release);
      phase_.notify_all();
    } else {
      AwaitPhaseChange(phase);
    }
    *wait_ns += static_cast<uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                          std::chrono::steady_clock::now() - start)
                                          .count());
  }

 private:
  void AwaitPhaseChange(uint32_t phase) {
    for (int i = 1; i <= kSpinPauses; ++i) {
      if (phase_.load(std::memory_order_acquire) != phase) {
        return;
      }
      if (i % kPausesPerYield == 0) {
        std::this_thread::yield();
      } else {
        CpuPause();
      }
    }
    while (phase_.load(std::memory_order_acquire) == phase) {
      phase_.wait(phase, std::memory_order_acquire);
    }
  }

  const size_t participants_;
  alignas(kCacheLine) std::atomic<size_t> arrived_{0};
  alignas(kCacheLine) std::atomic<uint32_t> phase_{0};
};

// One worker's results, on a cache line of its own: its domains' earliest
// pending event after the inject phase, the exception one of them threw,
// and its wall-clock time blocked on the barrier.
struct alignas(kCacheLine) WorkerSlot {
  TimeNs next_event = EventLoop::kNoEvent;
  std::exception_ptr error;
  size_t error_domain = 0;
  uint64_t wait_ns = 0;
};

}  // namespace

ShardedEngine::ShardedEngine(size_t shards) : requested_shards_(shards < 1 ? 1 : shards) {}

ShardedEngine::~ShardedEngine() {
  ReleaseResidualPackets();
  if (domains_.size() == 1) {
    domains_[0]->pool_.MoveFreeStorageTo(&PacketPool::ThreadLocal());
  }
}

void ShardedEngine::ReleaseResidualPackets() {
  // Free packets riding timers in any loop before the domain pools (where
  // all that storage returns) die. Mailboxes hold copies, never storage, and
  // every Run() ends with them drained.
  for (auto& domain : domains_) {
    PacketPool* prev = PacketPool::SwapThreadPool(&domain->pool_);
    domain->loop_.Shutdown();
    PacketPool::SwapThreadPool(prev);
  }
}

ShardDomain* ShardedEngine::AddDomain(std::string name) {
  // A one-domain engine runs like a plain loop on the constructing thread,
  // so its pool borrows that thread's idle packet storage (returned at
  // teardown): an engine per run then recycles packets instead of
  // reallocating them. A second domain ends the loan, so a partitioned
  // engine's pools all start empty.
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

void ShardedEngine::PlanWindow(TimeNs m) {
  if (final_round_pending_) {
    stop_ = true;
    return;
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

std::exception_ptr ShardedEngine::RunOwnedDomains(size_t worker, size_t num_workers,
                                                  size_t* failed_domain) {
  for (size_t i = worker; i < domains_.size(); i += num_workers) {
    ShardDomain* domain = domains_[i].get();
    // Make the domain's pool thread-ambient while its events run, so
    // allocations stamp — and recycle through — the domain pool no matter
    // which worker executes it.
    PacketPool* prev = PacketPool::SwapThreadPool(&domain->pool_);
    std::exception_ptr error;
    try {
      domain->loop_.RunUntil(window_end_);
    } catch (...) {
      error = std::current_exception();
    }
    PacketPool::SwapThreadPool(prev);
    if (error) {
      *failed_domain = i;
      return error;
    }
  }
  return nullptr;
}

TimeNs ShardedEngine::InjectOwnedDomains(size_t worker, size_t num_workers) {
  TimeNs next_event = EventLoop::kNoEvent;
  for (size_t i = worker; i < domains_.size(); i += num_workers) {
    ShardDomain* domain = domains_[i].get();
    EventLoop& loop = domain->loop_;
    // Each arrival takes storage from this domain's pool: it is resident
    // here now, so it counts against this pool's cap. The pool's state is a
    // function of this domain's events alone, so every verdict is identical
    // for any worker count.
    PacketPool* prev = PacketPool::SwapThreadPool(&domain->pool_);
    for (ShardMailbox* mailbox : domain->inbound_) {
      for (const ShardEnvelope& env : mailbox->buffer()) {
        // The conservative invariant: nothing emitted inside a window may
        // arrive before the window's end. An arrival exactly at the horizon
        // is legal — it executes in the next window (loop now() == end, and
        // ScheduleAt accepts when == now).
        JUG_CHECK(env.arrival >= window_end_);
        ++domain->injected_;
        PacketPtr packet = TryClonePacket(env.packet);
        if (packet == nullptr) {
          // The pool is at its cap: shed like wire loss, which TCP recovers.
          ++domain->crossing_drops_;
          continue;
        }
        loop.ScheduleAt(env.arrival, [sink = env.sink, p = std::move(packet)]() mutable {
          sink->Accept(std::move(p));
        });
      }
      mailbox->Clear();
    }
    PacketPool::SwapThreadPool(prev);
    if (!final_round_pending_) {
      next_event = std::min(next_event, loop.next_event_time());
    }
  }
  return next_event;
}

void ShardedEngine::Run(TimeNs deadline) {
  JUG_CHECK(!domains_.empty());
  deadline_ = deadline;
  stop_ = false;
  final_round_pending_ = false;
  const size_t workers = ThreadBudget::Acquire(std::min(requested_shards_, domains_.size()));
  stats_.workers = workers;
  stats_.lookahead = lookahead_ == kNoLookahead ? 0 : lookahead_;

  TimeNs first_event = EventLoop::kNoEvent;
  for (auto& domain : domains_) {
    first_event = std::min(first_event, domain->loop_.next_event_time());
  }
  PlanWindow(first_event);

  std::vector<WorkerSlot> slots(workers);
  WindowBarrier barrier(workers);
  auto plan_next_window = [&] {
    TimeNs next_event = EventLoop::kNoEvent;
    for (const WorkerSlot& slot : slots) {
      next_event = std::min(next_event, slot.next_event);
      if (slot.error) {
        stop_ = true;
      }
    }
    if (!stop_) {
      PlanWindow(next_event);
    }
  };
  // Worker 0 is this thread. Between the barriers each worker touches only
  // its own domains and slot; the window state changes only in a completion
  // step, while every other worker waits.
  auto worker_loop = [&](size_t worker) {
    WorkerSlot& slot = slots[worker];
    while (!stop_) {
      slot.error = RunOwnedDomains(worker, workers, &slot.error_domain);
      barrier.ArriveAndWait([] {}, &slot.wait_ns);  // every domain reached window_end_
      slot.next_event = InjectOwnedDomains(worker, workers);
      barrier.ArriveAndWait(plan_next_window, &slot.wait_ns);
    }
  };
  std::vector<std::thread> helpers;
  helpers.reserve(workers - 1);
  for (size_t worker = 1; worker < workers; ++worker) {
    helpers.emplace_back(worker_loop, worker);
  }
  worker_loop(0);
  for (std::thread& t : helpers) {
    t.join();
  }
  ThreadBudget::Release(workers);

  std::exception_ptr error;
  size_t error_domain = domains_.size();
  stats_.barrier_wait_ns.assign(workers, 0);
  for (size_t worker = 0; worker < workers; ++worker) {
    const WorkerSlot& slot = slots[worker];
    stats_.barrier_wait_ns[worker] = slot.wait_ns;
    if (slot.error && slot.error_domain < error_domain) {
      error = slot.error;
      error_domain = slot.error_domain;
    }
  }
  stats_.crossings = 0;
  stats_.crossing_drops = 0;
  for (auto& domain : domains_) {
    stats_.crossings += domain->injected_;
    stats_.crossing_drops += domain->crossing_drops_;
  }
  stats_.mailbox_high_watermark = 0;
  stats_.mailbox_overflow_drops = 0;
  for (auto& mailbox : mailboxes_) {
    if (mailbox->high_watermark() > stats_.mailbox_high_watermark) {
      stats_.mailbox_high_watermark = mailbox->high_watermark();
    }
    stats_.mailbox_overflow_drops += mailbox->overflow_drops();
  }
  if (error) {
    std::rethrow_exception(error);
  }
}

void PublishShardedEngineStats(ShardedEngine* engine, MetricsRegistry* registry) {
  const ShardedEngineStats& stats = engine->stats();
  registry->AddCounter("sim.windows", "", stats.windows);
  registry->AddCounter("sim.crossings", "", stats.crossings);
  registry->AddCounter("sim.crossing_drops", "", stats.crossing_drops);
  registry->SetGauge("sim.lookahead_ns", "", static_cast<uint64_t>(stats.lookahead));
  registry->MaxGauge("sim.mailbox_high_watermark", "", stats.mailbox_high_watermark);
  registry->AddCounter("sim.mailbox_overflow_drops", "", stats.mailbox_overflow_drops);
  for (size_t i = 0; i < engine->domain_count(); ++i) {
    ShardDomain* d = engine->domain(i);
    registry->AddCounter("sim.executed_events", d->name(), d->executed_events());
  }
}

}  // namespace juggler
