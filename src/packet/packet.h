// Packet and segment representations.
//
// Packets are metadata-only: the simulator never materialises payload bytes,
// it tracks (sequence, length) ranges exactly as GRO and TCP reason about
// them. A Packet models one wire MTU (or a pure ACK); a Segment models the
// sk_buff handed up the stack by GRO — one contiguous byte range plus the
// count of MTUs merged into it (the frags[] array of Figure 3).
//
// Allocation: packets are recycled through a freelist-backed PacketPool, one
// per thread, behind a custom unique_ptr deleter. The simulator allocates one
// Packet per simulated MTU — hundreds of millions per long bench — so the
// steady state must not touch the allocator. PacketPtr stays 8 bytes (the
// deleter is stateless: it returns storage to its thread's pool), lifetime is
// safe by construction (the pool outlives every object that can hold a
// packet on its thread), and each sweep-runner worker gets a private pool, so
// recycling needs no locks.

#ifndef JUGGLER_SRC_PACKET_PACKET_H_
#define JUGGLER_SRC_PACKET_PACKET_H_

#include <cstdint>
#include <cstring>
#include <memory>
#include <vector>

#include "src/util/seq.h"
#include "src/util/time.h"

namespace juggler {

// Wire constants. An MTU-sized frame carries kMss payload bytes; every frame
// additionally occupies kPerPacketWireOverhead bytes of link time (Ethernet
// header + CRC + preamble + inter-frame gap + IP/TCP headers).
inline constexpr uint32_t kMtuBytes = 1500;
inline constexpr uint32_t kMss = 1448;
inline constexpr uint32_t kPerPacketWireOverhead = 90;

// Maximum TSO burst / GRO merge size: 45 MTUs' worth of payload ("64KB").
inline constexpr uint32_t kMaxTsoPayload = 45 * kMss;

enum class Priority : uint8_t {
  kHigh = 0,
  kLow = 1,
};

struct FiveTuple {
  uint32_t src_ip = 0;
  uint32_t dst_ip = 0;
  uint16_t src_port = 0;
  uint16_t dst_port = 0;
  uint8_t protocol = 6;  // TCP

  bool operator==(const FiveTuple&) const = default;

  // The reverse direction (for ACKs and server->client traffic).
  FiveTuple Reversed() const {
    return FiveTuple{dst_ip, src_ip, dst_port, src_port, protocol};
  }

  uint64_t Hash() const {
    // Mix the fields through a 64-bit finalizer; used for RSS and ECMP.
    uint64_t h = (static_cast<uint64_t>(src_ip) << 32) | dst_ip;
    h ^= (static_cast<uint64_t>(src_port) << 48) | (static_cast<uint64_t>(dst_port) << 32) |
         protocol;
    h ^= h >> 33;
    h *= 0xff51afd7ed558ccdULL;
    h ^= h >> 33;
    h *= 0xc4ceb9fe1a85ec53ULL;
    h ^= h >> 33;
    return h;
  }
};

struct FiveTupleHash {
  size_t operator()(const FiveTuple& t) const { return static_cast<size_t>(t.Hash()); }
};

// TCP flag bits relevant to GRO flush decisions (Table 2 of the paper).
enum TcpFlag : uint8_t {
  kFlagAck = 1 << 0,
  kFlagPsh = 1 << 1,
  kFlagUrg = 1 << 2,
  kFlagSyn = 1 << 3,
  kFlagFin = 1 << 4,
};

// SACK option carried on ACKs: up to 3 [start, end) blocks of received but
// not-yet-cumulatively-acked data.
struct SackBlocks {
  uint8_t count = 0;
  Seq start[3] = {};
  Seq end[3] = {};

  void Add(Seq s, Seq e) {
    if (count < 3) {
      start[count] = s;
      end[count] = e;
      ++count;
    }
  }
};

class PacketPool;

// Cache-line aligned: 112 bytes of simulation state plus the pool-origin
// pointer fit exactly two lines, so the recycle-reset and per-field writes
// never straddle a third line.
struct alignas(64) Packet {
  uint64_t id = 0;  // globally unique, for tracing
  FiveTuple flow;

  Seq seq = 0;               // first payload byte
  uint32_t payload_len = 0;  // 0 for a pure ACK
  uint8_t flags = 0;
  Seq ack_seq = 0;        // cumulative ACK carried (valid when kFlagAck set)
  uint32_t ack_rwnd = 0;  // advertised receive window on ACKs
  SackBlocks sack;        // SACK option (pure ACKs)
  bool ece = false;       // ECN echo on ACKs (DCTCP feedback)

  // Mergeability metadata: GRO only merges packets whose options token and
  // CE mark match (Table 2: "differs in TCP options, CE marks, etc").
  uint32_t options_token = 0;
  bool ce_mark = false;

  // Set by fault injection when the frame's payload/header was corrupted (or
  // the frame truncated) in flight. The receiving NIC's checksum validation
  // discards such frames before they reach the driver, exactly as real
  // hardware drops bad-FCS frames — the stack only ever sees the loss.
  bool corrupted = false;

  Priority priority = Priority::kLow;

  // Per-TSO load balancing (Presto-style flowcells): all MTUs cut from one
  // TSO burst share a tso_id and hash to the same path.
  uint64_t tso_id = 0;

  TimeNs sent_time = 0;    // left the sender's TCP
  TimeNs nic_rx_time = 0;  // arrived at the receiving NIC ring

  // Pool management, not simulation state: the stamping pool whose storage
  // this is (releases route back to it, whichever pool is ambient), or null.
  // Maintained by PacketPool/ClonePacket; simulation code must treat it as
  // opaque.
  PacketPool* pool_origin = nullptr;

  bool is_pure_ack() const { return payload_len == 0 && (flags & kFlagAck) != 0; }
  Seq end_seq() const { return seq + payload_len; }
  uint32_t wire_bytes() const { return payload_len + kPerPacketWireOverhead; }
};

// Returns a released Packet's storage to the calling thread's PacketPool.
// Stateless so PacketPtr is pointer-sized.
struct PacketDeleter {
  void operator()(Packet* p) const noexcept;
};

using PacketPtr = std::unique_ptr<Packet, PacketDeleter>;

// Freelist of Packet storage. All packets allocated through a pool — from
// any PacketFactory, test helper or clone — recycle through that same pool,
// so steady-state traffic performs zero allocations. Storage is plain `new
// Packet`, individually owned, so the freelist may also absorb packets that
// were constructed outside the pool.
//
// Threading: a pool is never synchronized; only one thread touches it at a
// time. By default every thread has its own pool (ThreadLocal) and packets
// recycle through whichever pool is ambient on the releasing thread — safe
// across thread teardown because such packets carry no origin pointer. A
// pool constructed with OriginStampTag (the sharded engine owns one per
// shard domain) additionally stamps every packet it hands out with its own
// address, and a stamped packet always returns to that pool. A stamped
// packet never leaves its pool's domain — a shard crossing carries a copy
// of the packet, not the packet — so its release runs on the worker that
// runs the domain, or on the main thread at teardown, when no worker runs;
// the stamp is what returns a domain's packets to the domain's own pool
// there. Lifetime contract for stamped pools only: the pool must outlive
// every packet it allocated; the engine guarantees this by shutting down all
// event loops (freeing in-flight packets) before any pool dies.
class PacketPool {
 public:
  // Tag selecting origin stamping (see class comment).
  struct OriginStampTag {};

  PacketPool() = default;
  explicit PacketPool(OriginStampTag) : origin_stamp_(this) {}
  // The thread's pool. The cached pointer is trivially-initialized TLS, so
  // the hot path is one thread-relative load — no init-guard check, no call
  // into the TU that owns the pool (this accessor runs twice per simulated
  // packet).
  static PacketPool& ThreadLocal() {
    PacketPool* pool = tls_pool_;
    if (pool == nullptr) [[unlikely]] {
      pool = &CreateForThread();
    }
    return *pool;
  }

  // Deleter entry point. Unstamped packets (the common, non-sharded case)
  // recycle through whichever pool is ambient on the releasing thread, or
  // are freed outright when that pool is already gone (releases during
  // thread teardown). Stamped packets go back to their origin.
  static void ReleaseToThreadPool(Packet* p) noexcept {
    PacketPool* origin = p->pool_origin;
    if (origin == nullptr) [[likely]] {
      PacketPool* pool = tls_pool_;
      if (pool != nullptr) [[likely]] {
        pool->Release(p);
      } else {
        delete p;
      }
    } else {
      origin->Release(p);
    }
  }

  // Repoints the calling thread's pool (returning the previous one, possibly
  // null). Shard workers run each domain against that domain's own pool, so
  // allocations made while a domain executes are stamped with — and recycle
  // through — the domain pool regardless of which worker thread ran it.
  static PacketPool* SwapThreadPool(PacketPool* pool) noexcept {
    PacketPool* prev = tls_pool_;
    tls_pool_ = pool;
    return prev;
  }

  ~PacketPool();

  // Capacity-checked acquire: returns null (and counts the refusal) instead
  // of allocating when the pool is at its cap. This is the overload-policy
  // entry point — callers that can shed load (NIC transmit, fault
  // duplication, storm injectors) use it and surface the refusal as a typed
  // drop counter; infallible Acquire stays available for paths that must not
  // fail. A cap of 0 (the default) means unbounded, so uncapped pools behave
  // byte-for-byte as before.
  Packet* TryAcquire() {
    if (capacity_ != 0 && outstanding() >= capacity_) [[unlikely]] {
      ++exhausted_;
      return nullptr;
    }
    return Acquire();
  }

  // Pops recycled storage (or allocates) and resets it to default state.
  // Only `acquired_` and the occupancy high watermark are maintained inline;
  // the allocator-miss count lives on the cold branch.
  Packet* Acquire() {
    ++acquired_;
    const int64_t live = static_cast<int64_t>(acquired_) - static_cast<int64_t>(released_);
    if (live > peak_outstanding_) {
      peak_outstanding_ = live;
    }
    if (free_.empty()) {
      ++fresh_;
      Packet* p = new Packet;
      p->pool_origin = origin_stamp_;
      return p;
    }
    Packet* p = free_.back();
    free_.pop_back();
    // Recycled storage must look freshly constructed. Copying a static
    // zeroed image lowers to straight-line vector loads/stores; a memset
    // call of exactly two cache lines picks x86 rep-stos, whose startup
    // latency dwarfs the stores themselves (measured ~25% of the whole GRO
    // datapath). Three fixups restore the non-zero defaults; packet_test
    // pins the equivalence against a default-constructed Packet.
    alignas(64) static constexpr unsigned char kZeroImage[sizeof(Packet)] = {};
    std::memcpy(static_cast<void*>(p), kZeroImage, sizeof(Packet));
    p->flow.protocol = 6;
    p->priority = Priority::kLow;
    p->pool_origin = origin_stamp_;
    return p;
  }

  // The inlined fast path on every packet free. One freelist push plus one
  // compare against the compaction watermark; the compaction itself stays
  // out-of-line so this inlines to a handful of instructions at call sites.
  void Release(Packet* p) noexcept {
    ++released_;
    free_.push_back(p);
    if (free_.size() >= compact_watermark_) [[unlikely]] {
      CompactFreeList();
    }
  }

  // Batch release for a folded run: for unstamped packets, one thread-local
  // pool load and one watermark check hoisted out of the loop, instead of
  // per packet; stamped packets go back to their origin. Consumes (nulls)
  // every non-null PacketPtr in [ptrs, ptrs + n); null entries are skipped,
  // so callers may hand over a partially consumed batch.
  static void ReleaseBatch(PacketPtr* ptrs, size_t n) noexcept {
    PacketPool* pool = tls_pool_;
    for (size_t i = 0; i < n; ++i) {
      Packet* p = ptrs[i].release();
      if (p == nullptr) {
        continue;
      }
      PacketPool* origin = p->pool_origin;
      if (origin == nullptr) [[likely]] {
        if (pool != nullptr) [[likely]] {
          ++pool->released_;
          pool->free_.push_back(p);
        } else {
          delete p;
        }
      } else {
        origin->Release(p);
      }
    }
    if (pool != nullptr && pool->free_.size() >= pool->compact_watermark_) [[unlikely]] {
      pool->CompactFreeList();
    }
  }

  // Frees the freelist's storage (keeps stats). Outstanding packets are
  // unaffected; they re-enter the (now empty) freelist when released.
  void Trim();

  // Hands this pool's idle storage (its freelist) to `to`, which compacts it
  // to its watermark. Storage carries no ledger state: the next Acquire
  // re-stamps the origin. A one-domain ShardedEngine borrows the calling
  // thread's storage this way, so an engine per run recycles packets like
  // one long-lived pool instead of reallocating them.
  void MoveFreeStorageTo(PacketPool* to);

  // --- Bounded-resource operation (overload resilience) ---------------------
  //
  // Occupancy is tracked as (acquired - released), never by freelist size:
  // the freelist holds *storage*, occupancy is about *live packets*. A
  // domain pool's packets never leave its domain, so both halves of the
  // ledger move only with the domain's own events, and outstanding() — and
  // therefore every TryAcquire verdict and drop counter derived from it — is
  // identical for any worker count, the property the overload digests rely
  // on.

  // Hard cap on live packets from this pool; 0 = unbounded (default).
  void set_capacity(size_t capacity) noexcept { capacity_ = capacity; }
  size_t capacity() const { return capacity_; }

  // Live packets: acquired minus released. Computed signed and clamped at
  // zero: a packet acquired from one pool but released into this pool's
  // ledger (an unstamped allocation freed on a thread whose ambient pool is
  // this one) makes released exceed acquired, and an unsigned wrap would
  // read as "infinitely full" — turning a small bookkeeping skew into a
  // permanent allocation refusal.
  uint64_t outstanding() const {
    const int64_t live = static_cast<int64_t>(acquired_) - static_cast<int64_t>(released_);
    return live > 0 ? static_cast<uint64_t>(live) : 0;
  }

  // High watermark of outstanding() over the pool's life. Occupancy rises
  // only in Acquire, so keeping the mark there makes it exact, however
  // briefly a peak lasted.
  uint64_t peak_outstanding() const { return static_cast<uint64_t>(peak_outstanding_); }

  // TryAcquire refusals (the pool's contribution to tail-drop counters).
  uint64_t exhausted() const { return exhausted_; }
  uint64_t released() const { return released_; }

  uint64_t acquired() const { return acquired_; }
  // Acquisitions served from the freelist rather than the allocator.
  uint64_t recycled() const { return acquired_ - fresh_; }
  size_t free_size() const { return free_.size(); }
  // Storage freed by watermark compaction (not by Trim), and the current
  // watermark — observability for the bounded-growth guarantee.
  uint64_t compact_freed() const { return compact_freed_; }
  size_t compact_watermark() const { return compact_watermark_; }

 private:
  // Cold path: constructs the calling thread's pool and caches its address.
  static PacketPool& CreateForThread();

  // Watermark compaction (cold; see Release). When the freelist reaches the
  // watermark, measure the demand since the last decision (acquisitions
  // served): a fully cycling freelist just doubles the watermark so busy
  // steady states stop re-deriving, while storage beyond recent demand — a
  // release storm with nobody acquiring — is freed down to max(floor/2,
  // demand). Each trim is O(watermark) deletes after >= watermark/2 pushes,
  // so the amortized cost per release is O(1), and after any storm the
  // retained freelist is bounded by ~2x the floor-or-demand, never by the
  // storm's size.
  void CompactFreeList() noexcept;
  static constexpr size_t kCompactFloor = 4096;

  // constinit: provably no dynamic initialization, so access compiles to a
  // bare thread-relative load instead of a call to the TLS init wrapper.
  static constinit thread_local PacketPool* tls_pool_;

  std::vector<Packet*> free_;
  // What Acquire writes into Packet::pool_origin: `this` for engine-owned
  // (OriginStampTag) pools, null for thread-ambient ones.
  PacketPool* const origin_stamp_ = nullptr;
  uint64_t acquired_ = 0;
  uint64_t fresh_ = 0;  // acquisitions that had to hit the allocator
  // Overload-resilience ledger (see the block comment above set_capacity).
  size_t capacity_ = 0;     // 0 = unbounded
  uint64_t released_ = 0;
  uint64_t exhausted_ = 0;  // TryAcquire refusals at the cap
  int64_t peak_outstanding_ = 0;  // compared signed, as outstanding() computes; never < 0
  size_t compact_watermark_ = kCompactFloor;
  uint64_t compact_last_acquired_ = 0;
  uint64_t compact_freed_ = 0;
};

inline void PacketDeleter::operator()(Packet* p) const noexcept {
  PacketPool::ReleaseToThreadPool(p);
}

// A default-initialized packet from the calling thread's pool.
inline PacketPtr AllocPacket() { return PacketPtr(PacketPool::ThreadLocal().Acquire()); }

// A pooled copy of `src` (used for duplication faults and test fixtures).
// Only simulation state is copied: the clone keeps its own storage's pool
// bookkeeping, not the source's.
inline PacketPtr ClonePacket(const Packet& src) {
  PacketPtr p = AllocPacket();
  PacketPool* origin = p->pool_origin;
  *p = src;
  p->pool_origin = origin;
  return p;
}

// Capacity-checked clone: null when the thread's pool is at its cap. Fault
// duplication uses this so an exhausted pool sheds the duplicate instead of
// blowing past the cap (the original is untouched either way).
inline PacketPtr TryClonePacket(const Packet& src) {
  Packet* raw = PacketPool::ThreadLocal().TryAcquire();
  if (raw == nullptr) {
    return nullptr;
  }
  PacketPtr p(raw);
  PacketPool* origin = p->pool_origin;
  *p = src;
  p->pool_origin = origin;
  return p;
}

// Allocates packets with unique ids. One factory per experiment keeps id
// assignment deterministic; storage comes from the thread's PacketPool.
class PacketFactory {
 public:
  PacketPtr Make() {
    PacketPtr p = AllocPacket();
    p->id = next_id_++;
    return p;
  }

  // Capacity-checked Make: null when the thread's pool refuses the
  // allocation. Ids are only consumed on success, so the id sequence of the
  // packets that *do* exist is independent of how many refusals interleaved.
  PacketPtr TryMake() {
    Packet* raw = PacketPool::ThreadLocal().TryAcquire();
    if (raw == nullptr) {
      return nullptr;
    }
    PacketPtr p(raw);
    p->id = next_id_++;
    return p;
  }

  uint64_t allocated() const { return next_id_; }

 private:
  uint64_t next_id_ = 0;
};

// The unit GRO delivers up the stack: one contiguous in-order byte range
// assembled from `mtu_count` wire packets, plus the metadata TCP needs.
struct Segment {
  FiveTuple flow;
  Seq seq = 0;
  uint32_t payload_len = 0;
  uint32_t mtu_count = 0;
  uint8_t flags = 0;
  Seq ack_seq = 0;
  uint32_t ack_rwnd = 0;
  SackBlocks sack;
  bool ece = false;
  bool ce_mark = false;
  TimeNs first_rx_time = 0;  // earliest constituent packet arrival
  TimeNs last_rx_time = 0;   // latest constituent packet arrival
  TimeNs sent_time = 0;      // sent_time of the first constituent packet

  Seq end_seq() const { return seq + payload_len; }
};

}  // namespace juggler

#endif  // JUGGLER_SRC_PACKET_PACKET_H_
