// Cache-conscious flow table shared by every GRO engine.
//
// All four engines (standard, linked-list, Presto, Juggler) key per-flow
// state by FiveTuple and touch that state once or more per received packet,
// so the lookup is hot-path by construction. The std::unordered_map they
// used to share costs a pointer chase per lookup (bucket -> node), puts the
// key and the value behind that chase, and iterates in an order that is an
// artifact of the hash function — awkward for an engine whose deliveries
// must replay identically across shard counts.
//
// FlowTable<T> replaces it with:
//
//  * Open addressing, linear probing, power-of-two capacity. A probe step
//    reads one 32-byte Slot {hash, key, record index} — two slots per cache
//    line, and the common hit resolves on the first slot with one 64-bit
//    hash compare. The value is NOT in the slot, so probing never drags
//    flow state through the cache.
//  * Slab-backed values. Records live in fixed 64-entry chunks that are
//    never moved or freed until Clear()/destruction, so T* stays stable
//    across inserts, erases and rehashes — Juggler links FlowEntry into
//    intrusive phase lists and memoizes the last-hit entry, both of which
//    require pinned addresses. Erased records go on a freelist and are
//    reused in place (placement new).
//  * Deterministic iteration. Records carry insertion-order links;
//    ForEach() visits flows in creation order, independent of hash values
//    and capacity history. Per-RX-queue packet streams are identical for
//    every shard count, so creation order — and therefore poll-complete
//    flush order — is too.
//  * Clock eviction (the cachetable second-chance idiom). Every lookup hit
//    sets the record's reference bit; ClockCandidate() sweeps the insertion
//    ring from a persistent hand, clearing set bits and stopping at the
//    first cold entry. Capacity-bounded users evict what the clock names;
//    Juggler keeps the paper's own phase-list policy and simply never asks.
//
// Not thread safe; one table per RX queue, like the engines that own them.

#ifndef JUGGLER_SRC_GRO_FLOW_TABLE_H_
#define JUGGLER_SRC_GRO_FLOW_TABLE_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "src/packet/packet.h"
#include "src/util/logging.h"

namespace juggler {

template <typename T>
class FlowTable {
 public:
  FlowTable() { Rehash(kMinSlots); }
  ~FlowTable() { Clear(); }
  FlowTable(const FlowTable&) = delete;
  FlowTable& operator=(const FlowTable&) = delete;

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  // Pointer to the flow's state, or nullptr. A hit marks the record
  // recently-used for the clock.
  T* Find(const FiveTuple& key) {
    const uint32_t rec = FindRecord(key);
    if (rec == kNil) {
      return nullptr;
    }
    Record& r = RecordAt(rec);
    r.referenced = true;
    return r.value();
  }

  const T* Find(const FiveTuple& key) const {
    const uint32_t rec = FindRecord(key);
    return rec == kNil ? nullptr : RecordAt(rec).value();
  }

  // The flow's state, default-constructing it on first sight. `second` is
  // true when the entry was created by this call.
  std::pair<T*, bool> FindOrCreate(const FiveTuple& key) {
    const uint64_t hash = key.Hash();
    uint32_t slot = ProbeFor(key, hash);
    if (slots_[slot].rec != kNilRec && slots_[slot].rec != kTombRec) {
      Record& r = RecordAt(slots_[slot].rec);
      r.referenced = true;
      return {r.value(), false};
    }
    if ((size_ + tombstones_ + 1) * 8 >= slots_.size() * 7) {
      // Live entries past half capacity: double. Otherwise the load is
      // tombstone bloat — rebuild at the same size to purge it.
      Rehash(size_ * 2 >= slots_.size() ? slots_.size() * 2 : slots_.size());
      slot = ProbeFor(key, hash);
    }
    const uint32_t rec = AcquireRecord();
    Record& r = RecordAt(rec);
    ::new (static_cast<void*>(r.storage)) T();
    r.key = key;
    r.referenced = true;
    LinkBack(rec);
    if (slots_[slot].rec == kTombRec) {
      --tombstones_;
    }
    slots_[slot] = Slot{hash, key, rec};
    ++size_;
    return {RecordAt(rec).value(), true};
  }

  T& operator[](const FiveTuple& key) { return *FindOrCreate(key).first; }

  // FindOrCreate for value types without a default constructor: on first
  // sight the record is placement-new'd from `args...`. Arguments are only
  // forwarded (and only evaluated into a T) on the miss path, so callers may
  // pass construction-time resources unconditionally.
  template <typename... Args>
  std::pair<T*, bool> FindOrEmplace(const FiveTuple& key, Args&&... args) {
    const uint64_t hash = key.Hash();
    uint32_t slot = ProbeFor(key, hash);
    if (slots_[slot].rec != kNilRec && slots_[slot].rec != kTombRec) {
      Record& r = RecordAt(slots_[slot].rec);
      r.referenced = true;
      return {r.value(), false};
    }
    if ((size_ + tombstones_ + 1) * 8 >= slots_.size() * 7) {
      Rehash(size_ * 2 >= slots_.size() ? slots_.size() * 2 : slots_.size());
      slot = ProbeFor(key, hash);
    }
    const uint32_t rec = AcquireRecord();
    Record& r = RecordAt(rec);
    ::new (static_cast<void*>(r.storage)) T(std::forward<Args>(args)...);
    r.key = key;
    r.referenced = true;
    LinkBack(rec);
    if (slots_[slot].rec == kTombRec) {
      --tombstones_;
    }
    slots_[slot] = Slot{hash, key, rec};
    ++size_;
    return {RecordAt(rec).value(), true};
  }

  // Starts pulling the key's home slot toward the cache without touching it.
  // Batched receive paths call this a few packets ahead of the Find(), so
  // the probe's first (usually only) line is in flight while earlier
  // packets are still being processed. A miss costs one wasted prefetch.
  void Prefetch(const FiveTuple& key) const {
    const size_t index = static_cast<size_t>(key.Hash()) & (slots_.size() - 1);
    __builtin_prefetch(static_cast<const void*>(&slots_[index]));
  }

  // Destroys the flow's state. Returns false if the key was absent.
  bool Erase(const FiveTuple& key) {
    const uint32_t slot = ProbeFor(key, key.Hash());
    const uint32_t rec = slots_[slot].rec;
    if (rec == kNilRec || rec == kTombRec) {
      return false;
    }
    slots_[slot].rec = kTombRec;
    ++tombstones_;
    Record& r = RecordAt(rec);
    Unlink(rec);
    r.value()->~T();
    free_records_.push_back(rec);
    --size_;
    return true;
  }

  // Destroys every entry. Slot and slab storage is retained for reuse.
  void Clear() {
    for (uint32_t rec = head_; rec != kNil;) {
      Record& r = RecordAt(rec);
      const uint32_t next = r.order_next;
      r.value()->~T();
      free_records_.push_back(rec);
      rec = next;
    }
    head_ = tail_ = clock_hand_ = kNil;
    size_ = 0;
    tombstones_ = 0;
    for (Slot& s : slots_) {
      s.rec = kNilRec;
    }
  }

  // Visits every flow in insertion order. `fn(const FiveTuple&, T&)`.
  // Erasing the currently visited entry from inside fn is allowed; erasing
  // any other entry is not.
  template <typename Fn>
  void ForEach(Fn&& fn) {
    for (uint32_t rec = head_; rec != kNil;) {
      Record& r = RecordAt(rec);
      const uint32_t next = r.order_next;
      fn(static_cast<const FiveTuple&>(r.key), *r.value());
      rec = next;
    }
  }

  template <typename Fn>
  void ForEach(Fn&& fn) const {
    for (uint32_t rec = head_; rec != kNil;) {
      const Record& r = RecordAt(rec);
      const uint32_t next = r.order_next;
      fn(static_cast<const FiveTuple&>(r.key), *r.value());
      rec = next;
    }
  }

  // Second-chance clock sweep: advances the hand around the insertion ring,
  // clearing reference bits, and returns the key of the first entry whose
  // bit was already clear — the eviction candidate. Entries Find() touched
  // since the hand last passed survive one extra revolution. Returns
  // nullptr only when the table is empty. After a full revolution of set
  // bits the hand's starting entry has been cleared, so a candidate always
  // exists by the second pass.
  const FiveTuple* ClockCandidate() {
    if (size_ == 0) {
      return nullptr;
    }
    if (clock_hand_ == kNil) {
      clock_hand_ = head_;
    }
    for (;;) {
      Record& r = RecordAt(clock_hand_);
      if (!r.referenced) {
        return &r.key;
      }
      r.referenced = false;
      clock_hand_ = r.order_next != kNil ? r.order_next : head_;
    }
  }

  // Bytes of memory held by the table itself (slots, slabs, freelist) —
  // the bench/perf_core "resident bytes per flow" numerator. Heap memory
  // owned by the T values (e.g. OOO-queue vectors) is not included.
  size_t resident_bytes() const {
    return slots_.capacity() * sizeof(Slot) + chunks_.size() * sizeof(Chunk) +
           chunks_.capacity() * sizeof(std::unique_ptr<Chunk>) +
           free_records_.capacity() * sizeof(uint32_t);
  }

 private:
  static constexpr size_t kMinSlots = 16;
  static constexpr uint32_t kNil = UINT32_MAX;
  static constexpr uint32_t kNilRec = UINT32_MAX;       // empty slot
  static constexpr uint32_t kTombRec = UINT32_MAX - 1;  // erased slot
  static constexpr size_t kChunkRecords = 64;

  // One probe unit: 32 bytes, two per cache line. Key and hash are here so
  // probing never touches the record slab.
  struct Slot {
    uint64_t hash = 0;
    FiveTuple key;
    uint32_t rec = kNilRec;
  };

  struct Record {
    alignas(T) unsigned char storage[sizeof(T)];
    FiveTuple key;
    uint32_t order_prev = kNil;
    uint32_t order_next = kNil;
    bool referenced = false;

    T* value() { return std::launder(reinterpret_cast<T*>(storage)); }
    const T* value() const { return std::launder(reinterpret_cast<const T*>(storage)); }
  };

  struct Chunk {
    Record records[kChunkRecords];
  };

  Record& RecordAt(uint32_t rec) {
    return chunks_[rec / kChunkRecords]->records[rec % kChunkRecords];
  }
  const Record& RecordAt(uint32_t rec) const {
    return chunks_[rec / kChunkRecords]->records[rec % kChunkRecords];
  }

  // Index of the slot holding `key`, or of the slot where it would be
  // inserted (the first tombstone seen, else the empty slot that ended the
  // probe).
  uint32_t ProbeFor(const FiveTuple& key, uint64_t hash) const {
    const size_t mask = slots_.size() - 1;
    size_t index = static_cast<size_t>(hash) & mask;
    size_t insert_at = SIZE_MAX;
    for (;;) {
      const Slot& s = slots_[index];
      if (s.rec == kNilRec) {
        return static_cast<uint32_t>(insert_at != SIZE_MAX ? insert_at : index);
      }
      if (s.rec == kTombRec) {
        if (insert_at == SIZE_MAX) {
          insert_at = index;
        }
      } else if (s.hash == hash && s.key == key) {
        return static_cast<uint32_t>(index);
      }
      index = (index + 1) & mask;
    }
  }

  uint32_t FindRecord(const FiveTuple& key) const {
    const uint32_t slot = ProbeFor(key, key.Hash());
    const uint32_t rec = slots_[slot].rec;
    return (rec == kNilRec || rec == kTombRec) ? kNil : rec;
  }

  uint32_t AcquireRecord() {
    if (!free_records_.empty()) {
      const uint32_t rec = free_records_.back();
      free_records_.pop_back();
      return rec;
    }
    const uint32_t rec = static_cast<uint32_t>(chunks_.size() * kChunkRecords);
    JUG_CHECK(rec < kTombRec);
    chunks_.push_back(std::make_unique<Chunk>());
    for (uint32_t i = static_cast<uint32_t>(kChunkRecords) - 1; i > 0; --i) {
      free_records_.push_back(rec + i);
    }
    return rec;
  }

  void LinkBack(uint32_t rec) {
    Record& r = RecordAt(rec);
    r.order_prev = tail_;
    r.order_next = kNil;
    if (tail_ != kNil) {
      RecordAt(tail_).order_next = rec;
    } else {
      head_ = rec;
    }
    tail_ = rec;
  }

  void Unlink(uint32_t rec) {
    Record& r = RecordAt(rec);
    if (clock_hand_ == rec) {
      clock_hand_ = r.order_next;  // may become kNil: next sweep restarts at head
    }
    if (r.order_prev != kNil) {
      RecordAt(r.order_prev).order_next = r.order_next;
    } else {
      head_ = r.order_next;
    }
    if (r.order_next != kNil) {
      RecordAt(r.order_next).order_prev = r.order_prev;
    } else {
      tail_ = r.order_prev;
    }
    r.order_prev = r.order_next = kNil;
    r.referenced = false;
  }

  // Rebuilds the slot array at `new_slots` capacity (a power of two),
  // clearing tombstones. Records are untouched — values never move.
  void Rehash(size_t new_slots) {
    std::vector<Slot> fresh(new_slots);
    const size_t mask = new_slots - 1;
    for (const Slot& s : slots_) {
      if (s.rec == kNilRec || s.rec == kTombRec) {
        continue;
      }
      size_t index = static_cast<size_t>(s.hash) & mask;
      while (fresh[index].rec != kNilRec) {
        index = (index + 1) & mask;
      }
      fresh[index] = s;
    }
    slots_ = std::move(fresh);
    tombstones_ = 0;
  }

  std::vector<Slot> slots_;
  std::vector<std::unique_ptr<Chunk>> chunks_;
  std::vector<uint32_t> free_records_;
  uint32_t head_ = kNil;
  uint32_t tail_ = kNil;
  uint32_t clock_hand_ = kNil;
  size_t size_ = 0;
  size_t tombstones_ = 0;
};

}  // namespace juggler

#endif  // JUGGLER_SRC_GRO_FLOW_TABLE_H_
