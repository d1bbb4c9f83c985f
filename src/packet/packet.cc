#include "src/packet/packet.h"

#include <algorithm>

namespace juggler {

static_assert(kMss + kPerPacketWireOverhead > kMtuBytes,
              "wire frame must cover the MTU plus framing overhead");
static_assert(std::is_trivially_copyable_v<Packet>,
              "Packet reset in PacketPool::Acquire relies on trivial copyability");
static_assert(sizeof(Packet) == 128,
              "simulation state plus pool bookkeeping must fit exactly two cache lines");

constinit thread_local PacketPool* PacketPool::tls_pool_ = nullptr;

PacketPool& PacketPool::CreateForThread() {
  // One pool per thread: sweep-runner workers each recycle privately, and
  // the pool lives until thread exit, past any simulation state that could
  // still hold packets.
  thread_local PacketPool pool;
  tls_pool_ = &pool;
  return pool;
}

PacketPool::~PacketPool() {
  for (Packet* p : free_) {
    delete p;
  }
  if (tls_pool_ == this) {
    tls_pool_ = nullptr;  // later releases on this thread free directly
  }
}

void PacketPool::Trim() {
  for (Packet* p : free_) {
    delete p;
  }
  free_.clear();
  compact_watermark_ = kCompactFloor;
  compact_last_acquired_ = acquired_;
}

void PacketPool::MoveFreeStorageTo(PacketPool* to) {
  if (to == this) {
    return;
  }
  if (to->free_.empty()) {
    to->free_.swap(free_);
  } else {
    to->free_.insert(to->free_.end(), free_.begin(), free_.end());
    free_.clear();
  }
  if (to->free_.size() >= to->compact_watermark_) {
    to->CompactFreeList();
  }
}

void PacketPool::CompactFreeList() noexcept {
  const uint64_t demand = acquired_ - compact_last_acquired_;
  compact_last_acquired_ = acquired_;
  if (demand >= free_.size()) {
    // The whole freelist turned over since the last decision: this is a busy
    // steady state, not a storm. Raise the bar so the derivation stops
    // firing; nothing is freed.
    compact_watermark_ = free_.size() * 2;
    return;
  }
  const size_t keep =
      std::max<size_t>(kCompactFloor / 2, static_cast<size_t>(demand));
  if (keep < free_.size()) {
    for (size_t i = keep; i < free_.size(); ++i) {
      delete free_[i];
    }
    compact_freed_ += free_.size() - keep;
    free_.resize(keep);
  }
  compact_watermark_ = std::max(kCompactFloor, keep * 2);
}

}  // namespace juggler
