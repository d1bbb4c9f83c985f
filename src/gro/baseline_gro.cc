#include "src/gro/baseline_gro.h"

namespace juggler {

TimeNs StandardGro::Receive(PacketPtr packet) {
  ++stats_.packets_in;
  TimeNs cost = costs_->gro_per_packet;
  if (DeliverDirectIfUnmergeable(packet)) {
    return cost + costs_->gro_flush_per_segment;
  }
  ++stats_.data_packets_in;

  SegmentBuilder& builder = held_[packet->flow];
  if (builder.empty()) {
    builder.Start(*packet);
    if (builder.needs_flush()) {
      Deliver(builder.Take(), FlushReason::kFlags);
      cost += costs_->gro_flush_per_segment;
    }
    return cost;
  }

  switch (builder.TryMerge(*packet, kMaxTsoPayload)) {
    case SegmentBuilder::MergeResult::kMerged:
      break;
    case SegmentBuilder::MergeResult::kMergedFinal:
      Deliver(builder.Take(), (packet->flags & (kFlagPsh | kFlagUrg)) != 0
                                  ? FlushReason::kFlags
                                  : FlushReason::kSizeLimit);
      cost += costs_->gro_flush_per_segment;
      break;
    case SegmentBuilder::MergeResult::kRefusedOoo:
      // Standard GRO assumes in-order arrival: any gap flushes the held
      // segment and restarts from the newcomer. This is exactly the batching
      // collapse §3 describes.
      ++stats_.ooo_packets;
      Deliver(builder.Take(), FlushReason::kOutOfOrder);
      cost += costs_->gro_flush_per_segment;
      builder.Start(*packet);
      break;
    case SegmentBuilder::MergeResult::kRefusedMeta:
      Deliver(builder.Take(), FlushReason::kMetaMismatch);
      cost += costs_->gro_flush_per_segment;
      builder.Start(*packet);
      break;
    case SegmentBuilder::MergeResult::kRefusedSize:
      Deliver(builder.Take(), FlushReason::kSizeLimit);
      cost += costs_->gro_flush_per_segment;
      builder.Start(*packet);
      break;
  }
  return cost;
}

TimeNs StandardGro::PollComplete() {
  TimeNs cost = 0;
  // Flows flush in creation order — deterministic for any shard count.
  held_.ForEach([&](const FiveTuple&, SegmentBuilder& builder) {
    if (!builder.empty()) {
      Deliver(builder.Take(), FlushReason::kPollEnd);
      cost += costs_->gro_flush_per_segment;
    }
  });
  held_.Clear();
  return cost;
}

TimeNs LinkedListGro::Receive(PacketPtr packet) {
  ++stats_.packets_in;
  // Chaining an sk_buff costs extra regardless of order — the cache-miss
  // penalty of Figure 3 (right) that makes this design 50% more expensive
  // even on in-order traffic (§3.1).
  TimeNs cost = costs_->gro_per_packet + costs_->linkedlist_chain_per_packet;
  if (DeliverDirectIfUnmergeable(packet)) {
    return cost + costs_->gro_flush_per_segment;
  }
  ++stats_.data_packets_in;

  Chain& chain = chains_[packet->flow];
  bool appended = false;
  if (!chain.runs.empty()) {
    SegmentBuilder& tail = chain.runs.back();
    switch (tail.TryMerge(*packet, kMaxTsoPayload)) {
      case SegmentBuilder::MergeResult::kMerged:
      case SegmentBuilder::MergeResult::kMergedFinal:
        appended = true;
        break;
      case SegmentBuilder::MergeResult::kRefusedOoo:
        ++stats_.ooo_packets;
        break;
      default:
        break;
    }
  }
  if (!appended) {
    // Start a new run in the chain; order stays as-arrived.
    chain.runs.emplace_back();
    chain.runs.back().Start(*packet);
  }
  chain.total_payload += packet->payload_len;
  if (chain.total_payload >= kMaxTsoPayload) {
    cost += FlushChain(&chain, FlushReason::kSizeLimit);
  }
  return cost;
}

TimeNs LinkedListGro::FlushChain(Chain* chain, FlushReason reason) {
  TimeNs cost = 0;
  for (auto& run : chain->runs) {
    if (!run.empty()) {
      Deliver(run.Take(), reason);
      cost += costs_->gro_flush_per_segment;
    }
  }
  chain->runs.clear();
  chain->total_payload = 0;
  return cost;
}

TimeNs LinkedListGro::PollComplete() {
  TimeNs cost = 0;
  chains_.ForEach(
      [&](const FiveTuple&, Chain& chain) { cost += FlushChain(&chain, FlushReason::kPollEnd); });
  chains_.Clear();
  return cost;
}

}  // namespace juggler
