#include "src/core/juggler.h"

#include <algorithm>
#include <unordered_map>

#include "src/util/logging.h"

namespace juggler {
namespace {

using RunQueue = FlatRing<SegmentBuilder>;

// Join run i with following runs while they are contiguous, metadata-equal
// and the merge stays under the segment cap.
void CoalesceForward(RunQueue* queue, size_t i) {
  while (i + 1 < queue->size()) {
    SegmentBuilder& cur = (*queue)[i];
    SegmentBuilder& next = (*queue)[i + 1];
    if (cur.end_seq() != next.start_seq() || cur.options_token() != next.options_token() ||
        cur.segment().ce_mark != next.segment().ce_mark ||
        cur.payload_len() + next.payload_len() > kMaxTsoPayload) {
      return;
    }
    cur.Append(std::move(next));
    queue->Erase(i + 1);
  }
}

// The number of runs that start at or before `seq`, i.e. the index at which
// a run starting at `seq` goes. Runs are sorted and disjoint, and a flow's
// buffered data spans far less than 2^31, so SeqAfter(start, seq) is false
// on a prefix of the queue and true on the rest: the tail is checked first
// (most arrivals land past it), then one binary search finds the split.
// §3.2's search walks from the tail instead, and the cost model charges
// that walk, (size - index) runs, from the index returned here.
size_t RunsStartingBy(const RunQueue& queue, Seq seq) {
  size_t hi = queue.size();
  if (hi == 0 || !SeqAfter(queue[hi - 1].start_seq(), seq)) {
    return hi;
  }
  size_t lo = 0;
  --hi;  // queue[hi] starts after seq
  while (lo < hi) {
    const size_t mid = lo + (hi - lo) / 2;
    if (SeqAfter(queue[mid].start_seq(), seq)) {
      hi = mid;
    } else {
      lo = mid + 1;
    }
  }
  return lo;
}

// Payload bytes held in `queue`.
uint64_t QueuedBytes(const RunQueue& queue) {
  uint64_t bytes = 0;
  for (size_t k = 0; k < queue.size(); ++k) {
    bytes += queue[k].payload_len();
  }
  return bytes;
}

// A run is "ready" to flush on the event-driven path when it carries urgent
// flags or has no room for another MTU (Table 2 rows 2-3).
bool RunReady(const SegmentBuilder& run) {
  return run.needs_flush() || run.payload_len() + kMss > kMaxTsoPayload;
}

}  // namespace

const char* FlowPhaseName(FlowPhase phase) {
  switch (phase) {
    case FlowPhase::kBuildUp:
      return "build_up";
    case FlowPhase::kActiveMerge:
      return "active_merge";
    case FlowPhase::kPostMerge:
      return "post_merge";
    case FlowPhase::kLossRecovery:
      return "loss_recovery";
  }
  return "unknown";
}

Juggler::Juggler(const CpuCostModel* costs, const JugglerConfig& config)
    : costs_(costs), config_(config), nominal_max_flows_(config.max_flows) {
  JUG_CHECK(config_.max_flows >= 1);
  JUG_CHECK(config_.inseq_timeout >= 0 && config_.ofo_timeout >= 0);
}

Juggler::FlowList* Juggler::ListFor(FlowPhase phase) {
  switch (phase) {
    case FlowPhase::kBuildUp:
    case FlowPhase::kActiveMerge:
      return &active_list_;
    case FlowPhase::kPostMerge:
      return &inactive_list_;
    case FlowPhase::kLossRecovery:
      return &loss_list_;
  }
  return &active_list_;
}

void Juggler::SetPhase(FlowEntry* entry, FlowPhase phase) {
  FlowList* from = ListFor(entry->phase);
  FlowList* to = ListFor(phase);
  if (from != to) {
    from->Remove(entry);
    to->PushBack(entry);
  }
  if (entry->phase != phase) {
    ++jstats_.phase_transitions[static_cast<int>(entry->phase)][static_cast<int>(phase)];
    if (ctx_.recorder != nullptr) {
      ctx_.recorder->Record(Now(), TraceKind::kPhase, static_cast<uint64_t>(entry->phase),
                            static_cast<uint64_t>(phase), entry->key.Hash());
    }
  }
  entry->phase = phase;
  jstats_.max_active_list_len = std::max(jstats_.max_active_list_len, active_list_.size());
  jstats_.max_inactive_list_len = std::max(jstats_.max_inactive_list_len, inactive_list_.size());
  jstats_.max_loss_list_len = std::max(jstats_.max_loss_list_len, loss_list_.size());
}

FlowEntry* Juggler::CreateEntry(const FiveTuple& tuple, TimeNs* cost) {
  if (table_.size() >= config_.max_flows) {
    *cost += EvictOne();
  }
  auto [entry, inserted] = table_.FindOrCreate(tuple);
  JUG_CHECK(inserted);
  entry->key = tuple;
  entry->phase = FlowPhase::kBuildUp;
  entry->flush_timestamp = Now();
  entry->generation = jstats_.flows_created + 1;
  active_list_.PushBack(entry);
  ++jstats_.flows_created;
  ++jstats_.phase_transitions[kFlowPhaseNone][static_cast<int>(FlowPhase::kBuildUp)];
  if (ctx_.recorder != nullptr) {
    ctx_.recorder->Record(Now(), TraceKind::kPhase, kFlowPhaseNone,
                          static_cast<uint64_t>(FlowPhase::kBuildUp), entry->key.Hash());
  }
  jstats_.max_active_list_len = std::max(jstats_.max_active_list_len, active_list_.size());
  return entry;
}

TimeNs Juggler::EvictOne() {
  if (FlowEntry* victim = inactive_list_.front()) {
    ++jstats_.evictions_inactive;
    return EvictEntry(victim);
  }
  if (FlowEntry* victim = active_list_.front()) {
    ++jstats_.evictions_active;
    return EvictEntry(victim);
  }
  if (FlowEntry* victim = loss_list_.front()) {
    ++jstats_.evictions_loss;
    return EvictEntry(victim);
  }
  return 0;
}

TimeNs Juggler::EvictEntry(FlowEntry* entry) {
  if (ctx_.recorder != nullptr) {
    ctx_.recorder->Record(Now(), TraceKind::kEviction, static_cast<uint64_t>(entry->phase),
                          QueuedBytes(entry->ooo_queue), entry->key.Hash());
  }
  const TimeNs cost = FlushAll(entry, FlushReason::kEviction);
  ++stats_.evictions;
  ListFor(entry->phase)->Remove(entry);
  if (last_entry_ == entry) {
    last_entry_ = nullptr;
  }
  // Copy the key out: Erase destroys the entry that owns entry->key.
  const FiveTuple key = entry->key;
  table_.Erase(key);
  return cost;
}

TimeNs Juggler::FlushAll(FlowEntry* entry, FlushReason reason) {
  TimeNs cost = 0;
  for (size_t k = 0; k < entry->ooo_queue.size(); ++k) {
    SegmentBuilder& run = entry->ooo_queue[k];
    entry->seq_next = run.end_seq();
    NoteFlushed(entry, reason, run.payload_len());
    Deliver(run.Take(), reason);
    cost += costs_->gro_flush_per_segment;
  }
  if (config_.debug_flush_accounting_skew && reason == FlushReason::kOfoTimeout &&
      !entry->ooo_queue.empty()) {
    ++jstats_.buffered_bytes_out;  // planted off-by-one (see JugglerConfig)
  }
  entry->ooo_queue.clear();
  return cost;
}

TimeNs Juggler::FlushPrefix(FlowEntry* entry, bool ready_only, FlushReason reason) {
  TimeNs cost = 0;
  bool flushed = false;
  auto& queue = entry->ooo_queue;
  while (!queue.empty() && queue.front().start_seq() == entry->seq_next) {
    SegmentBuilder& run = queue.front();
    const bool ready = RunReady(run);
    if (ready_only && !ready) {
      break;
    }
    entry->seq_next = run.end_seq();
    const FlushReason r =
        ready_only ? (run.needs_flush() ? FlushReason::kFlags : FlushReason::kSizeLimit) : reason;
    NoteFlushed(entry, r, run.payload_len());
    Deliver(run.Take(), r);
    queue.Erase(0);
    cost += costs_->gro_flush_per_segment;
    flushed = true;
  }
  if (flushed) {
    entry->flush_timestamp = Now();
    UpdatePhaseAfterFlush(entry);
  }
  return cost;
}

void Juggler::UpdatePhaseAfterFlush(FlowEntry* entry) {
  if (entry->phase == FlowPhase::kLossRecovery) {
    // Stays evict-averse until the hole at lost_seq fills (§4.2.5).
    return;
  }
  SetPhase(entry, entry->ooo_queue.empty() ? FlowPhase::kPostMerge : FlowPhase::kActiveMerge);
}

TimeNs Juggler::HandleOfoTimeout(FlowEntry* entry) {
  ++jstats_.ofo_timeout_events;
  const Seq hole = entry->seq_next;
  const TimeNs cost = FlushAll(entry, FlushReason::kOfoTimeout);
  entry->flush_timestamp = Now();
  if (entry->phase != FlowPhase::kLossRecovery) {
    // Best-effort: track only the FIRST missing packet (§4.2.5). Repeated
    // timeouts while already in loss recovery keep the original lost_seq —
    // the earliest hole fills soonest, releasing the flow back to the
    // active list promptly even when later holes are still open.
    entry->lost_seq = hole;
    ++jstats_.loss_recovery_entries;
    SetPhase(entry, FlowPhase::kLossRecovery);
  }
  return cost;
}

TimeNs Juggler::InsertPacket(FlowEntry* entry, const Packet& p, bool* duplicate) {
  *duplicate = false;
  auto& queue = entry->ooo_queue;
  TimeNs cost = 0;

  // No head-run merge here: Receive() has already tried the identical one
  // (TryMerge changes nothing when it refuses), or build-up just moved
  // seq_next back to p.seq, where no queued run starts.
  if (queue.empty()) {
    if (p.seq != entry->seq_next) {
      cost += costs_->juggler_ooo_insert;
    }
    queue.Insert(0).Start(p);
    NoteEnqueued(entry, p.payload_len);
    return cost;
  }

  // §3.2 searches for the insert position from the tail: arriving packets
  // carry recent sequence numbers, so the right spot is almost always at or
  // near the back. The modeled cost is that walk's, one step per run between
  // the tail and the insert point; the simulator finds the point by binary
  // search, so a hole filled at the front of a long queue costs it
  // O(log runs), not O(runs).
  const size_t idx = RunsStartingBy(queue, p.seq);  // insertion index among run starts
  cost += costs_->juggler_ooo_insert +
          static_cast<TimeNs>(queue.size() - idx) * costs_->juggler_ooo_search_per_run;
  if (idx > 0) {
    SegmentBuilder& prev = queue[idx - 1];  // prev.start <= p.seq
    if (SeqBefore(p.seq, prev.end_seq())) {
      // Overlaps buffered data: best-effort, let TCP deduplicate.
      *duplicate = true;
      ++jstats_.duplicate_packets;
      Deliver(ToSegment(p), FlushReason::kSeqBeforeNext);
      return cost + costs_->gro_flush_per_segment;
    }
    if (p.seq == prev.end_seq()) {
      switch (prev.TryMerge(p, kMaxTsoPayload)) {
        case SegmentBuilder::MergeResult::kMerged:
        case SegmentBuilder::MergeResult::kMergedFinal:
          NoteEnqueued(entry, p.payload_len);
          CoalesceForward(&queue, idx - 1);
          return cost;
        default:
          break;  // metadata/size refusal: fresh run right after prev
      }
    }
  }
  if (idx < queue.size() && SeqAfter(p.end_seq(), queue[idx].start_seq())) {
    // Overlaps the following run.
    *duplicate = true;
    ++jstats_.duplicate_packets;
    Deliver(ToSegment(p), FlushReason::kSeqBeforeNext);
    return cost + costs_->gro_flush_per_segment;
  }
  queue.Insert(idx).Start(p);
  NoteEnqueued(entry, p.payload_len);
  CoalesceForward(&queue, idx);
  return cost;
}

TimeNs Juggler::ReceiveBatch(PacketPtr* packets, size_t count) {
  // Warm the flow-table home slots of every distinct flow in the batch
  // before processing starts, so lookups probe lines already in flight.
  // Consecutive same-flow packets share one prefetch: within a run only the
  // first lookup probes at all (the rest hit the last_entry_ memo), while
  // cross-flow interleaves (Fig. 10, perf_core's flow_scale round-robin) get
  // every distinct flow's slot line warming in parallel before the first
  // fold touches it. Per-packet observable behavior is untouched — order,
  // costs, stats and trace events match the one-at-a-time path exactly.
  for (size_t i = 0; i < count; ++i) {
    if (i == 0 || !(packets[i]->flow == packets[i - 1]->flow)) {
      table_.Prefetch(packets[i]->flow);
    }
  }
  TimeNs cost = 0;
  size_t i = 0;
  while (i < count) {
    const size_t folded = TryFoldRun(packets + i, count - i, &cost);
    if (folded > 0) {
      i += folded;
      continue;
    }
    // Qualified call: static dispatch, so Receive() inlines into this loop
    // instead of re-entering the vtable per packet — the whole point of the
    // batch handoff. Decorators that override Receive() override
    // ReceiveBatch() too, so skipping the virtual hop loses nothing.
    cost += Juggler::Receive(std::move(packets[i]));
    ++i;
  }
  return cost;
}

size_t Juggler::TryFoldRun(PacketPtr* packets, size_t count, TimeNs* cost) {
  // Folds a leading run of ACK-only data packets from one flow, each
  // extending the tail of one existing OOO run, into a single ExtendTail
  // commit plus batched stats, cost and packet release. The hard rule: a
  // batch boundary is observably identical to back-to-back arrivals, so
  // every admission check below mirrors the exact path per-packet Receive()
  // takes — same lookup/memo decisions, same stats, same modeled CPU cost,
  // same (absent) trace events — and any packet that would do anything else
  // (create a flow, start a fresh run, flush, duplicate-deliver, cross a
  // metadata boundary) is left for the per-packet path.
  const Packet& first = *packets[0];
  if (first.flags != kFlagAck || first.payload_len == 0) {
    return 0;  // pure ACKs, SYN/FIN, PSH/URG: direct delivery or eager flush
  }
  // Resolve the entry with the same memo-then-probe decisions Receive()
  // makes: a memo hit skips both the probe and the table's clock-referenced
  // mark, so eviction candidate order stays identical.
  FlowEntry* entry = last_entry_;
  if (entry == nullptr || !(entry->key == first.flow)) {
    entry = table_.Find(first.flow);
    if (entry == nullptr) {
      return 0;  // flow creation: full path
    }
    last_entry_ = entry;
  }
  auto& queue = entry->ooo_queue;
  const size_t runs = queue.size();
  if (runs == 0) {
    return 0;  // post-merge reactivation / first packet of a fresh entry
  }
  // Locate the run whose tail the packet extends: the per-flow cursor (the
  // run this flow's previous fold extended) first, else the search
  // InsertPacket would make. Run end sequences are strictly increasing, so
  // at most one run can match.
  size_t j;
  if (entry->fold_run_hint < runs && queue[entry->fold_run_hint].end_seq() == first.seq) {
    j = entry->fold_run_hint;
  } else {
    const size_t idx = RunsStartingBy(queue, first.seq);
    if (idx == 0 || queue[idx - 1].end_seq() != first.seq) {
      return 0;  // front insert, fresh run, or overlap: full path
    }
    j = idx - 1;
  }
  // A packet landing exactly on the next run's start is a duplicate to
  // Receive() (its byte range overlaps that run), not a tail merge.
  const bool has_next = j + 1 < runs;
  const Seq next_start = has_next ? queue[j + 1].start_seq() : Seq{};
  if (has_next && !SeqAfter(next_start, first.seq)) {
    return 0;
  }
  const bool head_in_seq = j == 0 && queue.front().start_seq() == entry->seq_next;
  if (head_in_seq && queue.front().needs_flush()) {
    return 0;  // Receive()'s head path would flush right after the merge
  }
  if (!head_in_seq && queue.front().start_seq() == entry->seq_next &&
      RunReady(queue.front())) {
    return 0;  // an in-sequence ready head run flushes after every insert
  }

  SegmentBuilder& run = queue[j];
  const uint32_t token = run.options_token();
  const bool ce = run.segment().ce_mark;
  uint32_t payload = run.payload_len();
  Seq end = run.end_seq();
  uint32_t bytes = 0;
  uint32_t mtus = 0;
  uint8_t flags_or = 0;
  Seq ack_seq = 0;
  uint32_t ack_rwnd = 0;
  TimeNs last_rx = 0;
  size_t i = 0;
  while (i < count) {
    const Packet& p = *packets[i];
    if (!(p.flow == entry->key) || p.flags != kFlagAck || p.payload_len == 0 ||
        p.seq != end || p.options_token != token || p.ce_mark != ce) {
      break;
    }
    if (head_in_seq) {
      // Strict bound: after the merge the head must still not be
      // flush-ready (RunReady is payload + kMss > cap, and Receive()'s head
      // path flushes the moment it is), so the fold stops one MTU short of
      // the cap. Admitting right up to the cap would sail past the point
      // where per-packet delivery flushes — observable with sub-MSS
      // packets.
      if (payload + p.payload_len + kMss > kMaxTsoPayload) {
        break;
      }
    } else if (payload + p.payload_len > kMaxTsoPayload) {
      break;  // TryMerge would refuse (kRefusedSize)
    }
    payload += p.payload_len;
    end += p.payload_len;
    bytes += p.payload_len;
    ++mtus;
    flags_or |= p.flags;
    ack_seq = p.ack_seq;
    ack_rwnd = p.ack_rwnd;
    if (p.nic_rx_time > last_rx) {
      last_rx = p.nic_rx_time;
    }
    ++i;
    if (has_next && !SeqAfter(next_start, end)) {
      // The merged tail reached the next run's start: commit now so
      // CoalesceForward runs at exactly the packet where per-packet
      // delivery would have coalesced (possibly absorbing that run's
      // needs_flush flag and changing what flushes next).
      break;
    }
  }
  if (mtus == 0) {
    return 0;
  }
  run.ExtendTail(bytes, mtus, flags_or, ack_seq, ack_rwnd, last_rx);
  // Batched free: one pool load and one watermark check for the whole run,
  // instead of a deleter call per packet.
  PacketPool::ReleaseBatch(packets, i);
  stats_.packets_in += mtus;
  stats_.data_packets_in += mtus;
  jstats_.buffered_bytes_in += bytes;
  jstats_.enqueued_bytes_by_phase[static_cast<int>(entry->phase)] += bytes;
  TimeNs per_packet = costs_->gro_per_packet;
  if (!head_in_seq) {
    // Receive() classifies these as out-of-order and reaches the run via
    // InsertPacket: charge the identical insert + per-run search cost it
    // would have accumulated.
    stats_.ooo_packets += mtus;
    per_packet += costs_->juggler_ooo_insert +
                  static_cast<TimeNs>(runs - 1 - j) * costs_->juggler_ooo_search_per_run;
  }
  *cost += static_cast<TimeNs>(mtus) * per_packet;
  entry->fold_run_hint = static_cast<uint32_t>(j);
  CoalesceForward(&queue, j);
  if (head_in_seq && RunReady(queue.front())) {
    *cost += FlushPrefix(entry, /*ready_only=*/true, FlushReason::kFlags);
  }
  return i;
}

TimeNs Juggler::Receive(PacketPtr packet) {
  ++stats_.packets_in;
  TimeNs cost = costs_->gro_per_packet;
  if (DeliverDirectIfUnmergeable(packet)) {
    return cost + costs_->gro_flush_per_segment;
  }
  ++stats_.data_packets_in;
  const Packet& p = *packet;

  FlowEntry* entry = nullptr;
  if (last_entry_ != nullptr && last_entry_->key == p.flow) {
    entry = last_entry_;
  } else {
    entry = table_.Find(p.flow);
    if (entry == nullptr) {
      // Initial phase (§4.2.1): create the entry, seed seq_next with this
      // packet's sequence number, enter build-up.
      entry = CreateEntry(p.flow, &cost);
      last_entry_ = entry;
      entry->seq_next = p.seq;
      bool duplicate = false;
      cost += InsertPacket(entry, p, &duplicate);
      cost += FlushPrefix(entry, /*ready_only=*/true, FlushReason::kFlags);
      return cost;
    }
    last_entry_ = entry;
  }

  // Head-run extension fast path: the packet continues the in-sequence run
  // at the head of the queue — what every in-order packet does in every
  // phase, so this skips the phase dispatch and position search below.
  // Post-merge flows hold no runs, so reactivation still takes the slow
  // path. A merge refusal (metadata/size) falls through unchanged.
  auto& queue = entry->ooo_queue;
  if (!queue.empty() && queue.front().start_seq() == entry->seq_next &&
      p.seq == queue.front().end_seq()) {
    const auto merged = queue.front().TryMerge(p, kMaxTsoPayload);
    if (merged == SegmentBuilder::MergeResult::kMerged ||
        merged == SegmentBuilder::MergeResult::kMergedFinal) {
      NoteEnqueued(entry, p.payload_len);
      CoalesceForward(&queue, 0);
      if (RunReady(queue.front())) {
        cost += FlushPrefix(entry, /*ready_only=*/true, FlushReason::kFlags);
      }
      return cost;
    }
  }

  if (entry->phase == FlowPhase::kBuildUp) {
    // §4.2.2: seq_next may move backwards while we learn the true minimum.
    if (SeqBefore(p.seq, entry->seq_next)) {
      if (config_.enable_buildup_phase) {
        entry->seq_next = p.seq;
        ++jstats_.seq_next_backward_moves;
      } else {
        // Ablation: behave like active-merge from the first packet.
        Deliver(ToSegment(p), FlushReason::kSeqBeforeNext);
        return cost + costs_->gro_flush_per_segment;
      }
    }
    if (p.seq != entry->seq_next || !entry->ooo_queue.empty()) {
      const bool in_order = !entry->ooo_queue.empty() &&
                            entry->ooo_queue.front().start_seq() == entry->seq_next &&
                            p.seq == entry->ooo_queue.front().end_seq();
      if (!in_order) {
        ++stats_.ooo_packets;
      }
    }
    bool duplicate = false;
    cost += InsertPacket(entry, p, &duplicate);
    cost += FlushPrefix(entry, /*ready_only=*/true, FlushReason::kFlags);
    return cost;
  }

  if (SeqBefore(p.seq, entry->seq_next)) {
    // Table 2 row 1: before seq_next means already flushed — likely a
    // retransmission; never buffer it (Figure 6).
    Deliver(ToSegment(p), FlushReason::kSeqBeforeNext);
    cost += costs_->gro_flush_per_segment;
    if (entry->phase == FlowPhase::kLossRecovery && SeqBeforeEq(p.seq, entry->lost_seq) &&
        SeqAfter(p.end_seq(), entry->lost_seq)) {
      // The hole filled: back to the active list (Figure 7). Best-effort —
      // later holes need not have filled.
      ++jstats_.loss_recovery_exits;
      entry->flush_timestamp = Now();
      SetPhase(entry, FlowPhase::kActiveMerge);  // leave loss list first
      UpdatePhaseAfterFlush(entry);
    }
    return cost;
  }

  // New data at or past seq_next: buffer it.
  const bool in_order =
      (entry->ooo_queue.empty() && p.seq == entry->seq_next) ||
      (!entry->ooo_queue.empty() && entry->ooo_queue.front().start_seq() == entry->seq_next &&
       p.seq == entry->ooo_queue.front().end_seq());
  if (!in_order) {
    ++stats_.ooo_packets;
  }
  if (entry->phase == FlowPhase::kPostMerge) {
    // Reverse edge of §4.2.4: inactive flow becomes active again.
    SetPhase(entry, FlowPhase::kActiveMerge);
    entry->flush_timestamp = Now();
  }
  bool duplicate = false;
  cost += InsertPacket(entry, p, &duplicate);
  cost += FlushPrefix(entry, /*ready_only=*/true, FlushReason::kFlags);
  if (entry->phase == FlowPhase::kActiveMerge && entry->ooo_queue.empty()) {
    // Duplicate delivery may have left the queue empty with no flush.
    SetPhase(entry, FlowPhase::kPostMerge);
  }
  return cost;
}

TimeNs Juggler::CheckTimeouts() {
  TimeNs cost = 0;
  const TimeNs now = Now();
  FlowList* lists[] = {&active_list_, &loss_list_};
  for (FlowList* list : lists) {
    FlowEntry* entry = list->front();
    while (entry != nullptr) {
      FlowEntry* next = list->NextOf(entry);
      if (!entry->ooo_queue.empty()) {
        if (entry->ooo_queue.front().start_seq() == entry->seq_next &&
            now - entry->flush_timestamp >= config_.inseq_timeout) {
          ++jstats_.inseq_timeout_flushes;
          cost += FlushPrefix(entry, /*ready_only=*/false, FlushReason::kInseqTimeout);
        }
        if (!entry->ooo_queue.empty() &&
            entry->ooo_queue.front().start_seq() != entry->seq_next &&
            now - entry->flush_timestamp >= config_.ofo_timeout) {
          cost += HandleOfoTimeout(entry);
        }
      }
      entry = next;
    }
  }
  return cost;
}

TimeNs Juggler::FlowDeadline(const FlowEntry& entry) const {
  if (entry.ooo_queue.empty()) {
    return kNoTimer;
  }
  if (entry.ooo_queue.front().start_seq() == entry.seq_next) {
    return entry.flush_timestamp + config_.inseq_timeout;
  }
  return entry.flush_timestamp + config_.ofo_timeout;
}

void Juggler::RearmTimer() {
  TimeNs earliest = kNoTimer;
  FlowList* lists[] = {const_cast<FlowList*>(&active_list_), const_cast<FlowList*>(&loss_list_)};
  for (FlowList* list : lists) {
    for (FlowEntry* entry : *list) {
      const TimeNs deadline = FlowDeadline(*entry);
      if (deadline != kNoTimer && (earliest == kNoTimer || deadline < earliest)) {
        earliest = deadline;
      }
    }
  }
  if (earliest != armed_deadline_) {
    armed_deadline_ = earliest;
    ArmTimer(earliest);
  }
}

Juggler::AuditView Juggler::Audit() const {
  AuditView view;
  view.active_len = active_list_.size();
  view.inactive_len = inactive_list_.size();
  view.loss_len = loss_list_.size();
  view.table_size = table_.size();
  view.armed_deadline = armed_deadline_;
  view.buffered_bytes_in = jstats_.buffered_bytes_in;
  view.buffered_bytes_out = jstats_.buffered_bytes_out;

  // Physical list membership, discovered by walking the lists (not trusted
  // from entry->phase — the whole point is to catch disagreement).
  std::unordered_map<const FlowEntry*, ListId> membership;
  const FlowList* lists[] = {&active_list_, &inactive_list_, &loss_list_};
  const ListId ids[] = {ListId::kActive, ListId::kInactive, ListId::kLoss};
  for (int l = 0; l < 3; ++l) {
    for (const FlowEntry* entry : *const_cast<FlowList*>(lists[l])) {
      membership.emplace(entry, ids[l]);
    }
  }

  view.flows.reserve(table_.size());
  table_.ForEach([&](const FiveTuple& key, const FlowEntry& entry) {
    AuditView::Flow f;
    f.key = key;
    f.phase = entry.phase;
    auto it = membership.find(&entry);
    f.list = it == membership.end() ? ListId::kNone : it->second;
    f.generation = entry.generation;
    f.seq_next = entry.seq_next;
    f.lost_seq = entry.lost_seq;
    f.buffered_bytes = QueuedBytes(entry.ooo_queue);
    f.queue_runs = entry.ooo_queue.size();
    f.flush_timestamp = entry.flush_timestamp;
    f.deadline = FlowDeadline(entry);
    view.flows.push_back(f);
  });
  return view;
}

TimeNs Juggler::PollComplete() {
  const TimeNs cost = CheckTimeouts();
  RearmTimer();
  return cost;
}

TimeNs Juggler::OnTimer() {
  armed_deadline_ = kNoTimer;
  const TimeNs cost = CheckTimeouts();
  RearmTimer();
  return cost;
}

TimeNs Juggler::ApplyFlowCapPressure(size_t max_flows) {
  config_.max_flows = max_flows < 1 ? nominal_max_flows_ : max_flows;
  TimeNs cost = 0;
  while (table_.size() > config_.max_flows) {
    ++jstats_.pressure_evictions;
    cost += EvictOne();
  }
  // Evictions may have removed the flows whose deadlines the armed timer was
  // tracking (or all of them).
  RearmTimer();
  return cost;
}

namespace {

const char* PhaseIndexName(int phase) {
  return phase == kFlowPhaseNone ? "none" : FlowPhaseName(static_cast<FlowPhase>(phase));
}

}  // namespace

void PublishJugglerStats(const JugglerStats& stats, const std::string& label,
                         MetricsRegistry* registry) {
  for (int from = 0; from <= kFlowPhaseCount; ++from) {
    for (int to = 0; to < kFlowPhaseCount; ++to) {
      if (stats.phase_transitions[from][to] == 0) continue;
      registry->AddCounter(
          "juggler.phase_transition",
          label + "/" + std::string(PhaseIndexName(from)) + "->" + PhaseIndexName(to),
          stats.phase_transitions[from][to]);
    }
  }
  for (int phase = 0; phase < kFlowPhaseCount; ++phase) {
    const char* name = PhaseIndexName(phase);
    if (stats.enqueued_bytes_by_phase[phase] != 0) {
      registry->AddCounter("juggler.enqueued_bytes", label + "/" + name,
                           stats.enqueued_bytes_by_phase[phase]);
    }
    if (stats.flushed_bytes_by_phase[phase] != 0) {
      registry->AddCounter("juggler.flushed_bytes", label + "/" + name,
                           stats.flushed_bytes_by_phase[phase]);
    }
  }
  registry->AddCounter("juggler.flows_created", label, stats.flows_created);
  registry->AddCounter("juggler.evictions_inactive", label, stats.evictions_inactive);
  registry->AddCounter("juggler.evictions_active", label, stats.evictions_active);
  registry->AddCounter("juggler.evictions_loss", label, stats.evictions_loss);
  registry->AddCounter("juggler.pressure_evictions", label, stats.pressure_evictions);
  registry->AddCounter("juggler.evicted_bytes", label, stats.evicted_bytes);
  registry->AddCounter("juggler.inseq_timeout_flushes", label, stats.inseq_timeout_flushes);
  registry->AddCounter("juggler.ofo_timeout_events", label, stats.ofo_timeout_events);
  registry->AddCounter("juggler.seq_next_backward_moves", label,
                       stats.seq_next_backward_moves);
  registry->AddCounter("juggler.loss_recovery_entries", label, stats.loss_recovery_entries);
  registry->AddCounter("juggler.loss_recovery_exits", label, stats.loss_recovery_exits);
  registry->AddCounter("juggler.duplicate_packets", label, stats.duplicate_packets);
  registry->AddCounter("juggler.buffered_bytes_in", label, stats.buffered_bytes_in);
  registry->AddCounter("juggler.buffered_bytes_out", label, stats.buffered_bytes_out);
  registry->MaxGauge("juggler.max_active_list_len", label, stats.max_active_list_len);
  registry->MaxGauge("juggler.max_inactive_list_len", label, stats.max_inactive_list_len);
  registry->MaxGauge("juggler.max_loss_list_len", label, stats.max_loss_list_len);
}

}  // namespace juggler
