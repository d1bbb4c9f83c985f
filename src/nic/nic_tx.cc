#include "src/nic/nic_tx.h"

#include <memory>
#include <utility>

#include "src/util/logging.h"

namespace juggler {

void NicTx::SendBurst(const TsoBurst& burst) {
  JUG_CHECK(burst.len > 0 && burst.len <= kMaxTsoPayload);
  ++stats_.bursts;
  const uint64_t tso_id = next_tso_id_++;
  uint32_t sent = 0;
  while (sent < burst.len) {
    const uint32_t chunk = std::min<uint32_t>(kMss, burst.len - sent);
    PacketPtr p = factory_->TryMake();
    if (p == nullptr) {
      // Pool at capacity: this MTU is tail-dropped at the NIC. The rest of
      // the burst still tries — later frames may find the pool recovered,
      // and partial bursts keep the ACK clock alive.
      ++stats_.pool_exhausted_drops;
      sent += chunk;
      continue;
    }
    p->flow = burst.flow;
    p->seq = burst.seq + sent;
    p->payload_len = chunk;
    p->ack_seq = burst.ack_seq;
    p->ack_rwnd = burst.ack_rwnd;
    p->options_token = burst.options_token;
    p->tso_id = tso_id;
    p->sent_time = loop_->now();
    sent += chunk;
    // Flags like PSH apply to the last packet of the burst; ACK to all.
    p->flags = (sent == burst.len) ? burst.flags : static_cast<uint8_t>(burst.flags & kFlagAck);
    p->priority = burst.marker != nullptr && *burst.marker ? (*burst.marker)() : Priority::kLow;
    ++stats_.packets;
    stats_.bytes += chunk;
    wire_->Accept(std::move(p));
  }
}

void NicTx::SendAck(const FiveTuple& flow, Seq seq, Seq ack_seq, uint32_t rwnd,
                    Priority priority, const SackBlocks& sack, bool ece) {
  PacketPtr p = factory_->TryMake();
  if (p == nullptr) {
    // Shed the ACK; cumulative ACKs are self-healing once pressure lifts.
    ++stats_.pool_exhausted_drops;
    return;
  }
  p->flow = flow;
  p->seq = seq;
  p->payload_len = 0;
  p->flags = kFlagAck;
  p->ack_seq = ack_seq;
  p->ack_rwnd = rwnd;
  p->sack = sack;
  p->ece = ece;
  p->priority = priority;
  p->sent_time = loop_->now();
  ++stats_.acks;
  wire_->Accept(std::move(p));
}

void PublishNicTxStats(const NicTxStats& stats, const std::string& label,
                       MetricsRegistry* registry) {
  registry->AddCounter("nic_tx.bursts", label, stats.bursts);
  registry->AddCounter("nic_tx.packets", label, stats.packets);
  registry->AddCounter("nic_tx.bytes", label, stats.bytes);
  registry->AddCounter("nic_tx.acks", label, stats.acks);
  registry->AddCounter("nic_tx.pool_exhausted_drops", label, stats.pool_exhausted_drops);
}

}  // namespace juggler
