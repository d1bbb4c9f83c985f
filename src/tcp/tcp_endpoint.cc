#include "src/tcp/tcp_endpoint.h"

#include <algorithm>

#include "src/util/logging.h"

namespace juggler {
namespace {
constexpr uint32_t kInitCwnd = 10 * kMss;
constexpr uint32_t kMaxCwnd = 3'000'000;
constexpr uint32_t kRcvBuf = 6'000'000;
// Multiplicative-decrease factor on fast retransmit. 0.5 is classic Reno;
// 0.7 matches CUBIC (the Linux default in the paper's era) and keeps the
// sawtooth mean close to the path's fair rate.
constexpr double kMdBeta = 0.7;
// Linux-style adaptive reordering detection: when a DSACK reveals that a
// fast retransmit was spurious (the "lost" packet was merely late), the
// effective threshold doubles, up to this cap. An RTO resets it.
constexpr int kMaxDupackThreshold = 256;
constexpr TimeNs kMinRto = Ms(2);
// DCTCP's EWMA gain for the marked fraction.
constexpr double kDctcpG = 1.0 / 16.0;
// How far below snd_una a DSACK may refer to a remembered retransmission.
constexpr uint32_t kDsackHorizon = 8 * 1024 * 1024;
}  // namespace

TcpEndpoint::TcpEndpoint(EventLoop* loop, const TcpConfig& config, const FiveTuple& local,
                         NicTx* nic)
    : loop_(loop),
      config_(config),
      local_(local),
      nic_(nic),
      cwnd_(kInitCwnd),
      peer_rwnd_(kRcvBuf),
      effective_dupack_threshold_(config.dupack_threshold),
      rto_(config.initial_rto) {}

void TcpEndpoint::set_priority_marker(std::function<Priority()> marker) {
  marker_ = std::move(marker);
}

void TcpEndpoint::Send(uint64_t bytes) {
  backlog_bytes_ += bytes;
  MaybeSend();
}

void TcpEndpoint::SendForever() {
  infinite_backlog_ = true;
  MaybeSend();
}

// ---------------------------------------------------------------- sender --

void TcpEndpoint::MaybeSend() {
  while (true) {
    const uint32_t window = std::min(cwnd_, peer_rwnd_);
    const uint32_t inflight = InflightBytes();
    if (inflight >= window) {
      MaybeArmPersist();
      return;
    }
    uint64_t can_send = window - inflight;
    if (!infinite_backlog_) {
      can_send = std::min<uint64_t>(can_send, backlog_bytes_);
    }
    const uint32_t len = static_cast<uint32_t>(std::min<uint64_t>(can_send, kMaxTsoPayload));
    if (len == 0) {
      return;
    }
    if (config_.pacing_rate_bps > 0) {
      const TimeNs now = loop_->now();
      if (pacing_next_free_ > now) {
        if (pacing_timer_ == kInvalidTimerId) {
          pacing_timer_ = loop_->ScheduleAt(pacing_next_free_, [this] {
            pacing_timer_ = kInvalidTimerId;
            MaybeSend();
          });
        }
        return;
      }
      pacing_next_free_ =
          now + SerializationTime(len + kPerPacketWireOverhead * ((len + kMss - 1) / kMss),
                                  config_.pacing_rate_bps);
    }
    SendBurstNow(snd_nxt_, len, /*is_retransmit=*/false);
    snd_nxt_ += len;
    if (!infinite_backlog_) {
      backlog_bytes_ -= len;
    }
    snd_stats_.bytes_sent += len;
    send_times_.emplace_back(snd_nxt_, loop_->now());
    ArmRtoIfUnarmed();
  }
}

void TcpEndpoint::SendBurstNow(Seq seq, uint32_t len, bool is_retransmit) {
  TsoBurst burst;
  burst.flow = local_;
  burst.seq = seq;
  burst.len = len;
  burst.flags = kFlagAck;
  // PSH when this transmission empties the send queue — how Linux marks the
  // end of available data. Bulk flows therefore rarely set it.
  const bool empties = !infinite_backlog_ && backlog_bytes_ == len;
  if (is_retransmit ||
      (empties && SeqDelta(snd_una_, seq) + static_cast<int32_t>(len) >=
                      SeqDelta(snd_una_, snd_nxt_))) {
    burst.flags |= kFlagPsh;
  }
  if (is_retransmit) {
    snd_stats_.retransmitted_bytes += len;
    send_times_.clear();  // Karn: no RTT samples across retransmissions
    rtx_ranges_.Insert(seq, seq + len);
  }
  burst.ack_seq = rcv_nxt_;
  burst.ack_rwnd = AdvertisedWindow();
  burst.marker = marker_ ? &marker_ : nullptr;
  nic_->SendBurst(burst);
}

void TcpEndpoint::ProcessAck(Seq ack, uint32_t rwnd, const SackBlocks& sack, bool ece) {
  ++snd_stats_.acks_in;
  peer_rwnd_ = rwnd;
  if (rwnd > 0) {
    persist_backoff_ = 0;
    if (persist_timer_ != kInvalidTimerId) {
      // Window reopened (typically the reply to a probe). This ACK advances
      // no data, so the cum-ACK branch's MaybeSend below won't run — resume
      // transmission here.
      CancelPersist();
      MaybeSend();
    }
  }
  // A leading block entirely below the cumulative ACK is a DSACK (RFC 2883):
  // the peer received duplicate data. If we retransmitted that range, the
  // retransmit was spurious — the original was merely reordered — so raise
  // the effective dupACK threshold, as Linux's reordering detection does.
  if (sack.count > 0 && SeqBeforeEq(sack.end[0], ack)) {
    rtx_ranges_.ClipBelow(snd_una_ - kDsackHorizon);
    if (rtx_ranges_.Covers(sack.start[0])) {
      ++snd_stats_.spurious_retransmits_detected;
      effective_dupack_threshold_ =
          std::min(kMaxDupackThreshold, effective_dupack_threshold_ * 2);
    }
  }
  // Merge SACK blocks into the scoreboard (clipped to outstanding data).
  for (uint8_t i = 0; i < sack.count; ++i) {
    const Seq s = SeqMax(sack.start[i], snd_una_);
    if (SeqBefore(s, sack.end[i]) && SeqBeforeEq(sack.end[i], snd_nxt_)) {
      sacked_.Insert(s, sack.end[i]);
    }
  }
  if (SeqAfter(ack, snd_nxt_)) {
    ack = snd_nxt_;  // corrupted/ancient ACK beyond what we sent: clamp
  }
  if (SeqAfter(ack, snd_una_)) {
    const uint32_t acked = static_cast<uint32_t>(SeqDelta(snd_una_, ack));
    snd_una_ = ack;
    sacked_.ClipBelow(snd_una_);
    if (SeqBefore(rtx_next_, snd_una_)) {
      rtx_next_ = snd_una_;
    }
    snd_stats_.bytes_acked += acked;
    dupacks_ = 0;

    // RTT sample from the newest fully-acked burst.
    TimeNs sample = -1;
    while (!send_times_.empty() && SeqBeforeEq(send_times_.front().first, ack)) {
      sample = loop_->now() - send_times_.front().second;
      send_times_.pop_front();
    }
    if (sample >= 0) {
      UpdateRttEstimate(sample);
    }
    if (config_.dctcp) {
      UpdateDctcp(acked, ece);
    }

    if (in_rto_recovery_) {
      if (SeqAfterEq(snd_una_, rto_recover_)) {
        in_rto_recovery_ = false;
      } else {
        ResendAfterRto();
      }
    }
    if (in_recovery_) {
      if (SeqAfterEq(ack, recover_)) {
        in_recovery_ = false;
        cwnd_ = ssthresh_;
      } else {
        // Partial ACK: keep filling holes (SACK) / resend at snd_una_.
        MaybeRetransmitHole();
      }
    } else if (cwnd_ < ssthresh_) {
      cwnd_ = std::min(kMaxCwnd, cwnd_ + acked);  // slow start
    } else {
      const uint64_t inc =
          static_cast<uint64_t>(kMss) * acked / std::max<uint32_t>(cwnd_, 1);
      cwnd_ = static_cast<uint32_t>(
          std::min<uint64_t>(kMaxCwnd, cwnd_ + std::max<uint64_t>(inc, 1)));
    }

    if (snd_una_ == snd_nxt_) {
      CancelRto();
      rto_ = std::clamp(std::max(2 * srtt_, srtt_ + 4 * rttvar_), kMinRto,
                        config_.max_rto);
    } else {
      ArmRto();
    }
    MaybeSend();
    return;
  }
  if (ack == snd_una_ && SeqAfter(snd_nxt_, snd_una_)) {
    ++snd_stats_.dupacks_in;
    ++dupacks_;
    // SACK-based loss detection (RFC 6675 flavour): when the peer has SACKed
    // at least DupThresh segments' worth of data above the hole, the hole is
    // lost — no need to wait for DupThresh separate duplicate ACKs. This
    // matters behind GRO: large merged segments produce few ACKs, so a
    // counting-only rule would push recovery onto the RTO.
    const bool sack_loss =
        !sacked_.empty() &&
        sacked_.TotalBytes() >=
            static_cast<uint64_t>(effective_dupack_threshold_) * kMss;
    if (!in_recovery_ && !in_rto_recovery_ &&
        (dupacks_ >= effective_dupack_threshold_ || sack_loss)) {
      EnterFastRetransmit();
    } else if (in_recovery_) {
      // Window inflation, bounded: one MSS per dupACK up to twice ssthresh.
      // (Unbounded inflation would blow the window open if recovery stalls
      // on a lost retransmission.)
      if (cwnd_ < 2 * ssthresh_) {
        cwnd_ = std::min(kMaxCwnd, cwnd_ + kMss);
      }
      MaybeRetransmitHole();
      MaybeSend();
    }
  }
}

void TcpEndpoint::UpdateDctcp(uint32_t acked, bool ece) {
  dctcp_window_acked_ += acked;
  if (ece) {
    dctcp_window_marked_ += acked;
  }
  if (SeqBefore(snd_una_, dctcp_window_end_)) {
    return;  // still inside the current observation window
  }
  if (dctcp_window_acked_ > 0) {
    const double frac = static_cast<double>(dctcp_window_marked_) /
                        static_cast<double>(dctcp_window_acked_);
    dctcp_alpha_ = (1.0 - kDctcpG) * dctcp_alpha_ + kDctcpG * frac;
    if (frac > 0.0 && !in_recovery_ && !in_rto_recovery_) {
      // DCTCP decrease: proportional to the congestion extent.
      cwnd_ = std::max(2 * kMss,
                       static_cast<uint32_t>(cwnd_ * (1.0 - dctcp_alpha_ / 2.0)));
      ssthresh_ = cwnd_;
    }
  }
  dctcp_window_acked_ = 0;
  dctcp_window_marked_ = 0;
  dctcp_window_end_ = snd_nxt_;
}

void TcpEndpoint::EnterFastRetransmit() {
  ++snd_stats_.fast_retransmits;
  const uint32_t inflight = InflightBytes();
  ssthresh_ = std::max(static_cast<uint32_t>(inflight * kMdBeta), 2 * kMss);
  recover_ = snd_nxt_;
  in_recovery_ = true;
  cwnd_ = ssthresh_ + 3 * kMss;
  rtx_next_ = snd_una_;
  MaybeRetransmitHole();
  ArmRto();
}

void TcpEndpoint::MaybeRetransmitHole() {
  if (snd_una_ == snd_nxt_) {
    return;
  }
  if (sacked_.empty()) {
    // No SACK information: classic NewReno — one MSS at snd_una_, once.
    if (SeqAfter(rtx_next_, snd_una_)) {
      return;
    }
    const uint32_t len =
        std::min(kMss, static_cast<uint32_t>(SeqDelta(snd_una_, snd_nxt_)));
    SendBurstNow(snd_una_, len, /*is_retransmit=*/true);
    rtx_next_ = snd_una_ + len;
    return;
  }
  // SACK recovery: retransmit the next unfilled hole below the highest
  // SACKed byte, a whole (up to 64KB) burst at a time — a fully lost TSO
  // burst heals in one round trip instead of one MSS per RTT.
  const Seq from = SeqAfter(rtx_next_, snd_una_) ? rtx_next_ : snd_una_;
  Seq hole_start = 0;
  Seq hole_end = 0;
  if (!sacked_.NextHole(from, &hole_start, &hole_end)) {
    return;
  }
  const uint32_t len = static_cast<uint32_t>(
      std::min<int64_t>(SeqDelta(hole_start, hole_end), kMaxTsoPayload));
  SendBurstNow(hole_start, len, /*is_retransmit=*/true);
  rtx_next_ = hole_start + len;
}

void TcpEndpoint::OnRto() {
  rto_timer_ = kInvalidTimerId;
  if (snd_una_ == snd_nxt_) {
    return;  // nothing outstanding
  }
  ++snd_stats_.rtos;
  if (in_rto_recovery_) {
    ++snd_stats_.rto_backoffs;  // consecutive timeout: the backoff escalated
  }
  ssthresh_ = std::max(InflightBytes() / 2, 2 * kMss);
  cwnd_ = kMss;
  in_recovery_ = false;
  dupacks_ = 0;
  rtx_next_ = snd_una_;
  // Everything outstanding is presumed lost; resend it progressively under
  // the returning ACK clock (go-back-N, skipping SACKed ranges).
  in_rto_recovery_ = true;
  rto_recover_ = snd_nxt_;
  // A genuine timeout invalidates the learned reordering extent.
  effective_dupack_threshold_ = config_.dupack_threshold;
  ResendAfterRto();
  rto_ = std::min(config_.max_rto, rto_ * 2);  // exponential backoff
  ArmRto();
}

void TcpEndpoint::ResendAfterRto() {
  Seq from = SeqAfter(rtx_next_, snd_una_) ? rtx_next_ : snd_una_;
  from = sacked_.SkipCovered(from);
  if (SeqAfterEq(from, rto_recover_)) {
    return;  // everything up to the loss point is resent or SACKed
  }
  // Bound the burst at the next SACKed range (no need to resend those).
  Seq bound = rto_recover_;
  for (const auto& [start, end] : sacked_.ranges()) {
    if (SeqAfter(start, from)) {
      bound = SeqMin(bound, start);
      break;
    }
  }
  const uint32_t window = std::max(cwnd_, kMss);
  const uint32_t len = static_cast<uint32_t>(std::min<int64_t>(
      SeqDelta(from, bound), std::min<uint32_t>(kMaxTsoPayload, window)));
  SendBurstNow(from, len, /*is_retransmit=*/true);
  rtx_next_ = from + len;
}

void TcpEndpoint::ArmRto() {
  CancelRto();
  rto_timer_ = loop_->Schedule(rto_, [this] { OnRto(); });
}

void TcpEndpoint::ArmRtoIfUnarmed() {
  if (rto_timer_ == kInvalidTimerId) {
    ArmRto();
  }
}

void TcpEndpoint::CancelRto() {
  if (rto_timer_ != kInvalidTimerId) {
    loop_->Cancel(rto_timer_);
    rto_timer_ = kInvalidTimerId;
  }
}

void TcpEndpoint::MaybeArmPersist() {
  if (persist_timer_ != kInvalidTimerId || peer_rwnd_ != 0) {
    return;
  }
  if (InflightBytes() != 0 || (!infinite_backlog_ && backlog_bytes_ == 0)) {
    return;  // the RTO covers in-flight data; no data means nothing to probe for
  }
  if (persist_backoff_ == 0) {
    persist_backoff_ = rto_;
  }
  persist_timer_ = loop_->Schedule(persist_backoff_, [this] { OnPersistTimer(); });
}

void TcpEndpoint::OnPersistTimer() {
  persist_timer_ = kInvalidTimerId;
  if (peer_rwnd_ != 0 || InflightBytes() != 0 ||
      (!infinite_backlog_ && backlog_bytes_ == 0)) {
    persist_backoff_ = 0;
    MaybeSend();
    return;
  }
  ++snd_stats_.zero_window_probes;
  SendWindowProbe();
  persist_backoff_ = std::min(config_.max_rto, persist_backoff_ * 2);
  persist_timer_ = loop_->Schedule(persist_backoff_, [this] { OnPersistTimer(); });
}

void TcpEndpoint::CancelPersist() {
  if (persist_timer_ != kInvalidTimerId) {
    loop_->Cancel(persist_timer_);
    persist_timer_ = kInvalidTimerId;
  }
}

void TcpEndpoint::SendWindowProbe() {
  // One already-ACKed byte (snd_nxt_ - 1): ProcessData classifies it as fully
  // duplicate and answers with a DSACK ACK carrying the current window. Sent
  // outside the retransmit bookkeeping — no Karn reset, no rtx_ranges_ entry,
  // so the reply is never misread as a spurious-retransmit signal.
  TsoBurst burst;
  burst.flow = local_;
  burst.seq = snd_nxt_ - 1;
  burst.len = 1;
  burst.flags = kFlagAck;
  burst.ack_seq = rcv_nxt_;
  burst.ack_rwnd = AdvertisedWindow();
  burst.marker = marker_ ? &marker_ : nullptr;
  nic_->SendBurst(burst);
}

void TcpEndpoint::UpdateRttEstimate(TimeNs sample) {
  if (srtt_ == 0) {
    srtt_ = sample;
    rttvar_ = sample / 2;
  } else {
    const TimeNs err = sample > srtt_ ? sample - srtt_ : srtt_ - sample;
    rttvar_ = (3 * rttvar_ + err) / 4;
    srtt_ = (7 * srtt_ + sample) / 8;
  }
  // RFC6298 shape, with a 2x-SRTT floor: rttvar decays to ~0 on steady
  // paths, and a window-limited sender's ACK clock arrives in RTT-spaced
  // bursts — an RTO equal to SRTT would fire spuriously every window.
  rto_ = std::clamp(std::max(2 * srtt_, srtt_ + 4 * rttvar_), kMinRto, config_.max_rto);
}

// -------------------------------------------------------------- receiver --

void TcpEndpoint::OnSegment(const Segment& segment) {
  if (segment_tap_) {
    segment_tap_(segment);
  }
  if (segment.payload_len > 0) {
    ProcessData(segment);
  }
  if ((segment.flags & kFlagAck) != 0) {
    ProcessAck(segment.ack_seq, segment.ack_rwnd, segment.sack, segment.ece);
  }
}

void TcpEndpoint::ProcessData(const Segment& segment) {
  ++rcv_stats_.segments_in;
  Seq start = segment.seq;
  const Seq end = segment.end_seq();

  if (SeqBeforeEq(end, rcv_nxt_)) {
    ++rcv_stats_.old_segments_in;
    // Fully duplicate data: acknowledge with a DSACK block (RFC 2883) so the
    // sender can tell reordering from loss.
    SendAckNow(segment.seq, end, segment.ce_mark);
    return;
  }
  if (SeqBefore(start, rcv_nxt_)) {
    start = rcv_nxt_;  // partial overlap with delivered data
  }

  if (start == rcv_nxt_) {
    rcv_nxt_ = ooo_.DrainFrom(end);
    const uint64_t before = rcv_stats_.bytes_delivered;
    rcv_stats_.bytes_delivered = before + static_cast<uint64_t>(SeqDelta(start, rcv_nxt_));
    if (on_deliver_) {
      on_deliver_(rcv_stats_.bytes_delivered);
    }
  } else {
    ++rcv_stats_.ooo_segments_in;
    ooo_.Insert(start, end);
  }
  // Immediate ACK per delivered segment; holes produce duplicate ACKs —
  // this is the ACK storm the paper measures ("15 times more ACKs").
  // CE marks echo back per segment (DCTCP receiver behaviour).
  SendAckNow(0, 0, segment.ce_mark);
}

uint32_t TcpEndpoint::AdvertisedWindow() const {
  uint64_t used = ooo_.TotalBytes();
  if (rwnd_pressure_) {
    used += rwnd_pressure_();
  }
  if (used >= kRcvBuf) {
    return 0;
  }
  return kRcvBuf - static_cast<uint32_t>(used);
}

void TcpEndpoint::SendAckNow(Seq dsack_start, Seq dsack_end, bool ece) {
  ++rcv_stats_.acks_sent;
  const Priority priority = marker_ ? marker_() : Priority::kLow;
  SackBlocks sack;
  if (SeqBefore(dsack_start, dsack_end)) {
    sack.Add(dsack_start, dsack_end);  // DSACK rides as the first block
  }
  for (const auto& [start, end] : ooo_.ranges()) {
    if (sack.count == 3) {
      break;
    }
    sack.Add(start, end);
  }
  nic_->SendAck(local_, snd_nxt_, rcv_nxt_, AdvertisedWindow(), priority, sack, ece);
}

void PublishTcpStats(const TcpSenderStats& sender, const TcpReceiverStats& receiver,
                     const std::string& label, MetricsRegistry* registry) {
  registry->AddCounter("tcp.bytes_sent", label, sender.bytes_sent);
  registry->AddCounter("tcp.bytes_acked", label, sender.bytes_acked);
  registry->AddCounter("tcp.acks_in", label, sender.acks_in);
  registry->AddCounter("tcp.dupacks_in", label, sender.dupacks_in);
  registry->AddCounter("tcp.fast_retransmits", label, sender.fast_retransmits);
  registry->AddCounter("tcp.rtos", label, sender.rtos);
  registry->AddCounter("tcp.retransmitted_bytes", label, sender.retransmitted_bytes);
  registry->AddCounter("tcp.spurious_retransmits", label,
                       sender.spurious_retransmits_detected);
  registry->AddCounter("tcp.rto_backoffs", label, sender.rto_backoffs);
  registry->AddCounter("tcp.zero_window_probes", label, sender.zero_window_probes);
  registry->AddCounter("tcp.segments_in", label, receiver.segments_in);
  registry->AddCounter("tcp.ooo_segments_in", label, receiver.ooo_segments_in);
  registry->AddCounter("tcp.old_segments_in", label, receiver.old_segments_in);
  registry->AddCounter("tcp.acks_sent", label, receiver.acks_sent);
  registry->AddCounter("tcp.bytes_delivered", label, receiver.bytes_delivered);
}

void TcpEndpoint::PublishStats(const std::string& label, MetricsRegistry* registry) const {
  PublishTcpStats(snd_stats_, rcv_stats_, label, registry);
  registry->SetGauge("tcp.cwnd", label, cwnd_);
  registry->SetGauge("tcp.srtt_us", label, static_cast<uint64_t>(ToUs(srtt_)));
}

}  // namespace juggler
