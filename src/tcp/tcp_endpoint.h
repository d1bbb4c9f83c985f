// TCP transport substrate.
//
// A TcpEndpoint is one side of a connection: a NewReno+SACK sender (slow
// start, AIMD congestion avoidance, 3-dupACK fast retransmit, SACK
// scoreboard driving hole retransmission during recovery, RTO with Karn's
// rule) plus a receiver (sequence reassembly, cumulative ACKs with up to 3
// SACK blocks, immediate duplicate ACKs for out-of-order segments,
// receive-window advertisement).
//
// This is deliberately the stack whose pathologies the paper studies:
// duplicate ACKs from reordered arrivals trigger spurious fast retransmits
// and halve cwnd, and every delivered segment costs app-core time — so a
// GRO layer that fails to batch or reorder shows up as both throughput loss
// and CPU burn, exactly as in §5.1.1.
//
// Segment input arrives via OnSegment() after the host has charged app-core
// time for it. Packet output goes through a NicTx. The endpoint never
// allocates payload bytes: data is (sequence, length) accounting.

#ifndef JUGGLER_SRC_TCP_TCP_ENDPOINT_H_
#define JUGGLER_SRC_TCP_TCP_ENDPOINT_H_

#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "src/nic/nic_tx.h"
#include "src/obs/metrics.h"
#include "src/sim/event_loop.h"
#include "src/util/flat_fifo.h"
#include "src/util/seq.h"
#include "src/util/seq_range_set.h"

namespace juggler {

struct TcpConfig {
  TimeNs max_rto = Ms(200);
  // RTO before the first RTT sample; generous so slow control paths don't
  // fire spurious timeouts at startup.
  TimeNs initial_rto = Ms(50);
  // Optional per-connection send-rate cap (leaky bucket over bursts).
  int64_t pacing_rate_bps = 0;
  // Duplicate ACKs before fast retransmit. 3 is standard; raising it is the
  // classic TCP-side reordering mitigation (§6, RR-TCP et al.).
  int dupack_threshold = 3;
  // DCTCP congestion control: scale cwnd by the EWMA fraction of CE-marked
  // bytes once per window instead of halving on loss signals alone. Needs
  // ECN-marking switch ports (LinkConfig::ecn).
  bool dctcp = false;
};

struct TcpSenderStats {
  uint64_t bytes_sent = 0;
  uint64_t bytes_acked = 0;
  uint64_t acks_in = 0;
  uint64_t dupacks_in = 0;
  uint64_t fast_retransmits = 0;
  uint64_t rtos = 0;
  uint64_t retransmitted_bytes = 0;
  uint64_t spurious_retransmits_detected = 0;  // via DSACK
  // RTOs that fired while a previous RTO's recovery was still in progress:
  // each one doubled an already-backed-off timer (Karn exponential backoff
  // escalating). The first timeout of an episode counts in `rtos` only.
  uint64_t rto_backoffs = 0;
  // Persist-timer probes sent against a peer advertising a zero window
  // (receive-side overload: the app-core backlog ate the whole receive buffer).
  // Without these the window-reopen ACK has no trigger and the connection
  // deadlocks with an empty event loop.
  uint64_t zero_window_probes = 0;
};

// Snapshot TCP endpoint stats into `registry` under `label` (the flow, e.g.
// "a_to_b"): dupACK and spurious-retransmit counters are the paper's §5
// reordering-visible-to-TCP signals.
struct TcpReceiverStats;
void PublishTcpStats(const TcpSenderStats& sender, const TcpReceiverStats& receiver,
                     const std::string& label, MetricsRegistry* registry);

struct TcpReceiverStats {
  uint64_t segments_in = 0;
  uint64_t ooo_segments_in = 0;  // arrived past rcv_nxt: a hole existed
  uint64_t old_segments_in = 0;  // entirely below rcv_nxt (dup/rtx)
  uint64_t acks_sent = 0;
  uint64_t bytes_delivered = 0;
};

class TcpEndpoint {
 public:
  // `local` is the five-tuple this endpoint transmits with (its packets'
  // flow); incoming data arrives on local.Reversed().
  TcpEndpoint(EventLoop* loop, const TcpConfig& config, const FiveTuple& local, NicTx* nic);

  // ---- application interface ----

  // Queue bytes for transmission.
  void Send(uint64_t bytes);

  // Endless data: the sender always has a full window to send (bulk flows).
  void SendForever();

  // Called with the new total of in-order bytes delivered, every time the
  // in-order point advances. Message framing layers live here.
  void set_on_deliver(std::function<void(uint64_t total_bytes)> cb) {
    on_deliver_ = std::move(cb);
  }

  // Observation-only tap invoked with every segment handed to this endpoint,
  // before any processing. The fault layer's StreamIntegrityChecker uses it
  // to account for exactly which byte ranges GRO delivered up the stack.
  void set_segment_tap(std::function<void(const Segment&)> tap) {
    segment_tap_ = std::move(tap);
  }

  // Per-packet priority marking (dynamic prioritization, §2.1).
  void set_priority_marker(std::function<Priority()> marker);

  // Adjust the leaky-bucket send-rate cap at runtime (0 disables).
  void set_pacing_rate(int64_t bps) { config_.pacing_rate_bps = bps; }

  // Receive-window backpressure hook: extra bytes (beyond this connection's
  // reassembly buffer) to subtract from the advertised window — the host
  // wires this to its app-core backlog.
  void set_rwnd_pressure(std::function<uint64_t()> fn) { rwnd_pressure_ = std::move(fn); }

  // ---- stack interface ----

  // A merged segment for this connection (data, ACK, or both).
  void OnSegment(const Segment& segment);

  // Per-connection snapshot into `registry` under `label`: both halves'
  // counters (PublishTcpStats) plus instantaneous gauges (cwnd, srtt). The
  // app-resilience layer publishes one per connection so application-level
  // retries can be correlated with this connection's transport retransmits.
  void PublishStats(const std::string& label, MetricsRegistry* registry) const;

  const TcpSenderStats& sender_stats() const { return snd_stats_; }
  const TcpReceiverStats& receiver_stats() const { return rcv_stats_; }
  uint64_t bytes_acked() const { return snd_stats_.bytes_acked; }
  uint64_t bytes_delivered() const { return rcv_stats_.bytes_delivered; }
  uint32_t cwnd() const { return cwnd_; }
  TimeNs srtt() const { return srtt_; }
  uint64_t backlog_bytes() const { return backlog_bytes_; }
  int effective_dupack_threshold() const { return effective_dupack_threshold_; }
  double dctcp_alpha() const { return dctcp_alpha_; }

 private:
  // ---- sender ----
  void MaybeSend();
  void SendBurstNow(Seq seq, uint32_t len, bool is_retransmit);
  void ProcessAck(Seq ack, uint32_t rwnd, const SackBlocks& sack, bool ece);
  // DCTCP per-window alpha update and multiplicative decrease.
  void UpdateDctcp(uint32_t acked, bool ece);
  void EnterFastRetransmit();
  // During recovery: retransmit the next SACK-identified hole (a whole TSO
  // burst at a time), or one MSS at snd_una when no SACK info exists.
  void MaybeRetransmitHole();
  void OnRto();
  // Post-RTO (CA_Loss-style) recovery: resend the next un-SACKed chunk of
  // [snd_una, rto_recover_) under the returning ACK clock, go-back-N style.
  void ResendAfterRto();
  // Restart the retransmission timer (cum-ACK advance, loss events).
  void ArmRto();
  // Arm only if not already running (RFC 6298 rule 5.1, on new data sent).
  // Re-arming on every transmission would let a lost retransmission's
  // timeout be postponed forever by ongoing dupACK-clocked sends.
  void ArmRtoIfUnarmed();
  void CancelRto();
  // Persist timer (RFC 1122 §4.2.2.17): armed when data is waiting, nothing
  // is in flight, and the peer advertises a zero window — the one state with
  // no other pending timer. Each firing retransmits the last already-ACKed
  // byte; the peer's DSACK reply carries its current window.
  void MaybeArmPersist();
  void OnPersistTimer();
  void CancelPersist();
  void SendWindowProbe();
  void UpdateRttEstimate(TimeNs sample);
  uint32_t InflightBytes() const { return static_cast<uint32_t>(SeqDelta(snd_una_, snd_nxt_)); }

  // ---- receiver ----
  void ProcessData(const Segment& segment);
  uint32_t AdvertisedWindow() const;
  // Sends a cumulative ACK with SACK blocks; a non-empty [dsack_start,
  // dsack_end) range is reported as a leading DSACK block; `ece` echoes a
  // CE mark back to the sender (DCTCP feedback).
  void SendAckNow(Seq dsack_start = 0, Seq dsack_end = 0, bool ece = false);

  EventLoop* loop_;
  TcpConfig config_;
  FiveTuple local_;
  NicTx* nic_;

  // Sender state.
  Seq snd_una_ = 0;
  Seq snd_nxt_ = 0;
  uint64_t backlog_bytes_ = 0;
  bool infinite_backlog_ = false;
  uint32_t cwnd_;
  uint32_t ssthresh_ = 0xffffffff;
  uint32_t peer_rwnd_;
  int dupacks_ = 0;
  bool in_recovery_ = false;
  Seq recover_ = 0;
  bool in_rto_recovery_ = false;
  Seq rto_recover_ = 0;
  // DCTCP state: EWMA of the marked fraction, per-window byte counters.
  double dctcp_alpha_ = 0.0;
  uint64_t dctcp_window_acked_ = 0;
  uint64_t dctcp_window_marked_ = 0;
  Seq dctcp_window_end_ = 0;
  // SACK scoreboard: peer-reported received ranges above snd_una_.
  SeqRangeSet sacked_;
  // Retransmission cursor within the current recovery episode, so each hole
  // is retransmitted once rather than on every duplicate ACK.
  Seq rtx_next_ = 0;
  // Ranges we have retransmitted recently; a DSACK inside one of these means
  // the retransmit was spurious (reordering, not loss).
  SeqRangeSet rtx_ranges_;
  int effective_dupack_threshold_;
  TimerId rto_timer_ = kInvalidTimerId;
  TimeNs srtt_ = 0;
  TimeNs rttvar_ = 0;
  TimeNs rto_;
  TimerId pacing_timer_ = kInvalidTimerId;
  TimeNs pacing_next_free_ = 0;
  TimerId persist_timer_ = kInvalidTimerId;
  TimeNs persist_backoff_ = 0;  // 0 = start from the current RTO next time
  // (end_seq, send_time) of in-flight bursts for RTT sampling; cleared on
  // any retransmission (Karn's algorithm). FlatFifo, not std::deque: a
  // deque's map block plus first node cost ~600 heap bytes per endpoint
  // even when idle, which dominated bytes-per-connection at the 1M-flow
  // scale point; an idle FlatFifo owns no heap.
  FlatFifo<std::pair<Seq, TimeNs>> send_times_;
  std::function<Priority()> marker_;

  // Receiver state.
  Seq rcv_nxt_ = 0;
  // Out-of-order byte ranges [start, end) awaiting reassembly.
  SeqRangeSet ooo_;
  std::function<void(uint64_t)> on_deliver_;
  std::function<void(const Segment&)> segment_tap_;
  std::function<uint64_t()> rwnd_pressure_;

  TcpSenderStats snd_stats_;
  TcpReceiverStats rcv_stats_;
};

}  // namespace juggler

#endif  // JUGGLER_SRC_TCP_TCP_ENDPOINT_H_
