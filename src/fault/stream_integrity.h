// End-to-end stream integrity: every application byte delivered exactly
// once, in order, with no gaps — no matter what the fault layer did to the
// wire.
//
// A StreamIntegrityChecker attaches to the receiving TcpEndpoint and
// observes two planes:
//
//   * the app plane, via set_on_deliver: the cumulative in-order delivery
//     total must be strictly increasing (each callback announces progress),
//   * the GRO/TCP boundary, via set_segment_tap: the data segments GRO hands
//     up must, across the run, cover [0, expected_bytes) without a hole — a
//     range GRO never surfaced would be a silent gap, even if TCP's counters
//     look right. Coverage past expected_bytes is data still in flight.
//
// Violations go to the shared AuditLog; FinalCheck() runs the end-of-run
// conditions (full delivery, full coverage).

#ifndef JUGGLER_SRC_FAULT_STREAM_INTEGRITY_H_
#define JUGGLER_SRC_FAULT_STREAM_INTEGRITY_H_

#include <cstdint>
#include <string>

#include "src/fault/audit_log.h"
#include "src/packet/packet.h"
#include "src/tcp/tcp_endpoint.h"
#include "src/util/seq_range_set.h"

namespace juggler {

class StreamIntegrityChecker {
 public:
  StreamIntegrityChecker(std::string name, AuditLog* log);

  // Installs the on_deliver and segment-tap observers on `receiver`.
  // Replaces any previously-set callbacks, so attach before (or instead of)
  // other consumers of those hooks.
  void Attach(TcpEndpoint* receiver);

  void set_expected_bytes(uint64_t bytes) { expected_bytes_ = bytes; }

  // Feed methods — Attach() wires these up, and unit tests drive them
  // directly to exercise the checker without a full stack.
  void OnDeliverTotal(uint64_t total_bytes);
  void OnSegment(const Segment& segment);

  // End-of-run conditions: final total == expected, and the first covered
  // range spans all of [0, expected) (ranges beyond it are bytes still in
  // flight). Returns true when no new violation was recorded by this call.
  bool FinalCheck();

  uint64_t delivered_total() const { return delivered_total_; }
  uint64_t deliver_callbacks() const { return deliver_callbacks_; }

  // Identity of the byte stream the app received. The simulator carries no
  // payload, so the content of a stream byte is a fixed function of its
  // position and a clean delivered prefix is identified by its length alone.
  // The digest is an FNV-1a mix of every delivery anomaly (a total that did
  // not increase: old and new total), in the order seen, and then of the
  // delivered total; each callback costs O(1). Two runs agree exactly when
  // they end at the same delivered total after the same anomaly history,
  // however the deliveries were chunked, polled or timed — the cross-driver
  // (RSS vs COREC) conformance oracle.
  uint64_t stream_digest() const;

 private:
  std::string name_;
  AuditLog* log_;
  uint64_t expected_bytes_ = 0;
  uint64_t delivered_total_ = 0;
  uint64_t deliver_callbacks_ = 0;
  uint64_t anomaly_state_ = 14695981039346656037ULL;  // FNV-1a offset basis
  // Byte ranges seen in data segments at the GRO/TCP boundary. Overlaps are
  // legal (retransmissions reach TCP); gaps at the end of the run are not.
  SeqRangeSet covered_;
};

}  // namespace juggler

#endif  // JUGGLER_SRC_FAULT_STREAM_INTEGRITY_H_
