#include "src/fault/stream_integrity.h"

#include <utility>

#include "src/util/logging.h"

namespace juggler {

namespace {

constexpr uint64_t kFnvPrime = 1099511628211ULL;

// One FNV-1a step over a 64-bit word.
inline uint64_t Mix(uint64_t state, uint64_t word) { return (state ^ word) * kFnvPrime; }

}  // namespace

StreamIntegrityChecker::StreamIntegrityChecker(std::string name, AuditLog* log)
    : name_(std::move(name)), log_(log) {
  JUG_CHECK(log_ != nullptr);
}

void StreamIntegrityChecker::Attach(TcpEndpoint* receiver) {
  JUG_CHECK(receiver != nullptr);
  receiver->set_on_deliver([this](uint64_t total) { OnDeliverTotal(total); });
  receiver->set_segment_tap([this](const Segment& s) { OnSegment(s); });
}

void StreamIntegrityChecker::OnDeliverTotal(uint64_t total_bytes) {
  ++deliver_callbacks_;
  // The callback fires only when the in-order point advances, so the total
  // must be strictly increasing — a repeat would be a double delivery, a
  // decrease would be rollback, and exceeding the expectation means bytes
  // the app never sent were conjured.
  if (total_bytes <= delivered_total_) {
    log_->Violation(name_, "delivery total not strictly increasing: " +
                               std::to_string(total_bytes) + " after " +
                               std::to_string(delivered_total_));
    // An anomalous delivery must never hash equal to a clean one.
    anomaly_state_ = Mix(Mix(Mix(anomaly_state_, 0xBADull), delivered_total_), total_bytes);
  }
  if (expected_bytes_ > 0 && total_bytes > expected_bytes_) {
    log_->Violation(name_, "delivered " + std::to_string(total_bytes) +
                               " bytes, more than the " +
                               std::to_string(expected_bytes_) + " sent");
  }
  delivered_total_ = total_bytes;
}

uint64_t StreamIntegrityChecker::stream_digest() const {
  return Mix(anomaly_state_, delivered_total_);
}

void StreamIntegrityChecker::OnSegment(const Segment& segment) {
  if (segment.payload_len == 0) {
    return;  // pure ACK
  }
  covered_.Insert(segment.seq, segment.end_seq());
}

bool StreamIntegrityChecker::FinalCheck() {
  const uint64_t before = log_->violations();
  if (delivered_total_ != expected_bytes_) {
    log_->Violation(name_, "final delivery total " + std::to_string(delivered_total_) +
                               " != expected " + std::to_string(expected_bytes_));
  }
  if (expected_bytes_ > 0) {
    // The first covered range must be all of [0, expected): a second range
    // inside it means a hole GRO never surfaced. Ranges past `expected` are
    // data still in flight at the end of the run (an app run stops while TCP
    // still holds out-of-order bytes); over-delivery is OnDeliverTotal's
    // check.
    const auto& ranges = covered_.ranges();
    const bool prefix_covered = !ranges.empty() && ranges.front().first == 0 &&
                            SeqAfterEq(ranges.front().second, Seq(expected_bytes_));
    if (!prefix_covered) {
      log_->Violation(name_, "segment coverage has gaps: " +
                                 std::to_string(ranges.size()) + " ranges, " +
                                 std::to_string(covered_.TotalBytes()) + " of " +
                                 std::to_string(expected_bytes_) + " bytes");
    }
  }
  return log_->violations() == before;
}

}  // namespace juggler
