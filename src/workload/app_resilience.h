// Application-layer resilience: RPC and resumable bulk-transfer protocols
// with real client-side state machines, riding the simulated TCP endpoints.
//
// The paper evaluates Juggler up to TCP throughput and latency, but real
// datacenter traffic is RPCs and storage transfers whose *own* timeout and
// retry logic interacts with reordering-induced spurious retransmits. This
// layer supplies that traffic:
//
//   * AppClientSession — per-request deadlines, bounded retry budgets,
//     exponential backoff with seeded deterministic jitter, idempotency
//     tokens reused across retries, and graceful degradation: every request
//     ends in an explicit Ok / Timeout / Aborted outcome, never a hang.
//   * AppServer — executes requests at-most-once effectively: a token seen
//     before is suppressed as a duplicate and answered from the dedup
//     table, exactly like an idempotent storage or RPC server.
//   * AppIntegrityAuditor — the oracle. At-least-once for completed
//     requests, effective exactly-once for executions, terminal outcomes
//     for everything issued. Violations go to the shared AuditLog, the same
//     channel StreamIntegrityChecker uses, so the chaos/fuzz machinery
//     treats app-level bugs exactly like byte-stream bugs.
//
// Everything is deterministic given a seed; under the sharded engine the
// client and server sides run in different shard domains, so the auditor is
// mutex protected (all of its updates commute — per-token and per-request
// counts — which keeps digests shard-count invariant).

#ifndef JUGGLER_SRC_WORKLOAD_APP_RESILIENCE_H_
#define JUGGLER_SRC_WORKLOAD_APP_RESILIENCE_H_

#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "src/fault/audit_log.h"
#include "src/obs/flight_recorder.h"
#include "src/obs/metrics.h"
#include "src/sim/event_loop.h"
#include "src/util/rng.h"
#include "src/workload/frame_channel.h"

namespace juggler {

enum class AppWorkloadKind : int {
  kNone = 0,         // no app layer: the classic raw bulk byte transfer
  kRpc,              // open-loop request/response over per-session streams
  kBulkTransfer,     // resumable chunked transfer with app-level acks
  kIncast,           // synchronized request waves fanning responses in
  kReplication,      // chunk committed only when every replica session acked
};

const char* AppWorkloadKindName(AppWorkloadKind kind);
bool ParseAppWorkloadKind(const char* name, AppWorkloadKind* out);

struct RetryPolicy {
  TimeNs attempt_timeout = Ms(8);  // per attempt, from its send
  TimeNs deadline = Ms(160);       // per request, from issue
  uint32_t max_attempts = 5;
  TimeNs backoff_base = Ms(2);     // doubles per retry, capped below
  TimeNs backoff_max = Ms(40);
  uint32_t jitter_pct = 20;        // +/- percent of the backoff, seeded
};

struct AppWorkloadOptions {
  AppWorkloadKind kind = AppWorkloadKind::kNone;
  uint32_t sessions = 2;                 // connections (replicas for kReplication)
  uint32_t requests_per_session = 8;     // rpc/incast request count
  uint64_t request_bytes = 512;
  uint64_t response_bytes = 16'384;
  uint64_t chunk_bytes = 65'536;         // bulk/replication chunk size
  uint64_t transfer_bytes_per_session = 262'144;
  TimeNs issue_interval = Ms(2);         // arrival spacing (waves for incast)
  RetryPolicy retry;
  // Planted bug for validating the forensics pipeline end to end: retries
  // mint a FRESH idempotency token instead of reusing the request's, so the
  // server's dedup table cannot recognize the duplicate and executes the
  // request twice — which the auditor reports as a violation.
  bool plant_stale_token = false;

  bool enabled() const { return kind != AppWorkloadKind::kNone; }
  // Chunks a bulk/replication session carries (ceiling division).
  uint64_t ChunksPerSession() const {
    return (transfer_bytes_per_session + chunk_bytes - 1) / chunk_bytes;
  }
  // Logical requests per session this workload issues when nothing fails.
  uint64_t RequestsPerSession() const {
    return (kind == AppWorkloadKind::kBulkTransfer || kind == AppWorkloadKind::kReplication)
               ? ChunksPerSession()
               : requests_per_session;
  }
};

enum class RequestOutcome : int {
  kPending = 0,
  kOk,        // response arrived within deadline and budget
  kTimeout,   // deadline passed
  kAborted,   // retry budget exhausted, upstream chunk failed, or run ended
};

const char* RequestOutcomeName(RequestOutcome outcome);

// Aggregated application counters: the digest and metrics source. All
// counters are final sums, so merging is order-insensitive.
struct AppStats {
  uint64_t issued = 0;
  uint64_t ok = 0;
  uint64_t timeouts = 0;
  uint64_t aborted = 0;
  uint64_t attempts = 0;
  uint64_t retries = 0;               // attempts beyond the first
  uint64_t duplicate_responses = 0;   // responses after the request went terminal
  uint64_t executions = 0;            // server-side first-time executions
  uint64_t duplicates_suppressed = 0; // server-side dedup hits
  uint64_t forced_terminal = 0;       // requests still pending at run end (hung)
  Log2Histogram latency_us;           // issue -> Ok completion

  void MergeFrom(const AppStats& other);
};

// Snapshot into `registry` under `label` ("client"/"server" by convention).
void PublishAppStats(const AppStats& stats, const std::string& label,
                     MetricsRegistry* registry);

// Trace codes for TraceKind::kAppEvent `a` arguments.
inline constexpr int kAppCodeIssue = 0;
inline constexpr int kAppCodeRetry = 1;
inline constexpr int kAppCodeOk = 2;
inline constexpr int kAppCodeTimeout = 3;
inline constexpr int kAppCodeAbort = 4;
inline constexpr int kAppCodeDupResponse = 5;
inline constexpr int kAppCodeExecute = 6;
inline constexpr int kAppCodeDupSuppressed = 7;
// Decoded by AppEventCodeName() in src/obs/flight_recorder.h.

// The at-least-once / duplicate-detection oracle. Clients register every
// issued request and every attempt's token; the server reports executions
// by token. FinalCheck (main thread, after the run) verifies:
//
//   * every issued request reached a terminal outcome (no hangs),
//   * every Ok request executed at least once (at-least-once),
//   * no logical request executed more than once (effective exactly-once —
//     the server's dedup must have caught every retry's duplicate),
//   * no execution for a token no client ever sent.
class AppIntegrityAuditor {
 public:
  explicit AppIntegrityAuditor(std::string name) : name_(std::move(name)) {}

  void OnIssue(uint64_t request_id);
  void OnAttempt(uint64_t request_id, uint64_t token);
  // Server saw `token` for the first time and executed. Returns false if the
  // token maps to no known request (recorded; flagged in FinalCheck).
  bool OnExecute(uint64_t token);
  void OnServerDuplicate(uint64_t token);
  void OnOutcome(uint64_t request_id, RequestOutcome outcome);
  void OnDuplicateResponse(uint64_t request_id);

  // End-of-run oracle; appends violations to `log`. Returns true when clean.
  bool FinalCheck(AuditLog* log);

  uint64_t executions() const;
  uint64_t duplicates_suppressed() const;

 private:
  struct Record {
    uint64_t attempts = 0;
    uint64_t executions = 0;
    RequestOutcome outcome = RequestOutcome::kPending;
  };

  std::string name_;
  mutable std::mutex mu_;
  std::map<uint64_t, Record> requests_;        // by request_id (ordered: FinalCheck determinism)
  std::map<uint64_t, uint64_t> token_owner_;   // token -> request_id
  uint64_t unknown_token_executions_ = 0;
  uint64_t duplicate_responses_ = 0;
  uint64_t executions_ = 0;
  uint64_t duplicates_suppressed_ = 0;
};

// The server half of one connection: executes requests/chunks arriving on
// `in`, answers on `out`, and deduplicates by idempotency token. Lives on
// the serving host's event-loop thread.
class AppServer {
 public:
  AppServer(const AppWorkloadOptions& options, FrameChannel* in, FrameChannel* out,
            AppIntegrityAuditor* auditor, FlightRecorder* recorder, const TimeNs* clock);

  const AppStats& stats() const { return stats_; }

 private:
  void OnFrame(const FrameHeader& header);

  AppWorkloadOptions options_;
  FrameChannel* out_;
  AppIntegrityAuditor* auditor_;
  FlightRecorder* recorder_;
  const TimeNs* clock_;
  std::map<uint64_t, FrameHeader> seen_;  // token -> original request header
  AppStats stats_;
};

// The client half of one session: issues the session's requests (or chunks)
// and drives each through the deadline/backoff/retry state machine. Lives
// on the client host's event-loop thread.
class AppClientSession {
 public:
  // For kReplication the harness supplies `on_chunk_done(chunk, ok)`; the
  // session then waits for ReleaseChunk before issuing the next chunk.
  AppClientSession(EventLoop* loop, const AppWorkloadOptions& options, uint32_t session_index,
                   FrameChannel* out, AppIntegrityAuditor* auditor, FlightRecorder* recorder,
                   uint64_t seed);

  // Schedules the session's issue timeline. Call once, before running.
  void Start();

  // Wire to the response channel's on_frame (client thread).
  void OnResponseFrame(const FrameHeader& header);

  // Replication coupling: invoked (client thread) when this session's
  // current chunk reaches a terminal outcome.
  void set_on_chunk_done(std::function<void(uint64_t chunk, bool ok)> cb) {
    on_chunk_done_ = std::move(cb);
  }
  // Replication coupling: the group committed `chunk`; issue the next one.
  void ReleaseChunk(uint64_t chunk);

  // Stop issuing new requests (a replica's chunk failed terminally, or the
  // run is winding down). Already-issued requests still run to terminal.
  void AbortRemaining() { degraded_ = true; }

  // All issued requests terminal AND nothing left to issue.
  bool Done() const;

  // Force every still-pending request to kAborted and cancel timers. Main
  // thread, after the engine has drained. Counts forced_terminal.
  void ForceFinish();

  const AppStats& stats() const { return stats_; }

 private:
  struct Request {
    uint64_t id = 0;
    uint64_t chunk = 0;  // bulk/replication chunk index
    uint32_t attempt = 0;
    TimeNs issue_time = 0;
    TimeNs deadline_abs = 0;
    RequestOutcome outcome = RequestOutcome::kPending;
    TimerId timer = kInvalidTimerId;
  };

  bool sequential() const {
    return options_.kind == AppWorkloadKind::kBulkTransfer ||
           options_.kind == AppWorkloadKind::kReplication;
  }
  uint64_t MakeRequestId(uint64_t index) const {
    return (static_cast<uint64_t>(session_) << 32) | index;
  }
  // Correct protocol: one token per logical request, reused verbatim by
  // every retry so the server's dedup table recognizes duplicates. The
  // planted bug derives the token from the attempt number instead.
  uint64_t MakeToken(uint64_t request_id, uint32_t attempt) const {
    return (request_id << 8) | (options_.plant_stale_token ? attempt : 1u);
  }

  void Issue(uint64_t index);
  void Attempt(Request* req);
  void OnAttemptTimeout(uint64_t request_id);
  void Terminal(Request* req, RequestOutcome outcome);
  void Trace(int code, const Request& req);

  EventLoop* loop_;
  AppWorkloadOptions options_;
  uint32_t session_;
  FrameChannel* out_;
  AppIntegrityAuditor* auditor_;
  FlightRecorder* recorder_;
  Rng rng_;
  std::function<void(uint64_t, bool)> on_chunk_done_;
  std::map<uint64_t, Request> requests_;  // by request_id
  uint64_t total_to_issue_ = 0;
  uint64_t issued_count_ = 0;
  bool degraded_ = false;  // a chunk failed: remaining chunks abort unissued
  AppStats stats_;
};

}  // namespace juggler

#endif  // JUGGLER_SRC_WORKLOAD_APP_RESILIENCE_H_
