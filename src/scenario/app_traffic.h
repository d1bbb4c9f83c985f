// AppHarness: application-layer traffic mixes over a chaos testbed.
//
// Builds K connections between the testbed's two hosts and runs one of the
// app_resilience workloads over them:
//
//   rpc          — clients on host B issue open-loop requests; the (large)
//                  responses traverse the faulted/reordered A->B path that
//                  carries the GRO engine under test.
//   incast       — as rpc, but every session fires its wave at the same
//                  instant, so K responses fan in at B simultaneously.
//   bulk-transfer— clients on host A push chunked transfers A->B (the
//                  faulted path) with application-level acks riding back.
//   replication  — bulk chunks on K replica sessions; a chunk commits (and
//                  the next one is issued) only when EVERY replica acked it.
//
// Each direction of each connection gets a StreamIntegrityChecker (byte
// oracle) and the whole run shares one AppIntegrityAuditor (request
// oracle). Checkers that run on host A's shard domain write to a private
// AuditLog merged into the shared one after the workers join, so no checker
// ever races the B-side JugglerAuditor on the shared log.

#ifndef JUGGLER_SRC_SCENARIO_APP_TRAFFIC_H_
#define JUGGLER_SRC_SCENARIO_APP_TRAFFIC_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/fault/stream_integrity.h"
#include "src/scenario/host.h"
#include "src/workload/app_resilience.h"

namespace juggler {

struct AppHarnessWiring {
  Host* a = nullptr;                // testbed sender host (fault path source)
  Host* b = nullptr;                // testbed receiver host (GRO under test)
  EventLoop* a_loop = nullptr;
  EventLoop* b_loop = nullptr;
  FlightRecorder* a_rec = nullptr;  // may be null (tracing off)
  FlightRecorder* b_rec = nullptr;
  AuditLog* log = nullptr;          // shared log (B-side + main thread)
  std::string name;                 // checker prefix, e.g. the engine name
};

class AppHarness {
 public:
  AppHarness(const AppWorkloadOptions& options, const AppHarnessWiring& wiring, uint64_t seed);

  // Schedules every session's issue timeline. Call once before running.
  void Start();

  // All sessions have issued everything they ever will and every issued
  // request is terminal. Safe from the driving thread between engine
  // windows (the workers are quiesced there).
  bool Done() const;

  // After the engine has drained: force still-pending requests to Aborted
  // (counted as forced_terminal — the "hung requests" signal), run the
  // auditor and per-connection integrity finals, and merge the A-side log.
  void Finish();

  // First connection, for the digest's TCP counter mixing.
  const EndpointPair& primary() const { return conns_.front()->pair; }

  AppStats client_totals() const;
  AppStats server_totals() const;
  // client + server merged: the digest source.
  AppStats totals() const;
  uint64_t frames_delivered() const;

  // App counters plus one per-connection TCP snapshot ("conn0/a_to_b", ...).
  void PublishMetrics(MetricsRegistry* registry) const;

 private:
  struct Conn {
    EndpointPair pair;
    std::unique_ptr<FrameChannel> c2s;  // client -> server (requests/chunks)
    std::unique_ptr<FrameChannel> s2c;  // server -> client (responses/acks)
    std::unique_ptr<StreamIntegrityChecker> check_at_a;  // B->A stream oracle
    std::unique_ptr<StreamIntegrityChecker> check_at_b;  // A->B stream oracle
    std::unique_ptr<AppServer> server;
    std::unique_ptr<AppClientSession> client;
  };

  bool client_on_b() const {
    return opt_.kind == AppWorkloadKind::kRpc || opt_.kind == AppWorkloadKind::kIncast;
  }
  void OnReplicationChunkDone(uint64_t chunk, bool ok);

  AppWorkloadOptions opt_;
  AppHarnessWiring w_;
  AppIntegrityAuditor auditor_;
  AuditLog a_side_log_;
  std::vector<std::unique_ptr<Conn>> conns_;
  // Replication commit tracking; touched only on the client host's thread.
  std::map<uint64_t, uint32_t> chunk_acks_;
  bool finished_ = false;
};

}  // namespace juggler

#endif  // JUGGLER_SRC_SCENARIO_APP_TRAFFIC_H_
