// Application resilience layer unit tests (ctest label: "app").
//
// These drive the client/server/auditor state machines without a network:
// FrameChannel accepts a null TCP sender, so the tests play the wire by
// feeding OnDeliverTotal by hand — delivery timing (and therefore timeouts,
// retries, and duplicates) is exactly what each test scripts.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "src/sim/event_loop.h"
#include "src/util/rng.h"
#include "src/workload/app_resilience.h"
#include "src/workload/frame_channel.h"

namespace juggler {
namespace {

// Re-delivers everything sent on `ch` every `period`, until `until`. All
// frames on a channel are `bytes_per_frame` long in these tests, so the
// cumulative total is frames_sent * size.
void ArmPump(EventLoop* loop, FrameChannel* ch, uint64_t bytes_per_frame, TimeNs period,
             TimeNs until) {
  if (loop->now() + period > until) {
    return;
  }
  loop->Schedule(period, [loop, ch, bytes_per_frame, period, until] {
    ch->OnDeliverTotal(ch->frames_sent() * bytes_per_frame);
    ArmPump(loop, ch, bytes_per_frame, period, until);
  });
}

TEST(FrameChannelTest, PopsHeadersInSendOrderAsDeliveryTotalSweeps) {
  FrameChannel ch(nullptr);
  std::vector<FrameHeader> got;
  ch.set_on_frame([&](const FrameHeader& h) { got.push_back(h); });

  FrameHeader h;
  h.request_id = 1;
  ch.SendFrame(100, h);
  h.request_id = 2;
  ch.SendFrame(1, h);
  h.request_id = 3;
  ch.SendFrame(50, h);
  EXPECT_EQ(ch.frames_sent(), 3u);

  ch.OnDeliverTotal(99);  // frame 1 not fully in order yet
  EXPECT_TRUE(got.empty());
  ch.OnDeliverTotal(100);
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0].request_id, 1u);
  EXPECT_EQ(got[0].bytes, 100u);
  ch.OnDeliverTotal(101);  // the 1-byte frame
  ASSERT_EQ(got.size(), 2u);
  EXPECT_EQ(got[1].request_id, 2u);
  ch.OnDeliverTotal(151);
  ASSERT_EQ(got.size(), 3u);
  EXPECT_EQ(got[2].request_id, 3u);
  EXPECT_EQ(ch.frames_delivered(), 3u);

  ch.OnDeliverTotal(151);  // idempotent: no double pops
  EXPECT_EQ(got.size(), 3u);
}

// Chunked delivery, shaped like a partial-receive transport test: a seeded
// stream of 1-3000 B frames is swept by delivery totals in 128-512 B steps
// for its first half and byte by byte after that, with some totals
// delivered twice. Each header must pop exactly once, in send order, at the
// step that covers its last byte.
TEST(FrameChannelTest, ChunkedDeliveryPopsEachHeaderOnceAtItsLastByte) {
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    Rng rng(seed);
    FrameChannel ch(nullptr);
    std::vector<uint64_t> popped;
    ch.set_on_frame([&](const FrameHeader& h) { popped.push_back(h.request_id); });
    std::vector<uint64_t> ends;  // stream offset one past each frame's last byte
    uint64_t total = 0;
    const uint64_t frames = 50 + rng.NextBounded(51);
    for (uint64_t i = 0; i < frames; ++i) {
      const uint64_t bytes = static_cast<uint64_t>(rng.NextInRange(1, 3000));
      FrameHeader h;
      h.request_id = i;
      ch.SendFrame(bytes, h);
      total += bytes;
      ends.push_back(total);
    }
    uint64_t delivered = 0;
    size_t covered = 0;  // frames whose last byte the current total covers
    while (delivered < total) {
      const uint64_t step =
          delivered < total / 2 ? static_cast<uint64_t>(rng.NextInRange(128, 512)) : 1;
      delivered = std::min(total, delivered + step);
      const int repeats = rng.NextBool(0.25) ? 2 : 1;
      for (int r = 0; r < repeats; ++r) {
        ch.OnDeliverTotal(delivered);
      }
      while (covered < ends.size() && ends[covered] <= delivered) {
        ++covered;
      }
      ASSERT_EQ(popped.size(), covered) << "seed " << seed << " at total " << delivered;
    }
    ASSERT_EQ(popped.size(), frames) << "seed " << seed;
    for (uint64_t i = 0; i < frames; ++i) {
      ASSERT_EQ(popped[i], i) << "seed " << seed << ": headers must pop in send order";
    }
    EXPECT_EQ(ch.frames_delivered(), frames);
  }
}

AppWorkloadOptions RpcOptions() {
  AppWorkloadOptions opt;
  opt.kind = AppWorkloadKind::kRpc;
  opt.sessions = 1;
  opt.requests_per_session = 5;
  opt.request_bytes = 100;
  opt.response_bytes = 200;
  opt.issue_interval = Ms(1);
  return opt;
}

TEST(AppClientSessionTest, PromptResponsesCompleteEveryRequestWithoutRetries) {
  EventLoop loop;
  AppWorkloadOptions opt = RpcOptions();
  AppIntegrityAuditor auditor("test");
  FrameChannel c2s(nullptr);
  AppClientSession client(&loop, opt, 0, &c2s, &auditor, nullptr, 42);
  // A server that executes and answers instantly at delivery time.
  c2s.set_on_frame([&](const FrameHeader& h) {
    auditor.OnExecute(h.token);
    FrameHeader reply = h;
    reply.kind = FrameKind::kResponse;
    client.OnResponseFrame(reply);
  });
  ArmPump(&loop, &c2s, opt.request_bytes, Us(200), Ms(100));

  client.Start();
  loop.RunUntil(Ms(100));

  EXPECT_TRUE(client.Done());
  EXPECT_EQ(client.stats().issued, 5u);
  EXPECT_EQ(client.stats().ok, 5u);
  EXPECT_EQ(client.stats().retries, 0u);
  EXPECT_EQ(client.stats().forced_terminal, 0u);
  AuditLog log;
  EXPECT_TRUE(auditor.FinalCheck(&log));
  EXPECT_TRUE(log.clean());
}

// The central correctness property: a retry re-sends the SAME idempotency
// token, the server executes once and suppresses the duplicate, and the
// client treats the second response gracefully.
TEST(AppProtocolTest, SlowDeliveryRetriesAreDeduplicatedByToken) {
  EventLoop loop;
  AppWorkloadOptions opt = RpcOptions();
  opt.requests_per_session = 3;
  opt.retry.attempt_timeout = Ms(2);
  opt.retry.backoff_base = Us(100);
  opt.retry.backoff_max = Us(400);
  opt.retry.jitter_pct = 0;
  AppIntegrityAuditor auditor("test");
  FrameChannel c2s(nullptr);
  FrameChannel s2c(nullptr);
  AppServer server(opt, &c2s, &s2c, &auditor, nullptr, loop.now_ptr());
  AppClientSession client(&loop, opt, 0, &c2s, &auditor, nullptr, 7);
  s2c.set_on_frame([&](const FrameHeader& h) { client.OnResponseFrame(h); });
  // Requests take 5ms to arrive — past the 2ms attempt timeout, so every
  // request is retried at least once before the server ever sees it, and
  // then BOTH copies arrive.
  ArmPump(&loop, &c2s, opt.request_bytes, Ms(5), Ms(200));
  ArmPump(&loop, &s2c, opt.response_bytes, Ms(5), Ms(200));

  client.Start();
  loop.RunUntil(Ms(200));

  EXPECT_TRUE(client.Done());
  EXPECT_EQ(client.stats().issued, 3u);
  EXPECT_EQ(client.stats().ok, 3u);
  EXPECT_GE(client.stats().retries, 3u);  // every request timed out its 1st attempt
  EXPECT_EQ(server.stats().executions, 3u);
  EXPECT_GE(server.stats().duplicates_suppressed, 3u);
  EXPECT_GE(client.stats().duplicate_responses, 1u);
  AuditLog log;
  EXPECT_TRUE(auditor.FinalCheck(&log)) << (log.messages().empty() ? "" : log.messages().front());
  EXPECT_TRUE(log.clean());
}

// The planted bug: rotating the token per attempt makes the dedup table
// blind, the server executes the same logical request twice, and the
// auditor must say so.
TEST(AppProtocolTest, StaleTokenPlantProducesDuplicateExecutionViolation) {
  EventLoop loop;
  AppWorkloadOptions opt = RpcOptions();
  opt.requests_per_session = 3;
  opt.retry.attempt_timeout = Ms(2);
  opt.retry.backoff_base = Us(100);
  opt.retry.backoff_max = Us(400);
  opt.retry.jitter_pct = 0;
  opt.plant_stale_token = true;
  AppIntegrityAuditor auditor("test");
  FrameChannel c2s(nullptr);
  FrameChannel s2c(nullptr);
  AppServer server(opt, &c2s, &s2c, &auditor, nullptr, loop.now_ptr());
  AppClientSession client(&loop, opt, 0, &c2s, &auditor, nullptr, 7);
  s2c.set_on_frame([&](const FrameHeader& h) { client.OnResponseFrame(h); });
  ArmPump(&loop, &c2s, opt.request_bytes, Ms(5), Ms(200));
  ArmPump(&loop, &s2c, opt.response_bytes, Ms(5), Ms(200));

  client.Start();
  loop.RunUntil(Ms(200));

  EXPECT_TRUE(client.Done());
  EXPECT_EQ(server.stats().duplicates_suppressed, 0u);  // dedup never fires
  EXPECT_GT(server.stats().executions, client.stats().issued);
  AuditLog log;
  EXPECT_FALSE(auditor.FinalCheck(&log));
  ASSERT_FALSE(log.messages().empty());
  bool found = false;
  for (const auto& m : log.messages()) {
    if (m.find("duplicate execution") != std::string::npos) {
      found = true;
    }
  }
  EXPECT_TRUE(found) << log.messages().front();
}

TEST(AppClientSessionTest, NoServerExhaustsRetryBudgetThenAborts) {
  EventLoop loop;
  AppWorkloadOptions opt = RpcOptions();
  opt.requests_per_session = 2;
  opt.retry.attempt_timeout = Ms(2);
  opt.retry.max_attempts = 3;
  opt.retry.deadline = Ms(100);
  AppIntegrityAuditor auditor("test");
  FrameChannel c2s(nullptr);
  AppClientSession client(&loop, opt, 0, &c2s, &auditor, nullptr, 9);
  client.Start();
  loop.RunUntil(Ms(200));

  EXPECT_TRUE(client.Done());
  EXPECT_EQ(client.stats().aborted, 2u);
  EXPECT_EQ(client.stats().timeouts, 0u);
  EXPECT_EQ(client.stats().attempts, 6u);  // 3 per request, then explicit Aborted
  AuditLog log;
  EXPECT_TRUE(auditor.FinalCheck(&log));  // graceful failure is not a violation
}

TEST(AppClientSessionTest, NoServerDeadlineProducesExplicitTimeout) {
  EventLoop loop;
  AppWorkloadOptions opt = RpcOptions();
  opt.requests_per_session = 2;
  opt.retry.attempt_timeout = Ms(2);
  opt.retry.max_attempts = 1000;  // budget never binds; the deadline does
  opt.retry.deadline = Ms(20);
  AppIntegrityAuditor auditor("test");
  FrameChannel c2s(nullptr);
  AppClientSession client(&loop, opt, 0, &c2s, &auditor, nullptr, 9);
  client.Start();
  loop.RunUntil(Ms(100));

  EXPECT_TRUE(client.Done());
  EXPECT_EQ(client.stats().timeouts, 2u);
  EXPECT_EQ(client.stats().aborted, 0u);
  AuditLog log;
  EXPECT_TRUE(auditor.FinalCheck(&log));
}

TEST(AppClientSessionTest, SameSeedIsDeterministicUnderJitteredBackoff) {
  AppStats runs[2];
  uint64_t events[2];
  for (int i = 0; i < 2; ++i) {
    EventLoop loop;
    AppWorkloadOptions opt = RpcOptions();
    opt.retry.attempt_timeout = Ms(1);
    opt.retry.max_attempts = 6;
    opt.retry.jitter_pct = 50;
    AppIntegrityAuditor auditor("test");
    FrameChannel c2s(nullptr);
    AppClientSession client(&loop, opt, 0, &c2s, &auditor, nullptr, 1234);
    client.Start();
    loop.RunUntil(Ms(400));
    EXPECT_TRUE(client.Done());
    runs[i] = client.stats();
    events[i] = loop.executed_events();
  }
  EXPECT_EQ(events[0], events[1]);
  EXPECT_EQ(runs[0].issued, runs[1].issued);
  EXPECT_EQ(runs[0].attempts, runs[1].attempts);
  EXPECT_EQ(runs[0].retries, runs[1].retries);
  EXPECT_EQ(runs[0].aborted, runs[1].aborted);
  EXPECT_EQ(runs[0].timeouts, runs[1].timeouts);
}

TEST(AppClientSessionTest, ForceFinishLeavesNothingPending) {
  EventLoop loop;
  AppWorkloadOptions opt = RpcOptions();
  AppIntegrityAuditor auditor("test");
  FrameChannel c2s(nullptr);
  AppClientSession client(&loop, opt, 0, &c2s, &auditor, nullptr, 3);
  client.Start();
  loop.RunUntil(Ms(3));  // a few requests issued, none answered
  EXPECT_FALSE(client.Done());

  client.ForceFinish();
  EXPECT_TRUE(client.Done());
  EXPECT_GT(client.stats().forced_terminal, 0u);
  EXPECT_EQ(client.stats().forced_terminal, client.stats().aborted);
  AuditLog log;
  EXPECT_TRUE(auditor.FinalCheck(&log));  // forced outcomes are terminal
}

TEST(AppIntegrityAuditorTest, FlagsHungRequestsAndUnknownTokens) {
  {
    AppIntegrityAuditor auditor("hung");
    auditor.OnIssue(1);
    auditor.OnAttempt(1, 0x101);
    AuditLog log;
    EXPECT_FALSE(auditor.FinalCheck(&log));
    ASSERT_FALSE(log.messages().empty());
    EXPECT_NE(log.messages().front().find("hung"), std::string::npos);
  }
  {
    AppIntegrityAuditor auditor("unknown");
    auditor.OnExecute(0xdead);
    AuditLog log;
    EXPECT_FALSE(auditor.FinalCheck(&log));
    ASSERT_FALSE(log.messages().empty());
    EXPECT_NE(log.messages().front().find("no client"), std::string::npos);
  }
}

AppWorkloadOptions BulkOptions() {
  AppWorkloadOptions opt;
  opt.kind = AppWorkloadKind::kBulkTransfer;
  opt.sessions = 1;
  opt.chunk_bytes = 1000;
  opt.transfer_bytes_per_session = 4000;  // 4 chunks
  opt.retry.attempt_timeout = Ms(2);
  opt.retry.max_attempts = 3;
  return opt;
}

TEST(AppClientSessionTest, BulkTransferIssuesChunksSequentially) {
  EventLoop loop;
  AppWorkloadOptions opt = BulkOptions();
  AppIntegrityAuditor auditor("bulk");
  FrameChannel c2s(nullptr);
  AppClientSession client(&loop, opt, 0, &c2s, &auditor, nullptr, 5);
  std::vector<uint64_t> chunk_order;
  c2s.set_on_frame([&](const FrameHeader& h) {
    chunk_order.push_back(h.arg);
    auditor.OnExecute(h.token);
    FrameHeader reply = h;
    reply.kind = FrameKind::kChunkAck;
    client.OnResponseFrame(reply);
  });
  ArmPump(&loop, &c2s, opt.chunk_bytes, Us(500), Ms(100));

  client.Start();
  loop.RunUntil(Ms(100));

  EXPECT_TRUE(client.Done());
  EXPECT_EQ(client.stats().issued, 4u);
  EXPECT_EQ(client.stats().ok, 4u);
  ASSERT_EQ(chunk_order.size(), 4u);
  for (uint64_t i = 0; i < 4; ++i) {
    EXPECT_EQ(chunk_order[i], i);  // strictly resumable: next only after ack
  }
}

TEST(AppClientSessionTest, BulkTransferDegradesGracefullyWhenAChunkDies) {
  EventLoop loop;
  AppWorkloadOptions opt = BulkOptions();
  AppIntegrityAuditor auditor("bulk");
  FrameChannel c2s(nullptr);
  AppClientSession client(&loop, opt, 0, &c2s, &auditor, nullptr, 5);
  // Dead server: chunk 0 exhausts its budget; chunks 1..3 are never issued.
  client.Start();
  loop.RunUntil(Ms(200));

  EXPECT_TRUE(client.Done());
  EXPECT_EQ(client.stats().issued, 1u);
  EXPECT_EQ(client.stats().aborted, 1u);
  EXPECT_EQ(client.stats().ok, 0u);
  AuditLog log;
  EXPECT_TRUE(auditor.FinalCheck(&log));
}

// Replication commit barrier, driven by hand the way AppHarness drives it:
// a chunk advances only when every replica acked it; one replica failing
// aborts the remainder on all of them.
TEST(AppClientSessionTest, ReplicationChunkAdvancesOnlyOnGroupCommit) {
  EventLoop loop;
  AppWorkloadOptions opt = BulkOptions();
  opt.kind = AppWorkloadKind::kReplication;
  opt.sessions = 2;
  AppIntegrityAuditor auditor("repl");
  FrameChannel out0(nullptr);
  FrameChannel out1(nullptr);
  AppClientSession s0(&loop, opt, 0, &out0, &auditor, nullptr, 11);
  AppClientSession s1(&loop, opt, 1, &out1, &auditor, nullptr, 11);
  std::vector<AppClientSession*> group = {&s0, &s1};
  std::map<uint64_t, uint32_t> acks;
  auto on_done = [&](uint64_t chunk, bool ok) {
    if (!ok) {
      for (auto* s : group) s->AbortRemaining();
      return;
    }
    if (++acks[chunk] == group.size()) {
      for (auto* s : group) s->ReleaseChunk(chunk);
    }
  };
  s0.set_on_chunk_done(on_done);
  s1.set_on_chunk_done(on_done);
  // Replica 0 acks instantly; replica 1 acks on delivery (pumped): the
  // barrier must hold replica 0 at each chunk until replica 1 catches up.
  auto serve = [&](AppClientSession* c, const FrameHeader& h) {
    auditor.OnExecute(h.token);
    FrameHeader reply = h;
    reply.kind = FrameKind::kChunkAck;
    c->OnResponseFrame(reply);
  };
  out0.set_on_frame([&](const FrameHeader& h) { serve(&s0, h); });
  out1.set_on_frame([&](const FrameHeader& h) { serve(&s1, h); });
  ArmPump(&loop, &out0, opt.chunk_bytes, Us(100), Ms(100));
  ArmPump(&loop, &out1, opt.chunk_bytes, Us(700), Ms(100));

  s0.Start();
  s1.Start();
  loop.RunUntil(Ms(100));

  EXPECT_TRUE(s0.Done());
  EXPECT_TRUE(s1.Done());
  EXPECT_EQ(s0.stats().ok, 4u);
  EXPECT_EQ(s1.stats().ok, 4u);
  AuditLog log;
  EXPECT_TRUE(auditor.FinalCheck(&log));
}

TEST(AppClientSessionTest, ReplicationFailureAbortsTheWholeGroup) {
  EventLoop loop;
  AppWorkloadOptions opt = BulkOptions();
  opt.kind = AppWorkloadKind::kReplication;
  opt.sessions = 2;
  AppIntegrityAuditor auditor("repl");
  FrameChannel out0(nullptr);
  FrameChannel out1(nullptr);
  AppClientSession s0(&loop, opt, 0, &out0, &auditor, nullptr, 11);
  AppClientSession s1(&loop, opt, 1, &out1, &auditor, nullptr, 11);
  std::vector<AppClientSession*> group = {&s0, &s1};
  std::map<uint64_t, uint32_t> acks;
  auto on_done = [&](uint64_t chunk, bool ok) {
    if (!ok) {
      for (auto* s : group) s->AbortRemaining();
      return;
    }
    if (++acks[chunk] == group.size()) {
      for (auto* s : group) s->ReleaseChunk(chunk);
    }
  };
  s0.set_on_chunk_done(on_done);
  s1.set_on_chunk_done(on_done);
  // Replica 0 is served; replica 1's server is dead.
  out0.set_on_frame([&](const FrameHeader& h) {
    auditor.OnExecute(h.token);
    FrameHeader reply = h;
    reply.kind = FrameKind::kChunkAck;
    s0.OnResponseFrame(reply);
  });
  ArmPump(&loop, &out0, opt.chunk_bytes, Us(100), Ms(200));

  s0.Start();
  s1.Start();
  loop.RunUntil(Ms(200));

  EXPECT_TRUE(s0.Done());
  EXPECT_TRUE(s1.Done());
  EXPECT_EQ(s1.stats().aborted, 1u);   // chunk 0 died on the dead replica
  EXPECT_LE(s0.stats().issued, 2u);    // group degraded: no runaway issuance
  AuditLog log;
  EXPECT_TRUE(auditor.FinalCheck(&log));
}

}  // namespace
}  // namespace juggler
