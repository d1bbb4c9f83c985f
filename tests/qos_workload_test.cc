// Unit tests for the QoS controller's control law and the workload
// generators, using a stub connection (no network).

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "src/qos/priority_controller.h"
#include "src/util/rng.h"
#include "src/workload/message_stream.h"
#include "src/workload/rpc_generator.h"
#include "tests/test_util.h"

namespace juggler {
namespace {

// A NicTx wired to a black hole, so endpoints can exist without a network.
struct NullWire : PacketSink {
  void Accept(PacketPtr) override {}
};

struct StubConnection {
  StubConnection() : nic(&loop, &factory, &wire) {
    endpoint = std::make_unique<TcpEndpoint>(&loop, TcpConfig{}, TestFlow(), &nic);
  }
  EventLoop loop;
  PacketFactory factory;
  NullWire wire;
  NicTx nic;
  std::unique_ptr<TcpEndpoint> endpoint;
};

TEST(PriorityControllerTest, PRisesWhenBelowTarget) {
  StubConnection c;
  PriorityControllerConfig cfg;
  cfg.target_rate_bps = 20 * kGbps;
  cfg.line_rate_bps = 40 * kGbps;
  cfg.alpha = 0.1;
  PriorityController controller(&c.loop, cfg, c.endpoint.get());
  controller.Start();
  // No ACKs arrive -> measured rate 0 -> p += alpha * 0.5 each period.
  c.loop.RunUntil(5 * PriorityController::kUpdatePeriod + Us(1));
  EXPECT_NEAR(controller.p(), 5 * 0.1 * 0.5, 1e-9);
}

TEST(PriorityControllerTest, PClampedToOne) {
  StubConnection c;
  PriorityControllerConfig cfg;
  cfg.target_rate_bps = 40 * kGbps;
  cfg.line_rate_bps = 40 * kGbps;
  cfg.alpha = 1.0;
  PriorityController controller(&c.loop, cfg, c.endpoint.get());
  controller.Start();
  c.loop.RunUntil(Ms(10));
  EXPECT_DOUBLE_EQ(controller.p(), 1.0);
}

TEST(PriorityControllerTest, MarkerFrequencyTracksP) {
  StubConnection c;
  PriorityControllerConfig cfg;
  cfg.target_rate_bps = 20 * kGbps;
  cfg.line_rate_bps = 40 * kGbps;
  cfg.alpha = 1.0;  // p jumps to 0.5 after one period
  PriorityController controller(&c.loop, cfg, c.endpoint.get());
  controller.Start();
  c.loop.RunUntil(PriorityController::kUpdatePeriod + Us(1));
  EXPECT_NEAR(controller.p(), 0.5, 1e-9);
  // The marking frequency itself is validated statistically end-to-end in
  // the dumbbell integration test.
}

TEST(PriorityControllerTest, StopHaltsUpdates) {
  StubConnection c;
  PriorityControllerConfig cfg;
  PriorityController controller(&c.loop, cfg, c.endpoint.get());
  controller.Start();
  c.loop.RunUntil(2 * PriorityController::kUpdatePeriod + Us(1));
  const double p = controller.p();
  controller.Stop();
  c.loop.RunUntil(Ms(10));
  EXPECT_DOUBLE_EQ(controller.p(), p);
}

TEST(MessageStreamTest, CompletionRequiresAllBytes) {
  StubConnection c;
  PercentileSampler lat;
  // Sender and receiver are the same endpoint here: we drive delivery by
  // calling the receiver's deliver callback through OnSegment data.
  StubConnection peer;
  MessageStream stream(&c.loop, c.endpoint.get(), peer.endpoint.get(), &lat);
  stream.SendMessage(10'000);
  EXPECT_EQ(stream.sent(), 1u);
  EXPECT_EQ(stream.completed(), 0u);
  // Feed the peer endpoint the full 10KB in-order.
  Segment s;
  s.flow = TestFlow();
  s.seq = 0;
  s.payload_len = 10'000;
  s.mtu_count = 7;
  s.flags = kFlagAck;
  peer.endpoint->OnSegment(s);
  EXPECT_EQ(stream.completed(), 1u);
  EXPECT_EQ(stream.outstanding(), 0u);
  EXPECT_EQ(lat.count(), 1u);
}

TEST(MessageStreamTest, PartialDeliveryDoesNotComplete) {
  StubConnection c;
  StubConnection peer;
  PercentileSampler lat;
  MessageStream stream(&c.loop, c.endpoint.get(), peer.endpoint.get(), &lat);
  stream.SendMessage(10'000);
  Segment s;
  s.flow = TestFlow();
  s.seq = 0;
  s.payload_len = 5'000;
  s.mtu_count = 4;
  s.flags = kFlagAck;
  peer.endpoint->OnSegment(s);
  EXPECT_EQ(stream.completed(), 0u);
  s.seq = 5'000;
  peer.endpoint->OnSegment(s);
  EXPECT_EQ(stream.completed(), 1u);
}

TEST(MessageStreamTest, BackToBackMessagesCompleteInOrder) {
  StubConnection c;
  StubConnection peer;
  PercentileSampler lat;
  MessageStream stream(&c.loop, c.endpoint.get(), peer.endpoint.get(), &lat);
  for (int i = 0; i < 3; ++i) {
    stream.SendMessage(1000);
  }
  Segment s;
  s.flow = TestFlow();
  s.seq = 0;
  s.payload_len = 2'500;  // 2.5 messages
  s.mtu_count = 2;
  s.flags = kFlagAck;
  peer.endpoint->OnSegment(s);
  EXPECT_EQ(stream.completed(), 2u);
  EXPECT_EQ(stream.outstanding(), 1u);
}

// A zero-length message occupies no extent in the byte stream, so no
// delivery callback can ever sweep past it: it must complete on the spot,
// without perturbing the completion order of real messages around it.
TEST(MessageStreamTest, ZeroLengthMessageCompletesImmediately) {
  StubConnection c;
  StubConnection peer;
  PercentileSampler lat;
  MessageStream stream(&c.loop, c.endpoint.get(), peer.endpoint.get(), &lat);
  stream.SendMessage(1'000);
  stream.SendMessage(0);
  EXPECT_EQ(stream.sent(), 2u);
  EXPECT_EQ(stream.completed(), 1u);  // the empty one, instantly
  EXPECT_EQ(lat.count(), 1u);
  Segment s;
  s.flow = TestFlow();
  s.seq = 0;
  s.payload_len = 1'000;
  s.mtu_count = 1;
  s.flags = kFlagAck;
  peer.endpoint->OnSegment(s);
  EXPECT_EQ(stream.completed(), 2u);
  EXPECT_EQ(stream.outstanding(), 0u);
}

// A message boundary split across two GRO flushes arriving in reverse
// order: the second half lands first (out of order, no in-order progress),
// then the first half arrives and one delivery callback sweeps the whole
// message. Completion must fire exactly once, at the sweep.
TEST(MessageStreamTest, BoundarySplitAcrossReorderedFlushes) {
  StubConnection c;
  StubConnection peer;
  PercentileSampler lat;
  MessageStream stream(&c.loop, c.endpoint.get(), peer.endpoint.get(), &lat);
  stream.SendMessage(10'000);
  Segment tail;
  tail.flow = TestFlow();
  tail.seq = 5'000;  // second half first: buffered out of order
  tail.payload_len = 5'000;
  tail.mtu_count = 4;
  tail.flags = kFlagAck;
  peer.endpoint->OnSegment(tail);
  EXPECT_EQ(stream.completed(), 0u);
  Segment head = tail;
  head.seq = 0;  // fills the gap; in-order point jumps to 10'000
  peer.endpoint->OnSegment(head);
  EXPECT_EQ(stream.completed(), 1u);
  EXPECT_EQ(lat.count(), 1u);
}

// After Close() the application is gone: retransmissions still draining
// out of the network must not complete messages, only be counted, and
// further sends are dropped.
TEST(MessageStreamTest, DeliveryAfterCloseIsLateNotCompleted) {
  StubConnection c;
  StubConnection peer;
  PercentileSampler lat;
  MessageStream stream(&c.loop, c.endpoint.get(), peer.endpoint.get(), &lat);
  stream.SendMessage(2'000);
  stream.Close();
  EXPECT_TRUE(stream.closed());
  stream.SendMessage(3'000);  // dropped, not queued
  EXPECT_EQ(stream.sent(), 1u);
  Segment s;
  s.flow = TestFlow();
  s.seq = 0;
  s.payload_len = 2'000;
  s.mtu_count = 2;
  s.flags = kFlagAck;
  peer.endpoint->OnSegment(s);
  EXPECT_EQ(stream.completed(), 0u);
  EXPECT_GE(stream.late_deliveries(), 1u);
  EXPECT_EQ(lat.count(), 0u);
}

// Sends `sizes` as messages, delivers `segments` (payload lengths) to the
// peer endpoint in order, and returns how many messages completed.
uint64_t CompletedAfterDelivery(const std::vector<uint64_t>& sizes,
                                const std::vector<uint32_t>& segments) {
  StubConnection c;
  StubConnection peer;
  PercentileSampler lat;
  MessageStream stream(&c.loop, c.endpoint.get(), peer.endpoint.get(), &lat);
  for (uint64_t bytes : sizes) {
    stream.SendMessage(bytes);
  }
  Segment s;
  s.flow = TestFlow();
  s.flags = kFlagAck;
  for (uint32_t len : segments) {
    s.payload_len = len;
    s.mtu_count = (len + kMss - 1) / kMss;
    peer.endpoint->OnSegment(s);
    s.seq += len;
  }
  EXPECT_EQ(lat.count(), stream.completed()) << "one latency sample per completion";
  return stream.completed();
}

// Chunked delivery, shaped like a partial-receive transport test: a seeded
// stream of 0-3000 B messages, delivered whole (odd seeds) or cut at a
// seeded point (even seeds) as in-order segments of 128-512 B, must
// complete exactly the messages that one whole delivery of the same bytes
// completes: the empty ones and those whose last byte arrived.
TEST(MessageStreamTest, ChunkedDeliveryCompletesWhatWholeDeliveryDoes) {
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    Rng rng(seed);
    std::vector<uint64_t> sizes(50 + rng.NextBounded(51));
    uint64_t total = 0;
    for (uint64_t& bytes : sizes) {
      bytes = static_cast<uint64_t>(rng.NextInRange(0, 3000));
      total += bytes;
    }
    const uint64_t cut = seed % 2 == 0 ? 1 + rng.NextBounded(std::min<uint64_t>(total, 3000)) : 0;
    const uint64_t delivered = total - cut;
    uint64_t expected = 0;
    uint64_t end = 0;
    for (uint64_t bytes : sizes) {
      end += bytes;
      expected += (bytes == 0 || end <= delivered) ? 1 : 0;
    }
    std::vector<uint32_t> chunks;
    for (uint64_t sent = 0; sent < delivered;) {
      const uint64_t len =
          std::min(delivered - sent, static_cast<uint64_t>(rng.NextInRange(128, 512)));
      chunks.push_back(static_cast<uint32_t>(len));
      sent += len;
    }
    const uint64_t whole =
        CompletedAfterDelivery(sizes, {static_cast<uint32_t>(delivered)});
    EXPECT_EQ(whole, expected) << "seed " << seed;
    EXPECT_EQ(CompletedAfterDelivery(sizes, chunks), whole)
        << "seed " << seed << ": " << chunks.size() << " chunks of " << delivered << " B";
  }
}

TEST(RpcGeneratorTest, PoissonRateIsApproximatelyRight) {
  StubConnection c;
  StubConnection peer;
  MessageStream stream(&c.loop, c.endpoint.get(), peer.endpoint.get(), nullptr);
  RpcGeneratorConfig cfg;
  cfg.message_bytes = 150;
  cfg.messages_per_sec = 10'000;
  cfg.stop_time = Ms(100);
  cfg.seed = 3;
  OpenLoopRpcGenerator gen(&c.loop, cfg, {&stream});
  gen.Start();
  c.loop.RunUntil(Ms(100));
  // Expect ~1000 messages +- 15%.
  EXPECT_NEAR(static_cast<double>(gen.generated()), 1000.0, 150.0);
  EXPECT_EQ(stream.sent(), gen.generated());
}

TEST(RpcGeneratorTest, StopsAtStopTime) {
  StubConnection c;
  StubConnection peer;
  MessageStream stream(&c.loop, c.endpoint.get(), peer.endpoint.get(), nullptr);
  RpcGeneratorConfig cfg;
  cfg.messages_per_sec = 1000;
  cfg.stop_time = Ms(10);
  OpenLoopRpcGenerator gen(&c.loop, cfg, {&stream});
  gen.Start();
  c.loop.RunUntil(Ms(10));
  const uint64_t at_stop = gen.generated();
  EXPECT_GT(at_stop, 0u);
  c.loop.RunUntil(Ms(100));
  EXPECT_EQ(gen.generated(), at_stop);  // no arrivals past stop_time
}

TEST(RpcGeneratorTest, MultiplexesAcrossStreams) {
  StubConnection c;
  StubConnection peer;
  std::vector<std::unique_ptr<MessageStream>> streams;
  std::vector<MessageStream*> raw;
  for (int i = 0; i < 8; ++i) {
    streams.push_back(
        std::make_unique<MessageStream>(&c.loop, c.endpoint.get(), peer.endpoint.get(), nullptr));
    raw.push_back(streams.back().get());
  }
  RpcGeneratorConfig cfg;
  cfg.messages_per_sec = 50'000;
  cfg.stop_time = Ms(20);
  OpenLoopRpcGenerator gen(&c.loop, cfg, raw);
  gen.Start();
  c.loop.RunUntil(Ms(20));
  int used = 0;
  for (const auto& s : streams) {
    used += s->sent() > 0 ? 1 : 0;
  }
  EXPECT_EQ(used, 8);
}

}  // namespace
}  // namespace juggler
