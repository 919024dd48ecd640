// Tests of the serving front-end (src/serve/): frame codec + fuzzed
// decoding, admission-control shedding, resolve coalescing equivalence,
// SessionManager introspection, and an end-to-end socket round trip
// against an in-process ServeServer (binary protocol and HTTP fallback).

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <future>
#include <mutex>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "datagen/datasets.h"
#include "online/session.h"
#include "online/session_manager.h"
#include "serve/admission.h"
#include "serve/client.h"
#include "serve/server.h"
#include "serve/wire.h"

namespace savg {
namespace {

SvgicInstance RandomInstance(int n, int m, int k, double lambda,
                             uint64_t seed) {
  DatasetParams params;
  params.kind = DatasetKind::kTimik;
  params.num_users = n;
  params.num_items = m;
  params.num_slots = k;
  params.lambda = lambda;
  params.seed = seed;
  params.universe_users = 4 * n + 20;
  auto inst = GenerateDataset(params);
  EXPECT_TRUE(inst.ok()) << inst.status();
  return std::move(inst).value();
}

// --- Frame codec -----------------------------------------------------------

TEST(WireTest, FrameRoundTripByteAtATime) {
  std::string stream;
  std::string payload;
  EncodeCommand(MakePref(3, 5, 0.25), &payload);
  AppendFrame(FrameKind::kApply, 42, 7, payload, &stream);
  AppendFrame(FrameKind::kPing, 43, 0, "", &stream);
  AppendFrame(FrameKind::kStatus, 44, 0, "", &stream);

  FrameReader reader;
  std::vector<FrameHeader> headers;
  std::vector<std::string> payloads;
  for (char byte : stream) {
    reader.Feed(&byte, 1);
    for (;;) {
      FrameHeader header;
      std::string body;
      auto next = reader.Next(&header, &body);
      ASSERT_TRUE(next.ok()) << next.status();
      if (!*next) break;
      headers.push_back(header);
      payloads.push_back(body);
    }
  }
  ASSERT_EQ(headers.size(), 3u);
  EXPECT_EQ(headers[0].kind, FrameKind::kApply);
  EXPECT_EQ(headers[0].request_id, 42u);
  EXPECT_EQ(headers[0].session_id, 7u);
  EXPECT_EQ(payloads[0], payload);
  EXPECT_EQ(headers[1].kind, FrameKind::kPing);
  EXPECT_EQ(headers[2].request_id, 44u);
  EXPECT_EQ(reader.buffered_bytes(), 0u);

  size_t consumed = 0;
  auto decoded = DecodeCommand(payloads[0].data(), payloads[0].size(),
                               &consumed);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(*decoded, MakePref(3, 5, 0.25));
}

TEST(WireTest, HeaderRejectsMalformedFields) {
  std::string frame;
  AppendFrame(FrameKind::kPing, 1, 0, "", &frame);
  ASSERT_EQ(frame.size(), kFrameHeaderBytes);

  {  // Bad magic.
    std::string bad = frame;
    bad[0] = 'X';
    EXPECT_FALSE(ParseFrameHeader(bad.data(), bad.size()).ok());
  }
  {  // Unknown version.
    std::string bad = frame;
    bad[4] = 9;
    EXPECT_FALSE(ParseFrameHeader(bad.data(), bad.size()).ok());
  }
  {  // Unknown kind.
    std::string bad = frame;
    bad[5] = 77;
    EXPECT_FALSE(ParseFrameHeader(bad.data(), bad.size()).ok());
  }
  {  // Byte 6 is the flags byte now: the known flags parse...
    std::string flagged = frame;
    flagged[6] = static_cast<char>(kFrameFlagTrace | kFrameFlagVerify);
    auto header = ParseFrameHeader(flagged.data(), flagged.size());
    ASSERT_TRUE(header.ok()) << header.status();
    EXPECT_EQ(header->flags, kFrameFlagTrace | kFrameFlagVerify);
  }
  {  // ...but unknown flag bits are still rejected (forward compat).
    std::string bad = frame;
    bad[6] = 0x04;
    EXPECT_FALSE(ParseFrameHeader(bad.data(), bad.size()).ok());
  }
  {  // Nonzero reserved byte.
    std::string bad = frame;
    bad[7] = 1;
    EXPECT_FALSE(ParseFrameHeader(bad.data(), bad.size()).ok());
  }
  {  // Oversized payload length (4 GB).
    std::string bad = frame;
    bad[20] = bad[21] = bad[22] = bad[23] = static_cast<char>(0xFF);
    EXPECT_FALSE(ParseFrameHeader(bad.data(), bad.size()).ok());
  }
  // Too short to be a header at all.
  EXPECT_FALSE(ParseFrameHeader(frame.data(), 10).ok());
}

TEST(WireTest, FuzzedStreamsNeverCrashTheReader) {
  // Random corruption, truncation and garbage injection over valid frame
  // streams: the reader must always either produce frames, ask for more
  // bytes, or fail with a Status — never crash or read out of bounds
  // (the ASan CI job enforces the latter).
  std::mt19937_64 rng(99);
  std::uniform_int_distribution<int> byte(0, 255);
  std::uniform_real_distribution<double> coin(0.0, 1.0);
  for (int trial = 0; trial < 300; ++trial) {
    std::string stream;
    const int frames = 1 + trial % 4;
    for (int i = 0; i < frames; ++i) {
      std::string payload;
      if (i % 2 == 0) EncodeCommand(MakePref(1, 2, 0.5), &payload);
      AppendFrame(i % 2 == 0 ? FrameKind::kApply : FrameKind::kPing,
                  trial, i, payload, &stream);
    }
    // Corrupt ~3 random bytes, sometimes truncate, sometimes inject.
    for (int i = 0; i < 3; ++i) {
      if (coin(rng) < 0.7 && !stream.empty()) {
        stream[rng() % stream.size()] = static_cast<char>(byte(rng));
      }
    }
    if (coin(rng) < 0.3) stream.resize(rng() % (stream.size() + 1));
    if (coin(rng) < 0.3) {
      stream.insert(rng() % (stream.size() + 1), 1,
                    static_cast<char>(byte(rng)));
    }

    FrameReader reader;
    size_t offset = 0;
    bool dead = false;
    int extracted = 0;
    while (offset < stream.size() && !dead && extracted < 100) {
      const size_t chunk =
          std::min<size_t>(1 + rng() % 7, stream.size() - offset);
      reader.Feed(stream.data() + offset, chunk);
      offset += chunk;
      for (;;) {
        FrameHeader header;
        std::string body;
        auto next = reader.Next(&header, &body);
        if (!next.ok()) {
          dead = true;  // drop the connection — corrupt framing
          break;
        }
        if (!*next) break;
        ++extracted;
        EXPECT_LE(body.size(), kMaxPayloadBytes);
      }
    }
  }
}

TEST(WireTest, ApplyResultRoundTrip) {
  ApplyResult result;
  result.code = StatusCode::kResourceExhausted;
  result.message = "queue full";
  result.assigned_id = 12;
  result.resolved = true;
  result.coalesced = 3;
  result.lp_objective = 41.5;
  result.scaled_total = 39.25;
  result.resolve_seconds = 0.0125;
  result.pivots = 77;
  std::string bytes;
  EncodeApplyResult(result, &bytes);
  auto decoded = DecodeApplyResult(bytes.data(), bytes.size());
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  EXPECT_EQ(decoded->code, result.code);
  EXPECT_EQ(decoded->message, result.message);
  EXPECT_EQ(decoded->assigned_id, result.assigned_id);
  EXPECT_EQ(decoded->resolved, result.resolved);
  EXPECT_EQ(decoded->coalesced, result.coalesced);
  EXPECT_EQ(decoded->lp_objective, result.lp_objective);
  EXPECT_EQ(decoded->scaled_total, result.scaled_total);
  EXPECT_EQ(decoded->resolve_seconds, result.resolve_seconds);
  EXPECT_EQ(decoded->pivots, result.pivots);
  // Truncations fail cleanly.
  for (size_t len = 0; len < bytes.size(); ++len) {
    EXPECT_FALSE(DecodeApplyResult(bytes.data(), len).ok()) << len;
  }
}

// --- SessionManager introspection ------------------------------------------

TEST(SessionManagerTest, ListSessionsAndGetStats) {
  SessionManager manager(1);
  const int a = manager.CreateSession(RandomInstance(8, 12, 2, 0.5, 3));
  const int b = manager.CreateSession(RandomInstance(10, 14, 2, 0.5, 4));
  EXPECT_EQ(manager.ListSessions(), (std::vector<int>{a, b}));

  ASSERT_TRUE(manager.Submit(b, MakePref(0, 1, 0.7)).ok());
  ASSERT_TRUE(manager.Submit(b, MakeJoin()).ok());
  ASSERT_TRUE(manager.Submit(b, MakeResolve()).ok());
  manager.Drain();

  auto stats_a = manager.GetStats(a);
  ASSERT_TRUE(stats_a.ok());
  EXPECT_EQ(stats_a->session_id, a);
  EXPECT_EQ(stats_a->num_users, 8);
  EXPECT_EQ(stats_a->commands_applied, 0);

  auto stats_b = manager.GetStats(b);
  ASSERT_TRUE(stats_b.ok());
  EXPECT_EQ(stats_b->num_users, 11);  // 10 + join
  EXPECT_EQ(stats_b->commands_applied, 3);
  EXPECT_EQ(stats_b->resolves, 1);
  EXPECT_GT(stats_b->last_scaled_total, 0.0);
  EXPECT_TRUE(stats_b->first_error.ok());
  EXPECT_EQ(stats_b->queue_depth, 0u);

  EXPECT_FALSE(manager.GetStats(99).ok());
  EXPECT_FALSE(manager.GetStats(-1).ok());
}

// --- Admission control -----------------------------------------------------

TEST(AdmissionTest, ShedsWhenQueueIsFull) {
  // One worker pinned inside a completion callback makes the depth
  // deterministic: nothing completes until we release, so the Nth submit
  // past the bound must shed.
  SessionManagerOptions options;
  options.num_workers = 1;
  SessionManager manager(options);
  const int session = manager.CreateSession(RandomInstance(8, 12, 2, 0.5, 5));
  MetricsRegistry metrics;
  AdmissionOptions admission_options;
  admission_options.max_queue_depth = 3;
  AdmissionQueue admission(&manager, &metrics, admission_options);

  std::promise<void> entered, release;
  auto entered_future = entered.get_future();
  std::shared_future<void> release_future(release.get_future());
  Status first = admission.Submit(
      session, MakePref(0, 0, 0.5),
      [&entered, release_future](const Status&, const CommandOutcome&) {
        entered.set_value();
        release_future.wait();
      });
  ASSERT_TRUE(first.ok());
  entered_future.wait();  // the only worker is now pinned; depth stays 1

  EXPECT_TRUE(admission.Submit(session, MakePref(1, 1, 0.5)).ok());
  EXPECT_TRUE(admission.Submit(session, MakePref(2, 2, 0.5)).ok());
  Status shed = admission.Submit(session, MakePref(3, 3, 0.5));
  EXPECT_EQ(shed.code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(admission.shed_count(), 1);
  EXPECT_EQ(admission.admitted_count(), 3);
  EXPECT_EQ(admission.depth(), 3);

  release.set_value();
  manager.Drain();
  EXPECT_EQ(admission.depth(), 0);
  EXPECT_EQ(metrics.GetCounter("serve.shed")->value(), 1);
  EXPECT_TRUE(manager.FirstError().ok());
  // Unknown session (queue has room): submission error, not a shed, and
  // the reserved slot is returned.
  EXPECT_EQ(admission.Submit(99, MakeResolve()).code(),
            StatusCode::kOutOfRange);
  EXPECT_EQ(admission.depth(), 0);
  EXPECT_EQ(admission.shed_count(), 1);
}

// --- Resolve coalescing ----------------------------------------------------

TEST(CoalescingTest, PendingResolvesFoldIntoOneSolve) {
  // Pin the single worker, enqueue pref/resolve interleavings, release:
  // coalescing must fold the three resolves into ONE Resolve() whose
  // report answers all three, and the final configuration must equal a
  // serial session that applied the same mutations with a single resolve
  // (same seed + same resolve count => bit-identical rounding).
  const SvgicInstance base = RandomInstance(10, 16, 3, 0.5, 21);
  SessionOptions session_options;
  session_options.seed = 5;

  SessionManagerOptions options;
  options.num_workers = 1;
  options.coalesce_resolves = true;
  SessionManager manager(options);
  const int id = manager.CreateSession(base, session_options);

  std::promise<void> entered, release;
  auto entered_future = entered.get_future();
  std::shared_future<void> release_future(release.get_future());
  ASSERT_TRUE(manager
                  .Submit(id, MakePref(9, 0, 0.9),
                          [&entered, release_future](const Status&,
                                                     const CommandOutcome&) {
                            entered.set_value();
                            release_future.wait();
                          })
                  .ok());
  entered_future.wait();

  std::mutex mu;
  std::vector<CommandOutcome> outcomes;
  std::vector<Status> statuses;
  auto collect = [&mu, &outcomes, &statuses](const Status& status,
                                             const CommandOutcome& outcome) {
    std::lock_guard<std::mutex> lock(mu);
    statuses.push_back(status);
    outcomes.push_back(outcome);
  };
  ASSERT_TRUE(manager.Submit(id, MakePref(0, 1, 0.8)).ok());
  ASSERT_TRUE(manager.Submit(id, MakeResolve(), collect).ok());
  ASSERT_TRUE(manager.Submit(id, MakePref(1, 2, 0.7)).ok());
  ASSERT_TRUE(manager.Submit(id, MakeResolve(), collect).ok());
  ASSERT_TRUE(manager.Submit(id, MakePref(2, 3, 0.6)).ok());
  ASSERT_TRUE(manager.Submit(id, MakeResolve(), collect).ok());
  release.set_value();
  manager.Drain();

  ASSERT_EQ(outcomes.size(), 3u);
  int performed = 0, folded = 0;
  for (size_t i = 0; i < outcomes.size(); ++i) {
    ASSERT_TRUE(statuses[i].ok()) << statuses[i];
    EXPECT_TRUE(outcomes[i].resolved);
    EXPECT_EQ(outcomes[i].coalesced, 2);
    EXPECT_EQ(outcomes[i].report.scaled_total,
              outcomes[0].report.scaled_total);
    outcomes[i].coalesced_away ? ++folded : ++performed;
  }
  EXPECT_EQ(performed, 1);  // exactly one request paid the solve
  EXPECT_EQ(folded, 2);

  auto stats = manager.GetStats(id);
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->resolves, 1);
  EXPECT_EQ(stats->resolves_coalesced, 2);

  // Serial reference: same mutations, ONE resolve, same seed.
  Session reference(base, session_options);
  ASSERT_TRUE(reference.Apply(MakePref(9, 0, 0.9)).ok());
  ASSERT_TRUE(reference.Apply(MakePref(0, 1, 0.8)).ok());
  ASSERT_TRUE(reference.Apply(MakePref(1, 2, 0.7)).ok());
  ASSERT_TRUE(reference.Apply(MakePref(2, 3, 0.6)).ok());
  auto ref_outcome = reference.Apply(MakeResolve());
  ASSERT_TRUE(ref_outcome.ok()) << ref_outcome.status();

  const Configuration& coalesced_config = manager.session(id).config();
  const Configuration& reference_config = reference.config();
  ASSERT_EQ(coalesced_config.num_users(), reference_config.num_users());
  for (UserId u = 0; u < reference_config.num_users(); ++u) {
    EXPECT_EQ(coalesced_config.ItemsOf(u), reference_config.ItemsOf(u))
        << "user " << u;
  }
  EXPECT_EQ(outcomes[0].report.scaled_total,
            ref_outcome->report.scaled_total);

  // And N individual resolves (no coalescing) reach the same LP optimum:
  // the configurations may differ (different per-resolve RNG streams) but
  // the final objective is the optimum of the same mutated instance.
  Session individual(base, session_options);
  ASSERT_TRUE(individual.Apply(MakePref(9, 0, 0.9)).ok());
  ASSERT_TRUE(individual.Apply(MakePref(0, 1, 0.8)).ok());
  ASSERT_TRUE(individual.Apply(MakeResolve()).ok());
  ASSERT_TRUE(individual.Apply(MakePref(1, 2, 0.7)).ok());
  ASSERT_TRUE(individual.Apply(MakeResolve()).ok());
  ASSERT_TRUE(individual.Apply(MakePref(2, 3, 0.6)).ok());
  auto last = individual.Apply(MakeResolve());
  ASSERT_TRUE(last.ok());
  EXPECT_NEAR(last->report.lp_objective, outcomes[0].report.lp_objective,
              1e-6 * std::max(1.0, std::abs(last->report.lp_objective)));
}

TEST(CoalescingTest, DisabledCoalescingRunsEverySolve) {
  SessionManagerOptions options;
  options.num_workers = 1;
  options.coalesce_resolves = false;
  SessionManager manager(options);
  const int id = manager.CreateSession(RandomInstance(8, 12, 2, 0.5, 23));
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(manager.Submit(id, MakePref(i, i, 0.5 + 0.1 * i)).ok());
    ASSERT_TRUE(manager.Submit(id, MakeResolve()).ok());
  }
  manager.Drain();
  auto stats = manager.GetStats(id);
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->resolves, 3);
  EXPECT_EQ(stats->resolves_coalesced, 0);
}

// --- End-to-end over a real socket -----------------------------------------

/// Raw TCP helper for malformed-bytes tests (ServeClient only speaks
/// well-formed frames).
class RawConnection {
 public:
  bool Connect(int port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0) return false;
    sockaddr_in addr;
    std::memset(&addr, 0, sizeof(addr));
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<uint16_t>(port));
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    return ::connect(fd_, reinterpret_cast<sockaddr*>(&addr),
                     sizeof(addr)) == 0;
  }
  bool Send(const std::string& bytes) {
    return ::send(fd_, bytes.data(), bytes.size(), 0) ==
           static_cast<ssize_t>(bytes.size());
  }
  ssize_t Recv(char* buf, size_t size) { return ::recv(fd_, buf, size, 0); }
  /// Reads until EOF (the server drops bad-frame connections).
  std::string ReadAll() {
    std::string all;
    char buf[4096];
    for (;;) {
      const ssize_t n = ::recv(fd_, buf, sizeof(buf), 0);
      if (n <= 0) break;
      all.append(buf, static_cast<size_t>(n));
    }
    return all;
  }
  ~RawConnection() {
    if (fd_ >= 0) ::close(fd_);
  }

 private:
  int fd_ = -1;
};

TEST(ServeServerTest, EndToEndApplyResolveAndStatus) {
  ServerOptions options;
  options.num_workers = 2;
  ServeServer server(options);
  const int session =
      server.CreateSession(RandomInstance(10, 16, 3, 0.5, 31));
  ASSERT_TRUE(server.Start().ok());
  ASSERT_GT(server.port(), 0);

  ServeClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port()).ok());

  auto pong = client.SendPing();
  ASSERT_TRUE(pong.ok());
  auto pong_response = client.ReadResponse();
  ASSERT_TRUE(pong_response.ok()) << pong_response.status();
  EXPECT_EQ(pong_response->kind, FrameKind::kOk);
  EXPECT_EQ(pong_response->request_id, *pong);

  auto mutation = client.Apply(session, MakePref(0, 1, 0.8));
  ASSERT_TRUE(mutation.ok()) << mutation.status();
  EXPECT_EQ(mutation->kind, FrameKind::kOk);

  auto join = client.Apply(session, MakeJoin());
  ASSERT_TRUE(join.ok());
  ASSERT_TRUE(join->has_result);
  EXPECT_EQ(join->result.assigned_id, 10);  // n was 10

  auto resolve = client.Apply(session, MakeResolve());
  ASSERT_TRUE(resolve.ok()) << resolve.status();
  ASSERT_EQ(resolve->kind, FrameKind::kOk);
  ASSERT_TRUE(resolve->has_result);
  EXPECT_TRUE(resolve->result.resolved);
  EXPECT_GT(resolve->result.lp_objective, 0.0);
  EXPECT_GT(resolve->result.scaled_total, 0.0);
  EXPECT_GT(resolve->result.resolve_seconds, 0.0);

  // A command against an unknown session answers kError, not a drop.
  auto bad_session = client.Apply(99, MakeResolve());
  ASSERT_TRUE(bad_session.ok());
  EXPECT_EQ(bad_session->kind, FrameKind::kError);

  // An invalid mutation (out-of-range user) answers kError too.
  auto bad_mutation = client.Apply(session, MakePref(500, 0, 0.5));
  ASSERT_TRUE(bad_mutation.ok());
  EXPECT_EQ(bad_mutation->kind, FrameKind::kError);

  auto status_json = client.FetchStatus();
  ASSERT_TRUE(status_json.ok()) << status_json.status();
  EXPECT_NE(status_json->find("\"sessions\""), std::string::npos);
  EXPECT_NE(status_json->find("\"coalesce_ratio\""), std::string::npos);
  EXPECT_NE(status_json->find("\"admitted\""), std::string::npos);

  // Pipelined mutations: all answered, ids echoed.
  std::vector<uint64_t> ids;
  for (int i = 0; i < 10; ++i) {
    auto id = client.SendApply(session, MakePref(i % 10, i % 16, 0.5));
    ASSERT_TRUE(id.ok());
    ids.push_back(*id);
  }
  std::vector<uint64_t> answered;
  for (int i = 0; i < 10; ++i) {
    auto response = client.ReadResponse();
    ASSERT_TRUE(response.ok());
    EXPECT_EQ(response->kind, FrameKind::kOk);
    answered.push_back(response->request_id);
  }
  std::sort(answered.begin(), answered.end());
  EXPECT_EQ(answered, ids);

  server.Shutdown();
}

TEST(ServeServerTest, MalformedFramesGetBadRequestAndDrop) {
  ServeServer server;
  server.CreateSession(RandomInstance(8, 12, 2, 0.5, 33));
  ASSERT_TRUE(server.Start().ok());

  {  // Good magic, bad version: one kBadRequest response, then EOF.
    RawConnection conn;
    ASSERT_TRUE(conn.Connect(server.port()));
    std::string frame;
    AppendFrame(FrameKind::kPing, 1, 0, "", &frame);
    frame[4] = 9;  // unsupported version
    ASSERT_TRUE(conn.Send(frame));
    const std::string response = conn.ReadAll();
    ASSERT_GE(response.size(), kFrameHeaderBytes);
    EXPECT_EQ(response.compare(0, 4, "SVGF"), 0);
    EXPECT_EQ(static_cast<FrameKind>(
                  static_cast<uint8_t>(response[5])),
              FrameKind::kBadRequest);
  }
  {  // Oversized payload length: rejected without allocating 4 GB.
    RawConnection conn;
    ASSERT_TRUE(conn.Connect(server.port()));
    std::string frame;
    AppendFrame(FrameKind::kApply, 2, 0, "", &frame);
    frame[20] = frame[21] = frame[22] = frame[23] = static_cast<char>(0xFF);
    ASSERT_TRUE(conn.Send(frame));
    const std::string response = conn.ReadAll();
    ASSERT_GE(response.size(), kFrameHeaderBytes);
    EXPECT_EQ(static_cast<FrameKind>(
                  static_cast<uint8_t>(response[5])),
              FrameKind::kBadRequest);
  }
  {  // Valid frame, garbage command payload: kBadRequest, stream survives.
    RawConnection conn;
    ASSERT_TRUE(conn.Connect(server.port()));
    std::string frame;
    AppendFrame(FrameKind::kApply, 3, 0, std::string(5, '\xEE'), &frame);
    AppendFrame(FrameKind::kPing, 4, 0, "", &frame);
    ASSERT_TRUE(conn.Send(frame));
    // Two responses arrive (kBadRequest for the garbage command, then the
    // ping's kOk — the framing stayed intact, so the connection survives).
    FrameReader reader;
    int seen = 0;
    FrameKind kinds[2] = {FrameKind::kOk, FrameKind::kOk};
    while (seen < 2) {
      char buf[1024];
      const ssize_t n = conn.Recv(buf, sizeof(buf));
      if (n <= 0) break;
      reader.Feed(buf, static_cast<size_t>(n));
      for (;;) {
        FrameHeader header;
        std::string body;
        auto next = reader.Next(&header, &body);
        ASSERT_TRUE(next.ok());
        if (!*next) break;
        ASSERT_LT(seen, 2);
        kinds[seen++] = header.kind;
      }
    }
    ASSERT_EQ(seen, 2);
    EXPECT_EQ(kinds[0], FrameKind::kBadRequest);
    EXPECT_EQ(kinds[1], FrameKind::kOk);
  }
  server.Shutdown();
}

TEST(ServeServerTest, FlashCrowdShedsOverloadedResponses) {
  ServerOptions options;
  options.num_workers = 1;
  options.admission.max_queue_depth = 4;
  ServeServer server(options);
  const int session =
      server.CreateSession(RandomInstance(10, 16, 3, 0.5, 35));
  ASSERT_TRUE(server.Start().ok());

  ServeClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port()).ok());
  // Open loop: blast resolves far past the admission bound, then drain.
  constexpr int kBurst = 64;
  for (int i = 0; i < kBurst; ++i) {
    ASSERT_TRUE(client.SendApply(session, MakeResolve()).ok());
  }
  int ok = 0, overloaded = 0;
  for (int i = 0; i < kBurst; ++i) {
    auto response = client.ReadResponse();
    ASSERT_TRUE(response.ok()) << response.status();
    if (response->kind == FrameKind::kOverloaded) {
      ++overloaded;
    } else if (response->kind == FrameKind::kOk) {
      ++ok;
    }
  }
  EXPECT_EQ(ok + overloaded, kBurst);
  EXPECT_GT(overloaded, 0) << "no shedding under a 16x overload burst";
  EXPECT_GT(ok, 0);
  EXPECT_EQ(server.admission().shed_count(), overloaded);
  server.Shutdown();
}

TEST(ServeServerTest, HttpFallbackServesStatusAndMetrics) {
  ServeServer server;
  server.CreateSession(RandomInstance(8, 12, 2, 0.5, 37));
  ASSERT_TRUE(server.Start().ok());

  {
    RawConnection conn;
    ASSERT_TRUE(conn.Connect(server.port()));
    ASSERT_TRUE(conn.Send("GET /metrics HTTP/1.0\r\n\r\n"));
    const std::string response = conn.ReadAll();
    EXPECT_NE(response.find("200 OK"), std::string::npos);
    EXPECT_NE(response.find("application/json"), std::string::npos);
    EXPECT_NE(response.find("serve.queue_depth"), std::string::npos);
  }
  {
    RawConnection conn;
    ASSERT_TRUE(conn.Connect(server.port()));
    ASSERT_TRUE(conn.Send("GET /status HTTP/1.0\r\n\r\n"));
    const std::string response = conn.ReadAll();
    EXPECT_NE(response.find("200 OK"), std::string::npos);
    EXPECT_NE(response.find("\"sessions\""), std::string::npos);
  }
  {
    RawConnection conn;
    ASSERT_TRUE(conn.Connect(server.port()));
    ASSERT_TRUE(conn.Send("GET /nope HTTP/1.0\r\n\r\n"));
    const std::string response = conn.ReadAll();
    EXPECT_NE(response.find("404"), std::string::npos);
  }
  server.Shutdown();
}

// --- Request tracing -------------------------------------------------------

int FindSpan(const Trace& trace, const std::string& name) {
  for (size_t i = 0; i < trace.spans.size(); ++i) {
    if (trace.spans[i].name == name) return static_cast<int>(i);
  }
  return -1;
}

int64_t FindCounter(const TraceSpan& span, const std::string& key) {
  for (const auto& kv : span.counters) {
    if (kv.first == key) return kv.second;
  }
  return -1;
}

/// The determinism-relevant view of a trace: names, nesting, counters and
/// labels — everything except ids and timings (the contract of
/// src/obs/trace.h).
std::string StructureString(const Trace& trace) {
  std::string out = trace.name + "|" + trace.status;
  for (const TraceSpan& span : trace.spans) {
    out += ";" + span.name + "(";
    out += span.parent >= 0 ? trace.spans[span.parent].name : "-";
    out += ")";
    for (const auto& kv : span.counters) {
      out += " " + kv.first + "=" + std::to_string(kv.second);
    }
    for (const auto& kv : span.labels) {
      out += " " + kv.first + "=" + kv.second;
    }
  }
  return out;
}

TEST(ServeTraceTest, ForcedResolveCollectsNestedSpans) {
  ServerOptions options;
  options.num_workers = 2;
  options.trace.sample_every = 0;  // trace only wire-flagged requests
  ServeServer server(options);
  const int session =
      server.CreateSession(RandomInstance(10, 16, 3, 0.5, 41));
  ASSERT_TRUE(server.Start().ok());
  ServeClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port()).ok());

  auto mutation = client.Apply(session, MakePref(0, 1, 0.8), /*trace=*/true);
  ASSERT_TRUE(mutation.ok()) << mutation.status();
  auto resolve = client.Apply(session, MakeResolve(), /*trace=*/true);
  ASSERT_TRUE(resolve.ok()) << resolve.status();
  ASSERT_TRUE(resolve->has_result);

  const std::vector<Trace> traces = server.tracer().LastTraces(8);
  ASSERT_EQ(traces.size(), 2u);  // exactly the two flagged requests
  const Trace& mutation_trace = traces.front();
  EXPECT_TRUE(mutation_trace.forced);
  EXPECT_GE(FindSpan(mutation_trace, "session.apply"), 0);

  const Trace& trace = traces.back();
  EXPECT_EQ(trace.name, "resolve");
  EXPECT_EQ(trace.status, "ok");
  EXPECT_GT(trace.total_nanos, 0);

  // The span tree nests admission -> session -> lp -> phases, plus the
  // rounding stage.
  const int wait = FindSpan(trace, "admission.wait");
  const int apply = FindSpan(trace, "session.apply");
  const int build = FindSpan(trace, "lp.build");
  const int solve = FindSpan(trace, "lp.solve");
  const int setup = FindSpan(trace, "lp.setup");
  const int round = FindSpan(trace, "csf.round");
  ASSERT_GE(wait, 0);
  ASSERT_GE(apply, 0);
  ASSERT_GE(build, 0);
  ASSERT_GE(solve, 0);
  ASSERT_GE(setup, 0);
  ASSERT_GE(round, 0);
  EXPECT_EQ(trace.spans[wait].parent, -1);
  EXPECT_EQ(trace.spans[apply].parent, -1);
  EXPECT_EQ(trace.spans[build].parent, apply);
  EXPECT_EQ(trace.spans[solve].parent, apply);
  EXPECT_EQ(trace.spans[setup].parent, solve);
  EXPECT_TRUE(trace.spans[setup].bridged);
  EXPECT_EQ(trace.spans[round].parent, apply);
  // Every LP phase child is present even when a phase did no work.
  for (const char* phase : {"lp.setup", "lp.pricing", "lp.ratio_test",
                            "lp.ftran", "lp.btran", "lp.factor"}) {
    EXPECT_GE(FindSpan(trace, phase), 0) << phase;
  }

  // The span counters agree with what the wire reported back.
  EXPECT_EQ(FindCounter(trace.spans[apply], "pivots"),
            resolve->result.pivots);
  EXPECT_GE(FindCounter(trace.spans[round], "rerounded_units"), 0);

  // Stage histograms got folded.
  EXPECT_GT(server.metrics().GetHistogram("serve.stage.solve")->count(), 0);
  EXPECT_GT(
      server.metrics().GetHistogram("serve.stage.admission")->count(), 0);
  server.Shutdown();
}

TEST(ServeTraceTest, HttpTraceEndpointServesChromeJsonAndText) {
  ServerOptions options;
  options.trace.sample_every = 0;
  ServeServer server(options);
  const int session =
      server.CreateSession(RandomInstance(8, 12, 2, 0.5, 42));
  ASSERT_TRUE(server.Start().ok());
  ServeClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port()).ok());
  auto resolve = client.Apply(session, MakeResolve(), /*trace=*/true);
  ASSERT_TRUE(resolve.ok());

  {  // Chrome trace-event JSON (Perfetto-loadable).
    RawConnection conn;
    ASSERT_TRUE(conn.Connect(server.port()));
    ASSERT_TRUE(conn.Send("GET /trace?last=8 HTTP/1.0\r\n\r\n"));
    const std::string response = conn.ReadAll();
    EXPECT_NE(response.find("200 OK"), std::string::npos);
    EXPECT_NE(response.find("\"traceEvents\""), std::string::npos);
    EXPECT_NE(response.find("\"ph\": \"X\""), std::string::npos);
    EXPECT_NE(response.find("lp.solve"), std::string::npos);
  }
  {  // Human-readable tree.
    RawConnection conn;
    ASSERT_TRUE(conn.Connect(server.port()));
    ASSERT_TRUE(conn.Send("GET /trace?last=8&format=text HTTP/1.0\r\n\r\n"));
    const std::string response = conn.ReadAll();
    EXPECT_NE(response.find("200 OK"), std::string::npos);
    EXPECT_NE(response.find("text/plain"), std::string::npos);
    EXPECT_NE(response.find("session.apply"), std::string::npos);
  }
  server.Shutdown();
}

/// Replays a fixed traced command stream against a server with `workers`
/// worker threads and returns every trace's structure string.
std::vector<std::string> RunTracedStream(int workers) {
  ServerOptions options;
  options.num_workers = workers;
  options.trace.sample_every = 0;
  ServeServer server(options);
  const int session =
      server.CreateSession(RandomInstance(12, 18, 3, 0.5, 43));
  EXPECT_TRUE(server.Start().ok());
  ServeClient client;
  EXPECT_TRUE(client.Connect("127.0.0.1", server.port()).ok());
  for (int round = 0; round < 3; ++round) {
    for (int i = 0; i < 4; ++i) {
      auto r = client.Apply(session,
                            MakePref((round * 4 + i) % 12, (round + i) % 18,
                                     0.3 + 0.05 * i),
                            /*trace=*/true);
      EXPECT_TRUE(r.ok()) << r.status();
    }
    auto resolve = client.Apply(session, MakeResolve(), /*trace=*/true);
    EXPECT_TRUE(resolve.ok()) << resolve.status();
  }
  std::vector<std::string> structures;
  for (const Trace& trace : server.tracer().LastTraces(64)) {
    structures.push_back(StructureString(trace));
  }
  server.Shutdown();
  return structures;
}

TEST(ServeTraceTest, SpanStructureIsIdenticalAcrossWorkerCounts) {
  // The determinism contract of src/obs/trace.h, end to end: a fixed
  // closed-loop command stream yields bit-identical span structures
  // (names, nesting, counters, labels) for any worker count.
  const std::vector<std::string> one = RunTracedStream(1);
  ASSERT_EQ(one.size(), 15u);  // 3 rounds x (4 mutations + 1 resolve)
  EXPECT_EQ(RunTracedStream(2), one);
  EXPECT_EQ(RunTracedStream(4), one);
}

// --- Windowed metrics, health, self-verification over the wire -------------

TEST(ServeServerTest, HttpServesHealthAndWindowedMetrics) {
  ServerOptions options;
  options.metrics_interval_seconds = 0;  // captures driven by the test
  ServeServer server(options);
  const int session =
      server.CreateSession(RandomInstance(8, 12, 2, 0.5, 51));
  ASSERT_TRUE(server.Start().ok());
  ServeClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port()).ok());
  ASSERT_TRUE(client.Apply(session, MakePref(0, 1, 0.8)).ok());
  auto resolve = client.Apply(session, MakeResolve());
  ASSERT_TRUE(resolve.ok());
  server.CaptureMetricsWindow(/*interval_seconds=*/1.0);

  {  // /health: 200 + ok verdict on a quiet server.
    RawConnection conn;
    ASSERT_TRUE(conn.Connect(server.port()));
    ASSERT_TRUE(conn.Send("GET /health HTTP/1.0\r\n\r\n"));
    const std::string response = conn.ReadAll();
    EXPECT_NE(response.find("200 OK"), std::string::npos);
    EXPECT_NE(response.find("\"status\": \"ok\""), std::string::npos);
  }
  {  // /metrics?window=1: the windowed aggregate, not the lifetime dump.
    RawConnection conn;
    ASSERT_TRUE(conn.Connect(server.port()));
    ASSERT_TRUE(conn.Send("GET /metrics?window=1 HTTP/1.0\r\n\r\n"));
    const std::string response = conn.ReadAll();
    EXPECT_NE(response.find("200 OK"), std::string::npos);
    EXPECT_NE(response.find("\"windows\": 1"), std::string::npos);
    // The window saw the two applies: delta 2 at 2/s over the 1s window.
    EXPECT_NE(response.find("{\"name\": \"serve.admitted\", \"delta\": 2, "
                            "\"rate\": 2}"),
              std::string::npos)
        << response;
    EXPECT_NE(response.find("serve.latency.resolve"), std::string::npos);
  }
  {  // /metrics.prom: Prometheus text exposition.
    RawConnection conn;
    ASSERT_TRUE(conn.Connect(server.port()));
    ASSERT_TRUE(conn.Send("GET /metrics.prom HTTP/1.0\r\n\r\n"));
    const std::string response = conn.ReadAll();
    EXPECT_NE(response.find("200 OK"), std::string::npos);
    EXPECT_NE(response.find("text/plain; version=0.0.4"),
              std::string::npos);
    EXPECT_NE(response.find("# TYPE savg_serve_admitted counter"),
              std::string::npos);
    EXPECT_NE(
        response.find("savg_serve_latency_resolve_seconds_bucket{le="),
        std::string::npos);
  }
  // /status carries the health verdict alongside the metrics splice.
  auto status_json = client.FetchStatus();
  ASSERT_TRUE(status_json.ok());
  EXPECT_NE(status_json->find("\"health\": {\"status\": \"ok\""),
            std::string::npos);
  server.Shutdown();
}

TEST(ServeServerTest, QueueDepthGaugeReturnsToZeroAfterAllPaths) {
  // Regression for the serve.queue_depth gauge accounting: sheds must
  // back out their increment, submit errors must return the reserved
  // slot, and completions must decrement — after a mix of all three
  // plus shutdown, the gauge must read exactly zero.
  ServerOptions options;
  options.num_workers = 1;
  options.admission.max_queue_depth = 4;
  options.metrics_interval_seconds = 0;
  ServeServer server(options);
  const int session =
      server.CreateSession(RandomInstance(10, 16, 3, 0.5, 53));
  ASSERT_TRUE(server.Start().ok());
  ServeClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port()).ok());

  // Shed path: open-loop burst far past the bound.
  constexpr int kBurst = 48;
  for (int i = 0; i < kBurst; ++i) {
    ASSERT_TRUE(client.SendApply(session, MakeResolve()).ok());
  }
  int overloaded = 0;
  for (int i = 0; i < kBurst; ++i) {
    auto response = client.ReadResponse();
    ASSERT_TRUE(response.ok()) << response.status();
    if (response->kind == FrameKind::kOverloaded) ++overloaded;
  }
  EXPECT_GT(overloaded, 0);

  // Submit-error path: unknown session returns the reserved slot.
  auto bad_session = client.Apply(99, MakeResolve());
  ASSERT_TRUE(bad_session.ok());
  EXPECT_EQ(bad_session->kind, FrameKind::kError);
  // Command-error path: invalid mutation completes with an error status.
  auto bad_mutation = client.Apply(session, MakePref(500, 0, 0.5));
  ASSERT_TRUE(bad_mutation.ok());
  EXPECT_EQ(bad_mutation->kind, FrameKind::kError);

  server.manager().Drain();
  EXPECT_EQ(server.admission().depth(), 0u);
  EXPECT_EQ(server.metrics().GetGauge("serve.queue_depth")->value(), 0);

  server.Shutdown();
  EXPECT_EQ(server.metrics().GetGauge("serve.queue_depth")->value(), 0);
}

TEST(ServeServerTest, InjectedVerifyFailureFlipsHealthEndToEnd) {
  // The tentpole e2e: a forced self-verification failure must flip
  // GET /health to 503/unhealthy within one capture window, and clean
  // windows must recover it — all through real sockets.
  ServerOptions options;
  options.metrics_interval_seconds = 0;  // captures driven by the test
  options.verify.sample_every = 0;       // only wire-flagged requests
  ServeServer server(options);
  const int session =
      server.CreateSession(RandomInstance(10, 16, 3, 0.5, 55));
  ASSERT_TRUE(server.Start().ok());
  ServeClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port()).ok());

  // A verified resolve on a healthy solver passes.
  auto ok_resolve = client.Apply(session, MakeResolve(), /*trace=*/false,
                                 /*verify=*/true);
  ASSERT_TRUE(ok_resolve.ok()) << ok_resolve.status();
  EXPECT_EQ(ok_resolve->kind, FrameKind::kOk);
  server.verifier().Flush();
  EXPECT_EQ(server.metrics().GetCounter("verify.pass")->value(), 1);
  EXPECT_EQ(server.metrics().GetCounter("verify.fail")->value(), 0);
  server.CaptureMetricsWindow(1.0);
  {
    RawConnection conn;
    ASSERT_TRUE(conn.Connect(server.port()));
    ASSERT_TRUE(conn.Send("GET /health HTTP/1.0\r\n\r\n"));
    EXPECT_NE(conn.ReadAll().find("200 OK"), std::string::npos);
  }

  // Inject a fault: the next verified resolve fails its self-check and
  // the following window trips the verdict straight to unhealthy.
  server.verifier().InjectFailures(true);
  ASSERT_TRUE(client
                  .Apply(session, MakeResolve(), /*trace=*/false,
                         /*verify=*/true)
                  .ok());
  server.verifier().Flush();
  EXPECT_EQ(server.metrics().GetCounter("verify.fail")->value(), 1);
  server.CaptureMetricsWindow(1.0);
  {
    RawConnection conn;
    ASSERT_TRUE(conn.Connect(server.port()));
    ASSERT_TRUE(conn.Send("GET /health HTTP/1.0\r\n\r\n"));
    const std::string response = conn.ReadAll();
    EXPECT_NE(response.find("503"), std::string::npos) << response;
    EXPECT_NE(response.find("\"status\": \"unhealthy\""),
              std::string::npos);
    EXPECT_NE(response.find("\"verify_failure\""), std::string::npos);
  }

  // Clear the fault: recover_after clean windows restore the verdict.
  server.verifier().InjectFailures(false);
  server.CaptureMetricsWindow(1.0);
  server.CaptureMetricsWindow(1.0);
  {
    RawConnection conn;
    ASSERT_TRUE(conn.Connect(server.port()));
    ASSERT_TRUE(conn.Send("GET /health HTTP/1.0\r\n\r\n"));
    const std::string response = conn.ReadAll();
    EXPECT_NE(response.find("200 OK"), std::string::npos) << response;
    EXPECT_NE(response.find("\"status\": \"ok\""), std::string::npos);
  }
  server.Shutdown();
}

TEST(ServeServerTest, SampledVerificationPassesOnACommandStream) {
  // With 1-in-1 sampling every resolve self-verifies; a healthy solver
  // must pass all of them (monolithic KKT audits included).
  ServerOptions options;
  options.metrics_interval_seconds = 0;
  options.verify.sample_every = 1;
  ServeServer server(options);
  const int session =
      server.CreateSession(RandomInstance(10, 16, 3, 0.5, 57));
  ASSERT_TRUE(server.Start().ok());
  ServeClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port()).ok());
  for (int round = 0; round < 4; ++round) {
    for (int i = 0; i < 3; ++i) {
      ASSERT_TRUE(
          client.Apply(session, MakePref((round + i) % 10, i % 16, 0.6))
              .ok());
    }
    auto resolve = client.Apply(session, MakeResolve());
    ASSERT_TRUE(resolve.ok());
    EXPECT_EQ(resolve->kind, FrameKind::kOk);
  }
  server.verifier().Flush();
  EXPECT_EQ(server.metrics().GetCounter("verify.fail")->value(), 0);
  EXPECT_GE(server.metrics().GetCounter("verify.pass")->value(), 4);
  server.Shutdown();
}

/// Live threads of this process (entries of /proc/self/task).
int ThreadCount() {
  return static_cast<int>(std::distance(
      std::filesystem::directory_iterator("/proc/self/task"), {}));
}

/// Memory mappings of this process (lines of /proc/self/maps). A thread
/// that returned but was never joined leaves its task list but keeps its
/// stack mapped, so this is what grows when closed connections are not
/// reaped.
int MappingCount() {
  std::ifstream maps("/proc/self/maps");
  std::string line;
  int count = 0;
  while (std::getline(maps, line)) ++count;
  return count;
}

TEST(ServeServerTest, ClosedConnectionsAreReaped) {
  ServeServer server;
  server.CreateSession(RandomInstance(8, 12, 2, 0.5, 41));
  ASSERT_TRUE(server.Start().ok());
  auto cycle = [&server](int times) {
    for (int i = 0; i < times; ++i) {
      RawConnection conn;
      ASSERT_TRUE(conn.Connect(server.port()));
      ASSERT_TRUE(conn.Send("GET /metrics HTTP/1.0\r\n\r\n"));
      ASSERT_NE(conn.ReadAll().find("200 OK"), std::string::npos);
    }
  };
  cycle(20);  // warm the allocator and thread-stack caches
  const int threads_before = ThreadCount();
  const int mappings_before = MappingCount();
  ASSERT_GT(threads_before, 0);
  cycle(200);
  // The server closed every connection before the client saw EOF; give
  // the last reader thread a moment to return.
  for (int wait = 0; wait < 200 && ThreadCount() > threads_before; ++wait) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_LE(ThreadCount(), threads_before + 2);
  EXPECT_LE(MappingCount(), mappings_before + 20);
  server.Shutdown();
}

TEST(ServeServerTest, ShutdownFrameStopsTheServer) {
  ServeServer server;
  server.CreateSession(RandomInstance(8, 12, 2, 0.5, 39));
  ASSERT_TRUE(server.Start().ok());
  ServeClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port()).ok());
  ASSERT_TRUE(client.SendShutdown().ok());
  auto response = client.ReadResponse();
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response->kind, FrameKind::kOk);
  server.WaitForShutdown();  // must return promptly after the frame
  server.Shutdown();
}

}  // namespace
}  // namespace savg
