// Tier-1 coverage for the multi-tenant SQL server (DESIGN.md §13): wire
// codec and frame round-trips, tenant config parsing, admission fast-fail
// and the client's retry backoff, typed budget aborts that leave the
// connection usable, cross-tenant isolation under saturation, round-trip
// latency, clients that hang up, connection cleanup, malformed-frame
// handling, and runtime reload.

#include "server/server.h"

#include <arpa/inet.h>
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <pthread.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "server/client.h"
#include "server/tenant.h"
#include "server/wire.h"

namespace vdb::server {
namespace {

std::string WriteTempFile(const std::string& name,
                          const std::string& contents) {
  const std::string path = ::testing::TempDir() + name;
  std::ofstream out(path);
  out << contents;
  EXPECT_TRUE(out.good());
  return path;
}

// ---------------------------------------------------------------------------
// Config parsing.

TEST(TenantConfigTest, ParsesFullLine) {
  const std::string path = WriteTempFile(
      "tenants_ok.conf",
      "# comment\n"
      "tenant alpha cpu=0.5 mem=0.4 io=0.3 dataset=synthetic:100 "
      "workload=w.sql max_concurrent=8 queue=2 clients=5 "
      "budget_cpu_ms=250 budget_mem_kb=64 budget_host_ms=1000\n");
  auto configs = LoadTenantConfigs(path);
  ASSERT_TRUE(configs.ok()) << configs.status().ToString();
  ASSERT_EQ(configs->size(), 1u);
  const TenantConfig& config = (*configs)[0];
  EXPECT_EQ(config.name, "alpha");
  EXPECT_DOUBLE_EQ(config.cpu_share, 0.5);
  EXPECT_DOUBLE_EQ(config.mem_share, 0.4);
  EXPECT_DOUBLE_EQ(config.io_share, 0.3);
  EXPECT_EQ(config.dataset, "synthetic:100");
  EXPECT_EQ(config.workload, "w.sql");
  EXPECT_EQ(config.max_concurrent, 8);
  EXPECT_EQ(config.queue_depth, 2);
  EXPECT_EQ(config.clients, 5);
  EXPECT_DOUBLE_EQ(config.budget.max_cpu_seconds, 0.25);
  EXPECT_DOUBLE_EQ(config.budget.max_memory_bytes, 64 * 1024.0);
  EXPECT_DOUBLE_EQ(config.budget.max_host_seconds, 1.0);
  EXPECT_DOUBLE_EQ(config.budget.max_elapsed_seconds, 0.0);
  EXPECT_FALSE(config.budget.Unlimited());
}

TEST(TenantConfigTest, UnknownKeyIsAnErrorWithLineNumber) {
  const std::string path = WriteTempFile(
      "tenants_bad_key.conf", "tenant a cpu=0.5\ntenant b cpu_shr=0.5\n");
  auto configs = LoadTenantConfigs(path);
  ASSERT_FALSE(configs.ok());
  EXPECT_NE(configs.status().message().find(":2:"), std::string::npos)
      << configs.status().ToString();
  EXPECT_NE(configs.status().message().find("cpu_shr"), std::string::npos);
}

TEST(TenantConfigTest, DuplicateAndEmptyAreErrors) {
  EXPECT_FALSE(
      LoadTenantConfigs(
          WriteTempFile("tenants_dup.conf", "tenant a\ntenant a\n"))
          .ok());
  EXPECT_FALSE(
      LoadTenantConfigs(WriteTempFile("tenants_empty.conf", "# none\n"))
          .ok());
}

TEST(TenantConfigTest, LoadsSqlStatements) {
  const std::string path = WriteTempFile(
      "workload.sql",
      "-- comment\nselect 1;\nselect grp, count(*)\n  from events\n"
      "  group by grp;\n");
  auto statements = LoadSqlStatements(path);
  ASSERT_TRUE(statements.ok()) << statements.status().ToString();
  ASSERT_EQ(statements->size(), 2u);
  EXPECT_NE((*statements)[1].find("group by"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Wire codec.

TEST(WireTest, RequestRoundTrip) {
  WireRequest request;
  request.tenant = "a\"b";
  request.sql = "select * from t where s like '%x%';";
  auto parsed = ParseRequest(FormatRequest(request));
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->tenant, request.tenant);
  EXPECT_EQ(parsed->sql, request.sql);
  EXPECT_TRUE(parsed->command.empty());
}

TEST(WireTest, RequestValidation) {
  EXPECT_FALSE(ParseRequest("not json").ok());
  EXPECT_FALSE(ParseRequest("[1,2]").ok());
  EXPECT_FALSE(ParseRequest("{\"sql\": \"select 1;\"}").ok());  // no tenant
  EXPECT_FALSE(ParseRequest("{\"tenant\": \"a\"}").ok());  // no sql/command
  EXPECT_FALSE(
      ParseRequest(
          "{\"tenant\": \"a\", \"sql\": \"select 1;\", \"command\": \"p\"}")
          .ok());  // both
}

TEST(WireTest, RowsResponseRoundTrip) {
  std::vector<catalog::Tuple> rows;
  rows.push_back({catalog::Value::Int64(9007199254740993),  // > 2^53
                  catalog::Value::Null(catalog::TypeId::kString)});
  QueryStats stats;
  stats.elapsed_ms = 12.5;
  stats.physical_reads = 7;
  const std::string payload =
      FormatRowsResponse({"big", "s"}, rows, stats);
  auto response = ParseResponse(payload);
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_TRUE(response->error.ok());
  ASSERT_EQ(response->columns.size(), 2u);
  ASSERT_EQ(response->rows.size(), 1u);
  // int64 cells travel as strings, so 2^53+1 survives exactly.
  EXPECT_EQ(response->rows[0][0].value(), "9007199254740993");
  EXPECT_FALSE(response->rows[0][1].has_value());
  EXPECT_DOUBLE_EQ(response->stats.elapsed_ms, 12.5);
  EXPECT_EQ(response->stats.physical_reads, 7u);
}

TEST(WireTest, ErrorResponseKeepsTypedCode) {
  const std::string payload = FormatErrorResponse(
      Status::BudgetExceeded("query exceeded its cpu budget"), QueryStats{});
  auto response = ParseResponse(payload);
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_TRUE(response->error.IsBudgetExceeded());
  EXPECT_NE(response->error.message().find("cpu budget"),
            std::string::npos);
}

TEST(WireTest, RetryAfterTravelsOnlyWhenSet) {
  const Status full = Status::ResourceExhausted("tenant is at capacity");
  const std::string unset = FormatErrorResponse(full, QueryStats{});
  EXPECT_EQ(unset.find("retry_after_ms"), std::string::npos) << unset;
  QueryStats stats;
  stats.retry_after_ms = 12.5;
  auto response = ParseResponse(FormatErrorResponse(full, stats));
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_TRUE(response->error.IsResourceExhausted());
  EXPECT_DOUBLE_EQ(response->stats.retry_after_ms, 12.5);
}

TEST(WireTest, FrameRoundTripSizes) {
  // With a few KiB of send buffer the writer blocks over and over while
  // the reader drains. A signal that lands on the blocked writer (handler
  // installed without SA_RESTART) makes sendmsg return a short count, or
  // EINTR before the first byte: both paths of WriteFrame's send loop.
  struct sigaction interrupt = {};
  interrupt.sa_handler = [](int) {};
  struct sigaction previous = {};
  ASSERT_EQ(::sigaction(SIGUSR1, &interrupt, &previous), 0);
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  const int small_buffer = 4096;
  ASSERT_EQ(::setsockopt(fds[0], SOL_SOCKET, SO_SNDBUF, &small_buffer,
                         sizeof(small_buffer)),
            0);
  const std::vector<size_t> sizes = {0, 1, 64 * 1024 + 1, 8 * 1024 * 1024};
  std::vector<std::string> payloads;
  for (const size_t size : sizes) {
    std::string payload(size, '\0');
    for (size_t i = 0; i < size; ++i) {
      payload[i] = static_cast<char>('a' + (i * 7 + size) % 26);
    }
    payloads.push_back(std::move(payload));
  }
  std::vector<std::string> received;
  std::thread reader([&] {
    std::string payload;
    while (true) {
      auto alive = ReadFrame(fds[1], &payload);
      if (!alive.ok() || !*alive) break;
      received.push_back(payload);
    }
    // Hang up, so a writer that garbled the stream fails instead of
    // blocking on a full buffer.
    ::close(fds[1]);
  });
  const pthread_t writer = ::pthread_self();
  std::atomic<bool> writing{true};
  std::thread interrupter([&] {
    while (writing.load()) {
      ::pthread_kill(writer, SIGUSR1);
      std::this_thread::sleep_for(std::chrono::microseconds(50));
    }
  });
  for (const std::string& payload : payloads) {
    EXPECT_TRUE(WriteFrame(fds[0], payload).ok()) << payload.size();
  }
  writing.store(false);
  interrupter.join();
  ::close(fds[0]);
  reader.join();
  ASSERT_EQ(::sigaction(SIGUSR1, &previous, nullptr), 0);
  ASSERT_EQ(received.size(), payloads.size());
  for (size_t i = 0; i < payloads.size(); ++i) {
    EXPECT_TRUE(received[i] == payloads[i]) << "frame of " << sizes[i]
                                            << " bytes came back altered";
  }
}

TEST(WireTest, StatusCodeNamesRoundTrip) {
  for (const StatusCode code :
       {StatusCode::kOk, StatusCode::kInvalidArgument, StatusCode::kNotFound,
        StatusCode::kResourceExhausted, StatusCode::kBudgetExceeded}) {
    EXPECT_EQ(StatusCodeFromName(StatusCodeName(code)), code);
  }
  EXPECT_EQ(StatusCodeFromName("NoSuchCode"), StatusCode::kInternal);
}

// ---------------------------------------------------------------------------
// Client retry backoff.

WireResponse Rejection(double retry_after_ms) {
  WireResponse answer;
  answer.error = Status::ResourceExhausted("tenant is at capacity");
  answer.stats.retry_after_ms = retry_after_ms;
  return answer;
}

TEST(RetryBackoffTest, DoublesPerRejectionUpToOneSecond) {
  RetryBackoff backoff;
  double expected_ms = 5.0;
  for (int k = 1; k <= 12; ++k) {
    backoff = NextRetryBackoff(backoff, Rejection(5.0), 0.5);  // 1.0x jitter
    expected_ms = std::min(1000.0, 2 * expected_ms);
    EXPECT_EQ(backoff.rejections, k);
    EXPECT_DOUBLE_EQ(backoff.wait_ms, expected_ms) << "after rejection " << k;
  }
  EXPECT_DOUBLE_EQ(backoff.wait_ms, 1000.0);
  for (int k = 0; k < 100; ++k) {
    backoff = NextRetryBackoff(backoff, Rejection(5.0), 0.5);
  }
  EXPECT_DOUBLE_EQ(backoff.wait_ms, 1000.0);
}

TEST(RetryBackoffTest, HintBelowOneMillisecondCountsAsOne) {
  EXPECT_DOUBLE_EQ(NextRetryBackoff({}, Rejection(0.0), 0.5).wait_ms, 2.0);
  EXPECT_DOUBLE_EQ(NextRetryBackoff({}, Rejection(0.25), 0.5).wait_ms, 2.0);
}

TEST(RetryBackoffTest, JitterStaysWithinHalfToOneAndAHalf) {
  for (const double jitter : {0.0, 0.25, 0.75, 0.999999, -3.0, 7.0}) {
    const double wait_ms =
        NextRetryBackoff({}, Rejection(10.0), jitter).wait_ms;
    EXPECT_GE(wait_ms, 0.5 * 20.0) << jitter;
    EXPECT_LE(wait_ms, 1.5 * 20.0) << jitter;
  }
  EXPECT_DOUBLE_EQ(NextRetryBackoff({}, Rejection(10.0), 0.0).wait_ms, 10.0);
}

TEST(RetryBackoffTest, AnyOtherAnswerResets) {
  RetryBackoff backoff;
  for (int k = 0; k < 3; ++k) {
    backoff = NextRetryBackoff(backoff, Rejection(4.0), 0.5);
  }
  ASSERT_EQ(backoff.rejections, 3);
  WireResponse rows;  // a successful answer
  WireResponse aborted;
  aborted.error = Status::BudgetExceeded("query exceeded its cpu budget");
  for (const WireResponse& answer : {rows, aborted}) {
    const RetryBackoff reset = NextRetryBackoff(backoff, answer, 0.5);
    EXPECT_EQ(reset.rejections, 0);
    EXPECT_EQ(reset.wait_ms, 0.0);
  }
  // The next rejection starts over at hint * 2.
  const RetryBackoff after_reset =
      NextRetryBackoff(NextRetryBackoff(backoff, rows, 0.5), Rejection(4.0),
                       0.5);
  EXPECT_DOUBLE_EQ(after_reset.wait_ms, 8.0);
}

// ---------------------------------------------------------------------------
// Live server. One fixture-scoped server keeps materialization cost paid
// once; tenants are sized so every scenario below is deterministic.

class ServerTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    TenantConfig alpha;  // well-behaved: round trips, isolation victim
    alpha.name = "alpha";
    alpha.cpu_share = alpha.mem_share = alpha.io_share = 0.3;
    alpha.dataset = "synthetic:300";
    alpha.max_concurrent = 4;
    alpha.queue_depth = 16;

    TenantConfig serial;  // cap 1: admission fast-fail + saturation source
    serial.name = "serial";
    serial.cpu_share = serial.mem_share = serial.io_share = 0.2;
    serial.dataset = "synthetic:700";
    serial.max_concurrent = 1;
    serial.queue_depth = 0;

    TenantConfig gamma;  // tight budget: typed aborts
    gamma.name = "gamma";
    gamma.cpu_share = gamma.mem_share = gamma.io_share = 0.2;
    gamma.dataset = "synthetic:700";
    gamma.max_concurrent = 4;
    gamma.queue_depth = 8;
    gamma.budget.max_cpu_seconds = 0.002;

    TenantConfig delta;  // reload target
    delta.name = "delta";
    delta.cpu_share = delta.mem_share = delta.io_share = 0.2;
    delta.dataset = "synthetic:700";
    delta.max_concurrent = 4;
    delta.queue_depth = 8;

    ServerOptions options;
    options.num_workers = 4;
    server_ = new Server(options, {alpha, serial, gamma, delta});
    const Status status = server_->Start();
    ASSERT_TRUE(status.ok()) << status.ToString();
  }

  static void TearDownTestSuite() {
    delete server_;
    server_ = nullptr;
  }

  static WireClient Connect() {
    auto client = WireClient::Connect("127.0.0.1", server_->port());
    EXPECT_TRUE(client.ok()) << client.status().ToString();
    return std::move(client).ValueOrDie();
  }

  /// A plain TCP socket to the server, for writing frames by hand.
  static int ConnectRaw() {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    EXPECT_GE(fd, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<uint16_t>(server_->port()));
    EXPECT_EQ(::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr), 1);
    EXPECT_EQ(
        ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
    return fd;
  }

  /// Connects and pings until the server holds that connection and no
  /// other: every earlier connection has then finished, and the accept of
  /// the new one joined their threads.
  static bool AwaitSoleConnection() {
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(30);
    while (true) {
      WireClient client = Connect();
      auto ping = client.Command("alpha", "ping");
      if (!ping.ok()) return false;
      if (server_->num_connections() == 1) return true;
      if (std::chrono::steady_clock::now() > deadline) return false;
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }

  // A query that holds the serial tenant's executor for a while (cross
  // join, 700^2 pairs) — long enough that a concurrent probe reliably
  // finds the tenant at its admission cap.
  static constexpr const char* kHeavySql =
      "select count(*) from events a, events b;";

  static Server* server_;
};

Server* ServerTest::server_ = nullptr;

TEST_F(ServerTest, QueryRoundTrip) {
  WireClient client = Connect();
  auto response =
      client.Query("alpha", "select count(*) as n, min(id) from events;");
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  ASSERT_TRUE(response->error.ok()) << response->error.ToString();
  ASSERT_EQ(response->columns.size(), 2u);
  EXPECT_EQ(response->columns[0], "n");
  ASSERT_EQ(response->rows.size(), 1u);
  EXPECT_EQ(response->rows[0][0].value(), "300");
  EXPECT_EQ(response->rows[0][1].value(), "0");
  EXPECT_GT(response->stats.elapsed_ms, 0.0);
  EXPECT_GT(response->stats.host_ms, 0.0);
}

TEST_F(ServerTest, SqlErrorsComeBackTyped) {
  WireClient client = Connect();
  auto response = client.Query("alpha", "select nope from nothing;");
  ASSERT_TRUE(response.ok());
  EXPECT_FALSE(response->error.ok());
  EXPECT_FALSE(response->error.IsBudgetExceeded());
  // The connection is still usable after a planner error.
  auto again = client.Query("alpha", "select id from events limit 1;");
  ASSERT_TRUE(again.ok());
  EXPECT_TRUE(again->error.ok());
}

TEST_F(ServerTest, UnknownTenantIsRejected) {
  WireClient client = Connect();
  auto response = client.Query("nobody", "select id from events limit 1;");
  ASSERT_TRUE(response.ok());
  EXPECT_TRUE(response->error.IsNotFound());
}

TEST_F(ServerTest, PingAndMetricsCommands) {
  WireClient client = Connect();
  auto ping = client.Command("alpha", "ping");
  ASSERT_TRUE(ping.ok()) << ping.status().ToString();
  EXPECT_EQ(ping->payload, "\"pong\"");
  auto metrics = client.Command("alpha", "metrics");
  ASSERT_TRUE(metrics.ok());
  EXPECT_NE(metrics->payload.find("counters"), std::string::npos);
}

TEST_F(ServerTest, AdmissionFastFailAtCap) {
  // Occupy the serial tenant (cap = 1 + 0) with a long cross join, then
  // probe: while it runs, a probe must be rejected immediately with
  // ResourceExhausted. The occupy/probe cycle retries because the probe
  // can lose the race with the heavy query's submission; one cycle where
  // the probe lands mid-execution is enough.
  WireClient probe = Connect();
  // One executed query gives the tenant a retry-after hint.
  auto first = probe.Query("serial", "select id from events limit 1;");
  ASSERT_TRUE(first.ok() && first->error.ok());
  bool saw_rejection = false;
  for (int attempt = 0; attempt < 10 && !saw_rejection; ++attempt) {
    std::atomic<bool> heavy_done{false};
    std::thread heavy([&] {
      WireClient conn = Connect();
      auto response = conn.Query("serial", kHeavySql);
      heavy_done.store(true);
      ASSERT_TRUE(response.ok());
      // The heavy query itself may be the one rejected if a probe from a
      // previous iteration still occupies the tenant.
      EXPECT_TRUE(response->error.ok() ||
                  response->error.IsResourceExhausted())
          << response->error.ToString();
    });
    while (!heavy_done.load()) {
      auto response =
          probe.Query("serial", "select id from events limit 1;");
      ASSERT_TRUE(response.ok()) << response.status().ToString();
      if (response->error.IsResourceExhausted()) {
        EXPECT_GT(response->stats.retry_after_ms, 0.0);
        saw_rejection = true;
        break;
      }
    }
    heavy.join();
  }
  EXPECT_TRUE(saw_rejection)
      << "probe never found the serial tenant at its admission cap";
  // The tenant recovers once the heavy query finishes.
  auto after = probe.Query("serial", "select id from events limit 1;");
  ASSERT_TRUE(after.ok());
  EXPECT_TRUE(after->error.ok()) << after->error.ToString();
}

TEST_F(ServerTest, BudgetAbortIsTypedAndConnectionSurvives) {
  WireClient client = Connect();
  auto aborted = client.Query("gamma", kHeavySql);
  ASSERT_TRUE(aborted.ok()) << aborted.status().ToString();
  ASSERT_FALSE(aborted->error.ok());
  EXPECT_TRUE(aborted->error.IsBudgetExceeded())
      << aborted->error.ToString();
  EXPECT_NE(aborted->error.message().find("budget"), std::string::npos);
  // Same tenant, same connection: a cheap statement still succeeds, so
  // the abort neither wedged the Database nor leaked execution state.
  auto cheap = client.Query("gamma", "select id from events limit 1;");
  ASSERT_TRUE(cheap.ok());
  EXPECT_TRUE(cheap->error.ok()) << cheap->error.ToString();
  ASSERT_EQ(cheap->rows.size(), 1u);
}

TEST_F(ServerTest, SaturatedTenantDoesNotBlockOthers) {
  // Saturate the serial tenant with back-to-back heavy queries; alpha's
  // cheap queries must keep completing the whole time (the shared pool
  // round-robins drain tasks, so one hot tenant cannot monopolize it).
  std::atomic<bool> stop{false};
  std::thread saturator([&] {
    WireClient conn = Connect();
    while (!stop.load()) {
      auto response = conn.Query("serial", kHeavySql);
      if (!response.ok()) break;
    }
  });
  WireClient client = Connect();
  int completed = 0;
  for (int i = 0; i < 20; ++i) {
    auto response =
        client.Query("alpha", "select count(*) from events where grp < 50;");
    ASSERT_TRUE(response.ok()) << response.status().ToString();
    ASSERT_TRUE(response->error.ok()) << response->error.ToString();
    ++completed;
  }
  stop.store(true);
  saturator.join();
  EXPECT_EQ(completed, 20);
}

TEST_F(ServerTest, MalformedJsonGetsTypedErrorAndConnectionSurvives) {
  const int fd = ConnectRaw();
  // A well-framed but non-JSON payload: the server answers with a typed
  // error and keeps the connection open.
  ASSERT_TRUE(WriteFrame(fd, "this is not json").ok());
  std::string payload;
  auto alive = ReadFrame(fd, &payload);
  ASSERT_TRUE(alive.ok() && *alive);
  auto response = ParseResponse(payload);
  ASSERT_TRUE(response.ok());
  EXPECT_TRUE(response->error.IsInvalidArgument());
  // Same socket, a valid request now succeeds.
  WireRequest request;
  request.tenant = "alpha";
  request.command = "ping";
  ASSERT_TRUE(WriteFrame(fd, FormatRequest(request)).ok());
  alive = ReadFrame(fd, &payload);
  ASSERT_TRUE(alive.ok() && *alive);
  ::close(fd);
}

TEST_F(ServerTest, OversizedFramePrefixClosesConnection) {
  const int fd = ConnectRaw();
  const unsigned char huge[4] = {0xff, 0xff, 0xff, 0xff};  // 4 GiB frame
  ASSERT_EQ(::send(fd, huge, 4, 0), 4);
  // The server reports the protocol error (if the write beats the close)
  // and then drops the connection; either way we observe EOF, and the
  // server itself stays up.
  char buf[256];
  while (true) {
    const ssize_t n = ::read(fd, buf, sizeof(buf));
    if (n <= 0) break;
  }
  ::close(fd);
  WireClient client = Connect();
  auto ping = client.Command("alpha", "ping");
  ASSERT_TRUE(ping.ok()) << ping.status().ToString();
  EXPECT_EQ(ping->payload, "\"pong\"");
}

TEST_F(ServerTest, TwoHundredPingsUnderOneSecond) {
  // A frame whose prefix and payload leave in separate writes waits for
  // Nagle plus delayed ACK: about 88 ms per round trip, 17.6 s for 200.
  WireClient client = Connect();
  const auto start = std::chrono::steady_clock::now();
  for (int i = 0; i < 200; ++i) {
    auto ping = client.Command("alpha", "ping");
    ASSERT_TRUE(ping.ok()) << ping.status().ToString();
    ASSERT_EQ(ping->payload, "\"pong\"");
  }
  const std::chrono::duration<double> elapsed =
      std::chrono::steady_clock::now() - start;
  EXPECT_LT(elapsed.count(), 1.0);
}

TEST_F(ServerTest, ClientVanishingMidQueryLeavesServerUp) {
  // The server writes into sockets whose peer has gone. Those writes must
  // fail for their own connection only; a SIGPIPE would end the process.
  WireRequest request;
  request.tenant = "serial";
  // After one ping the server has accepted the socket and waits in
  // ReadFrame on it.
  const auto connect_and_ping = [&request] {
    const int fd = ConnectRaw();
    request.command = "ping";
    EXPECT_TRUE(WriteFrame(fd, FormatRequest(request)).ok());
    std::string payload;
    auto alive = ReadFrame(fd, &payload);
    EXPECT_TRUE(alive.ok() && *alive);
    request.command.clear();
    return fd;
  };
  // Hung up mid-query: the answer goes to a peer that has closed.
  const int fd = connect_and_ping();
  request.sql = kHeavySql;
  ASSERT_TRUE(WriteFrame(fd, FormatRequest(request)).ok());
  ::close(fd);
  // Reset while idle: the server's read fails, and the typed error it
  // then writes back meets a dead socket (EPIPE).
  const int reset_fd = connect_and_ping();
  const linger abort_on_close{1, 0};
  ASSERT_EQ(::setsockopt(reset_fd, SOL_SOCKET, SO_LINGER, &abort_on_close,
                         sizeof(abort_on_close)),
            0);
  ::close(reset_fd);
  // A connection finishes only after its last write was made (or failed).
  ASSERT_TRUE(AwaitSoleConnection());
  WireClient client = Connect();
  auto ping = client.Command("alpha", "ping");
  ASSERT_TRUE(ping.ok()) << ping.status().ToString();
  EXPECT_EQ(ping->payload, "\"pong\"");
}

TEST_F(ServerTest, FinishedConnectionsAreCleanedUp) {
  for (int i = 0; i < 200; ++i) {
    WireClient client = Connect();
    auto ping = client.Command("alpha", "ping");
    ASSERT_TRUE(ping.ok()) << ping.status().ToString();
  }
  // Unjoined threads would keep all 200 counted, each with its stack.
  EXPECT_TRUE(AwaitSoleConnection())
      << server_->num_connections() << " connections still held";
}

TEST_F(ServerTest, ReloadTightensBudgetAndShares) {
  WireClient client = Connect();
  // Before: delta has no budget, the heavy query completes.
  auto before = client.Query("delta", kHeavySql);
  ASSERT_TRUE(before.ok());
  ASSERT_TRUE(before->error.ok()) << before->error.ToString();

  const std::string conf = WriteTempFile(
      "reload.conf",
      "tenant delta cpu=0.1 mem=0.1 io=0.1 budget_cpu_ms=2\n"
      "tenant ghost cpu=0.9 mem=0.9 io=0.9\n");  // not running: ignored
  auto reload = client.Command("delta", "reload", conf);
  ASSERT_TRUE(reload.ok()) << reload.status().ToString();
  ASSERT_TRUE(reload->error.ok()) << reload->error.ToString();

  // After: the same query aborts with the typed budget error.
  auto after = client.Query("delta", kHeavySql);
  ASSERT_TRUE(after.ok());
  EXPECT_TRUE(after->error.IsBudgetExceeded()) << after->error.ToString();
  // And cheap statements still work at the shrunken share.
  auto cheap = client.Query("delta", "select id from events limit 1;");
  ASSERT_TRUE(cheap.ok());
  EXPECT_TRUE(cheap->error.ok()) << cheap->error.ToString();
}

TEST_F(ServerTest, ReloadRejectsOversubscription) {
  WireClient client = Connect();
  const std::string conf = WriteTempFile(
      "reload_over.conf", "tenant delta cpu=0.95 mem=0.1 io=0.1\n");
  auto reload = client.Command("delta", "reload", conf);
  ASSERT_TRUE(reload.ok());
  EXPECT_FALSE(reload->error.ok());
  // The failed reload left delta usable.
  auto cheap = client.Query("delta", "select id from events limit 1;");
  ASSERT_TRUE(cheap.ok());
  EXPECT_TRUE(cheap->error.ok()) << cheap->error.ToString();
}

}  // namespace
}  // namespace vdb::server
