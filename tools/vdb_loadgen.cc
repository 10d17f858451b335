// vdb_loadgen — closed-loop load generator for vdb_server.
//
// Reads the same tenants.conf the server was started with, opens
// `clients=` connections per tenant, and has each client issue that
// tenant's workload statements round-robin, back to back, until the
// duration elapses. A client whose request is rejected by admission
// control waits as server::NextRetryBackoff says before its next one.
// Reports per-tenant throughput, exact p50/p95/p99 request latencies, the
// median transport time (round trip - queue_ms - host_ms) and its share
// of round-trip time, and rejections per answered request, plus totals
// for rejections, budget aborts, and other errors — and writes them as
// BENCH_server_loadgen.json for CI's perf gate. Latencies and transport
// cover successful requests only.
//
// Usage:
//   vdb_loadgen --config examples/tenants.conf --port P
//               [--host 127.0.0.1] [--duration 30]
//               [--clients N]      clients for every tenant (N >= 1)
//               [--clients NAME=N] clients for tenant NAME; repeatable,
//                                  overrides --clients N. N=0 leaves the
//                                  tenant undriven.
//               [--wait-server S]  retry the first connect for S seconds
//
// Exit code: 0 when every driven tenant completed requests and no
// transport errors occurred; 1 otherwise.

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "server/client.h"
#include "server/tenant.h"
#include "util/random.h"

namespace {

using namespace vdb;
using Clock = std::chrono::steady_clock;

struct ClientStats {
  std::vector<double> latencies_ms;  // successful requests only
  std::vector<double> transport_ms;  // same requests: rtt - queue - host
  uint64_t ok = 0;
  uint64_t rejected = 0;        // admission control (ResourceExhausted)
  uint64_t aborted_budget = 0;  // kBudgetExceeded
  uint64_t errors_other = 0;    // any other server-side error
  uint64_t transport_errors = 0;
  // Zone-map skipping totals from the wire `stats` object, so a loadgen
  // run shows how much I/O the workload's predicates elide end-to-end.
  uint64_t pages_pruned = 0;
  uint64_t pages_scanned = 0;
};

struct TenantStats {
  std::string name;
  int clients = 0;
  ClientStats total;
};

double Percentile(std::vector<double>* sorted, double q) {
  if (sorted->empty()) return 0.0;
  std::sort(sorted->begin(), sorted->end());
  const size_t index = static_cast<size_t>(
      q * static_cast<double>(sorted->size() - 1) + 0.5);
  return (*sorted)[std::min(index, sorted->size() - 1)];
}

double MillisSince(Clock::time_point start) {
  return 1e-6 * static_cast<double>(
                    std::chrono::duration_cast<std::chrono::nanoseconds>(
                        Clock::now() - start)
                        .count());
}

Result<server::WireClient> ConnectWithRetry(const std::string& host,
                                            int port, double wait_seconds) {
  const Clock::time_point deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(wait_seconds));
  while (true) {
    Result<server::WireClient> client = server::WireClient::Connect(host, port);
    if (client.ok() || Clock::now() >= deadline) return client;
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }
}

void RunClient(const std::string& host, int port, const std::string& tenant,
               const std::vector<std::string>& statements, size_t first,
               uint64_t seed, Clock::time_point deadline, double wait_seconds,
               ClientStats* stats) {
  Result<server::WireClient> client =
      ConnectWithRetry(host, port, wait_seconds);
  if (!client.ok()) {
    ++stats->transport_errors;
    return;
  }
  Random jitter(seed);
  server::RetryBackoff backoff;
  size_t next = first;  // stagger clients across the statement list
  while (Clock::now() < deadline) {
    const std::string& sql = statements[next % statements.size()];
    ++next;
    const Clock::time_point start = Clock::now();
    Result<server::WireResponse> response = client->Query(tenant, sql);
    if (!response.ok()) {
      ++stats->transport_errors;
      client = ConnectWithRetry(host, port, wait_seconds);
      if (!client.ok()) return;
      continue;
    }
    const Status& error = response->error;
    if (error.ok()) {
      const double rtt_ms = MillisSince(start);
      ++stats->ok;
      stats->pages_pruned += response->stats.pages_pruned;
      stats->pages_scanned += response->stats.pages_scanned;
      stats->latencies_ms.push_back(rtt_ms);
      stats->transport_ms.push_back(rtt_ms - response->stats.queue_ms -
                                    response->stats.host_ms);
    } else if (error.IsResourceExhausted()) {
      ++stats->rejected;
    } else if (error.IsBudgetExceeded()) {
      ++stats->aborted_budget;
    } else {
      ++stats->errors_other;
    }
    backoff =
        server::NextRetryBackoff(backoff, *response, jitter.NextDouble());
    if (backoff.wait_ms > 0) {
      const auto wait = std::chrono::duration_cast<Clock::duration>(
          std::chrono::duration<double, std::milli>(backoff.wait_ms));
      std::this_thread::sleep_until(std::min(deadline, Clock::now() + wait));
    }
  }
}

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --config tenants.conf --port P [--host H] "
               "[--duration SEC] [--clients N] [--clients NAME=N]... "
               "[--wait-server SEC]\n",
               argv0);
  return 2;
}

/// Parses a whole-string non-negative client count.
bool ParseCount(const std::string& text, int* out) {
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, *out);
  return ec == std::errc() && ptr == end && *out >= 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::string config_path;
  std::string host = "127.0.0.1";
  int port = 0;
  double duration_s = 30.0;
  double wait_server_s = 10.0;
  int clients_all = 0;                        // 0: each tenant's clients=
  std::map<std::string, int> clients_tenant;  // --clients NAME=N
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--config" && has_value) {
      config_path = argv[++i];
    } else if (arg == "--host" && has_value) {
      host = argv[++i];
    } else if (arg == "--port" && has_value) {
      port = std::atoi(argv[++i]);
    } else if (arg == "--duration" && has_value) {
      duration_s = std::atof(argv[++i]);
    } else if (arg == "--clients" && has_value) {
      const std::string spec = argv[++i];
      const size_t eq = spec.find('=');
      int count = 0;
      if (eq == std::string::npos) {
        if (!ParseCount(spec, &count) || count == 0) return Usage(argv[0]);
        clients_all = count;
      } else {
        if (eq == 0 || !ParseCount(spec.substr(eq + 1), &count)) {
          return Usage(argv[0]);
        }
        clients_tenant[spec.substr(0, eq)] = count;
      }
    } else if (arg == "--wait-server" && has_value) {
      wait_server_s = std::atof(argv[++i]);
    } else {
      return Usage(argv[0]);
    }
  }
  if (config_path.empty() || port <= 0) return Usage(argv[0]);

  auto configs = server::LoadTenantConfigs(config_path);
  if (!configs.ok()) {
    std::fprintf(stderr, "error: %s\n", configs.status().ToString().c_str());
    return 1;
  }
  for (const auto& [name, count] : clients_tenant) {
    if (std::none_of(configs->begin(), configs->end(),
                     [&](const server::TenantConfig& config) {
                       return config.name == name;
                     })) {
      std::fprintf(stderr, "error: --clients names unknown tenant %s\n",
                   name.c_str());
      return 1;
    }
  }

  std::vector<TenantStats> tenants;
  std::vector<std::thread> threads;
  std::vector<std::vector<ClientStats>> per_client;
  per_client.reserve(configs->size());
  const Clock::time_point deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(duration_s));
  for (const server::TenantConfig& config : *configs) {
    auto statements = server::LoadSqlStatements(config.workload);
    if (!statements.ok()) {
      std::fprintf(stderr, "error: %s\n",
                   statements.status().ToString().c_str());
      return 1;
    }
    const auto named = clients_tenant.find(config.name);
    const int clients = named != clients_tenant.end() ? named->second
                        : clients_all > 0             ? clients_all
                                                      : config.clients;
    tenants.push_back(TenantStats{config.name, clients, {}});
    per_client.emplace_back(static_cast<size_t>(clients));
    std::vector<ClientStats>& slots = per_client.back();
    for (int c = 0; c < clients; ++c) {
      // std::thread stores its own copy of the statement list, so each
      // client reads private data. The thread count seeds its jitter.
      threads.emplace_back(RunClient, host, port, config.name, *statements,
                           static_cast<size_t>(c), threads.size() + 1,
                           deadline, wait_server_s, &slots[c]);
    }
  }
  for (std::thread& t : threads) t.join();

  bench::BenchReport report("server_loadgen");
  report.AddValue("duration_s", duration_s);
  uint64_t rejected_total = 0;
  uint64_t answered_total = 0;
  uint64_t aborted_total = 0;
  uint64_t errors_other_total = 0;
  uint64_t transport_total = 0;
  bool all_tenants_progressed = true;
  for (size_t i = 0; i < tenants.size(); ++i) {
    TenantStats& tenant = tenants[i];
    if (tenant.clients == 0) {
      std::printf("tenant %-8s undriven (0 clients)\n", tenant.name.c_str());
      continue;
    }
    for (ClientStats& c : per_client[i]) {
      tenant.total.ok += c.ok;
      tenant.total.rejected += c.rejected;
      tenant.total.aborted_budget += c.aborted_budget;
      tenant.total.errors_other += c.errors_other;
      tenant.total.transport_errors += c.transport_errors;
      tenant.total.pages_pruned += c.pages_pruned;
      tenant.total.pages_scanned += c.pages_scanned;
      tenant.total.latencies_ms.insert(tenant.total.latencies_ms.end(),
                                       c.latencies_ms.begin(),
                                       c.latencies_ms.end());
      tenant.total.transport_ms.insert(tenant.total.transport_ms.end(),
                                       c.transport_ms.begin(),
                                       c.transport_ms.end());
    }
    const ClientStats& total = tenant.total;
    const uint64_t answered =
        total.ok + total.aborted_budget + total.errors_other;
    std::vector<double>& lat = tenant.total.latencies_ms;
    std::vector<double>& transport = tenant.total.transport_ms;
    const double rtt_sum = std::accumulate(lat.begin(), lat.end(), 0.0);
    const double transport_share =
        rtt_sum > 0
            ? std::accumulate(transport.begin(), transport.end(), 0.0) /
                  rtt_sum
            : 0.0;
    const double p50 = Percentile(&lat, 0.50);
    const double p95 = Percentile(&lat, 0.95);
    const double p99 = Percentile(&lat, 0.99);
    const double transport_p50 = Percentile(&transport, 0.50);
    const double rejections_per_answer =
        static_cast<double>(total.rejected) /
        static_cast<double>(std::max<uint64_t>(1, answered));
    const double qps = static_cast<double>(total.ok) / duration_s;
    std::printf(
        "tenant %-8s ok=%llu rejected=%llu budget_aborts=%llu "
        "errors=%llu transport_errors=%llu | %.1f q/s p50=%.2fms "
        "p95=%.2fms p99=%.2fms | transport p50=%.3fms share=%.3f | "
        "rejections/answer=%.3f | pruned=%llu scanned=%llu pages\n",
        tenant.name.c_str(), static_cast<unsigned long long>(total.ok),
        static_cast<unsigned long long>(total.rejected),
        static_cast<unsigned long long>(total.aborted_budget),
        static_cast<unsigned long long>(total.errors_other),
        static_cast<unsigned long long>(total.transport_errors), qps, p50,
        p95, p99, transport_p50, transport_share, rejections_per_answer,
        static_cast<unsigned long long>(total.pages_pruned),
        static_cast<unsigned long long>(total.pages_scanned));
    // Latencies go in as ms values: the regression gate skips timings
    // below its 50 ms noise floor, and these are mostly below it.
    report.AddValue(tenant.name + "/qps", qps);
    report.AddValue(tenant.name + "/p50_ms", p50);
    report.AddValue(tenant.name + "/p95_ms", p95);
    report.AddValue(tenant.name + "/p99_ms", p99);
    report.AddValue(tenant.name + "/transport_p50_ms", transport_p50);
    report.AddValue(tenant.name + "/transport_share", transport_share);
    report.AddValue(tenant.name + "/rejections_per_answer",
                    rejections_per_answer);
    report.AddValue(tenant.name + "/pages_pruned",
                    static_cast<double>(total.pages_pruned));
    report.AddValue(tenant.name + "/pages_scanned",
                    static_cast<double>(total.pages_scanned));
    rejected_total += total.rejected;
    answered_total += answered;
    aborted_total += total.aborted_budget;
    errors_other_total += total.errors_other;
    transport_total += total.transport_errors;
    if (total.ok == 0) {
      std::fprintf(stderr, "FAIL: tenant %s completed no queries\n",
                   tenant.name.c_str());
      all_tenants_progressed = false;
    }
  }
  report.AddValue("rejected_total", static_cast<double>(rejected_total));
  report.AddValue(
      "rejections_per_answer",
      static_cast<double>(rejected_total) /
          static_cast<double>(std::max<uint64_t>(1, answered_total)));
  report.AddValue("aborted_budget_total", static_cast<double>(aborted_total));
  report.AddValue("errors_other_total",
                  static_cast<double>(errors_other_total));
  report.AddValue("transport_errors_total",
                  static_cast<double>(transport_total));

  const bool healthy =
      all_tenants_progressed && transport_total == 0 && errors_other_total == 0;
  if (!healthy) {
    std::fprintf(stderr,
                 "FAIL: transport_errors=%llu errors_other=%llu\n",
                 static_cast<unsigned long long>(transport_total),
                 static_cast<unsigned long long>(errors_other_total));
  }
  return report.Finish(healthy ? 0 : 1);
}
