// tenants_wire: an in-process server::Server started from the
// benchmark's own tenants file (perfbench/tenants.conf), driven over
// loopback through server::WireClient — one closed-loop client per
// `clients=` of each tenant (alpha 1, beta 3). An operation is one alpha
// request; beta's answered requests are the neighbour throughput.
//
// Checks: an in-process Database built like the server's (same VMM
// shares, dataset, seed and budget) gives every statement's expected
// outcome. Alpha's wire rows must equal the in-process rows and its
// simulated elapsed time the in-process warm charge; beta must return
// the in-process rows, or BudgetExceeded where the in-process run aborts.
// A transport error, an unexpected status or an admission rejection is a
// failure.

#include <cstdlib>
#include <optional>
#include <thread>

#include "datagen/synthetic.h"
#include "exec/database.h"
#include "obs/json.h"
#include "perfbench/bench.h"
#include "server/client.h"
#include "server/server.h"
#include "server/tenant.h"
#include "sim/vmm.h"
#include "util/random.h"

namespace vdb::perfbench {
namespace {

/// Expected wire outcome of one statement.
struct Expected {
  bool budget_abort = false;
  std::vector<server::WireRow> rows;
  /// Simulated elapsed ms as the wire formats it (alpha only).
  std::optional<double> elapsed_ms;
};

struct Tenant {
  server::TenantConfig config;
  std::vector<std::string> statements;
  std::vector<Expected> expected;
};

/// What one client thread saw.
struct ClientTally {
  LoopStats loop;
  uint64_t answered = 0;
  uint64_t budget_aborts = 0;
  std::vector<double> queue_ms;
  std::vector<double> host_ms;
  std::vector<double> transport_ms;
  double sim_elapsed_ms = 0.0;
  uint64_t physical_reads = 0;
  uint64_t charge_mismatches = 0;
};

/// Seeded statements: alpha runs cheap single-table analytics; beta mixes
/// a point count, a self-join far beyond its CPU budget, and a LIMIT query.
std::vector<std::string> TenantStatements(const std::string& tenant,
                                          uint64_t seed) {
  Random rng(seed * 0x9E3779B97F4A7C15ULL + 37);
  const auto n = [](int64_t v) { return std::to_string(v); };
  const int64_t grp_cut = rng.UniformInt(30, 70);
  const int64_t val_lo = rng.UniformInt(0, 900);
  const int64_t grp_eq = rng.UniformInt(0, 15);
  const int64_t id_cut = rng.UniformInt(5000, 20000);
  const int64_t grp_beta = rng.UniformInt(0, 10);
  const int64_t id_beta = rng.UniformInt(500, 2000);
  if (tenant == "alpha") {
    return {
        "select grp, count(*) as n, avg(val) as mean_val from events where "
        "grp < " + n(grp_cut) + " group by grp order by n desc, grp limit 10",
        "select count(*) from events where val between " + n(val_lo) +
            ".0 and " + n(val_lo + 100) + ".0",
        "select id, val from events where grp = " + n(grp_eq) +
            " order by val desc, id limit 5",
        "select max(val) as hi, min(val) as lo from events where id < " +
            n(id_cut),
    };
  }
  return {
      "select count(*) from events where grp = " + n(grp_beta),
      "select a.grp, count(*) as pairs from events a join events b on a.grp "
      "= b.grp group by a.grp order by pairs desc, a.grp limit 5",
      "select grp, count(*) from events where id < " + n(id_beta) +
          " group by grp order by grp limit 5",
  };
}

server::WireRow ToWireRow(const catalog::Tuple& tuple) {
  server::WireRow row;
  for (const catalog::Value& value : tuple) {
    row.push_back(value.is_null() ? std::nullopt
                                  : std::optional<std::string>(
                                        value.ToString()));
  }
  return row;
}

class WireWorkload final : public Workload {
 public:
  WireWorkload(uint64_t seed, std::string tenants_path)
      : seed_(seed), tenants_path_(std::move(tenants_path)) {}

  void TearDown() override {
    server_.reset();  // Stop() joins every server thread
    tenants_.clear();
  }

  Status SetUp() override {
    VDB_ASSIGN_OR_RETURN(std::vector<server::TenantConfig> configs,
                         server::LoadTenantConfigs(tenants_path_));
    for (const server::TenantConfig& config : configs) {
      if (config.name != "alpha" && config.name != "beta") {
        return Status::InvalidArgument("unexpected tenant " + config.name);
      }
      Tenant tenant;
      tenant.config = config;
      tenant.statements = TenantStatements(config.name, seed_);
      tenants_.push_back(std::move(tenant));
    }
    server::ServerOptions options;
    options.num_workers = 2;  // each tenant executes one query at a time
    server_ = std::make_unique<server::Server>(options, std::move(configs));
    return server_->Start();
  }

  Status Verify() override {
    VDB_RETURN_NOT_OK(BuildExpectations());
    // Warm-up over the wire, excluded from timing: every client sends
    // every statement of its tenant once.
    for (size_t t = 0; t < tenants_.size(); ++t) {
      for (int c = 0; c < tenants_[t].config.clients; ++c) {
        VDB_ASSIGN_OR_RETURN(server::WireClient client,
                             server::WireClient::Connect("127.0.0.1",
                                                         server_->port()));
        ClientTally tally;
        for (size_t s = 0; s < tenants_[t].statements.size(); ++s) {
          Send(&client, tenants_[t], s, nullptr, &tally);
        }
        if (tally.loop.failed > 0) {
          return Status::Internal("warm-up: " + tally.loop.first_error);
        }
      }
    }
    return Status::OK();
  }

  LoopStats Run(double seconds, Tracer* tracer) override {
    struct Client {
      size_t tenant;
      int index;
      TraceBuffer* buffer;
      ClientTally tally;
    };
    std::vector<Client> clients;
    for (size_t t = 0; t < tenants_.size(); ++t) {
      for (int c = 0; c < tenants_[t].config.clients; ++c) {
        clients.push_back(
            {t, c, tracer != nullptr ? tracer->NewBuffer() : nullptr, {}});
      }
    }
    const Clock::time_point start = Clock::now();
    const Clock::time_point deadline =
        start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(seconds));
    const double cpu_start = ProcessCpuSeconds();
    std::vector<std::thread> threads;
    for (Client& slot : clients) {
      Client* client = &slot;  // `clients` is not resized while threads run
      threads.emplace_back([this, client, tracer, deadline] {
        const Tenant& tenant = tenants_[client->tenant];
        Result<server::WireClient> connection =
            server::WireClient::Connect("127.0.0.1", server_->port());
        if (!connection.ok()) {
          client->tally.loop.Fail(connection.status().ToString());
          return;
        }
        // Clients of one tenant start at different statements.
        for (size_t next = static_cast<size_t>(client->index);
             Clock::now() < deadline; ++next) {
          Send(&*connection, tenant, next % tenant.statements.size(),
               StartOp(tracer, client->buffer), &client->tally);
        }
      });
    }
    for (std::thread& thread : threads) thread.join();

    LoopStats stats;
    stats.wall_s = SecondsSince(start);
    stats.cpu_s = ProcessCpuSeconds() - cpu_start;
    last_ = Totals();
    for (const Client& client : clients) {
      const ClientTally& tally = client.tally;
      stats.attempted += tally.loop.attempted;
      stats.failed += tally.loop.failed;
      if (stats.first_error.empty()) stats.first_error = tally.loop.first_error;
      if (tenants_[client.tenant].config.name == "alpha") {
        stats.latencies_ms.insert(stats.latencies_ms.end(),
                                  tally.loop.latencies_ms.begin(),
                                  tally.loop.latencies_ms.end());
        last_.queue_ms.insert(last_.queue_ms.end(), tally.queue_ms.begin(),
                              tally.queue_ms.end());
        last_.host_ms.insert(last_.host_ms.end(), tally.host_ms.begin(),
                             tally.host_ms.end());
        last_.transport_ms.insert(last_.transport_ms.end(),
                                  tally.transport_ms.begin(),
                                  tally.transport_ms.end());
        last_.sim_elapsed_ms += tally.sim_elapsed_ms;
        last_.physical_reads += tally.physical_reads;
      } else {
        last_.neighbor_answered += tally.answered;
        last_.neighbor_aborts += tally.budget_aborts;
      }
      charge_mismatches_ += tally.charge_mismatches;
    }
    last_.wall_s = stats.wall_s;
    last_.cpu_s = stats.cpu_s;
    return stats;
  }

  Status LayerMetrics(const LoopStats& traced, Tracer* tracer,
                      MetricSet* out) override {
    (void)tracer;
    const double ops = static_cast<double>(
        std::max<size_t>(1, traced.latencies_ms.size()));
    out->Set("server.queue_ms", Median(last_.queue_ms), "ms");
    out->Set("server.host_ms", Median(last_.host_ms), "ms");
    out->Set("server.transport_ms", Median(last_.transport_ms), "ms");
    out->Set("server.budget_abort_share",
             last_.neighbor_answered > 0
                 ? static_cast<double>(last_.neighbor_aborts) /
                       static_cast<double>(last_.neighbor_answered)
                 : 0.0,
             "ratio");
    out->Set("server.neighbor_ops_per_s",
             last_.wall_s > 0
                 ? static_cast<double>(last_.neighbor_answered) / last_.wall_s
                 : 0.0,
             "1/s");
    out->Set("util.cpu_busy_cores",
             last_.wall_s > 0 ? last_.cpu_s / last_.wall_s : 0.0, "cores");
    out->Set("storage.pages_read",
             static_cast<double>(last_.physical_reads) / ops, "count");
    out->Set("sim.elapsed_s", 1e-3 * last_.sim_elapsed_ms / ops, "s");
    out->Set("sim.charge_mismatches", static_cast<double>(charge_mismatches_),
             "count");
    return Status::OK();
  }

 private:
  struct Totals {
    std::vector<double> queue_ms;
    std::vector<double> host_ms;
    std::vector<double> transport_ms;
    double sim_elapsed_ms = 0.0;
    uint64_t physical_reads = 0;
    uint64_t neighbor_answered = 0;
    uint64_t neighbor_aborts = 0;
    double wall_s = 0.0;
    double cpu_s = 0.0;
  };

  /// Runs every statement in a private Database built the way the server
  /// builds the tenant's, and records what the wire must return.
  Status BuildExpectations() {
    sim::VirtualMachineMonitor vmm(sim::MachineSpec::PaperTestbed());
    for (Tenant& tenant : tenants_) {
      const server::TenantConfig& config = tenant.config;
      const std::string prefix = "synthetic:";
      if (config.dataset.rfind(prefix, 0) != 0) {
        return Status::InvalidArgument("tenants_wire needs synthetic datasets");
      }
      const uint64_t rows =
          std::strtoull(config.dataset.c_str() + prefix.size(), nullptr, 10);
      VDB_ASSIGN_OR_RETURN(
          sim::VirtualMachine * vm,
          vmm.CreateVm(config.name,
                       sim::ResourceShare(config.cpu_share, config.mem_share,
                                          config.io_share)));
      exec::Database db;
      VDB_RETURN_NOT_OK(db.ApplyVmConfig(*vm));
      VDB_RETURN_NOT_OK(datagen::GenerateTable(
          db.catalog(), "events", server::SyntheticEventColumns(), rows,
          server::kSyntheticSeed));
      exec::QueryOptions options = db.query_options();
      options.budget = config.budget;
      db.set_query_options(options);
      tenant.expected.clear();
      for (int pass = 0; pass < 2; ++pass) {
        for (size_t s = 0; s < tenant.statements.size(); ++s) {
          Result<exec::QueryResult> result =
              db.Execute(tenant.statements[s], *vm);
          if (!result.ok() && !result.status().IsBudgetExceeded()) {
            return result.status();
          }
          if (pass == 0) continue;  // the second pass sees a warm pool
          Expected expected;
          expected.budget_abort = !result.ok();
          if (result.ok()) {
            for (const catalog::Tuple& tuple : result->rows) {
              expected.rows.push_back(ToWireRow(tuple));
            }
            if (config.name == "alpha") {
              expected.elapsed_ms = std::strtod(
                  obs::FormatJsonNumber(1000 * result->elapsed_seconds)
                      .c_str(),
                  nullptr);
            }
          }
          tenant.expected.push_back(std::move(expected));
        }
      }
      if (config.name == "beta" && !tenant.expected[1].budget_abort) {
        return Status::Internal("beta's self-join no longer exceeds its "
                                "budget");
      }
    }
    return Status::OK();
  }

  /// Sends one statement and checks the answer.
  void Send(server::WireClient* client, const Tenant& tenant, size_t s,
            TraceBuffer* buffer, ClientTally* tally) {
    const Expected& expected = tenant.expected[s];
    ++tally->loop.attempted;
    const Clock::time_point start = Clock::now();
    const auto query = [&] {
      ScopedSpan op(buffer, tenant.config.name == "alpha" ? "alpha_request"
                                                          : "beta_request");
      ScopedSpan span(buffer, "server.wire_query");
      return client->Query(tenant.config.name, tenant.statements[s]);
    };
    Result<server::WireResponse> response = query();
    const double rtt_ms = MillisSince(start);
    const std::string what = tenant.config.name + " statement " +
                             std::to_string(s) + ": ";
    if (!response.ok()) {
      tally->loop.Fail(what + response.status().ToString());
      return;
    }
    const Status& error = response->error;
    if (expected.budget_abort) {
      if (!error.IsBudgetExceeded()) {
        tally->loop.Fail(what + "expected BudgetExceeded, got " +
                         error.ToString());
        return;
      }
      ++tally->answered;
      ++tally->budget_aborts;
      return;
    }
    if (!error.ok()) {
      tally->loop.Fail(what + error.ToString());
      return;
    }
    if (response->rows != expected.rows) {
      tally->loop.Fail(what + "rows differ from the in-process run");
      return;
    }
    if (expected.elapsed_ms &&
        response->stats.elapsed_ms != *expected.elapsed_ms) {
      ++tally->charge_mismatches;
      tally->loop.Fail(what + "simulated charge differs from the in-process "
                              "run");
      return;
    }
    ++tally->answered;
    const server::QueryStats& stats = response->stats;
    tally->loop.latencies_ms.push_back(rtt_ms);
    tally->queue_ms.push_back(stats.queue_ms);
    tally->host_ms.push_back(stats.host_ms);
    tally->transport_ms.push_back(rtt_ms - stats.queue_ms - stats.host_ms);
    tally->sim_elapsed_ms += stats.elapsed_ms;
    tally->physical_reads += stats.physical_reads;
  }

  const uint64_t seed_;
  const std::string tenants_path_;
  std::vector<Tenant> tenants_;
  std::unique_ptr<server::Server> server_;
  Totals last_;
  uint64_t charge_mismatches_ = 0;
};

}  // namespace

std::unique_ptr<Workload> MakeTenantsWire(uint64_t seed,
                                          const std::string& tenants_path) {
  return std::make_unique<WireWorkload>(seed, tenants_path);
}

}  // namespace vdb::perfbench
