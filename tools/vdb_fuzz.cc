// Differential / metamorphic fuzzing driver (see DESIGN.md §11).
//
// Usage:
//   vdb_fuzz --seeds 0..500              range of seeds, SQL + metamorphic
//   vdb_fuzz --seed 1234                 one seed
//   vdb_fuzz --mode sql|metamorphic|wire|kernels|all   which checks
//                                        (default all = sql + metamorphic)
//   vdb_fuzz --queries N                 SQL queries per seed (default 8)
//   vdb_fuzz --no-env-invariance         skip environment re-runs (faster)
//
// --mode wire starts an in-process vdb_server and drives generated SQL
// through the full wire protocol (frame codec, admission, budgets),
// cross-checking every response against an in-process Database over the
// identical dataset: an unlimited-budget tenant must return exactly the
// in-process rows (or the same error code), and a tight-budget tenant
// must only ever add typed BudgetExceeded errors — never a crash, a
// malformed frame, or a wedged connection (DESIGN.md §13).
//
// --mode kernels runs the kernel differential campaign (DESIGN.md §15):
// each seed materializes an adversarial numeric stress table plus a
// random schema, generates kernel-shaped and generic expression trees,
// and executes every statement on the batch engine, which calls the
// expression kernels, and on the row engine, which does not. Rows must
// be bitwise identical and simulated charges equal.
//
// Every failure is minimized (query shrinking) and printed with the exact
// command line that reproduces it. Exit status: 0 when every seed passed,
// 1 on any mismatch or invariant violation, 2 on bad usage.

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <string>
#include <vector>

#include "datagen/synthetic.h"
#include "exec/database.h"
#include "server/client.h"
#include "server/server.h"
#include "server/tenant.h"
#include "sim/machine.h"
#include "sim/virtual_machine.h"
#include "testing/differential.h"
#include "testing/generator.h"
#include "testing/kernel_fuzz.h"
#include "testing/metamorphic.h"
#include "util/random.h"

namespace {

struct CliOptions {
  uint64_t first_seed = 0;
  uint64_t last_seed = 0;
  std::string mode = "all";
  vdb::fuzz::DifferentialOptions differential;
  // Metamorphic checks are environment-level (not per-query), so one run
  // per kMetamorphicStride seeds keeps campaigns fast without losing the
  // seed diversity of the probe randomness.
  static constexpr uint64_t kMetamorphicStride = 25;
};

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--seeds A..B | --seed N] [--mode sql|metamorphic"
               "|wire|kernels|all]\n               [--queries N] "
               "[--no-env-invariance]\n",
               argv0);
  return 2;
}

bool ParseSeeds(const std::string& arg, uint64_t* first, uint64_t* last) {
  const size_t dots = arg.find("..");
  try {
    if (dots == std::string::npos) {
      *first = *last = std::stoull(arg);
      return true;
    }
    *first = std::stoull(arg.substr(0, dots));
    *last = std::stoull(arg.substr(dots + 2));
    return *first <= *last;
  } catch (...) {
    return false;
  }
}

// ---------------------------------------------------------------------------
// --mode wire: in-process server vs in-process database.

constexpr uint64_t kWireRows = 500;

/// Serializes a result the way the wire does (ToString / NULL), sorted so
/// comparison is order-insensitive — both sides run the same engine, but
/// the wire check is about transport and policy, not sort stability.
std::vector<std::string> CanonicalRows(
    const std::vector<vdb::catalog::Tuple>& rows) {
  std::vector<std::string> out;
  out.reserve(rows.size());
  for (const vdb::catalog::Tuple& row : rows) {
    std::string line;
    for (const vdb::catalog::Value& cell : row) {
      line += cell.is_null() ? "\x01" : cell.ToString();
      line += '\x02';
    }
    out.push_back(std::move(line));
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<std::string> CanonicalRows(
    const std::vector<vdb::server::WireRow>& rows) {
  std::vector<std::string> out;
  out.reserve(rows.size());
  for (const vdb::server::WireRow& row : rows) {
    std::string line;
    for (const std::optional<std::string>& cell : row) {
      line += cell.has_value() ? *cell : "\x01";
      line += '\x02';
    }
    out.push_back(std::move(line));
  }
  std::sort(out.begin(), out.end());
  return out;
}

int RunWireCampaign(uint64_t first_seed, uint64_t last_seed,
                    int queries_per_seed) {
  using namespace vdb;

  // Tenant "fuzz" has no budget: its responses must be bit-equal to the
  // in-process reference. Tenant "tiny" has a budget small enough that
  // many generated queries abort: its responses must be rows or typed
  // errors, and the connection must survive every abort.
  server::TenantConfig fuzz_cfg;
  fuzz_cfg.name = "fuzz";
  fuzz_cfg.cpu_share = 0.5;
  fuzz_cfg.mem_share = 0.5;
  fuzz_cfg.io_share = 0.5;
  fuzz_cfg.dataset = "synthetic:" + std::to_string(kWireRows);
  fuzz_cfg.max_concurrent = 4;
  fuzz_cfg.queue_depth = 16;
  server::TenantConfig tiny_cfg = fuzz_cfg;
  tiny_cfg.name = "tiny";
  tiny_cfg.cpu_share = 0.25;
  tiny_cfg.mem_share = 0.25;
  tiny_cfg.io_share = 0.25;
  tiny_cfg.budget.max_cpu_seconds = 0.002;  // 2 ms of simulated CPU

  server::ServerOptions server_options;
  server_options.num_workers = 2;
  server::Server srv(server_options, {fuzz_cfg, tiny_cfg});
  if (Status status = srv.Start(); !status.ok()) {
    std::fprintf(stderr, "wire: server start failed: %s\n",
                 status.ToString().c_str());
    return 1;
  }

  // In-process reference over the identical dataset and shares.
  exec::Database db;
  VDB_CHECK_OK(datagen::GenerateTable(db.catalog(), "events",
                                      server::SyntheticEventColumns(),
                                      kWireRows, server::kSyntheticSeed));
  const sim::MachineSpec machine = sim::MachineSpec::PaperTestbed();
  sim::VirtualMachine vm("wire-ref", machine, sim::HypervisorModel::XenLike(),
                         sim::ResourceShare(0.5, 0.5, 0.5));
  VDB_CHECK_OK(db.ApplyVmConfig(vm));

  // The generator needs a SchemaPlan describing the events table.
  fuzz::SchemaPlan schema;
  fuzz::TablePlan table;
  table.name = "events";
  table.columns = server::SyntheticEventColumns();
  table.num_rows = kWireRows;
  table.data_seed = server::kSyntheticSeed;
  schema.tables.push_back(std::move(table));

  auto client = server::WireClient::Connect("127.0.0.1", srv.port());
  if (!client.ok()) {
    std::fprintf(stderr, "wire: connect failed: %s\n",
                 client.status().ToString().c_str());
    srv.Stop();
    return 1;
  }

  int failures = 0;
  uint64_t queries = 0;
  uint64_t budget_aborts = 0;
  for (uint64_t seed = first_seed; seed <= last_seed; ++seed) {
    Random rng(seed);
    fuzz::GeneratorOptions generator_options;
    generator_options.max_from_items = 2;  // bound self-join blowup
    fuzz::QueryGenerator generator(&schema, &rng, generator_options);
    for (int q = 0; q < queries_per_seed; ++q) {
      const std::string sql = generator.Generate().Sql();
      ++queries;
      const Result<exec::QueryResult> local = db.Execute(sql, vm);
      Result<server::WireResponse> remote = client->Query("fuzz", sql);
      if (!remote.ok()) {
        std::printf("wire transport failure (seed %llu): %s\n  sql: %s\n",
                    static_cast<unsigned long long>(seed),
                    remote.status().ToString().c_str(), sql.c_str());
        ++failures;
        srv.Stop();
        return 1;  // framing is gone; nothing after this is meaningful
      }
      const Status& remote_error = remote->error;
      if (local.ok() != remote_error.ok()) {
        std::printf(
            "wire divergence (seed %llu): local %s, server %s\n  sql: %s\n",
            static_cast<unsigned long long>(seed),
            local.ok() ? "rows" : local.status().ToString().c_str(),
            remote_error.ok() ? "rows" : remote_error.ToString().c_str(),
            sql.c_str());
        ++failures;
        continue;
      }
      if (!local.ok()) {
        if (local.status().code() != remote_error.code()) {
          std::printf(
              "wire error-code divergence (seed %llu): local %s, server "
              "%s\n  sql: %s\n",
              static_cast<unsigned long long>(seed),
              server::StatusCodeName(local.status().code()),
              server::StatusCodeName(remote_error.code()), sql.c_str());
          ++failures;
        }
      } else if (CanonicalRows(local->rows) != CanonicalRows(remote->rows)) {
        std::printf(
            "wire row divergence (seed %llu): local %zu rows, server %zu "
            "rows\n  sql: %s\n",
            static_cast<unsigned long long>(seed), local->rows.size(),
            remote->rows.size(), sql.c_str());
        ++failures;
      }

      // Budget tenant: the same statement must produce rows, the typed
      // budget error, or the same non-budget error — and leave the
      // connection usable either way.
      Result<server::WireResponse> tiny = client->Query("tiny", sql);
      if (!tiny.ok()) {
        std::printf(
            "wire budget-tenant transport failure (seed %llu): %s\n"
            "  sql: %s\n",
            static_cast<unsigned long long>(seed),
            tiny.status().ToString().c_str(), sql.c_str());
        ++failures;
        srv.Stop();
        return 1;
      }
      if (tiny->error.IsBudgetExceeded()) {
        ++budget_aborts;
      } else if (!tiny->error.ok() && local.ok()) {
        std::printf(
            "wire budget-tenant divergence (seed %llu): local rows, server "
            "%s\n  sql: %s\n",
            static_cast<unsigned long long>(seed),
            tiny->error.ToString().c_str(), sql.c_str());
        ++failures;
      }
    }
  }
  srv.Stop();
  std::printf(
      "wire seeds %llu..%llu: %llu queries, %llu budget aborts, "
      "%d failure%s\n",
      static_cast<unsigned long long>(first_seed),
      static_cast<unsigned long long>(last_seed),
      static_cast<unsigned long long>(queries),
      static_cast<unsigned long long>(budget_aborts), failures,
      failures == 1 ? "" : "s");
  if (failures == 0 && budget_aborts == 0 && queries > 20) {
    // The tight tenant never hitting its budget means the budget path was
    // not exercised at all — that is a campaign bug, not a pass.
    std::printf("wire: no budget aborts over %llu queries — "
                "tighten tiny_cfg.budget\n",
                static_cast<unsigned long long>(queries));
    return 1;
  }
  return failures == 0 ? 0 : 1;
}

// ---------------------------------------------------------------------------
// --mode kernels: batch engine (expression kernels) vs the row engine.

int RunKernelCampaign(uint64_t first_seed, uint64_t last_seed) {
  vdb::fuzz::KernelFuzzStats stats;
  int failures = 0;
  for (uint64_t seed = first_seed; seed <= last_seed; ++seed) {
    for (const std::string& violation :
         vdb::fuzz::RunKernelFuzzSeed(seed, &stats)) {
      std::printf("%s\n", violation.c_str());
      ++failures;
    }
    if ((seed - first_seed) % 50 == 49) {
      std::printf("... seed %llu: %s, %d failure%s\n",
                  static_cast<unsigned long long>(seed),
                  stats.ToString().c_str(), failures,
                  failures == 1 ? "" : "s");
      std::fflush(stdout);
    }
  }
  std::printf("kernel seeds %llu..%llu: %s; %d failure%s\n",
              static_cast<unsigned long long>(first_seed),
              static_cast<unsigned long long>(last_seed),
              stats.ToString().c_str(), failures, failures == 1 ? "" : "s");
  return failures == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  CliOptions options;
  bool run_metamorphic_every_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (arg == "--seeds" || arg == "--seed") {
      const char* value = next();
      if (value == nullptr ||
          !ParseSeeds(value, &options.first_seed, &options.last_seed)) {
        return Usage(argv[0]);
      }
      // A single named seed always runs every mode in full.
      run_metamorphic_every_seed =
          run_metamorphic_every_seed || arg == "--seed";
    } else if (arg == "--mode") {
      const char* value = next();
      if (value == nullptr) return Usage(argv[0]);
      options.mode = value;
      if (options.mode != "sql" && options.mode != "metamorphic" &&
          options.mode != "wire" && options.mode != "kernels" &&
          options.mode != "all") {
        return Usage(argv[0]);
      }
    } else if (arg == "--queries") {
      const char* value = next();
      if (value == nullptr) return Usage(argv[0]);
      options.differential.queries_per_seed = std::atoi(value);
      if (options.differential.queries_per_seed <= 0) return Usage(argv[0]);
    } else if (arg == "--no-env-invariance") {
      options.differential.check_environment_invariance = false;
    } else {
      return Usage(argv[0]);
    }
  }

  if (options.mode == "wire") {
    return RunWireCampaign(options.first_seed, options.last_seed,
                           options.differential.queries_per_seed);
  }
  if (options.mode == "kernels") {
    return RunKernelCampaign(options.first_seed, options.last_seed);
  }

  const bool run_sql = options.mode == "sql" || options.mode == "all";
  const bool run_meta =
      options.mode == "metamorphic" || options.mode == "all";

  vdb::fuzz::CampaignStats stats;
  int failures = 0;
  uint64_t metamorphic_runs = 0;
  for (uint64_t seed = options.first_seed; seed <= options.last_seed;
       ++seed) {
    if (run_sql) {
      vdb::fuzz::FailureReport report;
      if (vdb::fuzz::RunDifferentialSeed(seed, options.differential, &stats,
                                         &report)) {
        std::printf("%s\n", report.ToString().c_str());
        ++failures;
      }
    }
    if (run_meta &&
        (run_metamorphic_every_seed || options.mode == "metamorphic" ||
         seed % CliOptions::kMetamorphicStride == options.first_seed %
                                                      CliOptions::
                                                          kMetamorphicStride)) {
      ++metamorphic_runs;
      for (const std::string& violation :
           vdb::fuzz::RunMetamorphicChecks(seed)) {
        std::printf("metamorphic violation (seed %llu): %s\n"
                    "  repro:  vdb_fuzz --seed %llu --mode metamorphic\n",
                    static_cast<unsigned long long>(seed), violation.c_str(),
                    static_cast<unsigned long long>(seed));
        ++failures;
      }
    }
    if ((seed - options.first_seed) % 50 == 49) {
      std::printf("... seed %llu: %s\n",
                  static_cast<unsigned long long>(seed),
                  stats.ToString().c_str());
      std::fflush(stdout);
    }
  }

  std::printf("seeds %llu..%llu: %s; %llu metamorphic runs; %d failure%s\n",
              static_cast<unsigned long long>(options.first_seed),
              static_cast<unsigned long long>(options.last_seed),
              stats.ToString().c_str(),
              static_cast<unsigned long long>(metamorphic_runs), failures,
              failures == 1 ? "" : "s");
  return failures == 0 ? 0 : 1;
}
