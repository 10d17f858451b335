// Multi-tenant SQL server: one logical VM per tenant on a shared
// VirtualMachineMonitor, with admission control and per-query budgets
// (DESIGN.md §13).

#ifndef VDB_SERVER_SERVER_H_
#define VDB_SERVER_SERVER_H_

#include <atomic>
#include <chrono>
#include <deque>
#include <future>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "exec/database.h"
#include "obs/metrics.h"
#include "server/tenant.h"
#include "server/wire.h"
#include "sim/machine.h"
#include "sim/vmm.h"
#include "util/thread_pool.h"

namespace vdb::server {

struct ServerOptions {
  std::string host = "127.0.0.1";
  /// 0 binds an ephemeral port; port() reports the bound one after Start.
  int port = 0;
  /// Workers in the shared execution pool (clamped to >= 1).
  int num_workers = 4;
  /// The physical machine every tenant VM is carved out of.
  sim::MachineSpec machine = sim::MachineSpec::PaperTestbed();
  /// Where the tenant config came from — the default path for a `reload`
  /// wire command with no argument.
  std::string config_path;
};

/// Multi-tenant SQL server (DESIGN.md §13). Each tenant is one logical VM
/// on a shared physical machine — its CPU/memory/IO shares come from the
/// tenant config and bound what the embedded engine charges — plus one
/// private Database materialized from the tenant's dataset declaration.
///
/// Execution model: a tenant executes at most one query at a time (one
/// Database is one simulated instance: its buffer pool accepts a single
/// IO listener), so each tenant keeps a FIFO queue drained by at most one
/// task on the shared worker pool. The drain task runs one query, then
/// re-enqueues itself; the pool's FIFO order therefore round-robins
/// tenants, and a tenant saturating its own queue cannot starve another
/// tenant's drain task — isolation falls out of the scheduling shape.
///
/// Admission control fast-fails: a request arriving while the tenant
/// already has max_concurrent + queue_depth admitted-but-unfinished
/// queries is rejected immediately with ResourceExhausted, never parked.
/// The rejection's stats.retry_after_ms is the tenant's recent per-query
/// host time, so a client that backs off by it (RetryBackoff) does not
/// spin against a full tenant. A query's slot is freed before its answer
/// is sent, so a closed-loop client never finds its own finished query
/// still holding it.
///
/// Per-query budgets are enforced cooperatively inside both engines (see
/// exec/budget.h): an over-budget query aborts with kBudgetExceeded,
/// surfaces as a typed wire error, and leaves the tenant's Database fully
/// usable — the ExecutionContext unwinds via RAII, so nothing leaks.
class Server {
 public:
  Server(ServerOptions options, std::vector<TenantConfig> tenants);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Creates the VMs, materializes every tenant's dataset, binds the
  /// listener, and starts accepting connections.
  Status Start();

  /// Stops accepting, unblocks live connections, and drains in-flight
  /// queries (they complete; their clients may already be gone).
  void Stop();

  /// The bound TCP port (valid after Start).
  int port() const { return port_; }

  /// Re-applies shares, budgets, and admission caps for tenants that
  /// appear in `path`; tenants not listed keep their settings, tenants in
  /// the file but not running are ignored. Shares are applied in two
  /// rounds so a reload that shrinks one VM to grow another succeeds
  /// regardless of line order.
  Status Reload(const std::string& path);

  /// Number of tenants (for tools/tests).
  size_t num_tenants() const { return tenants_.size(); }

  /// Number of connections the server still holds: live ones plus
  /// finished ones whose threads the next accept will join (for tests).
  size_t num_connections() const;

 private:
  struct Job {
    std::string sql;
    std::promise<std::string> response;  // formatted wire payload
    std::chrono::steady_clock::time_point enqueued;
  };

  struct Tenant {
    TenantConfig config;
    exec::Database db;
    sim::VirtualMachine* vm = nullptr;  // owned by vmm_
    obs::Histogram* latency = nullptr;

    // Guards queue / inflight / drain_scheduled / recent_host_ms.
    std::mutex mu;
    std::deque<Job> queue;
    int inflight = 0;
    bool drain_scheduled = false;
    /// EWMA of executed queries' host_ms: the retry-after hint.
    double recent_host_ms = 0.0;

    /// Serializes query execution against Reload's config mutation.
    std::mutex exec_mu;
  };

  Status SetUpTenant(Tenant* tenant);
  Tenant* FindTenant(const std::string& name);

  /// One accepted client socket and the thread serving it.
  struct Connection {
    int fd = -1;
    bool done = false;  // guarded by conn_mu_; set before fd is closed
    std::thread thread;
  };

  /// Admits or rejects; on admission returns the future for the response
  /// frame payload, on rejection sets `*retry_after_ms`.
  Result<std::future<std::string>> SubmitQuery(Tenant* tenant,
                                               std::string sql,
                                               double* retry_after_ms);
  void DrainOne(Tenant* tenant);
  /// Runs the job and formats its answer; `*host_ms` gets its host time.
  std::string ExecuteJob(Tenant* tenant, Job* job, double* host_ms);

  void AcceptLoop();
  void HandleConnection(Connection* conn);
  std::string HandleRequest(const std::string& payload);
  std::string HandleCommand(Tenant* tenant, const WireRequest& request);

  ServerOptions options_;
  sim::VirtualMachineMonitor vmm_;
  std::vector<std::unique_ptr<Tenant>> tenants_;
  util::ThreadPool pool_;

  obs::Counter* admitted_ = nullptr;
  obs::Counter* rejected_ = nullptr;
  obs::Counter* aborted_budget_ = nullptr;

  std::mutex reload_mu_;  // serializes Reload calls (vmm_ not thread-safe)

  int listen_fd_ = -1;
  int port_ = 0;
  std::atomic<bool> stopping_{false};
  std::thread accept_thread_;
  mutable std::mutex conn_mu_;
  /// Live and finished-but-unjoined connections; AcceptLoop joins the
  /// finished ones, Stop the rest.
  std::list<Connection> conns_;
  bool started_ = false;
};

}  // namespace vdb::server

#endif  // VDB_SERVER_SERVER_H_
