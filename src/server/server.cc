#include "server/server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <utility>

#include "datagen/synthetic.h"
#include "datagen/tpch.h"
#include "util/logging.h"
#include "util/string_util.h"

namespace vdb::server {

namespace {

using Clock = std::chrono::steady_clock;

/// Each executed query moves a tenant's retry-after hint this fraction of
/// the way to its own host time.
constexpr double kRetryHintWeight = 0.2;

double MillisSince(Clock::time_point start) {
  return 1e-6 * static_cast<double>(
                    std::chrono::duration_cast<std::chrono::nanoseconds>(
                        Clock::now() - start)
                        .count());
}

/// Materializes a tenant's dataset declaration into its catalog.
Status MaterializeDataset(const TenantConfig& config, exec::Database* db) {
  const std::vector<std::string> parts = Split(config.dataset, ':');
  if (parts.size() == 2 && parts[0] == "tpch") {
    datagen::TpchConfig tpch;
    tpch.scale_factor = std::atof(parts[1].c_str());
    if (tpch.scale_factor <= 0) {
      return Status::InvalidArgument("tenant " + config.name +
                                     ": bad tpch scale in " + config.dataset);
    }
    return datagen::GenerateTpch(db->catalog(), tpch);
  }
  if (parts.size() == 2 && parts[0] == "synthetic") {
    const int64_t rows = std::atoll(parts[1].c_str());
    if (rows <= 0) {
      return Status::InvalidArgument("tenant " + config.name +
                                     ": bad row count in " + config.dataset);
    }
    return datagen::GenerateTable(db->catalog(), "events",
                                  SyntheticEventColumns(),
                                  static_cast<uint64_t>(rows),
                                  kSyntheticSeed);
  }
  return Status::InvalidArgument("tenant " + config.name +
                                 ": unknown dataset " + config.dataset);
}

}  // namespace

Server::Server(ServerOptions options, std::vector<TenantConfig> tenants)
    : options_(std::move(options)),
      vmm_(options_.machine),
      pool_(std::max(1, options_.num_workers)) {
  for (TenantConfig& config : tenants) {
    auto tenant = std::make_unique<Tenant>();
    tenant->config = std::move(config);
    tenants_.push_back(std::move(tenant));
  }
  auto& registry = obs::MetricsRegistry::Global();
  admitted_ = registry.GetCounter("server.admitted");
  rejected_ = registry.GetCounter("server.rejected");
  aborted_budget_ = registry.GetCounter("server.aborted_budget");
}

Server::~Server() { Stop(); }

Status Server::SetUpTenant(Tenant* tenant) {
  const TenantConfig& config = tenant->config;
  VDB_ASSIGN_OR_RETURN(
      tenant->vm,
      vmm_.CreateVm(config.name,
                    sim::ResourceShare(config.cpu_share, config.mem_share,
                                       config.io_share)));
  VDB_RETURN_NOT_OK(tenant->db.ApplyVmConfig(*tenant->vm));
  VDB_RETURN_NOT_OK(MaterializeDataset(config, &tenant->db));
  exec::QueryOptions query_options = tenant->db.query_options();
  query_options.budget = config.budget;
  tenant->db.set_query_options(query_options);
  tenant->latency = obs::MetricsRegistry::Global().GetHistogram(
      "server.latency." + config.name);
  return Status::OK();
}

Server::Tenant* Server::FindTenant(const std::string& name) {
  for (const std::unique_ptr<Tenant>& tenant : tenants_) {
    if (tenant->config.name == name) return tenant.get();
  }
  return nullptr;
}

Status Server::Start() {
  VDB_CHECK(!started_) << "Server::Start called twice";
  for (const std::unique_ptr<Tenant>& tenant : tenants_) {
    VDB_RETURN_NOT_OK(SetUpTenant(tenant.get()));
  }

  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    return Status::IOError(std::string("socket: ") + std::strerror(errno));
  }
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(options_.port));
  if (::inet_pton(AF_INET, options_.host.c_str(), &addr.sin_addr) != 1) {
    return Status::InvalidArgument("bad listen address " + options_.host);
  }
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) <
      0) {
    return Status::IOError(std::string("bind: ") + std::strerror(errno));
  }
  if (::listen(listen_fd_, 128) < 0) {
    return Status::IOError(std::string("listen: ") + std::strerror(errno));
  }
  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound), &len);
  port_ = ntohs(bound.sin_port);

  stopping_.store(false);
  accept_thread_ = std::thread([this] { AcceptLoop(); });
  started_ = true;
  return Status::OK();
}

void Server::Stop() {
  if (!started_ || stopping_.exchange(true)) {
    // Not started, or another Stop already ran; still join if needed.
    if (accept_thread_.joinable()) accept_thread_.join();
    return;
  }
  ::shutdown(listen_fd_, SHUT_RDWR);
  ::close(listen_fd_);
  if (accept_thread_.joinable()) accept_thread_.join();
  std::list<Connection> conns;
  {
    std::lock_guard<std::mutex> lock(conn_mu_);
    for (const Connection& conn : conns_) {
      if (!conn.done) ::shutdown(conn.fd, SHUT_RDWR);
    }
    conns.swap(conns_);
  }
  for (Connection& conn : conns) conn.thread.join();
  pool_.Wait();
  started_ = false;
}

void Server::AcceptLoop() {
  while (!stopping_.load()) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      return;  // listener closed by Stop (or fatal accept error)
    }
    // A frame longer than one segment ends in a short one, which Nagle
    // would hold until the client ACKs the rest.
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    std::list<Connection> finished;
    {
      std::lock_guard<std::mutex> lock(conn_mu_);
      if (stopping_.load()) {
        ::close(fd);
        return;
      }
      for (auto it = conns_.begin(); it != conns_.end();) {
        const auto next = std::next(it);
        if (it->done) finished.splice(finished.end(), conns_, it);
        it = next;
      }
      Connection* conn = &conns_.emplace_back();
      conn->fd = fd;
      conn->thread = std::thread([this, conn] { HandleConnection(conn); });
    }
    for (Connection& conn : finished) conn.thread.join();
  }
}

size_t Server::num_connections() const {
  std::lock_guard<std::mutex> lock(conn_mu_);
  return conns_.size();
}

void Server::HandleConnection(Connection* conn) {
  const int fd = conn->fd;
  std::string payload;
  while (true) {
    Result<bool> alive = ReadFrame(fd, &payload);
    if (!alive.ok()) {
      // Malformed frame (oversized prefix / truncation): answer with a
      // typed error if the socket still works, then drop the connection —
      // framing is lost, so resynchronization is impossible.
      (void)WriteFrame(fd, FormatErrorResponse(alive.status(), QueryStats{}));
      break;
    }
    if (!*alive) break;  // clean EOF
    const std::string response = HandleRequest(payload);
    if (!WriteFrame(fd, response).ok()) break;
  }
  {
    // Leave the live set before closing: once closed, the descriptor
    // number may be reused, and Stop must not shut that one down.
    std::lock_guard<std::mutex> lock(conn_mu_);
    conn->done = true;
  }
  ::close(fd);
}

std::string Server::HandleRequest(const std::string& payload) {
  Result<WireRequest> parsed = ParseRequest(payload);
  if (!parsed.ok()) {
    return FormatErrorResponse(parsed.status(), QueryStats{});
  }
  const WireRequest& request = *parsed;
  Tenant* tenant = FindTenant(request.tenant);
  if (tenant == nullptr) {
    rejected_->Add();
    return FormatErrorResponse(
        Status::NotFound("unknown tenant " + request.tenant), QueryStats{});
  }
  if (!request.command.empty()) return HandleCommand(tenant, request);

  QueryStats rejection;
  Result<std::future<std::string>> admitted =
      SubmitQuery(tenant, request.sql, &rejection.retry_after_ms);
  if (!admitted.ok()) {
    rejected_->Add();
    return FormatErrorResponse(admitted.status(), rejection);
  }
  admitted_->Add();
  return admitted->get();
}

std::string Server::HandleCommand(Tenant* tenant,
                                  const WireRequest& request) {
  (void)tenant;  // commands are tenant-scoped for auditability, not behavior
  if (request.command == "ping") {
    return FormatPayloadResponse("\"pong\"");
  }
  if (request.command == "metrics") {
    return FormatPayloadResponse(
        obs::MetricsRegistry::Global().Snapshot().ToJson(-1));
  }
  if (request.command == "reload") {
    const std::string& path =
        request.arg.empty() ? options_.config_path : request.arg;
    if (path.empty()) {
      return FormatErrorResponse(
          Status::InvalidArgument("reload needs a config path"),
          QueryStats{});
    }
    if (Status status = Reload(path); !status.ok()) {
      return FormatErrorResponse(status, QueryStats{});
    }
    return FormatPayloadResponse("\"reloaded\"");
  }
  return FormatErrorResponse(
      Status::InvalidArgument("unknown command " + request.command),
      QueryStats{});
}

Result<std::future<std::string>> Server::SubmitQuery(Tenant* tenant,
                                                     std::string sql,
                                                     double* retry_after_ms) {
  Job job;
  job.sql = std::move(sql);
  job.enqueued = Clock::now();
  std::future<std::string> future = job.response.get_future();
  {
    std::lock_guard<std::mutex> lock(tenant->mu);
    const int cap =
        tenant->config.max_concurrent + tenant->config.queue_depth;
    if (tenant->inflight >= cap) {
      *retry_after_ms = tenant->recent_host_ms;
      return Status::ResourceExhausted(
          "tenant " + tenant->config.name + " is at capacity (" +
          std::to_string(cap) + " queries in flight)");
    }
    ++tenant->inflight;
    tenant->queue.push_back(std::move(job));
    if (!tenant->drain_scheduled) {
      tenant->drain_scheduled = true;
      pool_.Submit([this, tenant] { DrainOne(tenant); });
    }
  }
  return future;
}

void Server::DrainOne(Tenant* tenant) {
  Job job;
  {
    std::lock_guard<std::mutex> lock(tenant->mu);
    VDB_CHECK(!tenant->queue.empty());
    job = std::move(tenant->queue.front());
    tenant->queue.pop_front();
  }
  double host_ms = 0.0;
  std::string response = ExecuteJob(tenant, &job, &host_ms);
  {
    // Free the slot before answering: a closed-loop client sends again
    // as soon as it reads the answer, and must not be rejected for its
    // own finished query.
    std::lock_guard<std::mutex> lock(tenant->mu);
    --tenant->inflight;
    tenant->recent_host_ms +=
        kRetryHintWeight * (host_ms - tenant->recent_host_ms);
    if (!tenant->queue.empty()) {
      // Re-enqueue rather than loop: the pool's FIFO order interleaves the
      // other tenants' drain tasks, giving cross-tenant round-robin.
      pool_.Submit([this, tenant] { DrainOne(tenant); });
    } else {
      tenant->drain_scheduled = false;
    }
  }
  job.response.set_value(std::move(response));
}

std::string Server::ExecuteJob(Tenant* tenant, Job* job, double* host_ms) {
  std::lock_guard<std::mutex> exec_lock(tenant->exec_mu);
  QueryStats stats;
  stats.queue_ms = MillisSince(job->enqueued);
  const Clock::time_point start = Clock::now();
  Result<exec::QueryResult> result =
      tenant->db.Execute(job->sql, *tenant->vm);
  stats.host_ms = MillisSince(start);
  *host_ms = stats.host_ms;
  tenant->latency->RecordSeconds(1e-3 * stats.host_ms);
  if (!result.ok()) {
    if (result.status().IsBudgetExceeded()) aborted_budget_->Add();
    return FormatErrorResponse(result.status(), stats);
  }
  stats.elapsed_ms = 1000 * result->elapsed_seconds;
  stats.cpu_ms = 1000 * result->cpu_seconds;
  stats.io_ms = 1000 * result->io_seconds;
  stats.estimated_ms = result->estimated_ms;
  stats.physical_reads = result->physical_reads;
  stats.pages_pruned = result->pages_pruned;
  stats.pages_scanned = result->pages_scanned;
  return FormatRowsResponse(result->column_names, result->rows, stats);
}

Status Server::Reload(const std::string& path) {
  VDB_ASSIGN_OR_RETURN(const std::vector<TenantConfig> configs,
                       LoadTenantConfigs(path));
  std::lock_guard<std::mutex> reload_lock(reload_mu_);
  // Two rounds of SetShare: a reload that shrinks tenant A to grow tenant
  // B transiently oversubscribes if B's line is applied first, so retry
  // failures once after every shrink has landed.
  std::vector<std::pair<Tenant*, const TenantConfig*>> matched;
  for (const TenantConfig& config : configs) {
    if (Tenant* tenant = FindTenant(config.name)) {
      matched.emplace_back(tenant, &config);
    }
  }
  if (matched.empty()) {
    return Status::InvalidArgument(path + " names no running tenant");
  }
  std::vector<std::pair<Tenant*, const TenantConfig*>> deferred;
  for (const auto& [tenant, config] : matched) {
    const sim::ResourceShare share(config->cpu_share, config->mem_share,
                                   config->io_share);
    if (!vmm_.SetShare(config->name, share).ok()) {
      deferred.emplace_back(tenant, config);
    }
  }
  for (const auto& [tenant, config] : deferred) {
    VDB_RETURN_NOT_OK(vmm_.SetShare(
        config->name, sim::ResourceShare(config->cpu_share,
                                         config->mem_share,
                                         config->io_share)));
  }
  for (const auto& [tenant, config] : matched) {
    // exec_mu keeps the instance reconfiguration from racing a running
    // query on this tenant.
    std::lock_guard<std::mutex> exec_lock(tenant->exec_mu);
    VDB_RETURN_NOT_OK(tenant->db.ApplyVmConfig(*tenant->vm));
    exec::QueryOptions query_options = tenant->db.query_options();
    query_options.budget = config->budget;
    tenant->db.set_query_options(query_options);
    std::lock_guard<std::mutex> lock(tenant->mu);
    tenant->config.cpu_share = config->cpu_share;
    tenant->config.mem_share = config->mem_share;
    tenant->config.io_share = config->io_share;
    tenant->config.budget = config->budget;
    tenant->config.max_concurrent = config->max_concurrent;
    tenant->config.queue_depth = config->queue_depth;
  }
  return Status::OK();
}

}  // namespace vdb::server
