// Blocking wire-protocol client for one server connection, and the backoff
// a client applies after admission rejections.

#ifndef VDB_SERVER_CLIENT_H_
#define VDB_SERVER_CLIENT_H_

#include <string>

#include "server/wire.h"
#include "util/result.h"

namespace vdb::server {

/// Blocking client for one server connection. Not thread-safe: the wire
/// protocol is strictly request/response per connection, so concurrent
/// clients each open their own (vdb_loadgen opens one per simulated
/// client).
class WireClient {
 public:
  WireClient() = default;
  ~WireClient();

  WireClient(const WireClient&) = delete;
  WireClient& operator=(const WireClient&) = delete;
  WireClient(WireClient&& other) noexcept;
  WireClient& operator=(WireClient&& other) noexcept;

  static Result<WireClient> Connect(const std::string& host, int port);

  bool connected() const { return fd_ >= 0; }
  void Close();

  /// Executes `sql` as `tenant`. A server-side error (budget abort,
  /// rejection, planner error) comes back as a WireResponse whose `error`
  /// carries the typed code; transport failures are this Result's error.
  Result<WireResponse> Query(const std::string& tenant,
                             const std::string& sql);

  /// Runs a control command ("ping", "metrics", "reload" with `arg`).
  Result<WireResponse> Command(const std::string& tenant,
                               const std::string& command,
                               const std::string& arg = "");

 private:
  Result<WireResponse> RoundTrip(const WireRequest& request);

  int fd_ = -1;
};

/// Pacing of a closed-loop client after admission rejections (DESIGN.md
/// §13). After its k-th consecutive ResourceExhausted answer a client
/// waits min(1 s, hint * 2^k) * (0.5 + jitter), where hint is the
/// answer's stats.retry_after_ms but at least 1 ms; any other answer
/// resets k and the wait to 0. Without it, rejected clients re-send at
/// once and burn the CPU that the admitted queries need.
struct RetryBackoff {
  int rejections = 0;   // k
  double wait_ms = 0.0;  // pause before the next request
};

/// The backoff after `answer`, given the one before it. `jitter` is a
/// uniform draw from [0, 1) supplied by the caller, so the function is
/// pure.
RetryBackoff NextRetryBackoff(const RetryBackoff& previous,
                              const WireResponse& answer, double jitter);

}  // namespace vdb::server

#endif  // VDB_SERVER_CLIENT_H_
