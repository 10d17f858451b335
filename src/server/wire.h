// The length-prefixed JSON wire protocol shared by server, client, and
// loadgen.

#ifndef VDB_SERVER_WIRE_H_
#define VDB_SERVER_WIRE_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "catalog/schema.h"
#include "catalog/value.h"
#include "util/result.h"

// Wire protocol (DESIGN.md §13): every message is a frame — a 4-byte
// big-endian payload length followed by that many bytes of UTF-8 JSON.
// Frames larger than kMaxFrameBytes are a protocol error on both ends.
// A peer must send each frame in one write or set TCP_NODELAY: a prefix
// written on its own lets Nagle's algorithm hold the payload until the
// other side's delayed ACK, about 40 ms per direction.
//
// Request payloads:
//   {"tenant": "alpha", "sql": "SELECT ..."}        execute a statement
//   {"tenant": "alpha", "command": "ping"}          liveness probe
//   {"tenant": "alpha", "command": "metrics"}       server metrics snapshot
//   {"tenant": "alpha", "command": "reload",
//    "arg": "path/to/tenants.conf"}                 re-apply tenant shares
//
// Response payloads:
//   {"columns": [...], "rows": [[cell, ...], ...], "stats": {...}}
//   {"error": {"code": "BudgetExceeded", "message": "..."}, "stats": {...}}
//     (a ResourceExhausted rejection's stats carry retry_after_ms)
//   {"payload": <raw json>}                         control-command result
//
// Row cells are JSON strings holding Value::ToString() (null cells are
// JSON null), so int64/double values never round-trip through a double
// and lose precision. Error codes travel as enum-style names and are
// parsed back into a typed Status on the client, so a budget abort is
// distinguishable from a planner error without string matching.
namespace vdb::server {

/// Hard cap on one frame's JSON payload.
inline constexpr uint32_t kMaxFrameBytes = 16u * 1024 * 1024;

/// Stable wire name for a status code ("BudgetExceeded", ...).
const char* StatusCodeName(StatusCode code);

/// Inverse of StatusCodeName. kInternal for unknown names.
StatusCode StatusCodeFromName(const std::string& name);

// ---------------------------------------------------------------------------
// Frame I/O (blocking, EINTR-safe).

/// Writes one length-prefixed frame to a connected socket with a single
/// sendmsg (looping on partial sends). A peer that hung up is an IOError,
/// never SIGPIPE.
Status WriteFrame(int fd, const std::string& payload);

/// Reads one frame. Returns false on clean EOF at a frame boundary
/// (peer closed); errors on truncated frames or oversized prefixes.
Result<bool> ReadFrame(int fd, std::string* payload);

// ---------------------------------------------------------------------------
// Requests.

struct WireRequest {
  std::string tenant;
  std::string sql;      // empty when command is set
  std::string command;  // "ping" | "metrics" | "reload"
  std::string arg;      // command argument (reload: config path)
};

std::string FormatRequest(const WireRequest& request);
Result<WireRequest> ParseRequest(const std::string& payload);

// ---------------------------------------------------------------------------
// Responses.

/// Per-query accounting the server reports alongside rows or errors.
struct QueryStats {
  double elapsed_ms = 0.0;    // simulated wall-clock inside the tenant VM
  double cpu_ms = 0.0;        // simulated CPU component
  double io_ms = 0.0;         // simulated IO component
  double estimated_ms = 0.0;  // optimizer estimate for the executed plan
  double host_ms = 0.0;       // real execution time on the host
  double queue_ms = 0.0;      // real time spent queued before execution
  uint64_t physical_reads = 0;
  // Zone-map data skipping (DESIGN.md §16): heap pages the scan proved
  // empty under its predicate and never fetched vs pages it did read.
  uint64_t pages_pruned = 0;
  uint64_t pages_scanned = 0;
  // Set only on an admission rejection (ResourceExhausted): the tenant's
  // recent per-query host time, the server's hint for how long a client
  // should wait before retrying (see RetryBackoff in server/client.h).
  // Travels only when above 0.
  double retry_after_ms = 0.0;
};

/// One decoded row: each cell is Value::ToString(), nullopt for NULL.
using WireRow = std::vector<std::optional<std::string>>;

struct WireResponse {
  Status error = Status::OK();  // typed; OK for row/payload responses
  std::vector<std::string> columns;
  std::vector<WireRow> rows;
  QueryStats stats;
  std::string payload;  // raw JSON from a control command
};

std::string FormatRowsResponse(const std::vector<std::string>& column_names,
                               const std::vector<catalog::Tuple>& rows,
                               const QueryStats& stats);
std::string FormatErrorResponse(const Status& error, const QueryStats& stats);
/// Wraps a control command's result; `raw_json` must be valid JSON and is
/// spliced verbatim (the metrics command splices MetricsSnapshot::ToJson).
std::string FormatPayloadResponse(const std::string& raw_json);

Result<WireResponse> ParseResponse(const std::string& payload);

}  // namespace vdb::server

#endif  // VDB_SERVER_WIRE_H_
