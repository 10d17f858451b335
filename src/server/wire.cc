#include "server/wire.h"

#include <arpa/inet.h>
#include <errno.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <cstring>

#include "obs/json.h"

namespace vdb::server {

namespace {

using obs::JsonValue;
using obs::JsonWriter;

struct CodeNameEntry {
  StatusCode code;
  const char* name;
};

constexpr CodeNameEntry kCodeNames[] = {
    {StatusCode::kOk, "Ok"},
    {StatusCode::kInvalidArgument, "InvalidArgument"},
    {StatusCode::kNotFound, "NotFound"},
    {StatusCode::kAlreadyExists, "AlreadyExists"},
    {StatusCode::kOutOfRange, "OutOfRange"},
    {StatusCode::kNotSupported, "NotSupported"},
    {StatusCode::kIOError, "IOError"},
    {StatusCode::kResourceExhausted, "ResourceExhausted"},
    {StatusCode::kInternal, "Internal"},
    {StatusCode::kBudgetExceeded, "BudgetExceeded"},
};

/// Reads exactly `size` bytes. Returns false on EOF before the first byte;
/// EOF mid-buffer is an error (truncated frame).
Result<bool> ReadFull(int fd, char* data, size_t size) {
  size_t got = 0;
  while (got < size) {
    const ssize_t n = ::read(fd, data + got, size - got);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::IOError(std::string("read: ") + std::strerror(errno));
    }
    if (n == 0) {
      if (got == 0) return false;
      return Status::IOError("connection closed mid-frame");
    }
    got += static_cast<size_t>(n);
  }
  return true;
}

void WriteStats(JsonWriter* w, const QueryStats& stats) {
  w->Key("stats");
  w->BeginObject();
  w->Key("elapsed_ms");
  w->Number(stats.elapsed_ms);
  w->Key("cpu_ms");
  w->Number(stats.cpu_ms);
  w->Key("io_ms");
  w->Number(stats.io_ms);
  w->Key("estimated_ms");
  w->Number(stats.estimated_ms);
  w->Key("host_ms");
  w->Number(stats.host_ms);
  w->Key("queue_ms");
  w->Number(stats.queue_ms);
  w->Key("physical_reads");
  w->Uint(stats.physical_reads);
  w->Key("pages_pruned");
  w->Uint(stats.pages_pruned);
  w->Key("pages_scanned");
  w->Uint(stats.pages_scanned);
  if (stats.retry_after_ms > 0) {
    w->Key("retry_after_ms");
    w->Number(stats.retry_after_ms);
  }
  w->EndObject();
}

void ParseStats(const JsonValue& doc, QueryStats* stats) {
  const JsonValue* s = doc.Find("stats");
  if (s == nullptr || !s->is_object()) return;
  stats->elapsed_ms = s->GetNumber("elapsed_ms");
  stats->cpu_ms = s->GetNumber("cpu_ms");
  stats->io_ms = s->GetNumber("io_ms");
  stats->estimated_ms = s->GetNumber("estimated_ms");
  stats->host_ms = s->GetNumber("host_ms");
  stats->queue_ms = s->GetNumber("queue_ms");
  stats->physical_reads =
      static_cast<uint64_t>(s->GetNumber("physical_reads"));
  stats->pages_pruned = static_cast<uint64_t>(s->GetNumber("pages_pruned"));
  stats->pages_scanned =
      static_cast<uint64_t>(s->GetNumber("pages_scanned"));
  stats->retry_after_ms = s->GetNumber("retry_after_ms");
}

}  // namespace

const char* StatusCodeName(StatusCode code) {
  for (const CodeNameEntry& entry : kCodeNames) {
    if (entry.code == code) return entry.name;
  }
  return "Internal";
}

StatusCode StatusCodeFromName(const std::string& name) {
  for (const CodeNameEntry& entry : kCodeNames) {
    if (name == entry.name) return entry.code;
  }
  return StatusCode::kInternal;
}

Status WriteFrame(int fd, const std::string& payload) {
  if (payload.size() > kMaxFrameBytes) {
    return Status::InvalidArgument("frame exceeds " +
                                   std::to_string(kMaxFrameBytes) + " bytes");
  }
  char prefix[4];
  const uint32_t n = htonl(static_cast<uint32_t>(payload.size()));
  std::memcpy(prefix, &n, 4);
  // Prefix and payload leave in one sendmsg: written separately, the
  // payload waits behind Nagle until the peer's delayed ACK of the prefix.
  // MSG_NOSIGNAL turns a peer that hung up into EPIPE for this connection
  // instead of a process-killing SIGPIPE.
  iovec parts[2] = {{prefix, 4},
                    {const_cast<char*>(payload.data()), payload.size()}};
  msghdr msg{};
  msg.msg_iov = parts;
  msg.msg_iovlen = 2;
  while (msg.msg_iovlen > 0) {
    const ssize_t sent = ::sendmsg(fd, &msg, MSG_NOSIGNAL);
    if (sent < 0) {
      if (errno == EINTR) continue;
      return Status::IOError(std::string("send: ") + std::strerror(errno));
    }
    // Partial send: drop the fully sent parts, advance into the next one.
    size_t left = static_cast<size_t>(sent);
    while (msg.msg_iovlen > 0 && left >= msg.msg_iov->iov_len) {
      left -= msg.msg_iov->iov_len;
      ++msg.msg_iov;
      --msg.msg_iovlen;
    }
    if (msg.msg_iovlen > 0) {
      msg.msg_iov->iov_base = static_cast<char*>(msg.msg_iov->iov_base) + left;
      msg.msg_iov->iov_len -= left;
    }
  }
  return Status::OK();
}

Result<bool> ReadFrame(int fd, std::string* payload) {
  char prefix[4];
  VDB_ASSIGN_OR_RETURN(const bool alive, ReadFull(fd, prefix, 4));
  if (!alive) return false;
  uint32_t n = 0;
  std::memcpy(&n, prefix, 4);
  n = ntohl(n);
  if (n > kMaxFrameBytes) {
    return Status::InvalidArgument("frame length " + std::to_string(n) +
                                   " exceeds protocol maximum");
  }
  payload->resize(n);
  if (n > 0) {
    VDB_ASSIGN_OR_RETURN(const bool complete,
                         ReadFull(fd, payload->data(), n));
    if (!complete) return Status::IOError("connection closed mid-frame");
  }
  return true;
}

std::string FormatRequest(const WireRequest& request) {
  JsonWriter w(-1);
  w.BeginObject();
  w.Key("tenant");
  w.String(request.tenant);
  if (!request.command.empty()) {
    w.Key("command");
    w.String(request.command);
    if (!request.arg.empty()) {
      w.Key("arg");
      w.String(request.arg);
    }
  } else {
    w.Key("sql");
    w.String(request.sql);
  }
  w.EndObject();
  return w.Take();
}

Result<WireRequest> ParseRequest(const std::string& payload) {
  JsonValue doc;
  std::string error;
  if (!obs::ParseJson(payload, &doc, &error)) {
    return Status::InvalidArgument("malformed request: " + error);
  }
  if (!doc.is_object()) {
    return Status::InvalidArgument("request must be a JSON object");
  }
  WireRequest request;
  request.tenant = doc.GetString("tenant");
  request.sql = doc.GetString("sql");
  request.command = doc.GetString("command");
  request.arg = doc.GetString("arg");
  if (request.tenant.empty()) {
    return Status::InvalidArgument("request is missing \"tenant\"");
  }
  if (request.sql.empty() == request.command.empty()) {
    return Status::InvalidArgument(
        "request needs exactly one of \"sql\" or \"command\"");
  }
  return request;
}

std::string FormatRowsResponse(const std::vector<std::string>& column_names,
                               const std::vector<catalog::Tuple>& rows,
                               const QueryStats& stats) {
  JsonWriter w(-1);
  w.BeginObject();
  w.Key("columns");
  w.BeginArray();
  for (const std::string& name : column_names) w.String(name);
  w.EndArray();
  w.Key("rows");
  w.BeginArray();
  for (const catalog::Tuple& row : rows) {
    w.BeginArray();
    for (const catalog::Value& cell : row) {
      if (cell.is_null()) {
        w.Null();
      } else {
        w.String(cell.ToString());
      }
    }
    w.EndArray();
  }
  w.EndArray();
  WriteStats(&w, stats);
  w.EndObject();
  return w.Take();
}

std::string FormatErrorResponse(const Status& error, const QueryStats& stats) {
  JsonWriter w(-1);
  w.BeginObject();
  w.Key("error");
  w.BeginObject();
  w.Key("code");
  w.String(StatusCodeName(error.code()));
  w.Key("message");
  w.String(error.message());
  w.EndObject();
  WriteStats(&w, stats);
  w.EndObject();
  return w.Take();
}

std::string FormatPayloadResponse(const std::string& raw_json) {
  JsonWriter w(-1);
  w.BeginObject();
  w.Key("payload");
  w.Raw(raw_json);
  w.EndObject();
  return w.Take();
}

Result<WireResponse> ParseResponse(const std::string& payload) {
  JsonValue doc;
  std::string error;
  if (!obs::ParseJson(payload, &doc, &error)) {
    return Status::InvalidArgument("malformed response: " + error);
  }
  if (!doc.is_object()) {
    return Status::InvalidArgument("response must be a JSON object");
  }
  WireResponse response;
  ParseStats(doc, &response.stats);
  if (const JsonValue* err = doc.Find("error"); err != nullptr) {
    if (!err->is_object()) {
      return Status::InvalidArgument("response \"error\" must be an object");
    }
    const StatusCode code = StatusCodeFromName(err->GetString("code"));
    response.error = Status(code, err->GetString("message"));
    return response;
  }
  if (const JsonValue* raw = doc.Find("payload"); raw != nullptr) {
    JsonWriter w(2);
    // Re-render so callers get a standalone document regardless of the
    // original frame's formatting.
    struct Render {
      static void Value(JsonWriter* w, const JsonValue& v) {
        switch (v.type) {
          case JsonValue::Type::kNull:
            w->Null();
            break;
          case JsonValue::Type::kBool:
            w->Bool(v.bool_value);
            break;
          case JsonValue::Type::kNumber:
            w->Number(v.number);
            break;
          case JsonValue::Type::kString:
            w->String(v.string_value);
            break;
          case JsonValue::Type::kArray:
            w->BeginArray();
            for (const JsonValue& item : v.items) Value(w, item);
            w->EndArray();
            break;
          case JsonValue::Type::kObject:
            w->BeginObject();
            for (const auto& [key, member] : v.members) {
              w->Key(key);
              Value(w, member);
            }
            w->EndObject();
            break;
        }
      }
    };
    Render::Value(&w, *raw);
    response.payload = w.Take();
    return response;
  }
  const JsonValue* columns = doc.Find("columns");
  const JsonValue* rows = doc.Find("rows");
  if (columns == nullptr || !columns->is_array() || rows == nullptr ||
      !rows->is_array()) {
    return Status::InvalidArgument(
        "response has neither rows, error, nor payload");
  }
  for (const JsonValue& name : columns->items) {
    if (!name.is_string()) {
      return Status::InvalidArgument("column names must be strings");
    }
    response.columns.push_back(name.string_value);
  }
  for (const JsonValue& row : rows->items) {
    if (!row.is_array()) {
      return Status::InvalidArgument("each row must be an array");
    }
    WireRow decoded;
    decoded.reserve(row.items.size());
    for (const JsonValue& cell : row.items) {
      if (cell.is_null()) {
        decoded.emplace_back(std::nullopt);
      } else if (cell.is_string()) {
        decoded.emplace_back(cell.string_value);
      } else {
        return Status::InvalidArgument("row cells must be strings or null");
      }
    }
    response.rows.push_back(std::move(decoded));
  }
  return response;
}

}  // namespace vdb::server
