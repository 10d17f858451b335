#include "server/client.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstring>
#include <utility>

namespace vdb::server {

WireClient::~WireClient() { Close(); }

WireClient::WireClient(WireClient&& other) noexcept
    : fd_(std::exchange(other.fd_, -1)) {}

WireClient& WireClient::operator=(WireClient&& other) noexcept {
  if (this != &other) {
    Close();
    fd_ = std::exchange(other.fd_, -1);
  }
  return *this;
}

void WireClient::Close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

Result<WireClient> WireClient::Connect(const std::string& host, int port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return Status::IOError(std::string("socket: ") + std::strerror(errno));
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    ::close(fd);
    return Status::InvalidArgument("bad server address " + host);
  }
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    const std::string detail = std::strerror(errno);
    ::close(fd);
    return Status::IOError("connect " + host + ":" + std::to_string(port) +
                           ": " + detail);
  }
  // A request frame longer than one segment ends in a short one, which
  // Nagle would hold until the server ACKs the rest.
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  WireClient client;
  client.fd_ = fd;
  return client;
}

Result<WireResponse> WireClient::RoundTrip(const WireRequest& request) {
  if (fd_ < 0) return Status::IOError("client is not connected");
  VDB_RETURN_NOT_OK(WriteFrame(fd_, FormatRequest(request)));
  std::string payload;
  VDB_ASSIGN_OR_RETURN(const bool alive, ReadFrame(fd_, &payload));
  if (!alive) {
    Close();
    return Status::IOError("server closed the connection");
  }
  return ParseResponse(payload);
}

Result<WireResponse> WireClient::Query(const std::string& tenant,
                                       const std::string& sql) {
  WireRequest request;
  request.tenant = tenant;
  request.sql = sql;
  return RoundTrip(request);
}

Result<WireResponse> WireClient::Command(const std::string& tenant,
                                         const std::string& command,
                                         const std::string& arg) {
  WireRequest request;
  request.tenant = tenant;
  request.command = command;
  request.arg = arg;
  return RoundTrip(request);
}

RetryBackoff NextRetryBackoff(const RetryBackoff& previous,
                              const WireResponse& answer, double jitter) {
  constexpr double kMinHintMs = 1.0;
  constexpr double kMaxWaitMs = 1000.0;
  // Past 2^30 the 1 s cap has long applied; k stops counting there.
  constexpr int kMaxRejections = 30;
  if (!answer.error.IsResourceExhausted()) return RetryBackoff{};
  RetryBackoff next;
  next.rejections = std::min(previous.rejections, kMaxRejections - 1) + 1;
  const double hint_ms = std::max(kMinHintMs, answer.stats.retry_after_ms);
  next.wait_ms = std::min(kMaxWaitMs, std::ldexp(hint_ms, next.rejections)) *
                 (0.5 + std::clamp(jitter, 0.0, 1.0));
  return next;
}

}  // namespace vdb::server
