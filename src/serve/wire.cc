#include "serve/wire.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <thread>

namespace serd::serve {

namespace {

std::string Errno(const char* what) {
  return std::string(what) + ": " + std::strerror(errno);
}

/// Writes exactly `n` bytes, looping over short writes and EINTR.
/// Sockets are written with MSG_NOSIGNAL so a peer that disconnected
/// mid-response surfaces as an EPIPE IOError instead of a process-killing
/// SIGPIPE; non-socket fds (the pipe-based wire tests) fall back to
/// write().
Status WriteAll(int fd, const char* data, size_t n) {
  size_t off = 0;
  while (off < n) {
    ssize_t wrote = ::send(fd, data + off, n - off, MSG_NOSIGNAL);
    if (wrote < 0 && errno == ENOTSOCK) {
      wrote = ::write(fd, data + off, n - off);
    }
    if (wrote < 0) {
      if (errno == EINTR) continue;
      return Status::IOError(Errno("write"));
    }
    off += static_cast<size_t>(wrote);
  }
  return Status::OK();
}

/// Reads exactly `n` bytes. `*eof_ok` in: whether clean EOF at offset 0
/// is acceptable; out: whether that EOF happened.
Status ReadAll(int fd, char* data, size_t n, bool* eof_ok) {
  size_t off = 0;
  while (off < n) {
    ssize_t got = ::read(fd, data + off, n - off);
    if (got < 0) {
      if (errno == EINTR) continue;
      return Status::IOError(Errno("read"));
    }
    if (got == 0) {
      if (off == 0 && eof_ok != nullptr && *eof_ok) {
        return Status::Unavailable("connection closed");
      }
      return Status::IOError("unexpected EOF mid-frame");
    }
    off += static_cast<size_t>(got);
  }
  if (eof_ok != nullptr) *eof_ok = false;
  return Status::OK();
}

}  // namespace

Status WriteFrame(int fd, const std::string& payload) {
  if (payload.size() > kMaxFrameBytes) {
    return Status::InvalidArgument("frame over " +
                                   std::to_string(kMaxFrameBytes) + " bytes");
  }
  // Prefix and payload go out in one write. Two sends (prefix, then
  // payload) are the write-write-read pattern where Nagle holds the second
  // segment back until the peer's delayed ACK arrives, tens of ms per
  // round trip.
  const uint32_t n = static_cast<uint32_t>(payload.size());
  std::string frame;
  frame.reserve(4 + payload.size());
  frame.push_back(static_cast<char>(n >> 24));
  frame.push_back(static_cast<char>(n >> 16));
  frame.push_back(static_cast<char>(n >> 8));
  frame.push_back(static_cast<char>(n));
  frame.append(payload);
  return WriteAll(fd, frame.data(), frame.size());
}

Status ReadFrame(int fd, std::string* payload) {
  unsigned char prefix[4];
  bool eof_ok = true;
  SERD_RETURN_IF_ERROR(
      ReadAll(fd, reinterpret_cast<char*>(prefix), 4, &eof_ok));
  uint32_t n = (static_cast<uint32_t>(prefix[0]) << 24) |
               (static_cast<uint32_t>(prefix[1]) << 16) |
               (static_cast<uint32_t>(prefix[2]) << 8) |
               static_cast<uint32_t>(prefix[3]);
  if (n > kMaxFrameBytes) {
    return Status::IOError("frame length " + std::to_string(n) +
                           " over the " + std::to_string(kMaxFrameBytes) +
                           "-byte limit");
  }
  payload->resize(n);
  if (n == 0) return Status::OK();
  return ReadAll(fd, payload->data(), n, nullptr);
}

Status WriteJson(int fd, const obs::Json& message) {
  return WriteFrame(fd, message.Dump());
}

Result<obs::Json> ReadJson(int fd) {
  std::string payload;
  SERD_RETURN_IF_ERROR(ReadFrame(fd, &payload));
  return obs::Json::Parse(payload);
}

Status ListenOn(int port, int* listen_fd, int* bound_port) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return Status::IOError(Errno("socket"));
  int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<uint16_t>(port));
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    Status status = Status::IOError(Errno("bind"));
    ::close(fd);
    return status;
  }
  if (::listen(fd, 16) < 0) {
    Status status = Status::IOError(Errno("listen"));
    ::close(fd);
    return status;
  }
  socklen_t len = sizeof(addr);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) < 0) {
    Status status = Status::IOError(Errno("getsockname"));
    ::close(fd);
    return status;
  }
  *listen_fd = fd;
  *bound_port = ntohs(addr.sin_port);
  return Status::OK();
}

void SetTcpNoDelay(int fd) {
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

Result<int> ConnectTo(int port) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return Status::IOError(Errno("socket"));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<uint16_t>(port));
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    Status status = Status::IOError("connect to 127.0.0.1:" +
                                    std::to_string(port) + ": " +
                                    std::strerror(errno));
    ::close(fd);
    return status;
  }
  SetTcpNoDelay(fd);
  return fd;
}

int WireFailureExitCode(StatusCode code) {
  switch (code) {
    case StatusCode::kOk:
      return 0;
    case StatusCode::kInvalidArgument:
      return 3;
    case StatusCode::kResourceExhausted:
      return 4;
    case StatusCode::kUnavailable:
      return 5;
    case StatusCode::kIOError:
      return 6;
    case StatusCode::kDeadlineExceeded:
      return 7;
    case StatusCode::kCancelled:
      return 8;
    default:
      return 1;
  }
}

int WireFailureExitCode(const std::string& code_name) {
  if (code_name == "OK") return 0;
  if (code_name == "InvalidArgument") return 3;
  if (code_name == "ResourceExhausted") return 4;
  if (code_name == "Unavailable") return 5;
  if (code_name == "IOError") return 6;
  if (code_name == "DeadlineExceeded") return 7;
  if (code_name == "Cancelled") return 8;
  return 1;
}

Status ServeClient::Connect(int port) {
  Close();
  port_ = port;
  Result<int> fd = ConnectTo(port);
  if (!fd.ok()) return fd.status();
  fd_ = fd.value();
  return Status::OK();
}

void ServeClient::Close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

Result<obs::Json> ServeClient::Call(const obs::Json& request) {
  if (fd_ < 0) return Status::FailedPrecondition("client is not connected");
  SERD_RETURN_IF_ERROR(WriteJson(fd_, request));
  return ReadJson(fd_);
}

namespace {

/// Transient failure classes worth a backoff-and-retry (wire.h docs).
bool RetryableCode(StatusCode code) {
  return code == StatusCode::kUnavailable ||
         code == StatusCode::kResourceExhausted;
}

bool RetryableCodeName(const std::string& name) {
  return name == "Unavailable" || name == "ResourceExhausted";
}

/// splitmix64 — one multiply-shift step per draw, deterministic per seed.
uint64_t NextJitter(uint64_t* state) {
  uint64_t z = (*state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

}  // namespace

Result<obs::Json> ServeClient::CallWithRetry(const obs::Json& request,
                                             const RetryOptions& retry) {
  uint64_t jitter_state = retry.jitter_seed;
  for (int attempt = 0;; ++attempt) {
    Status transient = Status::OK();
    if (fd_ < 0 && port_ >= 0) {
      // Reconnect (first call after a transport failure closed the fd, or
      // the caller never connected after construction). Connect refusal
      // while the server restarts is the transient case backoff exists for.
      Status status = Connect(port_);
      if (!status.ok()) {
        transient = Status::Unavailable("connect: " + status.message());
      }
    }
    if (transient.ok()) {
      Result<obs::Json> response = Call(request);
      if (response.ok()) {
        const obs::Json& body = response.value();
        bool ok_field = body.Has("ok") ? body.at("ok").AsBool(true) : true;
        const std::string& code_name = body.at("code").AsString();
        if (ok_field || !RetryableCodeName(code_name)) return response;
        transient = Status(code_name == "Unavailable"
                               ? StatusCode::kUnavailable
                               : StatusCode::kResourceExhausted,
                           body.at("error").AsString());
        // The response frame was consumed cleanly; the connection is
        // still usable, no reconnect needed for the retry.
      } else {
        if (!RetryableCode(response.status().code())) return response;
        transient = response.status();
        Close();  // mid-call failure: framing state is undefined
      }
    }
    if (attempt >= retry.max_retries) {
      if (!transient.ok()) return transient;
      return Status::Internal("retry loop exited without a status");
    }
    int backoff = retry.base_backoff_ms;
    for (int i = 0; i < attempt && backoff < retry.max_backoff_ms; ++i) {
      backoff *= 2;
    }
    if (backoff > retry.max_backoff_ms) backoff = retry.max_backoff_ms;
    if (backoff < 1) backoff = 1;
    // Uniform over [backoff/2, backoff] — decorrelates a fleet of
    // retrying clients while staying deterministic per jitter_seed.
    int64_t half = backoff / 2;
    int64_t sleep_ms =
        half + static_cast<int64_t>(NextJitter(&jitter_state) %
                                    static_cast<uint64_t>(backoff - half + 1));
    std::this_thread::sleep_for(std::chrono::milliseconds(sleep_ms));
  }
}

}  // namespace serd::serve
