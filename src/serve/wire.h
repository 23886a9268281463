#ifndef SERD_SERVE_WIRE_H_
#define SERD_SERVE_WIRE_H_

#include <cstdint>
#include <string>

#include "common/status.h"
#include "obs/json.h"

namespace serd::serve {

/// Dependency-free framing for the serving protocol: each message is a
/// 4-byte big-endian length followed by that many bytes of UTF-8 JSON.
/// Length-prefixing (rather than newline-delimiting) keeps the payload
/// free to contain any JSON, including pretty-printed multi-line dumps.
///
/// The fd-based calls below work on any stream socket; everything is
/// blocking (the server runs a thread per connection, the client is
/// synchronous). Short reads/writes are looped to completion; EOF during
/// a frame is an IOError, EOF *between* frames surfaces as kUnavailable
/// from ReadFrame so callers can distinguish orderly hangup.

/// Upper bound on one frame (16 MiB) — a malformed length prefix must not
/// make the receiver allocate gigabytes.
inline constexpr uint32_t kMaxFrameBytes = 16u << 20;

/// Writes one length-prefixed frame with a single write of prefix and
/// payload.
Status WriteFrame(int fd, const std::string& payload);

/// Reads one length-prefixed frame into `payload`. Returns Unavailable
/// on clean EOF before any prefix byte, IOError on mid-frame EOF or a
/// prefix over kMaxFrameBytes.
Status ReadFrame(int fd, std::string* payload);

/// WriteFrame(Dump()) convenience.
Status WriteJson(int fd, const obs::Json& message);

/// ReadFrame + Parse convenience.
Result<obs::Json> ReadJson(int fd);

/// Opens a listening TCP socket on 127.0.0.1:`port` (port 0 = kernel-
/// assigned). On success stores the fd and the actually bound port.
Status ListenOn(int port, int* listen_fd, int* bound_port);

/// Blocking connect to 127.0.0.1:`port`. The socket has TCP_NODELAY set.
Result<int> ConnectTo(int port);

/// Sets TCP_NODELAY: every frame is one complete request or response, so
/// there is nothing for Nagle's algorithm to coalesce, only latency to
/// add. Applied to client sockets (ConnectTo) and to the server's accepted
/// ones. Best effort: a failure only costs latency.
void SetTcpNoDelay(int fd);

/// Maps a failed wire-level status class to serd_submit's documented
/// process exit codes, mirroring the serd_cli artifact scheme (0 = ok,
/// 2 = usage, then one exit code per failure class) so scripts can branch
/// on *why* a call failed without parsing JSON:
///   3 = InvalidArgument   (server rejected the request itself)
///   4 = ResourceExhausted (admission control: queue full / tenant cap —
///                          retry after capacity frees up)
///   5 = Unavailable       (server draining/stopped, orderly hangup, or
///                          connect refused)
///   6 = IOError           (transport: mid-frame EOF, oversized frame,
///                          socket read/write failure)
///   7 = DeadlineExceeded  (the job's deadline_ms elapsed in queue or
///                          mid-run; retry with a larger deadline is safe —
///                          job seeds are content-keyed)
///   8 = Cancelled         (the job was cancelled via the `cancel` verb)
///   1 = any other failure (job execution errors, Internal, ...)
int WireFailureExitCode(StatusCode code);

/// Same mapping from a response's "code" field (StatusCodeName strings —
/// what ErrorJson and failed-job statuses put on the wire). Unrecognized
/// or missing names map to 1.
int WireFailureExitCode(const std::string& code_name);

/// Backoff policy for ServeClient::CallWithRetry. Retries are safe to
/// enable for any serving verb: job seeds are content-keyed (derived from
/// the seed_key, not from arrival order), so a retried synthesize produces
/// byte-identical output to the attempt it replaces.
struct RetryOptions {
  /// Additional attempts after the first (0 = behave exactly like Call).
  int max_retries = 0;
  /// First retry waits ~base_backoff_ms; each further retry doubles it.
  int base_backoff_ms = 100;
  /// Upper bound on a single backoff interval.
  int max_backoff_ms = 2000;
  /// Seed for the deterministic jitter stream: each sleep is drawn
  /// uniformly from [backoff/2, backoff], so a fleet of clients with
  /// distinct seeds does not retry in lockstep, while tests with a fixed
  /// seed stay reproducible.
  uint64_t jitter_seed = 0x5eed;
};

/// Synchronous loopback client: one connection, Call() sends a request
/// frame and blocks for the response frame. Used by serd_submit, the CI
/// smoke stage, tests, and bench_serve.
class ServeClient {
 public:
  ServeClient() = default;
  ~ServeClient() { Close(); }
  ServeClient(const ServeClient&) = delete;
  ServeClient& operator=(const ServeClient&) = delete;

  Status Connect(int port);
  bool connected() const { return fd_ >= 0; }
  void Close();

  /// One request/response round trip.
  Result<obs::Json> Call(const obs::Json& request);

  /// Call() plus bounded exponential backoff on the transient failure
  /// classes: transport kUnavailable (orderly hangup / connect refused
  /// while the server restarts) and responses whose "code" field is
  /// ResourceExhausted or Unavailable (admission control). Reconnects
  /// before each retry — a failed round trip leaves the stream's framing
  /// undefined, so the old connection is never reused. Non-transient
  /// failures and non-retryable responses return immediately.
  Result<obs::Json> CallWithRetry(const obs::Json& request,
                                  const RetryOptions& retry);

 private:
  int fd_ = -1;
  int port_ = -1;
};

}  // namespace serd::serve

#endif  // SERD_SERVE_WIRE_H_
