// Loopback client for serd_serve: builds one request from flags, sends
// it, prints the JSON response to stdout. Exit code 0 iff the response
// carries "ok": true — scripts can branch on *why* a call failed without
// parsing JSON. Failure exit codes mirror the serd_cli artifact scheme
// (documented at serve::WireFailureExitCode):
//   0 = ok                 2 = usage error (bad flags)
//   3 = InvalidArgument    (server rejected the request)
//   4 = ResourceExhausted  (queue full / tenant cap; retry later)
//   5 = Unavailable        (server draining/stopped or orderly hangup)
//   6 = IOError            (transport: connect/frame/socket failure)
//   7 = DeadlineExceeded   (the job's --deadline-ms budget elapsed)
//   8 = Cancelled          (the job was cancelled via the cancel verb)
//   1 = any other server-side failure
//
// Transient rejections (ResourceExhausted, Unavailable) are retried with
// bounded exponential backoff (--retries, --backoff-ms); retrying a
// synthesize is safe because job seeds are content-keyed, not
// arrival-keyed. --retries 0 disables retries (single attempt).
//
//   serd_submit --port N | --port-file F
//               --verb health|stats|synthesize|job|cancel|manifest|
//                      reload|shutdown
//               [--dataset D] [--scale S] [--data-seed N] [--seed N]
//               [--tenant T] [--model-dir DIR]
//               [--artifact-mode auto|load|save] [--out DIR]
//               [--priority P] [--seed-key K] [--no-rejection]
//               [--blocking off|qgram|auto]
//               [--decode-precision fp32|bf16|int8]
//               [--deadline-ms N] [--no-wait] [--id N]
//               [--retries N] [--backoff-ms N]
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "obs/manifest.h"
#include "serve/wire.h"

using namespace serd;

namespace {

int Usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s --port N | --port-file F\n"
      "          --verb health|stats|synthesize|job|cancel|manifest|"
      "reload|shutdown\n"
      "          [--dataset D] [--scale S] [--data-seed N] [--seed N]\n"
      "          [--tenant T] [--model-dir DIR]\n"
      "          [--artifact-mode auto|load|save] [--out DIR]\n"
      "          [--priority P] [--seed-key K] [--no-rejection]\n"
      "          [--blocking off|qgram|auto]\n"
      "          [--decode-precision fp32|bf16|int8]\n"
      "          [--deadline-ms N] [--no-wait] [--id N]\n"
      "          [--retries N] [--backoff-ms N]\n"
      "exit codes: 0 ok, 2 usage, 3 InvalidArgument, 4 ResourceExhausted,\n"
      "            5 Unavailable, 6 IOError, 7 DeadlineExceeded,\n"
      "            8 Cancelled, 1 other failure\n",
      argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  int port = 0;
  std::string port_file;
  serve::RetryOptions retry;
  retry.max_retries = 3;
  obs::Json request = obs::Json::Object();

  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto next = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s requires a value\n", flag);
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--port") {
      port = std::atoi(next("--port"));
    } else if (arg == "--port-file") {
      port_file = next("--port-file");
    } else if (arg == "--verb") {
      request.Set("verb", next("--verb"));
    } else if (arg == "--dataset") {
      request.Set("dataset", next("--dataset"));
    } else if (arg == "--scale") {
      request.Set("scale", std::atof(next("--scale")));
    } else if (arg == "--data-seed") {
      request.Set("data_seed",
                  static_cast<uint64_t>(std::atoll(next("--data-seed"))));
    } else if (arg == "--seed") {
      request.Set("seed", static_cast<uint64_t>(std::atoll(next("--seed"))));
    } else if (arg == "--tenant") {
      request.Set("tenant", next("--tenant"));
    } else if (arg == "--model-dir") {
      request.Set("model_dir", next("--model-dir"));
    } else if (arg == "--artifact-mode") {
      request.Set("artifact_mode", next("--artifact-mode"));
    } else if (arg == "--out") {
      request.Set("out", next("--out"));
    } else if (arg == "--priority") {
      request.Set("priority", std::atoi(next("--priority")));
    } else if (arg == "--seed-key") {
      request.Set("seed_key", next("--seed-key"));
    } else if (arg == "--blocking") {
      request.Set("blocking", next("--blocking"));
    } else if (arg == "--decode-precision") {
      request.Set("decode_precision", next("--decode-precision"));
    } else if (arg == "--no-rejection") {
      request.Set("no_rejection", true);
    } else if (arg == "--deadline-ms") {
      request.Set("deadline_ms",
                  static_cast<uint64_t>(std::atoll(next("--deadline-ms"))));
    } else if (arg == "--no-wait") {
      request.Set("wait", false);
    } else if (arg == "--id") {
      request.Set("id", static_cast<uint64_t>(std::atoll(next("--id"))));
    } else if (arg == "--retries") {
      retry.max_retries = std::atoi(next("--retries"));
    } else if (arg == "--backoff-ms") {
      retry.base_backoff_ms = std::atoi(next("--backoff-ms"));
    } else {
      return Usage(argv[0]);
    }
  }
  if (!request.Has("verb")) return Usage(argv[0]);
  if (!port_file.empty()) {
    Result<std::string> text = obs::ReadTextFile(port_file);
    if (!text.ok()) {
      std::fprintf(stderr, "serd_submit: %s\n",
                   text.status().ToString().c_str());
      return 1;
    }
    port = std::atoi(text->c_str());
  }
  if (port <= 0) {
    std::fprintf(stderr, "serd_submit: no --port / --port-file given\n");
    return Usage(argv[0]);
  }

  serve::ServeClient client;
  Status connected = client.Connect(port);
  if (!connected.ok()) {
    std::fprintf(stderr, "serd_submit: %s\n", connected.ToString().c_str());
    return serve::WireFailureExitCode(connected.code());
  }
  Result<obs::Json> response = client.CallWithRetry(request, retry);
  if (!response.ok()) {
    std::fprintf(stderr, "serd_submit: %s\n",
                 response.status().ToString().c_str());
    return serve::WireFailureExitCode(response.status().code());
  }
  std::fputs(response->Dump().c_str(), stdout);
  if (response->at("ok").AsBool(false)) return 0;
  // Server-side failure: the response's "code" (StatusCodeName form, from
  // ErrorJson or a failed job status) selects the documented exit code.
  return serve::WireFailureExitCode(response->at("code").AsString());
}
