// Persistent multi-tenant synthesis service: a TCP front end (length-
// prefixed JSON, see src/serve/wire.h) over a bounded job scheduler and a
// warm model pool. serd_submit is the matching client.
//
//   serd_serve [--port N]         (0 = kernel-assigned, the default)
//              [--port-file F]    (write the bound port to F — the
//                                  handshake scripts use to find a
//                                  randomly assigned port)
//              [--workers N] [--pool-capacity N]
//              [--max-queued N] [--max-inflight N] [--max-entities N]
//              [--seed N]         (root seed for derived per-job seeds)
//
// Runs until a client sends the "shutdown" verb (queued jobs drain
// first). A serd_cli run is the same thing as one local job: submitting
// {"verb":"synthesize","dataset":D,"scale":S,"seed":X,"data_seed":X}
// produces a byte-identical release to `serd_cli --dataset D --scale S
// --seed X` (the CI smoke stage verifies this).
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "flag_values.h"
#include "obs/manifest.h"
#include "serve/server.h"

using namespace serd;

namespace {

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--port N] [--port-file F] [--workers N]\n"
               "          [--pool-capacity N] [--max-queued N]\n"
               "          [--max-inflight N] [--max-entities N] [--seed N]\n",
               argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  serve::ServerOptions options;
  std::string port_file;

  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s requires a value\n", arg.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--port") {
      options.port = flags::Int(arg, next(), 0, 65535);
    } else if (arg == "--port-file") {
      port_file = next();
    } else if (arg == "--workers") {
      options.workers = flags::Int(arg, next(), 1, flags::kMaxThreads);
    } else if (arg == "--pool-capacity") {
      options.pool_capacity = flags::Unsigned(arg, next(), 0, SIZE_MAX);
    } else if (arg == "--max-queued") {
      options.max_queued = flags::Unsigned(arg, next(), 0, SIZE_MAX);
    } else if (arg == "--max-inflight") {
      options.max_inflight_per_tenant =
          flags::Unsigned(arg, next(), 0, SIZE_MAX);
    } else if (arg == "--max-entities") {
      options.max_job_entities = flags::Unsigned(arg, next(), 0, SIZE_MAX);
    } else if (arg == "--seed") {
      options.seed = flags::Unsigned(arg, next(), 0, UINT64_MAX);
    } else {
      return Usage(argv[0]);
    }
  }

  serve::SerdServer server(options);
  Status started = server.Start();
  if (!started.ok()) {
    std::fprintf(stderr, "serd_serve: %s\n", started.ToString().c_str());
    return 1;
  }
  std::printf("serd_serve: listening on 127.0.0.1:%d (%d workers)\n",
              server.port(), options.workers);
  std::fflush(stdout);
  if (!port_file.empty()) {
    Status wrote =
        obs::WriteTextFile(port_file, std::to_string(server.port()) + "\n");
    if (!wrote.ok()) {
      std::fprintf(stderr, "serd_serve: port file: %s\n",
                   wrote.ToString().c_str());
      return 1;
    }
  }

  server.Wait();
  std::printf("serd_serve: shutdown requested, draining\n");
  server.Stop();
  std::printf("serd_serve: bye\n");
  return 0;
}
