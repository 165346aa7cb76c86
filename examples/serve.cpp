// Concurrent serving with wht::Engine.
//
// One process-wide Engine, many client threads, three request shapes:
// big single vectors, tiny-n batches, and submit() futures.
// The Engine plans each (size, backend) once, shares the immutable
// Transforms across every thread, and routes each request to the backend
// its cost model says is cheapest *for that shape* — watch the decisions
// it prints.
//
//   ./serve --clients 8 --requests 32 --single-n 20 --batch-n 6
#include <cstdio>
#include <thread>
#include <vector>

#include "api/wht.hpp"
#include "util/cli.hpp"
#include "util/rng.hpp"

namespace {

using whtlab::util::random_vector;

void print_decision(const char* label, const wht::Engine::Decision& decision) {
  std::printf("%-28s -> %-10s (", label, decision.backend.c_str());
  for (std::size_t i = 0; i < decision.candidates.size(); ++i) {
    std::printf("%s%s=%.3g", i ? ", " : "",
                decision.candidates[i].backend.c_str(),
                decision.candidates[i].cost);
  }
  std::printf(")\n");
}

}  // namespace

int main(int argc, char** argv) {
  whtlab::util::Cli cli;
  cli.add_flag("clients", "serving threads sharing the Engine", "4");
  cli.add_flag("requests", "rounds per client (each: single+batch+submit)",
               "16");
  cli.add_flag("single-n", "single-vector request size (log2)", "18");
  cli.add_flag("batch-n", "batched request size (log2)", "6");
  cli.add_flag("batch", "vectors per batched request", "32");
  cli.add_flag("submit-n", "async submit() request size (log2)", "10");
  cli.add_flag("wisdom", "wisdom file for first-touch plans", "");
  if (!cli.parse(argc, argv)) return 2;

  const int clients = static_cast<int>(cli.get_int("clients", 4));
  const int requests = static_cast<int>(cli.get_int("requests", 16));
  const int single_n = static_cast<int>(cli.get_int("single-n", 18));
  const int batch_n = static_cast<int>(cli.get_int("batch-n", 6));
  const auto batch = static_cast<std::size_t>(cli.get_int("batch", 32));
  const int submit_n = static_cast<int>(cli.get_int("submit-n", 10));

  wht::EngineOptions options;  // defaults: kEstimate plans, measured anchors
  options.wisdom_file = cli.get("wisdom");
  wht::Engine engine(options);

  // The arbiter prices every candidate per request shape.
  char label[64];
  std::snprintf(label, sizeof(label), "single vector, n = %d", single_n);
  print_decision(label, engine.arbitrate(single_n, 1));
  std::snprintf(label, sizeof(label), "batch of %zu, n = %d", batch, batch_n);
  print_decision(label, engine.arbitrate(batch_n, batch));

  // Serve a mixed load from `clients` threads — one shared Engine, no locks.
  std::vector<std::thread> pool;
  for (int c = 0; c < clients; ++c) {
    pool.emplace_back([&engine, requests, c, single_n, batch_n, batch,
                       submit_n]() {
      auto big = random_vector(std::size_t{1} << single_n, 1 + c);
      auto tiny = random_vector((std::size_t{1} << batch_n) * batch, 100 + c);
      auto async = random_vector(std::size_t{1} << submit_n, 200 + c);
      for (int r = 0; r < requests; ++r) {
        engine.execute(single_n, big.data());           // arbitrated single
        engine.execute_many(batch_n, tiny.data(), batch);  // arbitrated batch
        engine.submit(submit_n, async.data()).get();    // ready on return
      }
    });
  }
  for (auto& thread : pool) thread.join();

  const auto stats = engine.stats();
  std::printf("engine: %s\n", whtlab::api::to_string(stats).c_str());
  std::printf("served %llu vectors (%llu batched dispatches, "
              "%llu submitted)\n",
              (unsigned long long)stats.vectors,
              (unsigned long long)stats.batches,
              (unsigned long long)stats.submitted);
  return 0;
}
