// engine_small and kernel_large: closed-loop callers on one in-process
// wht::Engine, through its public API only.
#include <algorithm>
#include <cstdio>
#include <exception>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "host.hpp"
#include "probe.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

struct Spec {
  int callers = 1;
  int engine_threads = 1;
  std::vector<Step> sequence;  ///< what each caller repeats
  int rounds = 1;  ///< timed windows, each on a fresh Engine
  int slices_per_round = 1;  ///< equal slices of each window
  /// Set-ups per round; only the last one's Engine serves the window.
  int setups_per_round = 1;
  int probe_every = 1;  ///< traced: one probe call per this many requests
};

Spec spec_for(const std::string& workload) {
  Spec spec;
  if (workload == "engine_small") {
    spec.callers = 2;
    for (int i = 0; i < 8; ++i) spec.sequence.push_back({Step::kSingle, 8, 1});
    spec.sequence.push_back({Step::kBatch, 6, 16});
    spec.sequence.push_back({Step::kPipeline, 8, 8});
    spec.rounds = 5;
    spec.slices_per_round = 2;
    spec.probe_every = 4;
  } else if (workload == "kernel_large") {
    spec.engine_threads = 2;
    for (int i = 0; i < 4; ++i) spec.sequence.push_back({Step::kSingle, 20, 1});
    spec.sequence.push_back({Step::kBatch, 20, 2});
    // One window on one Engine: the arbiter's route for n = 20 (fused or
    // simd, decided from a noisy first-touch anchor) stays fixed for the
    // run instead of mixing routes, and so modes, into one latency
    // distribution.
    spec.setups_per_round = 5;
    spec.slices_per_round = 3;  // ~1000 requests each at 10 s
  } else {
    throw std::invalid_argument("unknown workload " + workload);
  }
  return spec;
}

/// One caller thread's requests and tallies.  Tallies index [traced]: a
/// traced run alternates untraced and traced segments of its window.
struct Caller {
  std::vector<std::unique_ptr<Request>> requests;
  std::vector<Histogram> slice_latency;  ///< ns, untraced requests only
  std::vector<std::uint64_t> slice_vectors;
  Histogram submit_ready;  ///< ns, traced pipelines: submit() to ready
  std::uint64_t vectors[2] = {0, 0};
  std::uint64_t served[2] = {0, 0};
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t mismatches = 0;
  std::uint64_t finished_ns = 0;
  std::uint64_t next_id = 0;
  std::unique_ptr<Tracer> tracer;
};

constexpr std::size_t kSpanCapacity = std::size_t{1} << 17;
constexpr int kTraceSegments = 8;

/// The first request of each kind in the caller's sequence.
std::vector<Request*> first_of_each_kind(Caller& caller) {
  std::vector<Request*> out;
  for (const Step::Kind kind :
       {Step::kSingle, Step::kBatch, Step::kPipeline}) {
    for (auto& r : caller.requests) {
      if (r->step.kind == kind) {
        out.push_back(r.get());
        break;
      }
    }
  }
  return out;
}

/// Serves the caller's sequence over [start_ns, start_ns + window_ns); a
/// request counts in the slice its start falls in (slices `first_slice`
/// onward, `slices` of them).
void run_caller(wht::Engine& engine, Caller& caller, Prober* prober,
                int probe_every, std::uint64_t start_ns,
                std::uint64_t window_ns, std::size_t first_slice,
                std::size_t slices, bool trace) {
  const std::uint64_t end_ns = start_ns + window_ns;
  const std::uint64_t slice_ns = window_ns / slices;
  const std::uint64_t segment_ns = window_ns / kTraceSegments;
  std::size_t index = 0;
  for (;;) {
    const std::uint64_t now = now_ns();
    if (now >= end_ns) break;
    const int traced =
        trace && ((now - start_ns) / segment_ns) % 2 == 1 ? 1 : 0;
    Tracer* tracer = traced ? caller.tracer.get() : nullptr;
    Request& r = *caller.requests[index++ % caller.requests.size()];
    const std::uint64_t id = ++caller.next_id;
    ++caller.attempted;
    {
      const ScopedSpan root(tracer, "bench.request", -1, id);
      const std::uint64_t t0 = now_ns();
      bool ok = true;
      try {
        serve(engine, r, tracer, root.index(), id,
              traced ? &caller.submit_ready : nullptr);
      } catch (const std::exception&) {
        ok = false;
      }
      const std::uint64_t t1 = now_ns();
      if (!ok) {
        ++caller.failed;
        r.vectors.reset();
      } else {
        const std::size_t slice =
            first_slice +
            std::min<std::size_t>((t0 - start_ns) / slice_ns, slices - 1);
        if (!traced) caller.slice_latency[slice].record(t1 - t0);
        caller.slice_vectors[slice] += r.step.count;
        if (!r.vectors.check()) ++caller.mismatches;
        caller.vectors[traced] += r.step.count;
        ++caller.served[traced];
      }
    }
    if (traced && prober != nullptr && index % probe_every == 0) {
      prober->step(tracer, id);
    }
  }
  caller.finished_ns = now_ns();
}

double ns_to_s(std::uint64_t ns) { return static_cast<double>(ns) / 1e9; }

}  // namespace

Report run_inprocess(const RunOptions& options) {
  const Spec spec = spec_for(options.workload);
  Report report;
  ExpectedCache cache(options.seed);

  std::vector<Caller> callers(static_cast<std::size_t>(spec.callers));
  for (int c = 0; c < spec.callers; ++c) {
    Caller& caller = callers[static_cast<std::size_t>(c)];
    for (std::size_t i = 0; i < spec.sequence.size(); ++i) {
      caller.requests.push_back(make_request(spec.sequence[i], cache, c, i));
    }
    if (options.trace) caller.tracer = std::make_unique<Tracer>(kSpanCapacity);
    caller.slice_latency.resize(
        static_cast<std::size_t>(spec.rounds * spec.slices_per_round));
    caller.slice_vectors.resize(caller.slice_latency.size());
  }
  Tracer setup_tracer(1024);
  const std::vector<Request*> firsts = first_of_each_kind(callers[0]);
  std::vector<Step> shapes;
  for (const Request* r : firsts) shapes.push_back(r->step);

  wht::EngineOptions engine_options;
  engine_options.threads = spec.engine_threads;

  const auto window_ns =
      static_cast<std::uint64_t>(options.seconds * 1e9 / spec.rounds);
  std::vector<double> setup_s, round_vps, cpu_per_vector;
  std::uint64_t submitted = 0, coalesced = 0, failures = 0, fallbacks = 0;
  ProbeResults probes;
  std::vector<std::string> round_details;

  for (int round = 0; round < spec.rounds; ++round) {
    // Set-up: Engine construction to the first response of every shape.
    std::unique_ptr<wht::Engine> engine;
    for (int setup = 0; setup < spec.setups_per_round; ++setup) {
      engine.reset();
      const std::uint64_t t0 = now_ns();
      engine = std::make_unique<wht::Engine>(engine_options);
      if (options.trace) {
        probes.first_touch_s.push_back(
            first_touch_s(*engine, shapes, &setup_tracer));
      }
      for (Request* r : firsts) {
        ++callers[0].attempted;
        try {
          serve(*engine, *r, nullptr, -1, 0, nullptr);
        } catch (const std::exception& e) {
          report.error = std::string("set-up request failed: ") + e.what();
          ++callers[0].failed;
          r->vectors.reset();
        }
      }
      setup_s.push_back(ns_to_s(now_ns() - t0));
      for (Request* r : firsts) {
        if (!r->vectors.check()) ++callers[0].mismatches;
      }
    }

    std::unique_ptr<wht::Engine> twin;
    std::unique_ptr<Prober> prober;
    if (options.trace) {
      const Step& single = shapes.front();
      twin = make_twin(*engine, engine_options, single);
      prober = std::make_unique<Prober>(*engine, *twin, single, shapes[1],
                                        cache, probes);
    }

    // Timed window: every caller starts at the same instant.
    std::uint64_t vectors_before = 0;
    for (const Caller& c : callers) {
      vectors_before += c.vectors[0] + c.vectors[1];
    }
    const Usage u0 = self_usage();
    const std::uint64_t start = now_ns() + 1000000;
    std::vector<std::thread> threads;
    for (int c = 0; c < spec.callers; ++c) {
      threads.emplace_back([&, c] {
        while (now_ns() < start) {
        }
        run_caller(*engine, callers[static_cast<std::size_t>(c)],
                   c == 0 ? prober.get() : nullptr, spec.probe_every, start,
                   window_ns,
                   static_cast<std::size_t>(round * spec.slices_per_round),
                   static_cast<std::size_t>(spec.slices_per_round),
                   options.trace);
      });
    }
    for (std::thread& t : threads) t.join();
    const Usage u1 = self_usage();
    std::uint64_t finished = start, vectors = 0;
    for (const Caller& c : callers) {
      finished = std::max(finished, c.finished_ns);
      vectors += c.vectors[0] + c.vectors[1];
    }
    vectors -= vectors_before;
    if (vectors > 0) {
      round_vps.push_back(static_cast<double>(vectors) /
                          ns_to_s(finished - start));
      cpu_per_vector.push_back(static_cast<double>(u1.cpu_ns - u0.cpu_ns) /
                               1000.0 / static_cast<double>(vectors));
    }
    std::string routes;
    for (const Step& s : shapes) {
      routes += (routes.empty() ? "" : " ") + std::to_string(s.n) + "x" +
                std::to_string(s.count) + ":" +
                engine->arbitrate(s.n, s.count).backend;
    }
    char line[200];
    std::snprintf(line, sizeof(line),
                  "{\"setup_s\": %.6f, \"vectors_per_s\": %.1f, "
                  "\"routes\": \"%s\"}",
                  setup_s.back(), round_vps.empty() ? 0.0 : round_vps.back(),
                  routes.c_str());
    round_details.emplace_back(line);
    const wht::Engine::Stats stats = engine->stats();
    submitted += stats.submitted;
    coalesced += stats.coalesced;
    failures += stats.failures;
    fallbacks += stats.fallbacks;
  }

  // Per slice: vectors over the slice's length, latencies of every caller.
  const std::size_t slices = callers[0].slice_latency.size();
  const double slice_s = ns_to_s(window_ns) / spec.slices_per_round;
  std::vector<Histogram> latency(slices);
  std::vector<double> vps(slices, 0.0);
  Histogram submit_ready;
  std::uint64_t segment_vectors[2] = {0, 0}, traced_requests = 0;
  for (const Caller& c : callers) {
    report.attempted += c.attempted;
    report.failed += c.failed;
    report.mismatches += c.mismatches;
    for (std::size_t i = 0; i < slices; ++i) {
      latency[i].merge(c.slice_latency[i]);
      vps[i] += static_cast<double>(c.slice_vectors[i]) / slice_s;
    }
    submit_ready.merge(c.submit_ready);
    segment_vectors[0] += c.vectors[0];
    segment_vectors[1] += c.vectors[1];
    traced_requests += c.served[1];
  }
  char detail[200];
  std::snprintf(detail, sizeof(detail),
                "\"rounds\": %d, \"setups\": %zu, \"window_s\": %.3f, "
                "\"slices\": %zu, \"callers\": %d, \"engine_threads\": %d",
                spec.rounds, setup_s.size(), ns_to_s(window_ns), slices,
                spec.callers, spec.engine_threads);
  report.details.emplace_back(detail);
  std::string per_round = "\"per_round\": [";
  for (std::size_t i = 0; i < round_details.size(); ++i) {
    per_round += (i == 0 ? "" : ", ") + round_details[i];
  }
  report.details.push_back(per_round + "]");

  if (!options.trace) {
    report.add("setup_s", median(setup_s), "s");
    report.add("vectors_per_s", median(vps), "1/s");
    report.add_percentile("p50_us", median_percentile(latency, 0.50), 1e-3,
                          "us");
    report.print_percentile("p99_us", median_percentile(latency, 0.99), 1e-3,
                            "us");
    report.add("cpu_us_per_vector", median(cpu_per_vector), "us");
    report.add("peak_rss_mb", self_peak_rss_mb(), "MiB");
    return report;
  }

  add_probe_metrics(report, probes, shapes[0], shapes[1], spec.engine_threads,
                    &setup_tracer);
  if (submit_ready.count() > 0) {
    report.add_percentile("engine.submit_us", submit_ready.percentile(0.50),
                          1e-3, "us");
    report.add("engine.coalesced_frac",
               submitted == 0 ? 0.0
                              : static_cast<double>(coalesced) /
                                    static_cast<double>(submitted),
               "ratio");
  }
  report.add("engine.failures", static_cast<double>(failures), "count");
  report.add("engine.fallbacks", static_cast<double>(fallbacks), "count");

  std::vector<const Tracer*> tracers = {&setup_tracer};
  std::uint64_t spans = setup_tracer.spans().size(), dropped = 0;
  std::map<std::string, std::uint64_t> self_ns;
  for (const Caller& c : callers) {
    tracers.push_back(c.tracer.get());
    spans += c.tracer->spans().size();
    dropped += c.tracer->dropped();
    for (const auto& [layer, ns] : layer_self_ns(c.tracer->spans())) {
      self_ns[layer] += ns;
    }
  }
  add_trace_metrics(report, spans, dropped, segment_vectors, self_ns,
                    traced_requests);
  write_traces(report, options, tracers);
  return report;
}

}  // namespace perfbench
