#include "probe.hpp"

#include <algorithm>
#include <exception>
#include <stdexcept>

#include "workloads.hpp"

namespace perfbench {

namespace {

double ns_to_s(std::uint64_t ns) { return static_cast<double>(ns) / 1e9; }

const char* raw_span_name(const std::string& backend, bool many) {
  const std::string layer = backend_layer(backend);
  if (layer == "core") return many ? "core.execute_many" : "core.execute";
  if (layer == "simd") return many ? "simd.execute_many" : "simd.execute";
  if (layer == "parallel") {
    return many ? "parallel.execute_many" : "parallel.execute";
  }
  return many ? "transform.execute_many" : "transform.execute";
}

}  // namespace

std::shared_ptr<const Expected> ExpectedCache::get(int n,
                                                   std::uint64_t stream) {
  auto& slot = cache_[{n, stream}];
  if (!slot) slot = make_expected(seed_, stream, n);
  return slot;
}

std::unique_ptr<Request> make_request(const Step& step, ExpectedCache& cache,
                                      int caller, std::size_t index) {
  auto r = std::make_unique<Request>();
  r->step = step;
  r->storage.resize(step.count << step.n);
  std::vector<std::shared_ptr<const Expected>> expected;
  for (std::size_t v = 0; v < step.count; ++v) {
    const std::uint64_t stream =
        step.n >= 16
            ? v
            : (static_cast<std::uint64_t>(caller) * 64 + index) * 64 + v;
    expected.push_back(cache.get(step.n, stream));
  }
  r->vectors = Vectors(std::move(expected), r->storage.data());
  r->futures.reserve(step.count);
  r->submitted_ns.resize(step.count);
  return r;
}

void serve(wht::Engine& engine, Request& r, Tracer* tracer, int parent,
           std::uint64_t id, Histogram* submit_ready) {
  const Step& step = r.step;
  double* x = r.vectors.data();
  switch (step.kind) {
    case Step::kSingle: {
      const ScopedSpan span(tracer, "engine.execute", parent, id);
      engine.execute(step.n, x);
      return;
    }
    case Step::kBatch: {
      const ScopedSpan span(tracer, "engine.execute_many", parent, id);
      engine.execute_many(step.n, x, step.count);
      return;
    }
    case Step::kPipeline: {
      // One span for the whole pipeline: its submits wait concurrently, so
      // per-submit spans would count the same wall time eight times.
      const ScopedSpan span(tracer, "engine.submit", parent, id);
      std::exception_ptr error;
      r.futures.clear();
      const std::size_t size = std::size_t{1} << step.n;
      for (std::size_t i = 0; i < step.count; ++i) {
        if (submit_ready != nullptr) r.submitted_ns[i] = now_ns();
        try {
          r.futures.push_back(engine.submit(step.n, x + i * size));
        } catch (...) {
          error = std::current_exception();
          break;
        }
      }
      for (std::size_t i = 0; i < r.futures.size(); ++i) {
        try {
          r.futures[i].get();
        } catch (...) {
          if (!error) error = std::current_exception();
        }
        if (submit_ready != nullptr) {
          submit_ready->record(now_ns() - r.submitted_ns[i]);
        }
      }
      if (error) std::rethrow_exception(error);
      return;
    }
  }
}

Prober::Prober(wht::Engine& engine, wht::Engine& twin, const Step& single,
               const Step& batch, ExpectedCache& cache, ProbeResults& out)
    : engine_(engine), twin_(twin), out_(out) {
  single_ = make_request(single, cache, 1000, 0);
  batch_ = make_request(batch, cache, 1000, 1);
  out_.chosen_single = engine.arbitrate(single.n, 1).backend;
  out_.chosen_many = engine.arbitrate(batch.n, batch.count).backend;
  for (const std::string& b : engine.candidates()) {
    single_t_[b] = engine.transform(single.n, b);
    many_t_[b] = engine.transform(batch.n, b);
  }
  // Engine and raw calls on the chosen backend alternate, so their
  // difference is taken on interleaved samples.
  for (const std::string& b : engine.candidates()) {
    ops_.push_back({Op::kEngineSingle, ""});
    ops_.push_back({Op::kRawSingle, out_.chosen_single});
    ops_.push_back({Op::kRawSingle, b});
    ops_.push_back({Op::kTwinSingle, ""});
    ops_.push_back({Op::kArbitrateSingle, ""});
    ops_.push_back({Op::kEngineMany, ""});
    ops_.push_back({Op::kRawMany, out_.chosen_many});
    ops_.push_back({Op::kRawMany, b});
  }
}

void Prober::step(Tracer* tracer, std::uint64_t id) {
  const Op& op = ops_[next_++ % ops_.size()];
  const bool many = op.kind == Op::kEngineMany || op.kind == Op::kRawMany;
  Request& r = many ? *batch_ : *single_;
  const Step& s = r.step;
  double* x = r.vectors.data();
  const ScopedSpan root(tracer, "bench.probe", -1, id);
  bool transformed = true;
  try {
    std::uint64_t t0 = 0;
    switch (op.kind) {
      case Op::kEngineSingle: {
        const ScopedSpan span(tracer, "engine.execute", root.index(), id);
        t0 = now_ns();
        engine_.execute(s.n, x);
        out_.engine_single.record(now_ns() - t0);
        break;
      }
      case Op::kTwinSingle: {
        const ScopedSpan span(tracer, "engine.execute", root.index(), id);
        t0 = now_ns();
        twin_.execute(s.n, x);
        out_.twin_single.record(now_ns() - t0);
        break;
      }
      case Op::kEngineMany: {
        const ScopedSpan span(tracer, "engine.execute_many", root.index(), id);
        t0 = now_ns();
        engine_.execute_many(s.n, x, s.count);
        out_.engine_many.record(now_ns() - t0);
        break;
      }
      case Op::kRawSingle: {
        const wht::Transform& t = *single_t_.at(op.backend);
        const ScopedSpan span(tracer, raw_span_name(op.backend, false),
                              root.index(), id);
        t0 = now_ns();
        t.execute(x);
        out_.raw_single[op.backend].record(now_ns() - t0);
        break;
      }
      case Op::kRawMany: {
        const wht::Transform& t = *many_t_.at(op.backend);
        const ScopedSpan span(tracer, raw_span_name(op.backend, true),
                              root.index(), id);
        t0 = now_ns();
        t.execute_many(x, s.count);
        out_.raw_many[op.backend].record(now_ns() - t0);
        break;
      }
      case Op::kArbitrateSingle: {
        transformed = false;
        const ScopedSpan span(tracer, "engine.arbitrate", root.index(), id);
        t0 = now_ns();
        const wht::Engine::Decision d = engine_.arbitrate(s.n, 1);
        out_.arbitrate_single.record(now_ns() - t0);
        if (d.backend.empty()) throw std::runtime_error("no decision");
        break;
      }
    }
  } catch (const std::exception&) {
    ++out_.failed;
    r.vectors.reset();
    return;
  }
  ++out_.calls;
  if (transformed && !r.vectors.check()) ++out_.mismatches;
}

std::unique_ptr<wht::Engine> make_twin(wht::Engine& engine,
                                       const wht::EngineOptions& options,
                                       const Step& single) {
  wht::EngineOptions twin_options = options;
  twin_options.backends = {engine.arbitrate(single.n, 1).backend};
  twin_options.telemetry = false;
  auto twin = std::make_unique<wht::Engine>(twin_options);
  twin->arbitrate(single.n, 1);
  return twin;
}

double first_touch_s(wht::Engine& engine, const std::vector<Step>& shapes,
                     Tracer* tracer) {
  std::uint64_t total = 0;
  for (const Step& s : shapes) {
    const ScopedSpan span(tracer, "engine.first_touch", -1, 0);
    const std::uint64_t t0 = now_ns();
    engine.arbitrate(s.n, s.count);
    total += now_ns() - t0;
  }
  return ns_to_s(total);
}

void add_probe_metrics(Report& report, const ProbeResults& probes,
                       const Step& single, const Step& batch,
                       int engine_threads, Tracer* tracer) {
  // Planner: kEstimate, no wisdom, every (n, candidate) pair of the shapes.
  double plan_s = 0.0;
  std::uint64_t evaluations = 0;
  wht::EngineOptions options;
  options.threads = engine_threads;
  const wht::Engine candidates_of(options);
  std::vector<std::pair<int, std::string>> pairs;
  for (const int n : {single.n, batch.n}) {
    for (const std::string& b : candidates_of.candidates()) {
      if (std::find(pairs.begin(), pairs.end(), std::make_pair(n, b)) ==
          pairs.end()) {
        pairs.emplace_back(n, b);
      }
    }
  }
  for (const auto& [n, b] : pairs) {
    const ScopedSpan span(tracer, "planner.plan", -1, 0);
    const std::uint64_t t0 = now_ns();
    const wht::Transform t = wht::Planner()
                                 .strategy(wht::Strategy::kEstimate)
                                 .backend(b)
                                 .threads(engine_threads)
                                 .plan(n);
    plan_s += ns_to_s(now_ns() - t0);
    evaluations += t.planning().evaluations;
  }
  report.add("planner.plan_s", plan_s, "s");
  report.add("planner.evaluations", static_cast<double>(evaluations), "count");
  report.add("engine.first_touch_s", median(probes.first_touch_s), "s");

  const auto p50 = [&](const std::string& label, const Histogram& h) {
    const Percentile p = h.percentile(0.50);
    report.note_percentile(label, p);
    return p.value;
  };
  std::map<std::string, double> single_ns, many_ns;  // per vector
  for (const auto& [b, h] : probes.raw_single) {
    single_ns[b] = p50("probe.raw." + b, h);
  }
  for (const auto& [b, h] : probes.raw_many) {
    many_ns[b] = p50("probe.raw_many." + b, h) /
                 static_cast<double>(batch.count);
  }
  const auto cost = [](const std::map<std::string, double>& costs,
                       const std::string& backend) {
    const auto it = costs.find(backend);
    return it == costs.end() ? 0.0 : it->second;
  };

  const double exec_ns = p50("probe.engine_execute", probes.engine_single);
  const double raw_ns = cost(single_ns, probes.chosen_single);
  const double many_engine_ns =
      p50("probe.engine_execute_many", probes.engine_many);
  const double many_raw_ns =
      cost(many_ns, probes.chosen_many) * static_cast<double>(batch.count);
  report.add("engine.execute_ns", exec_ns, "ns");
  report.add("engine.raw_ns", raw_ns, "ns");
  report.add("engine.dispatch_ns", exec_ns - raw_ns, "ns");
  report.add("engine.dispatch_many_ns", many_engine_ns - many_raw_ns, "ns");
  report.add("engine.arbitrate_ns",
             p50("probe.arbitrate", probes.arbitrate_single), "ns");

  // Regret: chosen backend's raw time over the fastest probed one, minus 1.
  const auto regret = [&](const std::map<std::string, double>& costs,
                          const std::string& chosen) {
    double best = 0.0;
    for (const auto& [b, v] : costs) {
      if (v > 0.0 && (best == 0.0 || v < best)) best = v;
    }
    return best > 0.0 ? cost(costs, chosen) / best - 1.0 : 0.0;
  };
  report.add("engine.arbiter_regret_single",
             regret(single_ns, probes.chosen_single), "ratio");
  report.add("engine.arbiter_regret_batch",
             regret(many_ns, probes.chosen_many), "ratio");
  report.add("telemetry.overhead_ns",
             exec_ns - p50("probe.twin_execute", probes.twin_single), "ns");

  const double fused_ns = cost(single_ns, "fused");
  report.add("core.generated_ns_per_vector", cost(single_ns, "generated"),
             "ns");
  report.add("simd.simd_ns_per_vector", cost(single_ns, "simd"), "ns");
  report.add("simd.fused_ns_per_vector", fused_ns, "ns");
  report.add("simd.simd_batch_ns_per_vector", cost(many_ns, "simd"), "ns");
  report.add("simd.fused_batch_ns_per_vector", cost(many_ns, "fused"), "ns");
  if (single_ns.count("parallel") != 0) {
    report.add("parallel.ns_per_vector", cost(single_ns, "parallel"), "ns");
  }
  // n·2^n adds, and a computed 16·2^n bytes (one read and one write of
  // every double), per vector.
  const double size = static_cast<double>(std::uint64_t{1} << single.n);
  report.add("simd.fused_gflops",
             fused_ns > 0.0 ? single.n * size / fused_ns : 0.0, "GFLOP/s");
  report.add("simd.fused_gbps_computed",
             fused_ns > 0.0 ? 16.0 * size / fused_ns : 0.0, "GB/s");

  report.mismatches += probes.mismatches;
  report.failed += probes.failed;
  report.attempted += probes.calls + probes.failed;
}

}  // namespace perfbench
