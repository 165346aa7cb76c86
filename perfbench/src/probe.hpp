// Requests, verified buffers and per-layer probes over an in-process
// wht::Engine — shared by every workload.
//
// A probe is a call into one layer, timed on its own and interleaved with
// the workload: Engine::execute / execute_many, a warm Engine::arbitrate,
// the same shape on a telemetry-off twin Engine, and Transform::execute /
// execute_many on every candidate backend, obtained through
// Engine::transform(n, backend).  Every probe that transforms data runs on
// its own verified buffer, so probes are checked like requests.
#pragma once

#include <cstdint>
#include <future>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "api/wht.hpp"
#include "report.hpp"
#include "stats.hpp"
#include "trace.hpp"
#include "verify.hpp"

namespace perfbench {

/// One request shape in a caller's fixed sequence.
struct Step {
  enum Kind { kSingle, kBatch, kPipeline } kind = kSingle;
  int n = 0;
  std::size_t count = 1;  ///< vectors in the request
};

/// Expected states shared by every buffer seeded from one stream.
class ExpectedCache {
 public:
  explicit ExpectedCache(std::uint64_t seed) : seed_(seed) {}
  std::shared_ptr<const Expected> get(int n, std::uint64_t stream);

 private:
  std::uint64_t seed_;
  std::map<std::pair<int, std::uint64_t>, std::shared_ptr<const Expected>>
      cache_;
};

/// A request's verified vectors, in process memory.
struct Request {
  Step step;
  std::vector<double> storage;
  Vectors vectors;
  std::vector<std::future<void>> futures;  ///< reused by pipelines
  std::vector<std::uint64_t> submitted_ns;
};

/// Builds request `index` of caller `caller`.  Big vectors (n >= 16) share
/// their few distinct inputs to bound memory; small ones each get their own
/// stream.
std::unique_ptr<Request> make_request(const Step& step, ExpectedCache& cache,
                                      int caller, std::size_t index);

/// One request through the Engine's public API.  A pipeline submits every
/// vector, then waits for each future.  Throws what the Engine threw, after
/// every submitted future has resolved.  With a tracer, the call gets a
/// child span of `parent`; with `submit_ready`, each submit's time to ready
/// is recorded there.
void serve(wht::Engine& engine, Request& r, Tracer* tracer, int parent,
           std::uint64_t id, Histogram* submit_ready);

/// Probe measurements (ns per call), merged over rounds.
struct ProbeResults {
  Histogram engine_single;  ///< Engine::execute, single shape
  Histogram engine_many;    ///< Engine::execute_many, batch shape
  Histogram twin_single;    ///< telemetry-off twin Engine::execute
  Histogram arbitrate_single;
  std::map<std::string, Histogram> raw_single;  ///< Transform::execute
  std::map<std::string, Histogram> raw_many;    ///< Transform::execute_many
  std::string chosen_single;
  std::string chosen_many;
  std::vector<double> first_touch_s;  ///< per Engine: first arbitrate per shape
  std::uint64_t calls = 0;
  std::uint64_t mismatches = 0;
  std::uint64_t failed = 0;
};

/// Runs probe calls in a fixed cycle on an Engine (and its twin).
class Prober {
 public:
  /// `twin` must be an Engine with telemetry off, pinned to the backend
  /// `engine` chooses for the single shape (see make_twin).
  Prober(wht::Engine& engine, wht::Engine& twin, const Step& single,
         const Step& batch, ExpectedCache& cache, ProbeResults& out);

  /// Runs the next probe call of the cycle under a "bench.probe" span.
  void step(Tracer* tracer, std::uint64_t id);

 private:
  struct Op {
    enum Kind {
      kEngineSingle,
      kRawSingle,
      kTwinSingle,
      kArbitrateSingle,
      kEngineMany,
      kRawMany,
    } kind;
    std::string backend;
  };

  wht::Engine& engine_;
  wht::Engine& twin_;
  ProbeResults& out_;
  std::unique_ptr<Request> single_;
  std::unique_ptr<Request> batch_;
  std::map<std::string, std::shared_ptr<const wht::Transform>> single_t_;
  std::map<std::string, std::shared_ptr<const wht::Transform>> many_t_;
  std::vector<Op> ops_;
  std::size_t next_ = 0;
};

/// The telemetry-off twin of `engine`, pinned to its single-shape choice
/// and touched once (untimed).
std::unique_ptr<wht::Engine> make_twin(wht::Engine& engine,
                                       const wht::EngineOptions& options,
                                       const Step& single);

/// Times the first arbitrate(n, count) of each shape on a fresh Engine
/// (planning plus anchor measurement) under "engine.first_touch" spans.
double first_touch_s(wht::Engine& engine, const std::vector<Step>& shapes,
                     Tracer* tracer);

/// Adds the planner, engine, telemetry, core, simd and parallel per-layer
/// metrics measured by probes on the single and batch shapes.
void add_probe_metrics(Report& report, const ProbeResults& probes,
                       const Step& single, const Step& batch,
                       int engine_threads, Tracer* tracer);

}  // namespace perfbench
