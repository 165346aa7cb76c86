// The benchmark's workloads.  Each one sets its serving system up from
// scratch several times per run and reports the median set-up time.  It
// splits --seconds over one or more timed windows ("rounds", each on a
// fresh system) and each window into equal slices; throughput and latency
// percentiles are medians over the slices, so a stall that hits one slice
// does not move them.
//
//   engine_small  one in-process Engine, 2 caller threads, small n
//   kernel_large  one in-process Engine with a 2-thread budget, n = 20
//   ipc_small     a forked whtd daemon serving 2 forked client processes
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "report.hpp"
#include "trace.hpp"

namespace perfbench {

Report run_inprocess(const RunOptions& options);
Report run_ipc_small(const RunOptions& options);

/// Adds the trace.* metrics: spans recorded, the traced run's own price
/// (untraced over traced vectors in equal-length alternating segments,
/// minus one, in percent), and trace.self_us_per_req.<layer> for the
/// layers bench, engine, core, simd, parallel and ipc, from summed self
/// times (ns) over `traced_requests`.
void add_trace_metrics(Report& report, std::uint64_t spans,
                       std::uint64_t dropped,
                       const std::uint64_t (&segment_vectors)[2],
                       const std::map<std::string, std::uint64_t>& self_ns,
                       std::uint64_t traced_requests);

/// Writes span tables as CSV to <dir>/<workload>-<pid>.csv (the directory
/// must exist); a write failure is reported in `report.details`.
void write_traces(Report& report, const RunOptions& options,
                  const std::vector<const Tracer*>& tracers);

/// The module a backend belongs to, used as its span layer.
const char* backend_layer(const std::string& backend);

}  // namespace perfbench
