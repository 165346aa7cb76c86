#include "workloads.hpp"

#include <unistd.h>

#include <cinttypes>
#include <cstdio>

namespace perfbench {

void add_trace_metrics(Report& report, std::uint64_t spans,
                       std::uint64_t dropped,
                       const std::uint64_t (&segment_vectors)[2],
                       const std::map<std::string, std::uint64_t>& self_ns,
                       std::uint64_t traced_requests) {
  report.add("trace.spans", static_cast<double>(spans), "count");
  report.add("trace.overhead_pct",
             segment_vectors[1] == 0
                 ? 0.0
                 : (static_cast<double>(segment_vectors[0]) /
                        static_cast<double>(segment_vectors[1]) -
                    1.0) * 100.0,
             "%");
  for (const char* layer :
       {"bench", "engine", "core", "simd", "parallel", "ipc"}) {
    const auto it = self_ns.find(layer);
    const double ns = it == self_ns.end() ? 0.0 : static_cast<double>(it->second);
    report.add(std::string("trace.self_us_per_req.") + layer,
               traced_requests == 0
                   ? 0.0
                   : ns / 1e3 / static_cast<double>(traced_requests),
               "us");
  }
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "\"trace\": {\"spans\": %" PRIu64 ", \"dropped\": %" PRIu64
                ", \"traced_requests\": %" PRIu64 "}",
                spans, dropped, traced_requests);
  report.details.emplace_back(buf);
}

void write_traces(Report& report, const RunOptions& options,
                  const std::vector<const Tracer*>& tracers) {
  if (options.trace_dir.empty()) return;
  const std::string path = options.trace_dir + "/" + options.workload + "-" +
                           std::to_string(static_cast<long>(getpid())) +
                           ".csv";
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) {
    report.details.push_back("\"trace_file_error\": \"cannot write " + path +
                             "\"");
    return;
  }
  std::fprintf(out, "thread,index,name,parent,request,start_ns,end_ns\n");
  for (std::size_t t = 0; t < tracers.size(); ++t) {
    tracers[t]->write_csv(out, static_cast<int>(t));
  }
  std::fclose(out);
  report.details.push_back("\"trace_file\": \"" + path + "\"");
}

const char* backend_layer(const std::string& backend) {
  if (backend == "generated" || backend == "template") return "core";
  if (backend == "simd" || backend == "fused") return "simd";
  if (backend == "parallel") return "parallel";
  return "transform";
}

}  // namespace perfbench
