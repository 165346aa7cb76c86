// Span tracing for the traced benchmark run.
//
// A span is one call into a layer, recorded by the benchmark around the
// public call: name ("engine.execute", "ipc.wait", ...), start, end, the
// span that caused it, and the request it belongs to.  Each recording thread
// owns a Tracer whose span table is allocated and touched up front, so
// recording is two clock reads and a store; when the table is full further
// spans are counted as dropped, never allocated.  The tables are written
// out once, when the run ends.
//
// A layer is the span name up to its first '.'.  A span's self time is its
// duration minus the part of it that its child spans cover (children may
// overlap one another, e.g. pipelined submits; their union is subtracted).
#pragma once

#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

std::uint64_t now_ns();  ///< CLOCK_MONOTONIC, shared by every process

struct Span {
  const char* name = nullptr;  ///< string literal
  std::int32_t parent = -1;    ///< index in the same Tracer, -1 = root
  std::uint64_t request = 0;
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
};

class Tracer {
 public:
  explicit Tracer(std::size_t capacity);

  /// Opens a span; returns its index, or -1 when the table is full.
  int begin(const char* name, int parent, std::uint64_t request);
  void end(int index);

  const std::vector<Span>& spans() const { return spans_; }
  std::uint64_t dropped() const { return dropped_; }

  /// Writes every span as one CSV line: thread,index,name,parent,request,
  /// start_ns,end_ns.
  void write_csv(std::FILE* out, int thread) const;

 private:
  std::vector<Span> spans_;
  std::size_t capacity_ = 0;
  std::uint64_t dropped_ = 0;
};

/// RAII span; a null tracer records nothing and reads no clock.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name, int parent,
             std::uint64_t request)
      : tracer_(tracer),
        index_(tracer ? tracer->begin(name, parent, request) : -1) {}
  ~ScopedSpan() {
    if (tracer_ != nullptr) tracer_->end(index_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  int index() const { return index_; }

 private:
  Tracer* tracer_;
  int index_;
};

/// Nanoseconds of [lo, hi) covered by the union of `intervals`.
std::uint64_t covered_ns(std::vector<std::pair<std::uint64_t, std::uint64_t>> intervals,
                         std::uint64_t lo, std::uint64_t hi);

/// Self time per span (same order as `spans`).  Spans still open (end 0)
/// count as zero-length.
std::vector<std::uint64_t> self_times(const std::vector<Span>& spans);

/// Summed self time per layer (name prefix before the first '.').
std::map<std::string, std::uint64_t> layer_self_ns(const std::vector<Span>& spans);

}  // namespace perfbench
