#include "trace.hpp"

#include <time.h>

#include <algorithm>
#include <cinttypes>

namespace perfbench {

std::uint64_t now_ns() {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<std::uint64_t>(ts.tv_sec) * 1000000000ULL +
         static_cast<std::uint64_t>(ts.tv_nsec);
}

Tracer::Tracer(std::size_t capacity) : capacity_(capacity) {
  // Touch the whole table now so recording never faults in pages.
  spans_.resize(capacity_);
  spans_.clear();
}

int Tracer::begin(const char* name, int parent, std::uint64_t request) {
  if (spans_.size() == capacity_) {
    ++dropped_;
    return -1;
  }
  spans_.push_back(Span{name, parent, request, now_ns(), 0});
  return static_cast<int>(spans_.size() - 1);
}

void Tracer::end(int index) {
  if (index >= 0) spans_[static_cast<std::size_t>(index)].end_ns = now_ns();
}

void Tracer::write_csv(std::FILE* out, int thread) const {
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(out, "%d,%zu,%s,%d,%" PRIu64 ",%" PRIu64 ",%" PRIu64 "\n",
                 thread, i, s.name, s.parent, s.request, s.start_ns, s.end_ns);
  }
}

std::uint64_t covered_ns(
    std::vector<std::pair<std::uint64_t, std::uint64_t>> intervals,
    std::uint64_t lo, std::uint64_t hi) {
  std::sort(intervals.begin(), intervals.end());
  std::uint64_t total = 0;
  std::uint64_t cursor = lo;  // everything below cursor is already counted
  for (auto [a, b] : intervals) {
    a = std::max(a, cursor);
    b = std::min(b, hi);
    if (b <= a) continue;
    total += b - a;
    cursor = b;
  }
  return total;
}

std::vector<std::uint64_t> self_times(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<std::uint64_t, std::uint64_t>>> children(
      spans.size());
  for (const Span& s : spans) {
    if (s.parent >= 0 && static_cast<std::size_t>(s.parent) < spans.size() &&
        s.end_ns != 0) {
      children[static_cast<std::size_t>(s.parent)].emplace_back(s.start_ns,
                                                                 s.end_ns);
    }
  }
  std::vector<std::uint64_t> out(spans.size(), 0);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    if (s.end_ns <= s.start_ns) continue;
    out[i] = (s.end_ns - s.start_ns) -
             covered_ns(std::move(children[i]), s.start_ns, s.end_ns);
  }
  return out;
}

std::map<std::string, std::uint64_t> layer_self_ns(
    const std::vector<Span>& spans) {
  const std::vector<std::uint64_t> self = self_times(spans);
  std::map<std::string, std::uint64_t> out;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const std::string name = spans[i].name;
    out[name.substr(0, name.find('.'))] += self[i];
  }
  return out;
}

}  // namespace perfbench
