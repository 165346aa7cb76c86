#include "verify.hpp"

#include <cmath>
#include <cstring>
#include <stdexcept>
#include <utility>

#include "api/wht.hpp"

namespace perfbench {

namespace {

std::uint64_t splitmix64(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

}  // namespace

std::vector<double> make_input(std::uint64_t seed, std::uint64_t stream,
                               int n) {
  if (n < 1 || n > 22) {
    throw std::invalid_argument("perfbench: exact data needs 1 <= n <= 22");
  }
  std::uint64_t state = seed * 0x100000001b3ULL ^ (stream + 1) * 0x9e3779b9ULL;
  std::vector<double> out(std::size_t{1} << n);
  for (double& x : out) {
    x = static_cast<double>(static_cast<int>(splitmix64(state) % 9) - 4);
  }
  return out;
}

bool bits_equal(const double* got, const double* want, std::size_t size) {
  return std::memcmp(got, want, size * sizeof(double)) == 0;
}

std::shared_ptr<const Expected> make_expected(std::uint64_t seed,
                                              std::uint64_t stream, int n) {
  auto expected = std::make_shared<Expected>();
  expected->n = n;
  expected->input = make_input(seed, stream, n);
  const wht::Transform reference =
      wht::Planner().backend("generated").plan(n);
  expected->spectrum = expected->input;
  reference.execute(expected->spectrum.data());
  return expected;
}

Vectors::Vectors(std::vector<std::shared_ptr<const Expected>> expected,
                 double* data)
    : expected_(std::move(expected)), data_(data) {
  if (expected_.empty()) throw std::invalid_argument("perfbench: no vectors");
  n_ = expected_.front()->n;
  for (const auto& e : expected_) {
    if (e->n != n_) throw std::invalid_argument("perfbench: mixed sizes");
  }
  reset();
}

void Vectors::reset() {
  for (std::size_t v = 0; v < count(); ++v) {
    std::memcpy(data_ + v * size(), expected_[v]->input.data(),
                size() * sizeof(double));
  }
  transformed_ = false;
}

bool Vectors::check() {
  transformed_ = !transformed_;
  bool ok = true;
  if (transformed_) {
    for (std::size_t v = 0; v < count() && ok; ++v) {
      ok = bits_equal(data_ + v * size(), expected_[v]->spectrum.data(),
                      size());
    }
  } else {
    // Second transform: 2^n·input.  The 2^-n rescale is exact (a power of
    // two on integers far below 2^53), and fused with the check.
    const double scale = std::ldexp(1.0, -n_);
    for (std::size_t v = 0; v < count(); ++v) {
      double* x = data_ + v * size();
      const double* want = expected_[v]->input.data();
      for (std::size_t i = 0; i < size(); ++i) {
        x[i] *= scale;
      }
      ok = ok && bits_equal(x, want, size());
    }
  }
  if (!ok) reset();
  return ok;
}

}  // namespace perfbench
