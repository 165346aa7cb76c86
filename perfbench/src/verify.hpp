// Finite, checkable request data.
//
// Inputs are seeded integers in [-4, 4].  For n <= 22 every partial sum a
// WHT forms is an integer below 2^53, so every backend's output is exact in
// double and must match the `generated` reference bit for bit.  Because
// H·H = 2^n·I, transforming a buffer twice returns 2^n times its input; the
// exact rescale by 2^-n after every second transform brings it back to the
// input, so the data never grows and never overflows however long a run is.
//
// A Vectors value holds one request's worth of packed vectors and tracks
// which of the two states it is in.  check() runs after every response,
// outside the timed latency interval: an odd response must equal the
// reference spectrum, an even one (after the rescale) the original input.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

namespace perfbench {

/// Seeded integer-valued input in [-4, 4] for vector `stream` of a run.
std::vector<double> make_input(std::uint64_t seed, std::uint64_t stream,
                               int n);

/// True when `got` equals `want` bit for bit over `size` doubles; a NaN or
/// any flipped bit fails.
bool bits_equal(const double* got, const double* want, std::size_t size);

/// One pair of expected states (input, spectrum) shared by every buffer
/// seeded from the same stream.
struct Expected {
  int n = 0;
  std::vector<double> input;
  std::vector<double> spectrum;
};

/// Builds Expected for (seed, stream, n); the spectrum is the input's
/// transform through the `generated` backend, the reference every other
/// backend must match bit for bit.
std::shared_ptr<const Expected> make_expected(std::uint64_t seed,
                                              std::uint64_t stream, int n);

/// `count` packed vectors of 2^n doubles served as one request.
class Vectors {
 public:
  Vectors() = default;
  /// Vector v starts as expected[v]->input; `data` must hold count·2^n
  /// doubles and outlive this object (it may live in shared memory).
  Vectors(std::vector<std::shared_ptr<const Expected>> expected, double* data);

  int n() const { return n_; }
  std::size_t count() const { return expected_.size(); }
  std::size_t size() const { return std::size_t{1} << n_; }
  double* data() const { return data_; }

  /// Rewrites every vector to its input (after a failed check, or to
  /// restore a buffer a foreign write touched).
  void reset();

  /// Call once after each transform of the whole request.  Returns false on
  /// any mismatch (the buffer is then reset, so the run can go on and count
  /// the failure).
  bool check();

 private:
  int n_ = 0;
  std::vector<std::shared_ptr<const Expected>> expected_;
  double* data_ = nullptr;
  bool transformed_ = false;  ///< holds spectra (one transform since input)
};

}  // namespace perfbench
