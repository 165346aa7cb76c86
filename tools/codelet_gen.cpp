// codelet_gen — emits straight-line WHT codelets as C++.
//
// Usage: codelet_gen <output.cpp> [max_k]
//
// For each k in 1..max_k (default 8) the tool emits
//
//   static void wht_gen_codelet_<k>(double* x, std::ptrdiff_t s) {
//     double t0 = x[0*s]; ... double t{m-1} = x[(m-1)*s];
//     <k stages of butterflies on fresh single-assignment temporaries>
//     x[0*s] = ...; ...
//   }
//
// exactly the shape of codelets generated by the original WHT package: one
// load per input element, k*2^(k-1) add/sub butterfly pairs on named
// temporaries, one store per element, no loops, no branches.
//
// The generated transform is the natural (Hadamard) ordering: stage s pairs
// indices that differ in bit s, lower index gets the sum.
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

namespace {

void emit_codelet(std::FILE* out, int k) {
  const int m = 1 << k;
  std::fprintf(out,
               "static void wht_gen_codelet_%d(double* x, std::ptrdiff_t s) {\n",
               k);
  // Load phase: t<i> holds the current value of logical slot i.
  // `slot` tracks which temporary currently holds slot i, so each butterfly
  // writes fresh single-assignment temporaries (as the package generator did,
  // leaving register allocation entirely to the compiler).
  std::vector<int> slot(static_cast<std::size_t>(m));
  int next_temp = 0;
  for (int i = 0; i < m; ++i) {
    slot[static_cast<std::size_t>(i)] = next_temp;
    std::fprintf(out, "  const double t%d = x[%d * s];\n", next_temp, i);
    ++next_temp;
  }
  for (int stage = 0; stage < k; ++stage) {
    const int half = 1 << stage;
    std::fprintf(out, "  // stage %d\n", stage);
    for (int base = 0; base < m; base += 2 * half) {
      for (int off = 0; off < half; ++off) {
        const int lo = base + off;
        const int hi = base + off + half;
        const int a = slot[static_cast<std::size_t>(lo)];
        const int b = slot[static_cast<std::size_t>(hi)];
        const int sum = next_temp++;
        const int diff = next_temp++;
        std::fprintf(out, "  const double t%d = t%d + t%d;\n", sum, a, b);
        std::fprintf(out, "  const double t%d = t%d - t%d;\n", diff, a, b);
        slot[static_cast<std::size_t>(lo)] = sum;
        slot[static_cast<std::size_t>(hi)] = diff;
      }
    }
  }
  for (int i = 0; i < m; ++i) {
    std::fprintf(out, "  x[%d * s] = t%d;\n", i,
                 slot[static_cast<std::size_t>(i)]);
  }
  std::fprintf(out, "}\n\n");
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2 || argc > 3) {
    std::fprintf(stderr, "usage: %s <output.cpp> [max_k]\n", argv[0]);
    return 2;
  }
  const int max_k = argc == 3 ? std::atoi(argv[2]) : 8;
  if (max_k < 1 || max_k > 10) {
    std::fprintf(stderr, "max_k out of range: %d\n", max_k);
    return 2;
  }
  std::FILE* out = std::fopen(argv[1], "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot open %s\n", argv[1]);
    return 1;
  }
  std::fprintf(out,
               "// GENERATED FILE — do not edit.\n"
               "// Produced by tools/codelet_gen (max_k = %d); straight-line\n"
               "// WHT codelets in the style of the original WHT package.\n"
               "#include \"core/codelet.hpp\"\n\n"
               "namespace whtlab::core {\n\n"
               "namespace {\n\n",
               max_k);
  for (int k = 1; k <= max_k; ++k) emit_codelet(out, k);
  std::fprintf(out,
               "}  // namespace\n\n"
               "const std::array<CodeletFn, kMaxUnrolled + 1>& codelet_table() {\n"
               "  static const std::array<CodeletFn, kMaxUnrolled + 1> table = {\n"
               "      nullptr,\n");
  for (int k = 1; k <= 8; ++k) {
    if (k <= max_k) {
      std::fprintf(out, "      &wht_gen_codelet_%d,\n", k);
    } else {
      std::fprintf(out, "      nullptr,\n");
    }
  }
  std::fprintf(out,
               "  };\n"
               "  return table;\n"
               "}\n\n"
               "}  // namespace whtlab::core\n");
  std::fclose(out);
  return 0;
}
