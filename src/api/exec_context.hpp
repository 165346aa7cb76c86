// wht::ExecContext — per-call mutable execution state, owned by the caller.
//
// The serving redesign makes every ExecutorBackend immutable after
// construction: run()/run_many() are const and re-entrant, so one backend —
// and therefore one wht::Transform — can serve any number of threads at
// once.  Everything a call mutates besides the data vector itself lives
// here instead:
//
//   * scratch()      backend work buffers (the SIMD batch-interleave
//                    staging area, gather/scatter assembly, ...);
//   * staging()      caller-side buffers with a distinct lifetime (the
//                    Transform copy conveniences, the Engine's pointer-array
//                    execute_many) — kept separate from scratch() so a
//                    caller staging data can still invoke a scratch-using
//                    backend.
//
// A context is NOT thread-safe; give each call chain its own.  Callers who
// don't want to manage contexts pass none: the Transform then borrows the
// calling thread's one context (transform.cpp), and a call that re-enters a
// context-less Transform call on the same thread runs on a fresh local
// context, so the outer call's scratch is never aliased.
#pragma once

#include <cstddef>

#include "util/scratch_arena.hpp"

namespace whtlab::api {

class ExecContext {
 public:
  ExecContext() = default;
  ExecContext(ExecContext&&) noexcept = default;
  ExecContext& operator=(ExecContext&&) noexcept = default;
  ExecContext(const ExecContext&) = delete;
  ExecContext& operator=(const ExecContext&) = delete;

  /// Backend work area: an aligned buffer of at least `count` doubles,
  /// contents unspecified, valid until the next scratch() call on this
  /// context.  Reused across calls (no steady-state allocation).
  double* scratch(std::size_t count) { return scratch_.acquire(count); }

  /// Caller work area with the same contract but a separate lifetime:
  /// staging() results survive backend scratch() use within one call.
  double* staging(std::size_t count) { return staging_.acquire(count); }

  /// The scratch arena itself, for layers that thread scratch down call
  /// chains (simd::execute_many takes a ScratchArena* for its interleave
  /// buffer).
  util::ScratchArena& scratch_arena() { return scratch_; }

 private:
  util::ScratchArena scratch_;
  util::ScratchArena staging_;
};

}  // namespace whtlab::api
