// Persistent parking worker pool — the process-wide executor behind
// parallel_for / parallel_for_blocks (see parallel.hpp).
//
// Motivation: the paper's algorithms are round-based — O(log d) rounds of a
// handful of data-parallel steps each. A runtime that creates (or even just
// forks and joins) threads per step pays its dispatch cost hundreds of times
// per run, which dominates small-to-medium rounds. This pool starts its
// workers once (lazily, on the first parallel dispatch), parks them on a
// condition variable between steps with a short adaptive spin, and hands
// out work in contiguous chunks, so a steady-state dispatch is one atomic
// epoch bump plus (usually) zero syscalls.
//
// Work distribution: the index range is cut into chunks of at least `grain`
// elements. Each lane (worker or the calling thread) owns a contiguous
// segment of chunks — deterministic, first-touch-friendly: lane k always
// starts on the same part of the range, so pages a lane faulted in one
// round are re-touched by the same lane the next round. When a lane drains
// its segment it steals whole chunks from other lanes' segments, so skewed
// chunk costs still balance. Every chunk executes exactly once; which lane
// runs it never affects results (the determinism contract in scan.hpp is
// about *what* is computed, never about placement).
//
// Semantics:
//   - run() returns after every chunk completed; the caller participates as
//     lane 0 (a pool of size 1 degenerates to an inline serial loop).
//   - Exceptions thrown by the body are caught, the remaining chunks are
//     abandoned (each lane stops at its next chunk boundary), and the first
//     exception is rethrown on the calling thread after the join.
//   - Reentrant dispatch (a body calling run() again, from any lane) runs
//     the nested range inline and serially — no deadlock, no oversplit.
//   - Concurrent dispatch from two unrelated threads is safe: one acquires
//     the pool, the other falls back to an inline serial loop.
//   - A steady-state dispatch performs no heap allocation (round loops
//     above rely on this for their zero-allocation property).
#pragma once

#include <cstddef>
#include <cstdint>

namespace logcc::util {

class ThreadPool {
 public:
  /// Chunk body: half-open index range [lo, hi).
  using ChunkFn = void (*)(void* ctx, std::size_t lo, std::size_t hi);

  /// The process-wide pool. Workers start on the first run() and are joined
  /// when the process exits (or on shutdown()).
  static ThreadPool& instance();

  /// Target lane count (worker threads + the calling thread). Takes effect
  /// at the next run(); shrinking or growing restarts the worker set.
  void set_lanes(int lanes);
  int lanes() const;

  /// True while the calling thread is inside a run() body (used by the
  /// reentrancy path and by tests).
  static bool in_parallel_region();

  /// Runs chunk(ctx, lo, hi) over [begin, end), cut into chunks of at least
  /// `grain` indices (grain 0 is treated as 1). Blocks until all chunks
  /// completed; rethrows the first body exception.
  void run(std::size_t begin, std::size_t end, std::size_t grain, void* ctx,
           ChunkFn chunk);

  /// Stops and joins all workers. The pool restarts lazily on the next
  /// run() — tests use this to exercise the start/stop cycle.
  void shutdown();

  /// Number of times the worker set was (re)started — observable pool
  /// lifecycle for tests.
  std::uint64_t starts() const;

  ~ThreadPool();

 private:
  ThreadPool();
  struct Impl;
  Impl* impl_;
  Impl& impl();
};

}  // namespace logcc::util
