#include "util/parallel.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <thread>

#include "util/thread_pool.hpp"

namespace logcc::util {

namespace {

int env_threads() {
  if (const char* env = std::getenv("OMP_NUM_THREADS")) {
    const int v = std::atoi(env);
    if (v >= 1) return v;
  }
  return static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
}

// The requested lane count; the pool picks it up at each dispatch.
std::atomic<int> g_threads{env_threads()};

constexpr std::size_t kDefaultGrain = 1024;
constexpr std::size_t kMinGrain = 256;
constexpr std::size_t kMaxGrain = 16384;

/// Measures the pool's empty-dispatch latency and derives a grain such that
/// one chunk's work (assuming on the order of a nanosecond per index)
/// amortises the dispatch. Purely a scheduling knob: results never depend
/// on it.
std::size_t calibrate_grain() {
  if (g_threads.load(std::memory_order_relaxed) <= 1) return kDefaultGrain;
  ThreadPool& pool = ThreadPool::instance();
  pool.set_lanes(g_threads.load(std::memory_order_relaxed));
  auto noop = [](void*, std::size_t, std::size_t) {};
  // Warm the pool (starts workers), then time a handful of empty
  // dispatches.
  pool.run(0, 64, 1, nullptr, noop);
  constexpr int kReps = 32;
  const auto t0 = std::chrono::steady_clock::now();
  for (int i = 0; i < kReps; ++i) pool.run(0, 64, 1, nullptr, noop);
  const auto t1 = std::chrono::steady_clock::now();
  const auto ns =
      std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0).count() /
      kReps;
  // Chunk work should dwarf the per-dispatch cost; at ~1ns/index, `ns`
  // indices per chunk puts the whole-dispatch overhead near 1/lanes of one
  // chunk.
  return std::clamp<std::size_t>(static_cast<std::size_t>(ns), kMinGrain,
                                 kMaxGrain);
}

std::atomic<std::size_t> g_grain{0};  // 0 = not yet calibrated

}  // namespace

const char* parallel_backend_name() { return "pool"; }

int hardware_parallelism() {
  return g_threads.load(std::memory_order_relaxed);
}

void set_parallelism(int threads) {
  if (threads < 1) return;
  g_threads.store(threads, std::memory_order_relaxed);
  ThreadPool::instance().set_lanes(threads);
}

std::size_t parallel_grain() {
  std::size_t g = g_grain.load(std::memory_order_relaxed);
  if (g == 0) {
    g = calibrate_grain();
    g_grain.store(g, std::memory_order_relaxed);
  }
  return g;
}

void set_parallel_grain(std::size_t grain) {
  g_grain.store(std::max<std::size_t>(1, grain), std::memory_order_relaxed);
}

namespace detail {

void parallel_run_impl(std::size_t begin, std::size_t end, std::size_t grain,
                       void* ctx,
                       void (*chunk)(void*, std::size_t, std::size_t)) {
  if (end <= begin) return;
  ThreadPool& pool = ThreadPool::instance();
  pool.set_lanes(g_threads.load(std::memory_order_relaxed));
  pool.run(begin, end, grain, ctx, chunk);
}

}  // namespace detail
}  // namespace logcc::util
