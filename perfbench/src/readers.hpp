// Closed-loop reader threads that time connected(u, v) in fixed-size
// blocks of consecutive calls. A single call is too short to time against
// steady_clock; a block of kQueryBlock calls is long enough for the clock
// and short enough to show writer stalls.
//
// Each block first calls `open()`, which returns the view the block's
// queries run against: a static index, one snapshot() of a serving engine
// (the engine's consistent-read pattern), or the engine itself when the
// per-call connected() path is what is measured.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "graph/graph.hpp"
#include "perfbench.hpp"
#include "util/random.hpp"

namespace perfbench {

inline constexpr std::size_t kQueryBlock = 256;
/// Readers run this long before recording: their first blocks pay for cold
/// caches and thread start, which would otherwise set the p99.
inline constexpr std::chrono::milliseconds kReaderWarmup{50};

template <typename Open>
class ReaderPool {
 public:
  static constexpr std::size_t kPairs = 1 << 16;
  /// Block timings kept per reader: a uniform sample of all its recorded
  /// blocks, so that the readers' memory stays fixed however long they run
  /// and stays out of peak_rss_mib.
  static constexpr std::size_t kKeptBlocks = 1 << 16;

  /// Starts `threads` readers on seeded uniform pairs over [0, n).
  /// `open()` and the views it returns must be safe to use from several
  /// threads at once.
  ReaderPool(int threads, std::uint64_t n, std::uint64_t seed, Open open)
      : open_(std::move(open)), lanes_(threads) {
    for (int t = 0; t < threads; ++t) {
      Lane& lane = lanes_[t];
      lane.seed = logcc::util::mix64(seed, t, 0x5A3);
      lane.block_ns.reserve(kKeptBlocks);
      lane.pairs.resize(kPairs);
      for (std::size_t i = 0; i < kPairs; ++i) {
        lane.pairs[i] = {
            static_cast<logcc::graph::VertexId>(
                logcc::util::mix64(seed, t, 2 * i) % n),
            static_cast<logcc::graph::VertexId>(
                logcc::util::mix64(seed, t, 2 * i + 1) % n)};
      }
    }
    for (int t = 0; t < threads; ++t)
      threads_.emplace_back([this, t] { run(lanes_[t]); });
  }
  ~ReaderPool() { stop(); }
  ReaderPool(const ReaderPool&) = delete;
  ReaderPool& operator=(const ReaderPool&) = delete;

  /// Blocks that start while recording is on are kept.
  void record(bool on) { recording_.store(on, std::memory_order_relaxed); }

  /// Stops and joins the readers; the results below are valid afterwards.
  void stop() {
    stop_.store(true, std::memory_order_relaxed);
    for (std::thread& t : threads_)
      if (t.joinable()) t.join();
  }

  /// Per-query nanoseconds of the kept recorded blocks, all readers.
  Samples block_ns_per_query() const {
    Samples s;
    for (const Lane& lane : lanes_)
      for (double ns : lane.block_ns) s.add(ns / kQueryBlock);
    return s;
  }
  std::uint64_t recorded_queries() const {
    std::uint64_t q = 0;
    for (const Lane& lane : lanes_) q += lane.recorded * kQueryBlock;
    return q;
  }
  /// Share of all answered queries that said "connected".
  double connected_share() const {
    std::uint64_t yes = 0, all = 0;
    for (const Lane& lane : lanes_) {
      yes += lane.yes;
      all += lane.queries;
    }
    return all ? static_cast<double>(yes) / all : 0.0;
  }

 private:
  struct Lane {
    std::vector<std::pair<logcc::graph::VertexId, logcc::graph::VertexId>>
        pairs;
    std::vector<double> block_ns;
    std::uint64_t recorded = 0;  // blocks recorded, kept or not
    std::uint64_t seed = 0;
    std::uint64_t yes = 0;
    std::uint64_t queries = 0;
  };

  void run(Lane& lane) {
    using Clock = std::chrono::steady_clock;
    std::size_t i = 0;
    while (!stop_.load(std::memory_order_relaxed)) {
      const bool rec = recording_.load(std::memory_order_relaxed);
      const auto t0 = Clock::now();
      const auto view = open_();
      std::uint64_t yes = 0;
      for (std::size_t k = 0; k < kQueryBlock; ++k, i = (i + 1) % kPairs)
        yes += view(lane.pairs[i].first, lane.pairs[i].second) ? 1 : 0;
      const auto t1 = Clock::now();
      lane.yes += yes;
      lane.queries += kQueryBlock;
      if (rec) keep(lane, std::chrono::duration<double, std::nano>(t1 - t0));
    }
  }

  // Reservoir sampling: the k-th recorded block replaces a kept one with
  // probability kKeptBlocks / (k + 1).
  static void keep(Lane& lane, std::chrono::duration<double, std::nano> ns) {
    const std::uint64_t k = lane.recorded++;
    if (k < kKeptBlocks) {
      lane.block_ns.push_back(ns.count());
      return;
    }
    const std::uint64_t j = logcc::util::mix64(lane.seed, k) % (k + 1);
    if (j < kKeptBlocks) lane.block_ns[j] = ns.count();
  }

  Open open_;
  std::vector<Lane> lanes_;
  std::atomic<bool> recording_{false};
  std::atomic<bool> stop_{false};
  std::vector<std::thread> threads_;  // last: joins before lanes_ go away
};

/// Query timings over several reader windows. The host's speed drifts in
/// bursts of a few hundred milliseconds; a tail pooled over all windows is
/// set by whether one burst happened, so each window's quantiles are taken
/// alone and the median over windows is reported.
struct QueryTally {
  Samples p50_ns, p99_ns;  // per-query time, one quantile per window
  std::uint64_t queries = 0;
  double seconds = 0.0;
  double connected_share = 0.0;
  std::uint64_t windows = 0;

  template <typename Pool>
  void absorb(const Pool& readers, double window_s) {
    const Samples ns = readers.block_ns_per_query();
    p50_ns.add(ns.median());
    p99_ns.add(ns.quantile(0.99));
    queries += readers.recorded_queries();
    seconds += window_s;
    connected_share = readers.connected_share();
    ++windows;
  }

  /// query_p50_ns, query_p99_ns, query_qps.
  void report(Report& r) const {
    r.set("query_p50_ns", p50_ns.median(), "ns");
    r.set("query_p99_ns", p99_ns.median(), "ns");
    r.set("query_qps", seconds > 0.0 ? queries / seconds : 0.0, "1/s");
    r.note("query    window p50 " + p50_ns.summary("ns") +
           "; window p99 " + p99_ns.summary("ns") + "; blocks of " +
           std::to_string(kQueryBlock) + " calls, " +
           std::to_string(connected_share) + " of pairs connected");
  }
};

}  // namespace perfbench
