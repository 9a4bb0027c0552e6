// In-memory span log of a traced run. Spans are recorded by the benchmark
// around its own calls into each module's public functions (nothing inside
// src/ is instrumented); they are written out only when the run ends, as
// Chrome trace-event JSON that Perfetto and about:tracing open offline.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

class SpanLog {
 public:
  using Clock = std::chrono::steady_clock;

  struct Span {
    std::string layer;   // module name, e.g. "core/compact"
    std::string name;    // call name, e.g. "compact"
    double start = 0.0;  // seconds since the log was created
    double end = 0.0;
    int parent = -1;        // index of the enclosing span, -1 for roots
    std::uint64_t id = 0;   // the CC call or batch this span belongs to
    bool async = false;     // may overlap siblings (batch lifetimes)
  };

  SpanLog() : origin_(Clock::now()) {}

  double now() const {
    return std::chrono::duration<double>(Clock::now() - origin_).count();
  }
  double at(Clock::time_point t) const {
    return std::chrono::duration<double>(t - origin_).count();
  }

  /// Opens a span nested in the innermost open one.
  int begin(const std::string& layer, const std::string& name,
            std::uint64_t id);
  /// Closes span `index` (must be the innermost open span).
  double end(int index);
  /// Records an already-finished span under `parent` (-1 for a root).
  int add(const std::string& layer, const std::string& name,
          std::uint64_t id, double start, double end, int parent,
          bool async = false);

  double duration(int index) const {
    return spans_[index].end - spans_[index].start;
  }

  /// Calls, total and self seconds per layer (self = duration minus the
  /// part covered by child spans).
  struct LayerTotals {
    std::string layer;
    std::uint64_t calls = 0;
    double total_s = 0.0;
    double self_s = 0.0;
  };
  std::vector<LayerTotals> layer_totals() const;

  bool write_chrome_trace(const std::string& path) const;

 private:
  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// RAII span.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog& log, const std::string& layer, const std::string& name,
             std::uint64_t id)
      : log_(log), index_(log.begin(layer, name, id)) {}
  ~ScopedSpan() {
    if (index_ >= 0) log_.end(index_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  /// Closes the span early and returns its duration in seconds.
  double close() {
    const double d = log_.end(index_);
    index_ = -1;
    return d;
  }

 private:
  SpanLog& log_;
  int index_;
};

}  // namespace perfbench
