#include "spans.hpp"

#include <algorithm>
#include <cstdio>
#include <map>

namespace perfbench {

int SpanLog::begin(const std::string& layer, const std::string& name,
                   std::uint64_t id) {
  Span s;
  s.layer = layer;
  s.name = name;
  s.id = id;
  s.parent = open_.empty() ? -1 : open_.back();
  s.start = now();
  spans_.push_back(std::move(s));
  open_.push_back(static_cast<int>(spans_.size()) - 1);
  return open_.back();
}

double SpanLog::end(int index) {
  spans_[index].end = now();
  if (!open_.empty() && open_.back() == index) open_.pop_back();
  return duration(index);
}

int SpanLog::add(const std::string& layer, const std::string& name,
                 std::uint64_t id, double start, double end, int parent,
                 bool async) {
  Span s;
  s.layer = layer;
  s.name = name;
  s.id = id;
  s.parent = parent;
  s.start = start;
  s.end = end;
  s.async = async;
  spans_.push_back(std::move(s));
  return static_cast<int>(spans_.size()) - 1;
}

std::vector<SpanLog::LayerTotals> SpanLog::layer_totals() const {
  // Child coverage per parent: union of child intervals clipped to the
  // parent (children of one span may overlap when they are async).
  std::vector<std::vector<std::pair<double, double>>> kids(spans_.size());
  for (const Span& s : spans_)
    if (s.parent >= 0) kids[s.parent].push_back({s.start, s.end});
  std::map<std::string, LayerTotals> by_layer;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    auto& iv = kids[i];
    std::sort(iv.begin(), iv.end());
    double covered = 0.0, cur_lo = 0.0, cur_hi = -1.0;
    for (auto [lo, hi] : iv) {
      lo = std::max(lo, s.start);
      hi = std::min(hi, s.end);
      if (hi <= lo) continue;
      if (lo > cur_hi) {
        if (cur_hi > cur_lo) covered += cur_hi - cur_lo;
        cur_lo = lo;
        cur_hi = hi;
      } else {
        cur_hi = std::max(cur_hi, hi);
      }
    }
    if (cur_hi > cur_lo) covered += cur_hi - cur_lo;
    LayerTotals& t = by_layer[s.layer];
    t.layer = s.layer;
    ++t.calls;
    // A span nested in one of its own layer is already in the total.
    if (s.parent < 0 || spans_[s.parent].layer != s.layer)
      t.total_s += s.end - s.start;
    t.self_s += (s.end - s.start) - covered;
  }
  std::vector<LayerTotals> out;
  for (auto& [layer, t] : by_layer) out.push_back(t);
  return out;
}

namespace {

void write_escaped(std::FILE* f, const std::string& s) {
  for (char c : s) {
    if (c == '"' || c == '\\') std::fputc('\\', f);
    std::fputc(c, f);
  }
}

}  // namespace

bool SpanLog::write_chrome_trace(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fputs("{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n", f);
  bool first = true;
  auto event = [&](const Span& s, std::size_t index, const char* ph,
                   double ts_s) {
    std::fputs(first ? "  " : ",\n  ", f);
    first = false;
    std::fputs("{\"name\": \"", f);
    write_escaped(f, s.name);
    std::fputs("\", \"cat\": \"", f);
    write_escaped(f, s.layer);
    std::fprintf(f, "\", \"ph\": \"%s\", \"ts\": %.3f, \"pid\": 1, ", ph,
                 ts_s * 1e6);
    if (s.async) {
      std::fprintf(f, "\"tid\": 2, \"id\": %zu", index);
    } else {
      std::fprintf(f, "\"tid\": 1, \"dur\": %.3f", (s.end - s.start) * 1e6);
    }
    std::fprintf(f,
                 ", \"args\": {\"id\": %llu, \"parent\": %d, \"span\": %zu}}",
                 static_cast<unsigned long long>(s.id), s.parent, index);
  };
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (s.async) {
      event(s, i, "b", s.start);
      event(s, i, "e", s.end);
    } else {
      event(s, i, "X", s.start);
    }
  }
  std::fputs("\n]}\n", f);
  return std::fclose(f) == 0;
}

}  // namespace perfbench
