#include <sys/resource.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <numeric>

#include "core/connectivity.hpp"
#include "perfbench.hpp"

namespace perfbench {

std::string csr_path(const RunConfig& cfg) {
  return cfg.data_dir + "/graph.logccsr";
}
std::string stream_path(const RunConfig& cfg) {
  return cfg.data_dir + "/stream.bin";
}
std::string durable_dir(const RunConfig& cfg) {
  return cfg.data_dir + "/durable";
}

logcc::serve::EngineOptions serving_options(const RunConfig& cfg) {
  logcc::serve::EngineOptions opts;
  opts.verify_every = 0;
  opts.sketched_view = false;
  opts.seed = cfg.algo_seed;
  opts.durability.dir = durable_dir(cfg);
  opts.durability.wal.fsync = logcc::serve::WalFsync::kNone;
  opts.durability.checkpoint_every = kCheckpointEvery;
  return opts;
}

bool write_stream(const std::string& path, const Stream& s) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return false;
  const std::uint64_t header[3] = {s.n, s.edges.size(), s.prefix_edges};
  bool ok = std::fwrite(header, sizeof header, 1, f) == 1;
  if (ok && !s.edges.empty())
    ok = std::fwrite(s.edges.data(), sizeof(logcc::graph::Edge),
                     s.edges.size(), f) == s.edges.size();
  return std::fclose(f) == 0 && ok;
}

bool read_stream(const std::string& path, Stream* s) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return false;
  std::uint64_t header[3] = {0, 0, 0};
  bool ok = std::fread(header, sizeof header, 1, f) == 1 &&
            header[2] <= header[1] && header[1] < (1ull << 40);
  if (ok) {
    s->n = header[0];
    s->prefix_edges = header[2];
    s->edges.resize(header[1]);
    ok = std::fread(s->edges.data(), sizeof(logcc::graph::Edge),
                    s->edges.size(), f) == s->edges.size();
    for (const auto& e : s->edges) ok = ok && e.u < s->n && e.v < s->n;
  }
  std::fclose(f);
  return ok;
}

double Samples::quantile(double q) const {
  if (v_.empty()) return 0.0;
  std::vector<double> s = v_;
  std::sort(s.begin(), s.end());
  const double pos = q * static_cast<double>(s.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, s.size() - 1);
  return s[lo] + (s[hi] - s[lo]) * (pos - static_cast<double>(lo));
}

double Samples::mean() const {
  return v_.empty() ? 0.0
                    : std::accumulate(v_.begin(), v_.end(), 0.0) /
                          static_cast<double>(v_.size());
}

std::string Samples::summary(const char* unit) const {
  char buf[160];
  int len = std::snprintf(buf, sizeof buf, "median %.6g %s", median(), unit);
  // The highest listed percentile that still has ten samples beyond it.
  const double tails[] = {0.999, 0.99, 0.9};
  for (double q : tails) {
    if (static_cast<double>(v_.size()) * (1.0 - q) >= 10.0) {
      len += std::snprintf(buf + len, sizeof buf - len, ", p%g %.6g %s",
                           q * 100.0, quantile(q), unit);
      break;
    }
  }
  std::snprintf(buf + len, sizeof buf - len, " (n=%zu)", v_.size());
  return buf;
}

void Report::set(const std::string& name, double value,
                 const std::string& unit) {
  metrics_[name] = {value, unit};
}

void Report::check(bool ok, const std::string& what) {
  ++attempted_;
  if (ok) return;
  ++failed_;
  correct_ = false;
  std::fprintf(stderr, "perfbench: CHECK FAILED: %s\n", what.c_str());
}

void Report::count(std::uint64_t attempted, std::uint64_t failed) {
  attempted_ += attempted;
  failed_ += failed;
}

void Report::note(const std::string& line) { notes_.push_back(line); }

logcc::core::ComponentIndex corrupted(const logcc::core::ComponentIndex& ix) {
  std::vector<logcc::graph::VertexId> labels = ix.labels();
  if (labels.size() >= 2) labels[1] = labels[1] == 0 ? 1 : 0;
  return logcc::core::ComponentIndex::from_labels(std::move(labels));
}

logcc::core::ComponentIndex union_find_index(
    const logcc::graph::ArcsInput& in) {
  return logcc::connected_components(in, logcc::Algorithm::kUnionFind).index;
}

double peak_rss_mib() {
  struct rusage ru;
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

}  // namespace perfbench
