// logcc_perfbench: the benchmark binary run.py drives.
//
//   logcc_perfbench fixture --workload W --seed N --data-dir D [--trace 0|1]
//   logcc_perfbench measure --workload W --seed N --seconds S --trace 0|1
//                           --data-dir D [--trace-out FILE]
//   common options: [--size full|tiny] [--corrupt-index]
//
// `measure` prints a human report on stderr and, as the last line of
// stdout, {"correct", "attempted", "failed", "metrics"}; it exits 1 when
// any output was wrong and 2 on a usage or host error.

#include <sched.h>
#include <sys/vfs.h>

#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <string>
#include <thread>

#include "perfbench.hpp"
#include "spans.hpp"
#include "util/parallel.hpp"
#include "util/random.hpp"

namespace perfbench {
namespace {

// Why each workload exists is in perfbench/README.md. `tiny` sizes are for
// the smoke test only.
bool find_workload(const std::string& name, bool tiny, Workload* out) {
  const struct {
    const char* name;
    const char* family;
    std::uint64_t n, tiny_n;
    bool serving;
  } kWorkloads[] = {
      {"cc-rmat", "rmat", 1000000, 4096, false},
      {"cc-path", "path", 4000000, 8192, false},
      {"serve-stream", "gnm2", 1000000, 100000, true},
  };
  for (const auto& w : kWorkloads) {
    if (name != w.name) continue;
    *out = {w.name, w.family, tiny ? w.tiny_n : w.n, w.serving};
    return true;
  }
  return false;
}

int online_cpus() {
  cpu_set_t set;
  if (sched_getaffinity(0, sizeof set, &set) == 0) return CPU_COUNT(&set);
  return static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

std::string filesystem_of(const std::string& dir) {
  struct statfs fs;
  if (statfs(dir.c_str(), &fs) != 0) return "unknown";
  switch (static_cast<unsigned long>(fs.f_type)) {
    case 0xEF53: return "ext4";
    case 0x58465342: return "xfs";
    case 0x9123683E: return "btrfs";
    case 0x01021994: return "tmpfs";
    case 0x794C7630: return "overlayfs";
    case 0x6969: return "nfs";
    case 0x2FC12FC1: return "zfs";
    default: {
      char buf[32];
      std::snprintf(buf, sizeof buf, "0x%lx",
                    static_cast<unsigned long>(fs.f_type));
      return buf;
    }
  }
}

void print_layer_table(const SpanLog& spans, const Report& report) {
  std::fprintf(stderr, "\n%-28s %7s %12s %12s\n", "layer", "calls",
               "total_s", "self_s");
  for (const auto& t : spans.layer_totals()) {
    std::fprintf(stderr, "%-28s %7" PRIu64 " %12.6f %12.6f\n",
                 t.layer.c_str(), t.calls, t.total_s, t.self_s);
    // Counts of this layer: metrics named after its module.
    const std::string prefix = t.layer.substr(t.layer.find('/') + 1) + ".";
    for (const auto& [name, m] : report.metrics())
      if (name.rfind(prefix, 0) == 0 && m.second != "s")
        std::fprintf(stderr, "    %-40s %.6g %s\n", name.c_str(), m.first,
                     m.second.c_str());
  }
  for (const char* name : {"trace.unaccounted_s", "trace.overhead_s"}) {
    const auto it = report.metrics().find(name);
    if (it != report.metrics().end())
      std::fprintf(stderr, "%-28s %.6f s\n", name, it->second.first);
  }
}

void print_result(const Report& report) {
  std::fprintf(stderr, "\n");
  for (const std::string& line : report.notes())
    std::fprintf(stderr, "  %s\n", line.c_str());
  std::fprintf(stderr, "\n%-44s %16s  %s\n", "metric", "value", "unit");
  for (const auto& [name, m] : report.metrics())
    std::fprintf(stderr, "%-44s %16.6f  %s\n", name.c_str(), m.first,
                 m.second.c_str());
  std::fprintf(stderr, "%-44s %16.6f  (failed %" PRIu64 " of %" PRIu64
               " checked operations)\n", "failed_frac",
               report.attempted() ? static_cast<double>(report.failed()) /
                                        report.attempted()
                                  : 0.0,
               report.failed(), report.attempted());

  std::printf("{\"correct\": %s, \"attempted\": %" PRIu64
              ", \"failed\": %" PRIu64 ", \"metrics\": {",
              report.correct() ? "true" : "false", report.attempted(),
              report.failed());
  bool first = true;
  for (const auto& [name, m] : report.metrics()) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                first ? "" : ", ", name.c_str(),
                std::isfinite(m.first) ? m.first : 0.0, m.second.c_str());
    first = false;
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

int usage(const char* why) {
  std::fprintf(stderr,
               "logcc_perfbench: %s\nusage: logcc_perfbench fixture|measure "
               "--workload W --seed N --seconds S --trace 0|1 --data-dir D "
               "[--trace-out F] [--size full|tiny] [--corrupt-index]\n",
               why);
  return 2;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  if (argc < 2) return usage("missing subcommand");
  const std::string cmd = argv[1];
  if (cmd != "fixture" && cmd != "measure") return usage("bad subcommand");

  RunConfig cfg;
  std::string workload, size = "full";
  for (int i = 2; i < argc; ++i) {
    const std::string a = argv[i];
    const bool has_value = i + 1 < argc;
    if (a == "--corrupt-index") {
      cfg.corrupt_index = true;
    } else if (!has_value) {
      return usage(("missing value for " + a).c_str());
    } else if (a == "--workload") {
      workload = argv[++i];
    } else if (a == "--seed") {
      cfg.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (a == "--seconds") {
      cfg.seconds = std::strtod(argv[++i], nullptr);
    } else if (a == "--trace") {
      cfg.trace = std::string(argv[++i]) == "1";
    } else if (a == "--data-dir") {
      cfg.data_dir = argv[++i];
    } else if (a == "--trace-out") {
      cfg.trace_out = argv[++i];
    } else if (a == "--size") {
      size = argv[++i];
    } else {
      return usage(("unknown option " + a).c_str());
    }
  }
  if (!find_workload(workload, size == "tiny", &cfg.workload))
    return usage(("unknown workload '" + workload + "'").c_str());
  if (cfg.data_dir.empty()) return usage("--data-dir is required");
  if (!(cfg.seconds > 0.0)) return usage("--seconds must be positive");
  cfg.nproc = online_cpus();
  cfg.graph_seed = logcc::util::mix64(cfg.seed, 0x6A);
  cfg.algo_seed = logcc::util::mix64(cfg.seed, 0xA1) | 1;

  // Never more busy threads than the host has: serving runs the engine's
  // threads next to the readers; the traced run times faster-cc at nproc.
  const int threads = cfg.workload.serving ? kEngineThreads + kReaderThreads
                                           : kTimedThreads;
  if (threads > cfg.nproc) {
    std::fprintf(stderr,
                 "logcc_perfbench: %s needs %d threads, host has %d; "
                 "refusing to record\n",
                 cfg.workload.name.c_str(), threads, cfg.nproc);
    return 2;
  }

  if (cmd == "fixture") {
    std::string err;
    if (!write_fixture(cfg, &err)) {
      std::fprintf(stderr, "logcc_perfbench: fixture: %s\n", err.c_str());
      return 2;
    }
    return 0;
  }

  const int hw_default = logcc::util::hardware_parallelism();
  Report report;
  char host[512];
  std::snprintf(host, sizeof host,
                "host: nproc %d, hardware_parallelism %d (%s backend), "
                "timed calls on %d thread(s), cpu '%s', data dir on %s",
                cfg.nproc, hw_default, logcc::util::parallel_backend_name(),
                kTimedThreads, cpu_model().c_str(),
                filesystem_of(cfg.data_dir).c_str());
  report.note(host);
  report.note("workload " + cfg.workload.name + ": " + cfg.workload.family +
              ":" + std::to_string(cfg.workload.n) + ", seed " +
              std::to_string(cfg.seed) + ", " +
              std::to_string(cfg.seconds) + " s, trace " +
              (cfg.trace ? "on" : "off"));

  const double s = cfg.seconds;
  if (!cfg.trace) {
    if (cfg.workload.serving) {
      measure_serving(cfg, 0.95 * s, report);
    } else {
      measure_batch(cfg, 0.95 * s, report);
    }
  } else {
    SpanLog spans;
    trace_batch(cfg, 0.5 * s, spans, report);
    trace_serving(cfg, 0.4 * s, spans, report);
    if (!cfg.trace_out.empty() && !spans.write_chrome_trace(cfg.trace_out))
      report.check(false, "cannot write " + cfg.trace_out);
    print_layer_table(spans, report);
  }
  print_result(report);
  return report.correct() ? 0 : 1;
}
