// Shared vocabulary of the logcc benchmark binary: run configuration,
// sample summaries, the metric report, and the on-disk fixture layout.
//
// The binary has two subcommands. `fixture` generates a workload's inputs
// from the benchmark seed and writes them under the data directory;
// `measure` reads only those files, runs the timed (or traced) workload and
// prints one JSON result line. Keeping generation in its own process keeps
// it out of every timing and out of peak_rss_mib.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/component_index.hpp"
#include "core/metrics.hpp"
#include "graph/binary_io.hpp"
#include "graph/graph.hpp"
#include "serve/connectivity_engine.hpp"

namespace perfbench {

class SpanLog;

/// One workload of BENCHMARK.json. `family`/`n` name the generator spec
/// (graph::make_family_stream); the serving workload streams its edges.
struct Workload {
  std::string name;
  std::string family;
  std::uint64_t n = 0;
  bool serving = false;
};

struct RunConfig {
  Workload workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string data_dir;
  std::string trace_out;  // Chrome trace-event JSON (traced runs)
  /// Smoke-test hook: perturb one label of the first timed result so the
  /// correctness check must fail.
  bool corrupt_index = false;
  int nproc = 1;
  std::uint64_t graph_seed = 1;  // derived from `seed`
  std::uint64_t algo_seed = 1;   // derived from `seed`, fixed across reps
};

// Serving settings shared by the fixture and the measured stream: cc_serve's
// checkpoint cadence and 100-edge batches.
inline constexpr std::uint64_t kBatchEdges = 100;
inline constexpr std::uint64_t kCheckpointEvery = 32;
/// Width of every timed call: the faster-cc and union-find calls, the opens
/// and the serving engine. On a shared host the hypervisor takes CPUs away
/// for milliseconds at a time (steal time), and a bulk-synchronous call
/// waits at each step for its slowest thread, so the wider the call, the
/// more of the host's noise it measures. On a 4-vCPU VM, back-to-back runs
/// of faster-cc on cc-rmat spread 17% at 4 threads and 7% at 2; in a burst
/// of steal time the 2-thread call slowed by up to 1.85x, single-threaded
/// union-find by at most 1.2x. The traced run also times faster-cc at
/// nproc threads (faster_cc.nproc_s), without a bound.
inline constexpr int kTimedThreads = 1;
inline constexpr int kEngineThreads = kTimedThreads;
/// One reader, so that the engine's thread and the reader leave CPUs free
/// for the host.
inline constexpr int kReaderThreads = 1;
/// Repetitions of a cheap layer call in a traced run (median reported).
inline constexpr int kLayerReps = 3;
/// Prefix batches written after the prefix checkpoint, so recovery replays
/// half of one checkpoint period.
inline constexpr std::uint64_t kPrefixTailBatches = kCheckpointEvery / 2;

/// The measured engine: a WAL record per batch, written before the merge but
/// not fsynced, a checkpoint every 32 batches, no verify cadence, no
/// sketched tier. cc_serve fsyncs every batch; on a shared disk that fsync
/// takes about 0.1 ms when the disk is quiet, but while another process
/// wrote to the disk it added about 8 ms to each batch and cut the engine's
/// capacity from 51 to 34 batches/s. The traced run times the fsync on its
/// own (wal.sync_*).
logcc::serve::EngineOptions serving_options(const RunConfig& cfg);

std::string csr_path(const RunConfig& cfg);
std::string stream_path(const RunConfig& cfg);
std::string durable_dir(const RunConfig& cfg);

/// The edge stream a serving run replays: `edges[0, prefix_edges)` is the
/// durable prefix already in durable_dir, the rest arrives in batches.
struct Stream {
  std::uint64_t n = 0;
  std::uint64_t prefix_edges = 0;
  std::vector<logcc::graph::Edge> edges;
};
bool write_stream(const std::string& path, const Stream& s);
/// Rejects a malformed file (bad header, short read, endpoint >= n).
bool read_stream(const std::string& path, Stream* s);

/// Timing samples with the summaries the benchmark reports.
class Samples {
 public:
  void add(double x) { v_.push_back(x); }
  std::size_t size() const { return v_.size(); }
  bool empty() const { return v_.empty(); }
  double median() const { return quantile(0.5); }
  /// Linear-interpolated quantile (q in [0, 1]).
  double quantile(double q) const;
  double mean() const;
  void append(const Samples& other) {
    v_.insert(v_.end(), other.v_.begin(), other.v_.end());
  }
  /// "median X, pNN Y (n=K)": the highest of p90/p99/p99.9 that still has
  /// at least ten samples beyond it, or none when there are too few.
  std::string summary(const char* unit) const;

 private:
  std::vector<double> v_;
};

/// Metrics plus the correctness ledger of one run.
class Report {
 public:
  void set(const std::string& name, double value, const std::string& unit);
  /// Counts one checked operation; a false `ok` marks it failed and the
  /// whole run incorrect, and logs `what` to stderr.
  void check(bool ok, const std::string& what);
  /// Counts operations whose failure is a refusal, not a wrong answer
  /// (e.g. a batch the engine did not apply).
  void count(std::uint64_t attempted, std::uint64_t failed);
  /// A human note printed in the run summary.
  void note(const std::string& line);

  bool correct() const { return correct_; }
  std::uint64_t attempted() const { return attempted_; }
  std::uint64_t failed() const { return failed_; }
  const std::map<std::string, std::pair<double, std::string>>& metrics()
      const {
    return metrics_;
  }
  const std::vector<std::string>& notes() const { return notes_; }

 private:
  std::map<std::string, std::pair<double, std::string>> metrics_;
  std::vector<std::string> notes_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  bool correct_ = true;
};

/// Flips one label so that an index no longer equals the truth (smoke
/// test of the correctness checks).
logcc::core::ComponentIndex corrupted(const logcc::core::ComponentIndex& ix);

/// Sequential union-find's index of `in`: the reference every timed result
/// is checked against.
logcc::core::ComponentIndex union_find_index(
    const logcc::graph::ArcsInput& in);

/// Peak resident memory of this process so far (peak_rss_mib). Sampled
/// before a run's final correctness checks, which hold copies of their own.
double peak_rss_mib();

/// Time-to-components on the workload's CSR file, one round at a time:
/// faster-cc at kTimedThreads, several times (cc_s; with reopen, each call
/// follows an open plus deep validation, setup_s), then union-find, several
/// times (uf_s). Every result is checked bit for bit against a union-find
/// index.
class BatchRounds {
 public:
  BatchRounds(const RunConfig& cfg, bool reopen, Report& report);
  /// Runs one round; returns its faster-cc index (valid until the next
  /// round), or null after a failure.
  const logcc::core::ComponentIndex* round();
  std::size_t count() const { return cc_.size(); }
  /// cc_s, uf_s; with reopen also setup_s and, taking one request
  /// as open plus faster-cc, visible_* and max_batches_per_s.
  void report();

 private:
  void check(const logcc::core::ComponentIndex& index, const char* what);
  void track_counts(const logcc::core::RunStats& s);

  const RunConfig& cfg_;
  bool reopen_;
  Report& report_;
  std::string path_;
  logcc::graph::DatasetHandle handle_;
  logcc::core::ComponentIndex ref_, last_;
  Samples setup_, cc_, uf_, visible_;
  Samples visible_p90_;  // one p90 per round
  std::uint64_t rounds_ = 0, prepare_phases_ = 0;
  bool counts_fixed_ = true;
  bool ok_ = false;
  bool corrupt_ = false;
};

/// cc-* end to end: BatchRounds with reopen, each round followed by a
/// window of reader threads on its index (query_*).
void measure_batch(const RunConfig& cfg, double budget_s, Report& report);

/// Traced decomposition of faster-cc on the workload's CSR file: the
/// graph/binary_io, core/* layer metrics and trace.{unaccounted,overhead}_s.
void trace_batch(const RunConfig& cfg, double budget_s, SpanLog& spans,
                 Report& report);

/// serve-stream end to end: setup_s (recover), the fixed-rate phase
/// (visible_*, query_*) and a saturated phase (max_batches_per_s).
void measure_serving(const RunConfig& cfg, double budget_s, Report& report);

/// Serving layers, traced: connectivity_engine, wal, checkpoint,
/// sketched_view and component_index.publish_build_s.
void trace_serving(const RunConfig& cfg, double budget_s, SpanLog& spans,
                   Report& report);

/// Writes the workload's inputs (CSR file; edge stream and durable prefix
/// for serving, edge stream for traced cc-* runs).
bool write_fixture(const RunConfig& cfg, std::string* error);

}  // namespace perfbench
