// Crash recovery (PR 10 tentpole): ConnectivityEngine::recover must produce
// a ComponentIndex bit-identical (labels + sizes + count) to an engine that
// never crashed, for EVERY registered failpoint. The kill-at-every-failpoint
// suites carry the `fault` ctest label and use threadsafe death tests: the
// child re-execs, rebuilds the durable directory, arms one crash failpoint,
// runs the workload, and either dies at the site (SIGKILL, our power-loss
// stand-in) or exits 0 when the workload never reaches that site; the
// parent then recovers from whatever the child left on disk.
#include <gtest/gtest.h>

#include <sys/stat.h>
#include <sys/wait.h>

#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "graph/generators.hpp"
#include "serve/connectivity_engine.hpp"
#include "util/failpoint.hpp"
#include "util/status.hpp"

namespace logcc {
namespace {

using serve::ConnectivityEngine;
using serve::EngineOptions;
using util::Status;
using util::StatusCode;

namespace fp = util::failpoint;

// n < the engine's serial grain: merges run on the calling thread, so death
// tests never fork a process that owns pool threads.
constexpr std::uint64_t kN = 512;
constexpr std::size_t kBatchEdges = 60;

/// The fixed workload every test replays: one gnm stream chunked into
/// batches. Deterministic, so "engine fed batches [0, k)" is a complete
/// description of an engine state.
std::vector<std::vector<graph::Edge>> workload() {
  const graph::EdgeList el = graph::make_gnm(kN, 1200, /*seed=*/42);
  std::vector<std::vector<graph::Edge>> batches;
  for (std::size_t at = 0; at < el.edges.size(); at += kBatchEdges) {
    const std::size_t end = std::min(at + kBatchEdges, el.edges.size());
    batches.emplace_back(el.edges.begin() + at, el.edges.begin() + end);
  }
  return batches;
}

EngineOptions durable_options(const std::string& dir) {
  EngineOptions opt;
  opt.durability.dir = dir;
  opt.durability.wal.fsync = serve::WalFsync::kBatch;
  opt.durability.checkpoint_every = 3;
  return opt;
}

/// Reference: a never-durable, never-crashed engine fed batches [0, k).
std::shared_ptr<const core::ComponentIndex> reference_index(std::size_t k) {
  static const auto batches = workload();
  ConnectivityEngine ref(kN);
  for (std::size_t i = 0; i < k; ++i) ref.apply_batch(batches[i]);
  return ref.snapshot();
}

std::string test_dir(const std::string& tag) {
  return ::testing::TempDir() + "logcc_recovery_" + tag;
}

void clean_dir(const std::string& dir) {
  std::remove((dir + "/edges.wal").c_str());
  std::remove((dir + "/index.ckpt").c_str());
  std::remove((dir + "/index.ckpt.tmp").c_str());
  ::rmdir(dir.c_str());
}

/// Recovers from `dir` and asserts the published index equals the reference
/// for however many batches made it to disk; optionally requires an exact
/// batch count. Returns the recovered batch count.
std::uint64_t expect_recovers_to_prefix(
    const std::string& dir, std::int64_t want_batches = -1,
    ConnectivityEngine::RecoveryInfo* info_out = nullptr) {
  std::unique_ptr<ConnectivityEngine> engine;
  ConnectivityEngine::RecoveryInfo info;
  const Status s =
      ConnectivityEngine::recover(dir, kN, durable_options(dir), &engine,
                                  &info);
  EXPECT_TRUE(s.is_ok()) << s.to_string();
  if (!s.is_ok()) return 0;
  const std::uint64_t k = engine->num_batches();
  if (want_batches >= 0) {
    EXPECT_EQ(k, static_cast<std::uint64_t>(want_batches));
  }
  EXPECT_LE(k, workload().size());
  EXPECT_TRUE(*engine->snapshot() == *reference_index(k))
      << "recovered index differs from the uninterrupted engine at batch "
      << k;
  EXPECT_FALSE(engine->degraded());
  if (info_out) *info_out = info;
  return k;
}

/// Continues the recovered engine to the end of the workload and asserts it
/// converges to the uninterrupted final state (recovery is a resumable
/// position, not just a readable one).
void expect_continuation_converges(const std::string& dir) {
  std::unique_ptr<ConnectivityEngine> engine;
  ASSERT_TRUE(ConnectivityEngine::recover(dir, kN, durable_options(dir),
                                          &engine, nullptr)
                  .is_ok());
  const auto batches = workload();
  for (std::size_t i = engine->num_batches(); i < batches.size(); ++i) {
    const auto res = engine->apply_batch(batches[i]);
    ASSERT_TRUE(res.applied) << res.durability.to_string();
  }
  EXPECT_TRUE(*engine->snapshot() == *reference_index(batches.size()));
  ASSERT_TRUE(engine->flush_durable().is_ok());
}

// ------------------------------------------------------------ happy path ---

class Recovery : public ::testing::Test {
 protected:
  void TearDown() override { fp::disarm_all(); }
};

TEST_F(Recovery, DurableRunMatchesNonDurableRun) {
  const std::string dir = test_dir("durable_matches");
  clean_dir(dir);
  const auto batches = workload();
  std::unique_ptr<ConnectivityEngine> engine;
  ASSERT_TRUE(ConnectivityEngine::recover(dir, kN, durable_options(dir),
                                          &engine, nullptr)
                  .is_ok());
  EXPECT_TRUE(engine->durable());
  for (const auto& b : batches) {
    const auto res = engine->apply_batch(b);
    ASSERT_TRUE(res.applied);
    ASSERT_TRUE(res.durability.is_ok()) << res.durability.to_string();
  }
  EXPECT_TRUE(*engine->snapshot() == *reference_index(batches.size()));
  EXPECT_GT(engine->wal_offset(), 0u);
}

TEST_F(Recovery, CleanShutdownRecoversFromCheckpointAlone) {
  const std::string dir = test_dir("clean_shutdown");
  clean_dir(dir);
  const auto batches = workload();
  {
    std::unique_ptr<ConnectivityEngine> engine;
    ASSERT_TRUE(ConnectivityEngine::recover(dir, kN, durable_options(dir),
                                            &engine, nullptr)
                    .is_ok());
    for (const auto& b : batches) engine->apply_batch(b);
    ASSERT_TRUE(engine->flush_durable().is_ok());
  }
  ConnectivityEngine::RecoveryInfo info;
  expect_recovers_to_prefix(dir, static_cast<std::int64_t>(batches.size()),
                            &info);
  EXPECT_TRUE(info.used_checkpoint);
  EXPECT_EQ(info.replayed_records, 0u)
      << "a flush_durable checkpoint must cover the whole WAL";
  EXPECT_EQ(info.torn_bytes, 0u);
}

TEST_F(Recovery, RecoversFromWalAloneWithoutCheckpoint) {
  const std::string dir = test_dir("wal_only");
  clean_dir(dir);
  const auto batches = workload();
  EngineOptions opt = durable_options(dir);
  opt.durability.checkpoint_every = 0;  // no checkpoints at all
  {
    std::unique_ptr<ConnectivityEngine> engine;
    ASSERT_TRUE(
        ConnectivityEngine::recover(dir, kN, opt, &engine, nullptr).is_ok());
    for (const auto& b : batches) engine->apply_batch(b);
    // No flush: recovery has nothing but the WAL.
  }
  ConnectivityEngine::RecoveryInfo info;
  expect_recovers_to_prefix(dir, static_cast<std::int64_t>(batches.size()),
                            &info);
  EXPECT_FALSE(info.used_checkpoint);
  EXPECT_EQ(info.checkpoint_status.code(), StatusCode::kNotFound);
  EXPECT_EQ(info.replayed_records, batches.size());
}

TEST_F(Recovery, CheckpointCadencePlusWalSuffixReplay) {
  const std::string dir = test_dir("ckpt_suffix");
  clean_dir(dir);
  const auto batches = workload();
  // Stop 3 short of the stream, off the cadence: the last checkpoint
  // covers a prefix and the batches after it exist only in the WAL.
  const std::size_t crash_at = batches.size() - 3;
  ASSERT_NE(crash_at % 3, 0u);
  {
    std::unique_ptr<ConnectivityEngine> engine;
    ASSERT_TRUE(ConnectivityEngine::recover(dir, kN, durable_options(dir),
                                            &engine, nullptr)
                    .is_ok());
    for (std::size_t i = 0; i < crash_at; ++i) engine->apply_batch(batches[i]);
    // No flush: the engine is dropped as if the process died.
  }
  std::unique_ptr<ConnectivityEngine> engine;
  ConnectivityEngine::RecoveryInfo info;
  ASSERT_TRUE(ConnectivityEngine::recover(dir, kN, durable_options(dir),
                                          &engine, &info)
                  .is_ok());
  EXPECT_EQ(engine->num_batches(), crash_at);
  EXPECT_TRUE(*engine->snapshot() == *reference_index(crash_at));
  EXPECT_TRUE(info.used_checkpoint);
  const std::uint64_t expected_ckpt = (crash_at / 3) * 3;  // cadence 3
  EXPECT_EQ(info.checkpoint_batches, expected_ckpt);
  EXPECT_EQ(info.replayed_records, crash_at - expected_ckpt);
  // The batches after recovery merge on member lists rebuilt from the
  // checkpoint's labels; every epoch must equal the never-crashed engine.
  for (std::size_t i = crash_at; i < batches.size(); ++i) {
    const auto res = engine->apply_batch(batches[i]);
    ASSERT_TRUE(res.applied) << res.durability.to_string();
    EXPECT_TRUE(*engine->snapshot() == *reference_index(i + 1))
        << "diverged at batch " << i + 1;
  }
}

TEST_F(Recovery, CorruptCheckpointFallsBackToFullReplay) {
  const std::string dir = test_dir("bad_ckpt");
  clean_dir(dir);
  const auto batches = workload();
  {
    std::unique_ptr<ConnectivityEngine> engine;
    ASSERT_TRUE(ConnectivityEngine::recover(dir, kN, durable_options(dir),
                                            &engine, nullptr)
                    .is_ok());
    for (const auto& b : batches) engine->apply_batch(b);
    ASSERT_TRUE(engine->flush_durable().is_ok());
  }
  {
    std::FILE* f = std::fopen((dir + "/index.ckpt").c_str(), "rb+");
    ASSERT_NE(f, nullptr);
    ASSERT_EQ(std::fseek(f, 64 + 40, SEEK_SET), 0);  // inside the payload
    const int c = std::fgetc(f);
    ASSERT_EQ(std::fseek(f, -1, SEEK_CUR), 0);
    std::fputc(c ^ 0x08, f);
    std::fclose(f);
  }
  ConnectivityEngine::RecoveryInfo info;
  expect_recovers_to_prefix(dir, static_cast<std::int64_t>(batches.size()),
                            &info);
  EXPECT_FALSE(info.used_checkpoint);
  EXPECT_EQ(info.checkpoint_status.code(), StatusCode::kCorruption);
  EXPECT_EQ(info.replayed_records, batches.size())
      << "a corrupt checkpoint must not cost any durable batches";
}

TEST_F(Recovery, TornWalTailIsTruncatedNotFatal) {
  const std::string dir = test_dir("torn_tail");
  clean_dir(dir);
  const auto batches = workload();
  EngineOptions opt = durable_options(dir);
  opt.durability.checkpoint_every = 0;
  {
    std::unique_ptr<ConnectivityEngine> engine;
    ASSERT_TRUE(
        ConnectivityEngine::recover(dir, kN, opt, &engine, nullptr).is_ok());
    for (std::size_t i = 0; i + 1 < batches.size(); ++i)
      engine->apply_batch(batches[i]);
  }
  {  // a record header promising payload that never arrived
    std::FILE* f = std::fopen((dir + "/edges.wal").c_str(), "ab");
    ASSERT_NE(f, nullptr);
    const std::uint32_t torn[2] = {480, 0};
    ASSERT_EQ(std::fwrite(torn, 1, sizeof torn, f), sizeof torn);
    std::fclose(f);
  }
  ConnectivityEngine::RecoveryInfo info;
  expect_recovers_to_prefix(
      dir, static_cast<std::int64_t>(batches.size() - 1), &info);
  EXPECT_EQ(info.torn_bytes, 8u);
  // The truncated log accepts the dropped batch again and converges.
  expect_continuation_converges(dir);
}

TEST_F(Recovery, UniverseMismatchIsCorruption) {
  const std::string dir = test_dir("wrong_n");
  clean_dir(dir);
  {
    std::unique_ptr<ConnectivityEngine> engine;
    ASSERT_TRUE(ConnectivityEngine::recover(dir, kN, durable_options(dir),
                                            &engine, nullptr)
                    .is_ok());
    engine->apply_batch(workload()[0]);
  }
  std::unique_ptr<ConnectivityEngine> engine;
  EXPECT_EQ(ConnectivityEngine::recover(dir, kN + 1, durable_options(dir),
                                        &engine, nullptr)
                .code(),
            StatusCode::kCorruption);
}

// -------------------------------------------------- typed error injection ---

TEST_F(Recovery, FailedWalAppendLeavesEngineUnchanged) {
  const std::string dir = test_dir("append_error");
  clean_dir(dir);
  const auto batches = workload();
  std::unique_ptr<ConnectivityEngine> engine;
  ASSERT_TRUE(ConnectivityEngine::recover(dir, kN, durable_options(dir),
                                          &engine, nullptr)
                  .is_ok());
  engine->apply_batch(batches[0]);
  const auto before = engine->snapshot();
  const std::uint64_t epoch_before = engine->epoch();

  fp::arm("wal_append_write", fp::Action::kError);
  const auto res = engine->apply_batch(batches[1]);
  fp::disarm_all();
  EXPECT_FALSE(res.applied);
  EXPECT_EQ(res.durability.code(), StatusCode::kIoError);
  EXPECT_EQ(engine->num_batches(), 1u);
  EXPECT_EQ(engine->epoch(), epoch_before) << "no publish on a failed batch";
  EXPECT_TRUE(*engine->snapshot() == *before);

  // The same batch retries cleanly once the fault clears.
  const auto retry = engine->apply_batch(batches[1]);
  EXPECT_TRUE(retry.applied);
  EXPECT_TRUE(*engine->snapshot() == *reference_index(2));
}

TEST_F(Recovery, OutOfRangeBatchIsRefusedBeforeTheWal) {
  // One bad request must not kill a durable server: the batch is refused
  // with kInvalidArgument, no WAL byte is written, the epoch stays, and a
  // recovery sees exactly the pre-rejection state.
  const std::string dir = test_dir("bad_batch");
  clean_dir(dir);
  const auto batches = workload();
  std::unique_ptr<ConnectivityEngine> engine;
  ASSERT_TRUE(ConnectivityEngine::recover(dir, kN, durable_options(dir),
                                          &engine, nullptr)
                  .is_ok());
  engine->apply_batch(batches[0]);
  engine->apply_batch(batches[1]);
  const auto before = engine->snapshot();
  const std::uint64_t epoch_before = engine->epoch();
  const std::uint64_t wal_before = engine->wal_offset();

  std::vector<graph::Edge> bad = batches[2];
  bad.push_back({0, static_cast<graph::VertexId>(kN)});
  const auto res = engine->apply_batch(bad);
  EXPECT_FALSE(res.applied);
  EXPECT_EQ(res.durability.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(engine->wal_offset(), wal_before) << "rejected batch hit the WAL";
  EXPECT_EQ(engine->epoch(), epoch_before);
  EXPECT_EQ(engine->num_batches(), 2u);
  EXPECT_TRUE(*engine->snapshot() == *before);
  engine.reset();

  std::unique_ptr<ConnectivityEngine> recovered;
  ASSERT_TRUE(ConnectivityEngine::recover(dir, kN, durable_options(dir),
                                          &recovered, nullptr)
                  .is_ok());
  EXPECT_EQ(recovered->num_batches(), 2u);
  EXPECT_TRUE(*recovered->snapshot() == *before);
  recovered.reset();
  clean_dir(dir);
}

TEST_F(Recovery, FailedCheckpointKeepsBatchApplied) {
  const std::string dir = test_dir("ckpt_error");
  clean_dir(dir);
  const auto batches = workload();
  std::unique_ptr<ConnectivityEngine> engine;
  ASSERT_TRUE(ConnectivityEngine::recover(dir, kN, durable_options(dir),
                                          &engine, nullptr)
                  .is_ok());
  fp::arm("checkpoint_write", fp::Action::kError);
  bool saw_checkpoint_failure = false;
  for (std::size_t i = 0; i < 4; ++i) {  // cadence 3: batch 3 checkpoints
    const auto res = engine->apply_batch(batches[i]);
    EXPECT_TRUE(res.applied) << "a checkpoint failure must not drop a batch";
    if (!res.durability.is_ok()) saw_checkpoint_failure = true;
  }
  fp::disarm_all();
  EXPECT_TRUE(saw_checkpoint_failure);
  EXPECT_TRUE(*engine->snapshot() == *reference_index(4));
  engine.reset();
  // Without a checkpoint the WAL alone still recovers everything.
  expect_recovers_to_prefix(dir, 4);
}

TEST_F(Recovery, ErrorSweepAcrossWritePathSitesConverges) {
  // Arm each write-path site with a one-shot error in turn while feeding
  // the whole workload; whatever each injection knocks out, retrying the
  // batch and finishing the stream must converge to the reference.
  const auto batches = workload();
  for (const char* site :
       {"wal_append_write", "wal_fsync", "checkpoint_open",
        "checkpoint_write", "checkpoint_sync", "checkpoint_before_rename",
        "checkpoint_after_rename"}) {
    const std::string dir = test_dir(std::string("sweep_") + site);
    clean_dir(dir);
    std::unique_ptr<ConnectivityEngine> engine;
    ASSERT_TRUE(ConnectivityEngine::recover(dir, kN, durable_options(dir),
                                            &engine, nullptr)
                    .is_ok())
        << site;
    fp::arm(site, fp::Action::kOnce);
    for (const auto& b : batches) {
      auto res = engine->apply_batch(b);
      if (!res.applied) res = engine->apply_batch(b);  // one retry
      ASSERT_TRUE(res.applied) << site;
    }
    fp::disarm_all();
    EXPECT_TRUE(*engine->snapshot() == *reference_index(batches.size()))
        << site;
    engine.reset();
    expect_recovers_to_prefix(dir,
                              static_cast<std::int64_t>(batches.size()));
  }
}

// ------------------------------------------------------------ degradation ---

TEST_F(Recovery, DegradedDurableEngineRecoversUndegraded) {
  const std::string dir = test_dir("degraded");
  clean_dir(dir);
  const auto batches = workload();
  EngineOptions opt = durable_options(dir);
  opt.max_resident_bytes = 1;  // trip immediately
  {
    std::unique_ptr<ConnectivityEngine> engine;
    ASSERT_TRUE(
        ConnectivityEngine::recover(dir, kN, opt, &engine, nullptr).is_ok());
    bool saw_degraded = false;
    for (const auto& b : batches) {
      const auto res = engine->apply_batch(b);
      ASSERT_TRUE(res.applied);
      saw_degraded |= res.degraded;
    }
    ASSERT_TRUE(saw_degraded);
    ASSERT_TRUE(engine->degraded());
    // Degraded queries carry the staleness flag ...
    serve::QueryInfo qi;
    (void)engine->connected(0, 1, &qi);
    EXPECT_TRUE(qi.degraded);
    // ... and the fresh approximate tier keeps serving.
    ASSERT_NE(engine->sketched(), nullptr);
    EXPECT_GT(engine->approx_component_count(), 0.0);
  }
  // The WAL kept the full history even though memory shed it: recovery
  // without the cap yields the exact, un-degraded final state.
  expect_recovers_to_prefix(dir, static_cast<std::int64_t>(batches.size()));
}

// ----------------------------------------------- kill at every failpoint ---

/// Exit predicate for the catalog sweeps: the child either reached the site
/// (kCrash raises SIGKILL — no atexit, no flush, the closest in-process
/// stand-in for power loss) or never executed it and exited 0.
bool killed_or_clean(int exit_status) {
  if (WIFSIGNALED(exit_status)) return WTERMSIG(exit_status) == SIGKILL;
  return WIFEXITED(exit_status) && WEXITSTATUS(exit_status) == 0;
}

class RecoveryDeath : public ::testing::Test {
 protected:
  void SetUp() override {
    // Threadsafe death tests re-exec the binary: the child never inherits
    // pool threads, and code before the EXPECT_EXIT statement re-runs
    // there, so all directory setup happens INSIDE the statement.
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  }
  void TearDown() override { fp::disarm_all(); }
};

TEST_F(RecoveryDeath, KillAtEveryFailpointDuringApply) {
  const auto batches = workload();
  const auto catalog = fp::catalog();
  // Phase 1 (children): for every site, rebuild the directory, arm the
  // crash, feed the workload. Sites off the write path exit 0 with a fully
  // fed directory — still a valid recovery input.
  for (const char* site : catalog) {
    const std::string dir = test_dir(std::string("kill_") + site);
    EXPECT_EXIT(
        {
          clean_dir(dir);
          std::unique_ptr<ConnectivityEngine> engine;
          if (!ConnectivityEngine::recover(dir, kN, durable_options(dir),
                                           &engine, nullptr)
                   .is_ok())
            ::exit(7);
          fp::arm(site, fp::Action::kCrash);
          for (const auto& b : batches)
            if (!engine->apply_batch(b).applied) ::exit(8);
          ::exit(0);
        },
        killed_or_clean, "")
        << site;
  }
  // Phase 2 (parent): every directory — wherever the kill landed — must
  // recover to the reference prefix and then resume to the full stream.
  for (const char* site : catalog) {
    const std::string dir = test_dir(std::string("kill_") + site);
    SCOPED_TRACE(site);
    expect_recovers_to_prefix(dir);
    expect_continuation_converges(dir);
  }
}

TEST_F(RecoveryDeath, KillAtEveryFailpointDuringRecovery) {
  const auto batches = workload();
  const auto catalog = fp::catalog();
  // Crash during recovery itself: the child first builds a complete
  // durable state cleanly, then arms the site and recovers again. Read-path
  // sites (mmap/checkpoint/wal_replay) die there; recovery must be
  // idempotent, so the parent's third recovery sees the full stream.
  for (const char* site : catalog) {
    const std::string dir = test_dir(std::string("rkill_") + site);
    EXPECT_EXIT(
        {
          clean_dir(dir);
          {
            std::unique_ptr<ConnectivityEngine> engine;
            if (!ConnectivityEngine::recover(dir, kN, durable_options(dir),
                                             &engine, nullptr)
                     .is_ok())
              ::exit(7);
            for (const auto& b : batches)
              if (!engine->apply_batch(b).applied) ::exit(8);
            if (!engine->flush_durable().is_ok()) ::exit(9);
          }
          fp::arm(site, fp::Action::kCrash);
          std::unique_ptr<ConnectivityEngine> again;
          (void)ConnectivityEngine::recover(dir, kN, durable_options(dir),
                                            &again, nullptr);
          ::exit(0);
        },
        killed_or_clean, "")
        << site;
  }
  for (const char* site : catalog) {
    const std::string dir = test_dir(std::string("rkill_") + site);
    SCOPED_TRACE(site);
    expect_recovers_to_prefix(dir, static_cast<std::int64_t>(batches.size()));
  }
}

TEST_F(RecoveryDeath, KillAfterWalAppendLosesNothing) {
  // The sharpest single case: die between the durable append and the
  // in-memory merge of batch 4. The WAL already owns the batch, so the
  // recovered engine must include it — write-ahead means the crash window
  // never loses an acknowledged write.
  const auto batches = workload();
  const std::string dir = test_dir("kill_after_append");
  EXPECT_EXIT(
      {
        clean_dir(dir);
        std::unique_ptr<ConnectivityEngine> engine;
        if (!ConnectivityEngine::recover(dir, kN, durable_options(dir),
                                         &engine, nullptr)
                 .is_ok())
          ::exit(7);
        fp::arm("engine_after_wal_append", fp::Action::kCrash,
                /*skip_hits=*/3);
        for (const auto& b : batches) (void)engine->apply_batch(b);
        ::exit(0);
      },
      ::testing::KilledBySignal(SIGKILL), "");
  // The appended-but-unmerged batch must survive the crash.
  expect_recovers_to_prefix(dir, 4);
  expect_continuation_converges(dir);
}

}  // namespace
}  // namespace logcc
