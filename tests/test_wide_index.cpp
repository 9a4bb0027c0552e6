// The 32-bit index wall: regression tests for the narrowing-overflow audit
// and the LOGCCSR2 (wide) format.
//
// Every "boundary" test here is pinned at or just past a uint32 edge
// (2^31, 2^32) and fails on the pre-audit code: degree arithmetic that
// wrapped in uint32, writers that silently truncated 64-bit counts into v1
// header fields, header validation that did size math before rejecting
// oversized counts, and generator streams whose intermediates wrapped.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "core/vanilla.hpp"
#include "baselines/union_find.hpp"
#include "core/faster_cc.hpp"
#include "graph/arcs_input.hpp"
#include "graph/binary_io.hpp"
#include "graph/generators.hpp"
#include "graph/graph_algos.hpp"
#include "graph/graph.hpp"
#include "graph/io.hpp"

namespace logcc {
namespace {

constexpr std::uint64_t kU32Max = std::numeric_limits<std::uint32_t>::max();

// ---------------------------------------------------------------- degree ---

TEST(WideIndex, CsrViewDegreeSurvivesPast2To32Arcs) {
  // Pre-fix, CsrView::degree returned uint32: a vertex whose arc range
  // crosses 2^32 wrapped (5G - 1G = 4G -> 0 in uint32). Only the offsets
  // array is read, so the boundary is cheap to synthesize.
  const std::uint64_t kOneG = 1ull << 30;
  const std::uint64_t kFiveG = 5ull << 30;
  std::vector<std::uint64_t> offsets = {0, kOneG, kFiveG, kFiveG + 7};

  graph::CsrView narrow;
  narrow.n = 3;
  narrow.offsets = offsets.data();
  EXPECT_EQ(narrow.degree(1), kFiveG - kOneG);  // wrapped to 0 pre-fix
  EXPECT_EQ(narrow.degree(2), 7u);

  graph::CsrView64 wide;
  wide.n = 3;
  wide.offsets = offsets.data();
  EXPECT_EQ(wide.degree(1), kFiveG - kOneG);
}

// ---------------------------------------------------------------- writer ---

TEST(WideIndex, NarrowWriterRejectsOversizedVertexCountBeforePassOne) {
  // n just past the v1 cap: must fail with an actionable LOGCCSR2 pointer
  // BEFORE the enumerator ever runs (pre-fix the count truncated into the
  // uint32 header field). The enumerator aborts the test if consulted.
  const std::string path = ::testing::TempDir() + "/wide_reject_n.logccsr";
  std::string error;
  bool enumerated = false;
  const bool ok = graph::write_binary_csr_streaming(
      path, kU32Max + 2,
      [&](const graph::EdgeSink&) { enumerated = true; }, &error,
      graph::BinaryCsrFormat::kNarrow);
  EXPECT_FALSE(ok);
  EXPECT_FALSE(enumerated) << "oversized n must be rejected before pass 1";
  EXPECT_NE(error.find("LOGCCSR2"), std::string::npos)
      << "error must point at the wide format: " << error;
  std::ifstream probe(path, std::ios::binary);
  EXPECT_FALSE(probe.good()) << "no output file may be created";
  std::remove(path.c_str());
}


// ---------------------------------------------------------------- loader ---

/// Writes a 64-byte file that is ONLY a header (deliberately truncated
/// payload): if the count caps are checked after size math, the oversized
/// fields poison the expected-size computation first.
void write_header_only(const std::string& path, const char* magic,
                       std::uint32_t version, std::uint64_t n,
                       std::uint64_t num_arcs, std::uint64_t num_edges) {
  graph::BinaryCsrHeader h{};
  std::memcpy(h.magic, magic, sizeof(h.magic));
  h.version = version;
  h.endian = graph::kEndianTag;
  h.n = n;
  h.num_arcs = num_arcs;
  h.num_edges = num_edges;
  std::ofstream os(path, std::ios::binary | std::ios::trunc);
  ASSERT_TRUE(os.good());
  os.write(reinterpret_cast<const char*>(&h), sizeof(h));
  ASSERT_TRUE(os.good());
}

TEST(WideIndex, V1HeaderWithOversizedCountsIsRejectedWithActionableError) {
  // The header fields are 64-bit on disk; v1 semantics cap them at uint32.
  // The cap must reject BEFORE any narrowing or size arithmetic, and the
  // message must say what to do about it.
  const std::string path = ::testing::TempDir() + "/wide_v1_overflow.logccsr";

  write_header_only(path, graph::kBinaryCsrMagic, graph::kBinaryCsrVersion,
                    /*n=*/kU32Max + 10, /*num_arcs=*/8, /*num_edges=*/4);
  graph::BinaryGraph bg;
  std::string error;
  EXPECT_FALSE(bg.open(path, &error));
  EXPECT_NE(error.find("LOGCCSR2"), std::string::npos)
      << "oversized n must point at the wide format: " << error;

  write_header_only(path, graph::kBinaryCsrMagic, graph::kBinaryCsrVersion,
                    /*n=*/100, /*num_arcs=*/8, /*num_edges=*/kU32Max + 10);
  error.clear();
  EXPECT_FALSE(bg.open(path, &error));
  EXPECT_NE(error.find("LOGCCSR2"), std::string::npos)
      << "oversized edge count must point at the wide format: " << error;
  std::remove(path.c_str());
}

TEST(WideIndex, V2HeaderSizeMathDoesNotOverflowOnHugeCounts) {
  // Adversarial v2 header: counts chosen so (n+1)*8 + arcs*8 wraps uint64
  // if computed naively. The loader must reject on size (the file is 64
  // bytes), never accept or crash.
  const std::string path = ::testing::TempDir() + "/wide_v2_huge.logccsr";
  const std::uint64_t huge = (1ull << 61);
  write_header_only(path, graph::kBinaryCsrMagicV2, graph::kBinaryCsrVersionV2,
                    /*n=*/huge, /*num_arcs=*/huge, /*num_edges=*/huge / 2);
  graph::BinaryGraph bg;
  std::string error;
  EXPECT_FALSE(bg.open(path, &error));
  EXPECT_FALSE(error.empty());
  std::remove(path.c_str());
}

// ----------------------------------------------------------- text reader ---

TEST(WideIndex, TextReaderRejectsIdsAtTheNarrowSentinel) {
  // Pre-fix the text parser cast uint64 ids straight to VertexId: an id of
  // 2^32 + 5 silently became 5. Now anything >= kInvalidVertex fails the
  // parse; the largest representable id still works.
  graph::EdgeList el;
  {
    std::istringstream is("0 4294967295\n");  // kInvalidVertex as endpoint
    EXPECT_FALSE(graph::read_edge_list(is, el));
  }
  {
    std::istringstream is("0 4294967296\n");  // 2^32: wrapped to 0 pre-fix
    EXPECT_FALSE(graph::read_edge_list(is, el));
  }
  {
    std::istringstream is("0 1\n0 4294967294\n");  // max legal id
    ASSERT_TRUE(graph::read_edge_list(is, el));
    EXPECT_EQ(el.n, 4294967295ull);
    ASSERT_EQ(el.edges.size(), 2u);
    EXPECT_EQ(el.edges[1].v, 4294967294u);
  }
}

// ------------------------------------------------- generator byte-match ---

TEST(WideIndex, StreamedFamiliesByteMatchMaterializedOutputThroughV2) {
  // The widened RNG-replay streams (rmat's counter-based replay above all)
  // must emit the exact edge sequence of the materializer — pinned by
  // writing both through the same LOGCCSR2 writer and comparing bytes.
  // (The v1 writer byte-match is covered by test_binary_io; this pins the
  // uint64 sink chain end to end.)
  auto file_bytes = [](const std::string& p) {
    std::ifstream is(p, std::ios::binary);
    EXPECT_TRUE(is.good());
    return std::string{std::istreambuf_iterator<char>(is),
                       std::istreambuf_iterator<char>()};
  };
  for (const std::string family : {"rmat", "gnm2", "hypercube", "path"}) {
    const std::uint64_t n = 4096;
    const std::uint64_t seed = 77;
    const std::string streamed =
        ::testing::TempDir() + "/wide_stream_" + family + ".logccsr";
    const std::string materialized =
        ::testing::TempDir() + "/wide_mat_" + family + ".logccsr";

    std::string error;
    ASSERT_TRUE(graph::stream_family_to_binary(
        family, n, seed, streamed, &error, graph::BinaryCsrFormat::kWide))
        << family << ": " << error;

    const graph::EdgeList el = graph::make_family(family, n, seed);
    ASSERT_TRUE(graph::write_binary_csr_streaming(
        materialized, el.n,
        [&](const graph::EdgeSink& sink) {
          for (const graph::Edge& e : el.edges) sink(e.u, e.v);
        },
        &error, graph::BinaryCsrFormat::kWide))
        << family << ": " << error;

    EXPECT_EQ(file_bytes(streamed), file_bytes(materialized))
        << family << ": streamed and materialized LOGCCSR2 bytes diverge";
    std::remove(streamed.c_str());
    std::remove(materialized.c_str());
  }
}

TEST(WideIndex, StreamPathCapsExceedMaterializerCaps) {
  // The stream path's whole point is scales the materializer cannot reach:
  // its caps must sit strictly above. (The actual >2^32-arc emission is a
  // disk-scale exercise; the arithmetic it relies on is uint64 end-to-end,
  // which the byte-match test above pins at the shared code path.)
  const auto fs = graph::make_family_stream("hypercube", 1ull << 36, 1);
  EXPECT_EQ(fs.num_vertices, 1ull << 36);  // > uint32: wrapped pre-widening
  EXPECT_TRUE(fs.streams);
}

// ------------------------------------------------------- wide round trip ---

TEST(WideIndex, V2RoundTripRunsAllThreeWideAlgorithmsBitCompatibly) {
  // stream-write -> mmap zero-copy load -> deep validate -> run the three
  // retargeted algorithms; vanilla labels must equal the narrow run value
  // for value on the same graph.
  const std::string path = ::testing::TempDir() + "/wide_roundtrip.logccsr";
  std::string error;
  ASSERT_TRUE(graph::stream_family_to_binary(
      "rmat", 600, 9, path, &error, graph::BinaryCsrFormat::kWide))
      << error;

  graph::DatasetHandle handle;
  ASSERT_TRUE(graph::load_dataset_zero_copy(path, handle, &error)) << error;
  ASSERT_TRUE(handle.wide());
  const graph::ArcsInput64& wide_in = handle.input64();
  ASSERT_TRUE(wide_in.csr_backed());

  const auto wv = core::vanilla_cc(wide_in, 5);
  const auto wu = baselines::union_find_cc(wide_in);
  core::FasterCcParams fp;
  fp.seed = 5;
  const auto wf = core::faster_cc(wide_in, fp);

  // Narrow reference: same file's graph, materialized.
  graph::EdgeList el;
  ASSERT_TRUE(graph::load_dataset(path, el, nullptr, &error)) << error;
  const auto nv = core::vanilla_cc(el, 5);
  ASSERT_EQ(wv.labels.size(), nv.labels.size());
  for (std::size_t v = 0; v < nv.labels.size(); ++v)
    EXPECT_EQ(wv.labels[v], static_cast<graph::VertexId64>(nv.labels[v]));

  // All three agree up to canonical form.
  EXPECT_EQ(graph::canonical_labels(wv.labels), wu.labels);
  EXPECT_EQ(graph::canonical_labels(wf.labels), wu.labels);
  std::remove(path.c_str());
}

TEST(WideIndex, LoadDatasetDownconvertsFittingWideFiles) {
  // A LOGCCSR2 file whose graph fits uint32 materializes on the narrow
  // path (load_dataset) with the canonical edge order.
  const std::string path = ::testing::TempDir() + "/wide_fits.logccsr";
  graph::EdgeList el = graph::make_family("grid", 300, 1);
  graph::EdgeList64 wide_el;
  wide_el.n = el.n;
  for (const graph::Edge& e : el.edges) wide_el.add(e.u, e.v);
  std::string error;
  ASSERT_TRUE(graph::write_binary_csr(path, wide_el, &error)) << error;

  graph::EdgeList back;
  ASSERT_TRUE(graph::load_dataset(path, back, nullptr, &error)) << error;
  EXPECT_EQ(back.n, el.n);
  EXPECT_EQ(back.edges.size(), el.edges.size());
  std::remove(path.c_str());
}

}  // namespace
}  // namespace logcc
