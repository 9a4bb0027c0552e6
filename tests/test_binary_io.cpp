#include "graph/binary_io.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <utility>
#include <vector>

#include "graph/generators.hpp"
#include "graph/graph_algos.hpp"
#include "graph/io.hpp"
#include "test_support.hpp"
#include "util/mmap_file.hpp"
#include "util/parallel.hpp"
#include "util/random.hpp"

namespace logcc::graph {
namespace {

std::string tmp_path(const std::string& name) {
  return ::testing::TempDir() + "/logcc_binio_" + name;
}

std::vector<Edge> canonical_edges(EdgeList el) {
  for (auto& e : el.edges)
    if (e.u > e.v) std::swap(e.u, e.v);
  std::sort(el.edges.begin(), el.edges.end(), [](const Edge& a, const Edge& b) {
    return a.u != b.u ? a.u < b.u : a.v < b.v;
  });
  return el.edges;
}

std::vector<char> read_all(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(is), std::istreambuf_iterator<char>()};
}

void write_all(const std::string& path, const std::vector<char>& bytes) {
  std::ofstream os(path, std::ios::binary);
  os.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

// ------------------------------------------------------------- round trip ---

TEST(BinaryIo, TextToBinaryRoundTripEqualsDirectLoad) {
  EdgeList el = make_gnm(500, 1500, 7);
  const std::string text = tmp_path("rt.txt");
  const std::string bin = tmp_path("rt.bin");
  ASSERT_TRUE(write_edge_list_file(text, el));
  std::string error;
  ASSERT_TRUE(convert_text_to_binary(text, bin, &error)) << error;

  EdgeList direct;
  ASSERT_TRUE(read_edge_list_file(text, direct));
  BinaryGraph bg;
  ASSERT_TRUE(bg.open(bin, &error)) << error;
  EXPECT_TRUE(validate_csr(bg.view(), &error)) << error;
  EdgeList loaded = edge_list_from_csr(bg.view());

  EXPECT_EQ(loaded.n, direct.n);
  EXPECT_EQ(canonical_edges(loaded), canonical_edges(direct));
  EXPECT_TRUE(same_partition(bfs_components(Graph::from_edges(direct)),
                             bfs_components(Graph::from_edges(loaded))));
}

TEST(BinaryIo, PreservesParallelEdgesAndSelfLoops) {
  EdgeList el;
  el.n = 5;
  el.add(0, 1);
  el.add(1, 0);  // parallel copy, reversed orientation
  el.add(2, 2);  // self-loop
  el.add(1, 3);
  const std::string bin = tmp_path("multi.bin");
  std::string error;
  ASSERT_TRUE(write_binary_csr(bin, el, &error)) << error;
  BinaryGraph bg;
  ASSERT_TRUE(bg.open(bin, &error)) << error;
  EXPECT_TRUE(validate_csr(bg.view(), &error)) << error;
  EXPECT_EQ(bg.view().num_edges(), 4u);
  EXPECT_EQ(bg.view().num_arcs(), 7u);  // 2*3 proper edges + 1 self-loop arc
  EdgeList loaded = edge_list_from_csr(bg.view());
  EXPECT_EQ(canonical_edges(loaded), canonical_edges(el));
}

TEST(BinaryIo, IsolatedVerticesSurvive) {
  EdgeList el;
  el.n = 10;  // vertices 3..9 isolated
  el.add(0, 1);
  el.add(1, 2);
  const std::string bin = tmp_path("iso.bin");
  std::string error;
  ASSERT_TRUE(write_binary_csr(bin, el, &error)) << error;
  BinaryGraph bg;
  ASSERT_TRUE(bg.open(bin, &error)) << error;
  EXPECT_EQ(bg.view().num_vertices(), 10u);
  EXPECT_EQ(bg.view().degree(7), 0u);
  EXPECT_EQ(edge_list_from_csr(bg.view()).n, 10u);
}

// ------------------------------------------------- streaming == in-memory ---

TEST(BinaryIo, StreamingWriterMatchesMaterializedWriter) {
  // Streaming families byte-match the materialized write (same canonical
  // CSR); fallback families (gnm2) go through the replay path and must
  // byte-match too.
  for (const std::string family :
       {"path", "star", "grid", "rmat", "lollipop", "gnm2"}) {
    SCOPED_TRACE(family);
    const std::uint64_t n = 300, seed = 11;
    FamilyStream fs = make_family_stream(family, n, seed);
    EdgeList el = make_family(family, n, seed);
    EXPECT_EQ(fs.num_vertices, el.n);

    const std::string a = tmp_path(family + "_stream.bin");
    const std::string b = tmp_path(family + "_mat.bin");
    std::string error;
    ASSERT_TRUE(stream_family_to_binary(family, n, seed, a, &error)) << error;
    ASSERT_TRUE(write_binary_csr(b, el, &error)) << error;
    EXPECT_EQ(read_all(a), read_all(b));
  }
}

TEST(BinaryIo, StreamingFamiliesReportStreams) {
  EXPECT_TRUE(make_family_stream("grid", 100, 1).streams);
  EXPECT_TRUE(make_family_stream("rmat", 100, 1).streams);
  EXPECT_TRUE(make_family_stream("path", 100, 1).streams);
  EXPECT_TRUE(make_family_stream("star", 100, 1).streams);
  EXPECT_FALSE(make_family_stream("gnm2", 100, 1).streams);
  EXPECT_FALSE(make_family_stream("pref", 100, 1).streams);
}

TEST(BinaryIo, StreamingWriterRemovesFileOnReplayMismatch) {
  const std::string bin = tmp_path("mismatch.bin");
  std::string error;
  int call = 0;
  EXPECT_FALSE(write_binary_csr_streaming(
      bin, 4,
      [&call](const EdgeSink& sink) {
        // Different sequence on the second pass: the writer must fail and
        // must not leave a half-written (but validly-headed) file behind.
        sink(0, 1);
        if (call++ > 0) sink(2, 3);
      },
      &error));
  EXPECT_NE(error.find("replay"), std::string::npos);
  EXPECT_FALSE(sniff_binary_csr(bin));
  BinaryGraph bg;
  EXPECT_FALSE(bg.open(bin));
}

TEST(BinaryIo, StreamingWriterRejectsOutOfRangeEndpoint) {
  const std::string bin = tmp_path("oob.bin");
  std::string error;
  EXPECT_FALSE(write_binary_csr_streaming(
      bin, 3,
      [](const EdgeSink& sink) {
        sink(0, 1);
        sink(1, 7);  // >= n
      },
      &error));
  EXPECT_NE(error.find("out of range"), std::string::npos);
}

// -------------------------------------------------------- header hardening ---

class BinaryIoHeader : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = tmp_path("hdr.bin");
    std::string error;
    ASSERT_TRUE(write_binary_csr(path_, make_grid(8, 8), &error)) << error;
    bytes_ = read_all(path_);
    ASSERT_GE(bytes_.size(), 64u);
  }
  // Rewrites the file with `bytes_` and expects open() to fail with `needle`
  // in the error message.
  void expect_rejected(const std::string& needle) {
    write_all(path_, bytes_);
    BinaryGraph bg;
    std::string error;
    EXPECT_FALSE(bg.open(path_, &error));
    EXPECT_NE(error.find(needle), std::string::npos) << "error was: " << error;
  }
  std::string path_;
  std::vector<char> bytes_;
};

TEST_F(BinaryIoHeader, AcceptsPristineFile) {
  BinaryGraph bg;
  std::string error;
  EXPECT_TRUE(bg.open(path_, &error)) << error;
  EXPECT_EQ(bg.view().num_vertices(), 64u);
  EXPECT_TRUE(validate_csr(bg.view(), &error)) << error;
}

TEST_F(BinaryIoHeader, RejectsBadMagic) {
  bytes_[0] = 'X';
  expect_rejected("magic");
}

TEST_F(BinaryIoHeader, RejectsForeignEndianness) {
  // A foreign-endian writer stores the same tag value with its bytes in the
  // opposite order, so this reader decodes the byteswapped tag. Simulate by
  // reversing the tag's on-disk bytes (offset 12: magic[8] + version u32).
  std::reverse(bytes_.begin() + 12, bytes_.begin() + 16);
  expect_rejected("endian");
}

TEST_F(BinaryIoHeader, RejectsCorruptEndianTag) {
  bytes_[12] = 0x42;
  expect_rejected("endian");
}

TEST_F(BinaryIoHeader, RejectsUnsupportedVersion) {
  bytes_[8] = 99;  // version u32 at offset 8 (little-endian low byte)
  expect_rejected("version");
}

TEST_F(BinaryIoHeader, RejectsTruncatedBody) {
  bytes_.resize(bytes_.size() - 10);
  expect_rejected("size mismatch");
}

TEST_F(BinaryIoHeader, RejectsTruncatedHeader) {
  bytes_.resize(32);
  expect_rejected("truncated");
}

TEST_F(BinaryIoHeader, RejectsTrailingGarbage) {
  bytes_.push_back(0);
  expect_rejected("size mismatch");
}

TEST_F(BinaryIoHeader, RejectsOverflowingSizeFields) {
  // n = 2^32 - 1 (the largest the loader tolerates) with num_arcs chosen so
  // the 64-bit expected-size computation would wrap to exactly this file's
  // 72 bytes. The 128-bit check must reject instead of reading out of
  // bounds.
  BinaryCsrHeader h{};
  std::memcpy(h.magic, kBinaryCsrMagic, sizeof(h.magic));
  h.version = kBinaryCsrVersion;
  h.endian = kEndianTag;
  h.n = 0xFFFFFFFFull;
  const std::uint64_t offsets_bytes = (h.n + 1) * 8;
  h.num_arcs = (0 - (64 + offsets_bytes + 8 - 72)) / 4;  // mod-2^64 wrap
  h.num_edges = 0;
  bytes_.assign(sizeof(h) + 8, 0);  // header + a single zero offsets entry
  std::memcpy(bytes_.data(), &h, sizeof(h));
  expect_rejected("size mismatch");
}

TEST_F(BinaryIoHeader, RejectsSentinelVertexCount) {
  // n = 2^32 would make id 0xFFFFFFFF (= kInvalidVertex) addressable; both
  // the loader and the writer must refuse.
  BinaryCsrHeader h{};
  std::memcpy(h.magic, kBinaryCsrMagic, sizeof(h.magic));
  h.version = kBinaryCsrVersion;
  h.endian = kEndianTag;
  h.n = std::uint64_t{1} << 32;
  bytes_.assign(sizeof(h), 0);
  std::memcpy(bytes_.data(), &h, sizeof(h));
  expect_rejected("32-bit id space");

  std::string error;
  EXPECT_FALSE(write_binary_csr_streaming(
      tmp_path("sentinel.bin"), std::uint64_t{1} << 32,
      [](const EdgeSink&) {}, &error));
  EXPECT_NE(error.find("32-bit id space"), std::string::npos);
}

TEST_F(BinaryIoHeader, LoadDatasetRejectsCorruptInteriorOffsets) {
  // Envelope stays intact (offsets[0] == 0, offsets[n] == num_arcs) but an
  // interior offset points far outside the arc array; the loader must
  // fail cleanly instead of reading out of bounds. Offset entry u=1 lives
  // at byte 64 + 8.
  std::uint64_t huge = std::uint64_t{1} << 60;
  std::memcpy(bytes_.data() + 64 + 8, &huge, sizeof(huge));
  write_all(path_, bytes_);
  BinaryGraph bg;
  std::string error;
  ASSERT_TRUE(bg.open(path_, &error)) << error;  // envelope-only check passes
  EXPECT_FALSE(validate_csr_structure(bg.view(), &error));
  DatasetHandle handle;
  EXPECT_FALSE(load_dataset_zero_copy(path_, handle, &error));
  EXPECT_NE(error.find("corrupt"), std::string::npos);
}

TEST_F(BinaryIoHeader, ValidateCatchesCorruptAdjacency) {
  // Clobber one adjacency entry past the offsets array: symmetry breaks.
  const std::size_t adj_start = 64 + (64 + 1) * 8;
  ASSERT_LT(adj_start + 4, bytes_.size());
  bytes_[adj_start] = 63;
  bytes_[adj_start + 1] = 0;
  write_all(path_, bytes_);
  BinaryGraph bg;
  std::string error;
  ASSERT_TRUE(bg.open(path_, &error)) << error;  // envelope still fine
  EXPECT_FALSE(validate_csr(bg.view(), &error));
}

// ------------------------------------------------------- symmetry oracle ---

constexpr const char* kAsymmetric =
    "asymmetric adjacency: arc multiplicities disagree between endpoint lists";

struct Verdict {
  bool ok;
  std::string error;
};

// An in-memory CSR of either width; rows are kept sorted so the structure
// pass always holds and every verdict is decided by symmetry / edge count.
struct MemCsr {
  std::vector<std::vector<std::uint64_t>> rows;
  std::uint64_t edges = 0;

  void add_edge(std::uint64_t u, std::uint64_t w) {
    rows[u].push_back(w);
    if (u != w) rows[w].push_back(u);
    ++edges;
  }
  void sort_rows() {
    for (auto& r : rows) std::sort(r.begin(), r.end());
  }

  template <typename V>
  Verdict validate() const {
    std::vector<std::uint64_t> offsets{0};
    std::vector<V> adj;
    for (const auto& r : rows) {
      for (std::uint64_t w : r) adj.push_back(static_cast<V>(w));
      offsets.push_back(adj.size());
    }
    Verdict v{false, ""};
    v.ok = validate_csr(
        BasicCsrView<V>{rows.size(), edges, offsets.data(), adj.data()},
        &v.error);
    return v;
  }

  // Brute force: the arc multiset equals its transpose (a self-loop arc is
  // its own reverse) and the header counts each non-loop pair once per
  // two arcs and each self-loop arc once.
  bool oracle_accepts() const {
    std::map<std::pair<std::uint64_t, std::uint64_t>, std::uint64_t> count;
    std::uint64_t arcs = 0, loops = 0;
    for (std::uint64_t u = 0; u < rows.size(); ++u)
      for (std::uint64_t w : rows[u]) {
        ++count[{u, w}];
        ++arcs;
        loops += u == w;
      }
    for (const auto& [arc, k] : count) {
      auto back = count.find({arc.second, arc.first});
      if (back == count.end() || back->second != k) return false;
    }
    return (arcs + loops) % 2 == 0 && (arcs + loops) / 2 == edges;
  }
};

// Random small multigraphs (self-loops and parallel arcs included) plus
// single-point mutants: an arc dropped, added or retargeted (rows re-sorted,
// so the structure pass still holds), or the header edge count off by one.
MemCsr random_csr(util::SplitMix64& rng) {
  MemCsr g;
  const std::uint64_t n = 1 + rng() % 12;
  g.rows.resize(n);
  const std::uint64_t m = rng() % (2 * n + 3);
  for (std::uint64_t i = 0; i < m; ++i) {
    const std::uint64_t u = rng() % n;
    const std::uint64_t w = rng() % 4 == 0 ? u : rng() % n;
    g.add_edge(u, w);
    if (rng() % 5 == 0) g.add_edge(u, w);  // parallel copy
  }
  std::vector<std::uint64_t> nonempty;
  for (std::uint64_t u = 0; u < n; ++u)
    if (!g.rows[u].empty()) nonempty.push_back(u);
  switch (rng() % 10) {  // cases 1-5 mutate: about half the corpus
    case 1:  // drop one arc
      if (!nonempty.empty()) {
        auto& r = g.rows[nonempty[rng() % nonempty.size()]];
        r.erase(r.begin() + static_cast<std::ptrdiff_t>(rng() % r.size()));
      }
      break;
    case 2:  // add one arc
      g.rows[rng() % n].push_back(rng() % n);
      break;
    case 3:  // retarget one arc
      if (!nonempty.empty()) {
        auto& r = g.rows[nonempty[rng() % nonempty.size()]];
        r[rng() % r.size()] = rng() % n;
      }
      break;
    case 4:
      ++g.edges;
      break;
    case 5:
      if (g.edges > 0) --g.edges;
      break;
    default:  // unmutated
      break;
  }
  g.sort_rows();
  return g;
}

class ValidateCsr : public testing::ThreadInvariance {};

TEST_F(ValidateCsr, AgreesWithBruteForceTransposeAtEveryThreadCount) {
  util::SplitMix64 rng(20260417);
  std::vector<MemCsr> corpus;
  for (int i = 0; i < 10000; ++i) corpus.push_back(random_csr(rng));
  // One sweep per thread count: 8 blocks over n <= 12 targets leaves some
  // blocks empty, and 3 blocks split no n in 1..12 evenly more than once.
  std::vector<std::vector<Verdict>> narrow, wide;
  for (int threads : {1, 2, 3, 8}) {
    util::set_parallelism(threads);
    narrow.emplace_back();
    wide.emplace_back();
    for (const MemCsr& g : corpus) {
      narrow.back().push_back(g.validate<VertexId>());
      wide.back().push_back(g.validate<VertexId64>());
    }
  }
  std::size_t rejected = 0;
  for (std::size_t i = 0; i < corpus.size(); ++i) {
    const bool expected = corpus[i].oracle_accepts();
    rejected += !expected;
    for (std::size_t t = 0; t < narrow.size(); ++t) {
      for (const auto* sweep : {&narrow, &wide}) {
        const Verdict& got = (*sweep)[t][i];
        ASSERT_EQ(got.ok, expected) << "graph " << i << ", sweep " << t
                                    << ": " << got.error;
        EXPECT_EQ(got.error, (*sweep)[0][i].error) << "graph " << i;
      }
    }
  }
  // The mutants must actually exercise both verdicts.
  EXPECT_GT(rejected, corpus.size() / 4);
  EXPECT_LT(rejected, corpus.size() * 3 / 4);
}

TEST_F(ValidateCsr, AsymmetricArcAtEveryTargetBlockBoundaryIsRejected) {
  // 24 vertices split evenly into 1, 2, 3 and 8 target blocks. Hub 1 is
  // joined to every vertex but 4, so its row spans every block; vertex 4
  // is isolated. Neither is ever a block's first or last target.
  constexpr std::uint64_t kN = 24, kHub = 1, kLone = 4;
  MemCsr star;
  star.rows.resize(kN);
  for (std::uint64_t w = 0; w < kN; ++w)
    if (w != kHub && w != kLone) star.add_edge(kHub, w);
  for (int threads : {1, 2, 3, 8}) {
    util::set_parallelism(threads);
    EXPECT_TRUE(star.validate<VertexId>().ok);
    EXPECT_TRUE(star.validate<VertexId64>().ok);
  }
  for (std::uint64_t blocks : {1, 2, 3, 8}) {
    const std::uint64_t width = kN / blocks;
    for (std::uint64_t b = 0; b < blocks; ++b) {
      for (std::uint64_t w : {b * width, (b + 1) * width - 1}) {
        // A lone 4 -> w arc: row 4 holds nothing any other arc must match,
        // so only the walk over w's own cursor (in w's block) can see it.
        MemCsr g = star;
        g.rows[kLone].push_back(w);
        for (int threads : {1, 2, 3, 8}) {
          util::set_parallelism(threads);
          const Verdict narrow = g.validate<VertexId>();
          const Verdict wide = g.validate<VertexId64>();
          EXPECT_FALSE(narrow.ok) << "target " << w << ", " << threads;
          EXPECT_FALSE(wide.ok) << "target " << w << ", " << threads;
          EXPECT_EQ(narrow.error, kAsymmetric);
          EXPECT_EQ(wide.error, kAsymmetric);
        }
      }
    }
  }
}

// ----------------------------------------------------------- view + loader ---

TEST(BinaryIo, CsrViewAccessors) {
  const std::string bin = tmp_path("view.bin");
  std::string error;
  ASSERT_TRUE(write_binary_csr(bin, make_grid(3, 3), &error)) << error;
  BinaryGraph bg;
  ASSERT_TRUE(bg.open(bin, &error)) << error;
  const CsrView& v = bg.view();
  EXPECT_EQ(v.num_vertices(), 9u);
  EXPECT_EQ(v.num_edges(), 12u);
  EXPECT_EQ(v.num_arcs(), 24u);
  EXPECT_EQ(v.degree(4), 4u);  // center of the 3x3 grid
  auto nb = v.neighbors(4);
  EXPECT_TRUE(std::is_sorted(nb.begin(), nb.end()));
  EXPECT_EQ(std::vector<VertexId>(nb.begin(), nb.end()),
            (std::vector<VertexId>{1, 3, 5, 7}));
}

TEST(BinaryIo, SniffDistinguishesBinaryFromText) {
  const std::string bin = tmp_path("sniff.bin");
  const std::string text = tmp_path("sniff.txt");
  std::string error;
  ASSERT_TRUE(write_binary_csr(bin, make_path(4), &error)) << error;
  ASSERT_TRUE(write_edge_list_file(text, make_path(4)));
  EXPECT_TRUE(sniff_binary_csr(bin));
  EXPECT_FALSE(sniff_binary_csr(text));
  EXPECT_FALSE(sniff_binary_csr(tmp_path("missing")));
}

TEST(BinaryIo, EdgeListFromCsrIsThreadCountInvariant) {
  const std::string bin = tmp_path("inv.bin");
  std::string error;
  ASSERT_TRUE(stream_family_to_binary("rmat", 2000, 3, bin, &error)) << error;
  BinaryGraph bg;
  ASSERT_TRUE(bg.open(bin, &error)) << error;
  const int before = util::hardware_parallelism();
  util::set_parallelism(1);
  EdgeList serial = edge_list_from_csr(bg.view());
  util::set_parallelism(8);
  EdgeList parallel = edge_list_from_csr(bg.view());
  util::set_parallelism(before);
  EXPECT_EQ(serial.n, parallel.n);
  EXPECT_EQ(serial.edges, parallel.edges);  // exact order, not just multiset
}

// ------------------------------------------------------------ load_dataset ---

TEST(LoadDataset, GeneratorSpec) {
  DatasetHandle h;
  std::string error;
  ASSERT_TRUE(load_dataset_zero_copy("gen:path:50", h, &error)) << error;
  const EdgeList& el = h.edges();
  EXPECT_EQ(el.n, 50u);
  EXPECT_EQ(el.edges.size(), 49u);
  EXPECT_EQ(h.info().source, "generator");
}

TEST(LoadDataset, ParseGeneratorSpec) {
  std::string family;
  std::uint64_t n = 0;
  std::uint64_t seed = 7;  // caller default, kept when spec omits the field
  ASSERT_TRUE(parse_generator_spec("grid:100", family, n, seed));
  EXPECT_EQ(family, "grid");
  EXPECT_EQ(n, 100u);
  EXPECT_EQ(seed, 7u);
  ASSERT_TRUE(parse_generator_spec("rmat:50:42", family, n, seed));
  EXPECT_EQ(seed, 42u);
  EXPECT_FALSE(parse_generator_spec("path", family, n, seed));  // no ':'
  EXPECT_FALSE(parse_generator_spec("grid:bogus", family, n, seed));
  EXPECT_FALSE(parse_generator_spec("grid:0", family, n, seed));
  // Strict parse: trailing garbage must not silently truncate the number.
  EXPECT_FALSE(parse_generator_spec("grid:1e6", family, n, seed));
  EXPECT_FALSE(parse_generator_spec("grid:5,300,000", family, n, seed));
  EXPECT_FALSE(parse_generator_spec("grid:100:0x7", family, n, seed));
  EXPECT_FALSE(parse_generator_spec("grid:-5", family, n, seed));
}

TEST(LoadDataset, BadGeneratorSpecFails) {
  DatasetHandle h;
  std::string error;
  EXPECT_FALSE(load_dataset_zero_copy("gen:path", h, &error));
  EXPECT_FALSE(load_dataset_zero_copy("gen:path:0", h, &error));
}

TEST(LoadDataset, DispatchesOnMagic) {
  const std::string bin = tmp_path("ds.bin");
  const std::string text = tmp_path("ds.txt");
  std::string error;
  ASSERT_TRUE(write_binary_csr(bin, make_cycle(30), &error)) << error;
  ASSERT_TRUE(write_edge_list_file(text, make_cycle(30)));

  DatasetHandle from_bin, from_text;
  ASSERT_TRUE(load_dataset_zero_copy(bin, from_bin, &error)) << error;
  ASSERT_TRUE(load_dataset_zero_copy(text, from_text, &error)) << error;
  const DatasetInfo& bi = from_bin.info();
  EXPECT_TRUE(bi.source == "binary-mmap" || bi.source == "binary-copy");
  EXPECT_GT(bi.file_bytes, 0u);
  EXPECT_EQ(from_text.info().source, "text");
  EXPECT_EQ(canonical_edges(from_bin.edges()),
            canonical_edges(from_text.edges()));
}

TEST(LoadDataset, MissingFileFails) {
  DatasetHandle h;
  std::string error;
  EXPECT_FALSE(
      load_dataset_zero_copy("/nonexistent/definitely/missing", h, &error));
}

// --------------------------------------------------------------- MmapFile ---

TEST(MmapFileTest, CreateWriteReadBack) {
  const std::string path = tmp_path("mmap.raw");
  std::string error;
  {
    auto f = util::MmapFile::create_rw(path, 128, &error);
    ASSERT_TRUE(f.valid()) << error;
    ASSERT_TRUE(f.writable());
    for (int i = 0; i < 128; ++i) f.mutable_data()[i] = static_cast<std::uint8_t>(i);
    EXPECT_TRUE(f.sync());
  }
  auto r = util::MmapFile::open_read(path, &error);
  ASSERT_TRUE(r.valid()) << error;
  EXPECT_EQ(r.size(), 128u);
  EXPECT_FALSE(r.writable());
  for (int i = 0; i < 128; ++i) EXPECT_EQ(r.data()[i], i);
}

TEST(MmapFileTest, MissingFileInvalid) {
  std::string error;
  auto f = util::MmapFile::open_read(tmp_path("nope"), &error);
  EXPECT_FALSE(f.valid());
  EXPECT_FALSE(error.empty());
}

TEST(MmapFileTest, MoveTransfersOwnership) {
  const std::string path = tmp_path("mv.raw");
  std::string error;
  auto f = util::MmapFile::create_rw(path, 16, &error);
  ASSERT_TRUE(f.valid()) << error;
  util::MmapFile g = std::move(f);
  EXPECT_TRUE(g.valid());
  EXPECT_FALSE(f.valid());  // NOLINT(bugprone-use-after-move): post-move state is specified
}

}  // namespace
}  // namespace logcc::graph
