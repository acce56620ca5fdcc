#include "sparse/io.hpp"

#include <gtest/gtest.h>

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <limits>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "test_util.hpp"

namespace oocgemm::sparse {
namespace {

class IoTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("oocgemm_io_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::string Path(const std::string& name) { return (dir_ / name).string(); }

  void WriteFile(const std::string& name, const std::string& content) {
    std::ofstream out(Path(name));
    out << content;
  }

  std::filesystem::path dir_;
};

TEST_F(IoTest, MatrixMarketRoundTrip) {
  Csr m = testutil::RandomCsr(40, 30, 5.0, 1);
  ASSERT_TRUE(WriteMatrixMarket(m, Path("m.mtx")).ok());
  auto back = ReadMatrixMarket(Path("m.mtx"));
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_TRUE(testutil::CsrNear(back.value(), m));
}

TEST_F(IoTest, BinaryRoundTripExact) {
  Csr m = testutil::RandomRmat(8, 6.0, 2);
  ASSERT_TRUE(WriteBinary(m, Path("m.bin")).ok());
  auto back = ReadBinary(Path("m.bin"));
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_TRUE(back.value() == m);
}

TEST_F(IoTest, ReadsPatternFiles) {
  WriteFile("p.mtx",
            "%%MatrixMarket matrix coordinate pattern general\n"
            "3 3 2\n"
            "1 1\n"
            "3 2\n");
  auto m = ReadMatrixMarket(Path("p.mtx"));
  ASSERT_TRUE(m.ok());
  EXPECT_EQ(m->nnz(), 2);
  EXPECT_DOUBLE_EQ(m->values()[0], 1.0);
}

TEST_F(IoTest, ExpandsSymmetricFiles) {
  WriteFile("s.mtx",
            "%%MatrixMarket matrix coordinate real symmetric\n"
            "3 3 2\n"
            "2 1 5.0\n"
            "3 3 7.0\n");
  auto m = ReadMatrixMarket(Path("s.mtx"));
  ASSERT_TRUE(m.ok());
  EXPECT_EQ(m->nnz(), 3);  // (2,1), (1,2), (3,3)
  EXPECT_EQ(m->row_nnz(0), 1);
  EXPECT_EQ(m->row_nnz(1), 1);
}

TEST_F(IoTest, SkipsComments) {
  WriteFile("c.mtx",
            "%%MatrixMarket matrix coordinate real general\n"
            "% a comment\n"
            "% another\n"
            "2 2 1\n"
            "1 2 3.5\n");
  auto m = ReadMatrixMarket(Path("c.mtx"));
  ASSERT_TRUE(m.ok());
  EXPECT_EQ(m->nnz(), 1);
}

TEST_F(IoTest, RejectsMissingFile) {
  auto m = ReadMatrixMarket(Path("nope.mtx"));
  EXPECT_FALSE(m.ok());
  EXPECT_EQ(m.status().code(), StatusCode::kIoError);
}

TEST_F(IoTest, RejectsBadHeader) {
  WriteFile("bad.mtx", "not a matrix market file\n1 1 0\n");
  EXPECT_FALSE(ReadMatrixMarket(Path("bad.mtx")).ok());
}

TEST_F(IoTest, RejectsOutOfRangeEntry) {
  WriteFile("oob.mtx",
            "%%MatrixMarket matrix coordinate real general\n"
            "2 2 1\n"
            "5 1 1.0\n");
  EXPECT_FALSE(ReadMatrixMarket(Path("oob.mtx")).ok());
}

TEST_F(IoTest, RejectsTruncatedEntries) {
  WriteFile("trunc.mtx",
            "%%MatrixMarket matrix coordinate real general\n"
            "2 2 3\n"
            "1 1 1.0\n");
  EXPECT_FALSE(ReadMatrixMarket(Path("trunc.mtx")).ok());
}

TEST_F(IoTest, RejectsComplexField) {
  WriteFile("cx.mtx",
            "%%MatrixMarket matrix coordinate complex general\n"
            "1 1 1\n"
            "1 1 1.0 0.0\n");
  EXPECT_FALSE(ReadMatrixMarket(Path("cx.mtx")).ok());
}

TEST_F(IoTest, RejectsSkewSymmetricFiles) {
  // Mirroring 2.0 without its sign would read a different matrix.
  WriteFile("skew.mtx",
            "%%MatrixMarket matrix coordinate real skew-symmetric\n"
            "2 2 1\n"
            "2 1 2.0\n");
  EXPECT_FALSE(ReadMatrixMarket(Path("skew.mtx")).ok());
}

TEST_F(IoTest, BinaryRejectsCorruptMagic) {
  WriteFile("junk.bin", "XXXXXXXXXXXXXXXXXXXXXXXXXXX");
  auto m = ReadBinary(Path("junk.bin"));
  EXPECT_FALSE(m.ok());
}

TEST_F(IoTest, BinaryRejectsTruncation) {
  Csr m = testutil::RandomCsr(10, 10, 3.0, 3);
  ASSERT_TRUE(WriteBinary(m, Path("t.bin")).ok());
  std::filesystem::resize_file(Path("t.bin"),
                               std::filesystem::file_size(Path("t.bin")) / 2);
  EXPECT_FALSE(ReadBinary(Path("t.bin")).ok());
}

// Crafted headers: the readers must answer with a Status, never wrap a
// dimension into int32 or size an array from a count the file cannot hold.

TEST_F(IoTest, RejectsDimensionsPastTheIndexRange) {
  // 4294967297 = 2^32 + 1 would wrap to a 1-row matrix.
  WriteFile("wide.mtx",
            "%%MatrixMarket matrix coordinate real general\n"
            "4294967297 4 1\n"
            "1 1 1.0\n");
  EXPECT_FALSE(ReadMatrixMarket(Path("wide.mtx")).ok());
}

TEST_F(IoTest, OversizedEntryCountFailsWithoutAllocating) {
  WriteFile("huge.mtx",
            "%%MatrixMarket matrix coordinate real general\n"
            "4 4 1000000000000000000\n"
            "1 1 1.0\n");
  auto m = ReadMatrixMarket(Path("huge.mtx"));
  EXPECT_FALSE(m.ok());
}

// A header inside index_t but past host memory: CooToCsr cannot allocate
// its per-row arrays (16 GB here), and the reader must say so in a Status.
// The read runs in a child process under an 8 GiB address-space limit,
// which sanitizers exceed up front.
TEST_F(IoTest, RowsPastHostMemoryAreResourceExhausted) {
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  GTEST_SKIP() << "needs an address-space limit";
#endif
  WriteFile("tall.mtx",
            "%%MatrixMarket matrix coordinate real general\n"
            "2000000000 4 1\n"
            "1 1 1.0\n");
  const std::string path = Path("tall.mtx");
  EXPECT_EXIT(
      {
        rlimit limit{};
        getrlimit(RLIMIT_AS, &limit);
        limit.rlim_cur = std::min<rlim_t>(limit.rlim_max, 8ull << 30);
        if (setrlimit(RLIMIT_AS, &limit) != 0) std::_Exit(2);
        const StatusOr<Csr> m = ReadMatrixMarket(path);
        std::_Exit(m.status().code() == StatusCode::kResourceExhausted ? 0 : 1);
      },
      ::testing::ExitedWithCode(0), "");
}

/// A binary file with a valid magic, the given header and `payload`.
void WriteBinaryHeader(const std::string& path, std::int64_t rows,
                       std::int64_t cols, std::int64_t nnz,
                       const std::vector<std::int64_t>& payload) {
  const std::int64_t dims[3] = {rows, cols, nnz};
  std::ofstream out(path, std::ios::binary);
  out.write("OOCCSR01", 8);
  out.write(reinterpret_cast<const char*>(dims), sizeof(dims));
  out.write(reinterpret_cast<const char*>(payload.data()),
            static_cast<std::streamsize>(payload.size() * sizeof(payload[0])));
}

TEST_F(IoTest, BinaryRejectsDimensionsPastTheIndexRange) {
  // One empty row; 2^32 + 4 columns would wrap to 4.
  WriteBinaryHeader(Path("wide.bin"), 1, (1ll << 32) + 4, 0, {0, 0});
  EXPECT_FALSE(ReadBinary(Path("wide.bin")).ok());
}

TEST_F(IoTest, BinaryOversizedEntryCountFailsWithoutAllocating) {
  WriteBinaryHeader(Path("huge.bin"), 4, 4, 1000000000000000000ll,
                    {0, 0, 0, 0, 1, 0});
  EXPECT_FALSE(ReadBinary(Path("huge.bin")).ok());
}

TEST_F(IoTest, EmptyMatrixRoundTrips) {
  Csr m(5, 5);
  ASSERT_TRUE(WriteMatrixMarket(m, Path("e.mtx")).ok());
  auto mm = ReadMatrixMarket(Path("e.mtx"));
  ASSERT_TRUE(mm.ok());
  EXPECT_EQ(mm->nnz(), 0);
  ASSERT_TRUE(WriteBinary(m, Path("e.bin")).ok());
  auto mb = ReadBinary(Path("e.bin"));
  ASSERT_TRUE(mb.ok());
  EXPECT_TRUE(mb.value() == m);
}

// A seeded corpus of damaged files: each read must end in a Status or in a
// well-formed Csr (Validate: monotone offsets, in-range ascending ids), and
// never abort.  The damage keeps row counts small — a header whose row
// count is in range but past host memory is
// RowsPastHostMemoryAreResourceExhausted's case.
class IoCorpus : public IoTest {
 protected:
  /// Writes `bytes` and reads them back with `read`.
  template <typename Read>
  void ExpectStatusOrValid(const std::string& bytes, Read read,
                           const std::string& what) {
    {
      std::ofstream out(Path("m"), std::ios::binary);
      out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    }
    const StatusOr<Csr> m = read(Path("m"));
    if (m.ok()) {
      EXPECT_TRUE(m->Validate().ok()) << what;
    }
  }

  /// Truncations at every 7th byte, single-bit flips and byte overwrites.
  template <typename Read>
  void ExpectDamageHandled(const std::string& bytes, Read read) {
    for (std::size_t n = 0; n < bytes.size(); n += 7) {
      ExpectStatusOrValid(bytes.substr(0, n), read,
                          "truncated at " + std::to_string(n));
    }
    Pcg32 rng(/*seed=*/11);
    constexpr char kNoise[] = "\0\xff \n\t%-+.e0123456789ainx";
    const std::string noise(kNoise, sizeof(kNoise) - 1);
    for (int i = 0; i < 600; ++i) {
      std::string damaged = bytes;
      const std::size_t at = rng.Below(static_cast<std::uint32_t>(bytes.size()));
      if (i % 3 == 0) {
        damaged[at] = noise[rng.Below(static_cast<std::uint32_t>(noise.size()))];
      } else {
        damaged[at] = static_cast<char>(damaged[at] ^ (1 << rng.Below(8)));
      }
      ExpectStatusOrValid(damaged, read, "byte " + std::to_string(at) +
                                             " damaged, sample " +
                                             std::to_string(i));
    }
  }

  static std::string Slurp(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    return std::string(std::istreambuf_iterator<char>(in), {});
  }
};

TEST_F(IoCorpus, DamagedMatrixMarketIsAStatusOrWellFormed) {
  const Csr m = testutil::RandomCsr(24, 20, 2.0, 5);
  ASSERT_TRUE(WriteMatrixMarket(m, Path("base.mtx")).ok());
  const std::string text = Slurp(Path("base.mtx"));
  ExpectDamageHandled(text, ReadMatrixMarket);

  const std::size_t header_end = text.find('\n') + 1;
  const std::size_t sizes_end = text.find('\n', header_end) + 1;
  const std::string entries = text.substr(sizes_end);

  // Every field and symmetry qualifier, known or not, over the same body.
  for (const char* field :
       {"real", "integer", "pattern", "complex", "double", ""}) {
    for (const char* symmetry :
         {"general", "symmetric", "skew-symmetric", "hermitian", ""}) {
      for (const char* format : {"coordinate", "array"}) {
        const std::string header = std::string("%%MatrixMarket matrix ") +
                                   format + " " + field + " " + symmetry +
                                   "\n";
        ExpectStatusOrValid(header + text.substr(header_end), ReadMatrixMarket,
                            header);
      }
    }
  }

  // Duplicate entry lines, counted in the header or not.
  Pcg32 rng(/*seed=*/12);
  std::vector<std::string> lines;
  for (std::size_t at = 0; at < entries.size();) {
    const std::size_t end = entries.find('\n', at) + 1;
    lines.push_back(entries.substr(at, end - at));
    at = end;
  }
  for (int i = 0; i < 40; ++i) {
    std::vector<std::string> dup = lines;
    const int copies = 1 + static_cast<int>(rng.Below(4));
    for (int c = 0; c < copies; ++c) {
      dup.push_back(lines[rng.Below(static_cast<std::uint32_t>(lines.size()))]);
    }
    const bool counted = i % 2 == 0;
    std::string body = text.substr(0, header_end) + "24 20 " +
                       std::to_string(counted ? dup.size() : lines.size()) +
                       "\n";
    for (const std::string& line : dup) body += line;
    ExpectStatusOrValid(body, ReadMatrixMarket,
                        "duplicates, sample " + std::to_string(i));
  }

  // Counts past the file, past int64 and past the index range.
  for (const char* sizes :
       {"24 20 9223372036854775807", "24 20 99999999999999999999",
        "24 20 1000000000000000000", "24 20 -1", "2147483648 20 48",
        "24 4294967297 48", "99999999999999999999 20 48", "-24 20 48",
        "24 20", ""}) {
    ExpectStatusOrValid(text.substr(0, header_end) + sizes + "\n" + entries,
                        ReadMatrixMarket, sizes);
  }
}

TEST_F(IoCorpus, DamagedBinaryIsAStatusOrWellFormed) {
  const Csr m = testutil::RandomCsr(24, 20, 2.0, 6);
  ASSERT_TRUE(WriteBinary(m, Path("base.bin")).ok());
  const std::string bytes = Slurp(Path("base.bin"));
  ExpectDamageHandled(bytes, ReadBinary);

  // Header fields (rows, cols, nnz at bytes 8, 16, 24) set past the file,
  // past the index range and negative.
  for (int field = 0; field < 3; ++field) {
    for (const std::int64_t value :
         {std::int64_t{-1}, std::int64_t{1} << 31, std::int64_t{1} << 32,
          std::numeric_limits<std::int64_t>::max(), std::int64_t{1} << 40}) {
      std::string damaged = bytes;
      std::memcpy(&damaged[8 + 8 * static_cast<std::size_t>(field)], &value,
                  sizeof(value));
      ExpectStatusOrValid(damaged, ReadBinary,
                          "header field " + std::to_string(field) + " = " +
                              std::to_string(value));
    }
  }

  // A row holding one column twice.
  const std::size_t ids = 32 + sizeof(offset_t) * (m.rows() + 1);
  for (index_t r = 0; r < m.rows(); ++r) {
    if (m.row_nnz(r) < 2) continue;
    std::string damaged = bytes;
    const std::size_t at = ids + sizeof(index_t) * m.row_begin(r);
    std::memcpy(&damaged[at + sizeof(index_t)], &damaged[at], sizeof(index_t));
    ExpectStatusOrValid(damaged, ReadBinary,
                        "duplicate column in row " + std::to_string(r));
  }
}

}  // namespace
}  // namespace oocgemm::sparse
