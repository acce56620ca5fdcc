#include "sparse/io.hpp"

#include <gtest/gtest.h>

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <vector>

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

}  // namespace
}  // namespace oocgemm::sparse
