#include "sparse/io.hpp"

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <cstring>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "sparse/coo.hpp"

namespace oocgemm::sparse {

namespace {

struct FileCloser {
  void operator()(std::FILE* f) const {
    if (f) std::fclose(f);
  }
};
using FilePtr = std::unique_ptr<std::FILE, FileCloser>;

bool ReadLine(std::FILE* f, std::string& line) {
  line.clear();
  int ch;
  while ((ch = std::fgetc(f)) != EOF) {
    if (ch == '\n') return true;
    line.push_back(static_cast<char>(ch));
  }
  return !line.empty();
}

std::string Lower(std::string s) {
  for (char& c : s) c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  return s;
}

constexpr long long kMaxIndex = std::numeric_limits<index_t>::max();

/// Bytes between the read position and the end of the file; 0 when the
/// stream cannot seek.
long long RemainingBytes(std::FILE* f) {
  const long pos = std::ftell(f);
  if (pos < 0 || std::fseek(f, 0, SEEK_END) != 0) return 0;
  const long end = std::ftell(f);
  std::fseek(f, pos, SEEK_SET);
  return std::max(0L, end - pos);
}

}  // namespace

StatusOr<Csr> ReadMatrixMarket(const std::string& path) {
  FilePtr f(std::fopen(path.c_str(), "r"));
  if (!f) return Status::IoError("cannot open " + path);

  std::string line;
  if (!ReadLine(f.get(), line)) return Status::IoError("empty file: " + path);
  const std::string header = Lower(line);
  if (header.rfind("%%matrixmarket", 0) != 0) {
    return Status::InvalidArgument("not a MatrixMarket file: " + path);
  }
  const bool pattern = header.find("pattern") != std::string::npos;
  const bool symmetric = header.find("symmetric") != std::string::npos;
  const bool general = header.find("general") != std::string::npos;
  if (header.find("coordinate") == std::string::npos) {
    return Status::InvalidArgument("only coordinate format supported: " + path);
  }
  if (!symmetric && !general) {
    return Status::InvalidArgument("unsupported symmetry qualifier: " + path);
  }
  if (header.find("complex") != std::string::npos) {
    return Status::InvalidArgument("complex matrices unsupported: " + path);
  }

  // Skip comments.
  do {
    if (!ReadLine(f.get(), line)) return Status::IoError("truncated header: " + path);
  } while (!line.empty() && line[0] == '%');

  long long rows = 0, cols = 0, entries = 0;
  if (std::sscanf(line.c_str(), "%lld %lld %lld", &rows, &cols, &entries) != 3) {
    return Status::InvalidArgument("bad size line: " + line);
  }
  if (rows < 0 || cols < 0 || entries < 0) {
    return Status::InvalidArgument("negative sizes: " + line);
  }
  if (rows > kMaxIndex || cols > kMaxIndex) {
    return Status::InvalidArgument("dimensions exceed the 32-bit index: " +
                                   line);
  }

  Coo coo;
  coo.rows = static_cast<index_t>(rows);
  coo.cols = static_cast<index_t>(cols);
  // An entry line takes at least 4 bytes ("1 1\n").
  const long long fits = std::min(entries, RemainingBytes(f.get()) / 4);
  coo.Reserve(static_cast<std::size_t>(fits) * (symmetric ? 2 : 1));
  for (long long e = 0; e < entries; ++e) {
    if (!ReadLine(f.get(), line)) {
      return Status::IoError("truncated entries in " + path);
    }
    long long r = 0, c = 0;
    double v = 1.0;
    int got = pattern ? std::sscanf(line.c_str(), "%lld %lld", &r, &c)
                      : std::sscanf(line.c_str(), "%lld %lld %lf", &r, &c, &v);
    if ((pattern && got != 2) || (!pattern && got != 3)) {
      return Status::InvalidArgument("bad entry line: " + line);
    }
    if (r < 1 || r > rows || c < 1 || c > cols) {
      return Status::InvalidArgument("entry out of range: " + line);
    }
    coo.Add(static_cast<index_t>(r - 1), static_cast<index_t>(c - 1), v);
    if (symmetric && r != c) {
      coo.Add(static_cast<index_t>(c - 1), static_cast<index_t>(r - 1), v);
    }
  }
  return CooToCsr(coo);
}

Status WriteMatrixMarket(const Csr& a, const std::string& path) {
  FilePtr f(std::fopen(path.c_str(), "w"));
  if (!f) return Status::IoError("cannot open for write: " + path);
  std::fprintf(f.get(), "%%%%MatrixMarket matrix coordinate real general\n");
  std::fprintf(f.get(), "%d %d %lld\n", a.rows(), a.cols(),
               static_cast<long long>(a.nnz()));
  for (index_t r = 0; r < a.rows(); ++r) {
    for (offset_t k = a.row_begin(r); k < a.row_end(r); ++k) {
      std::fprintf(f.get(), "%d %d %.17g\n", r + 1,
                   a.col_ids()[static_cast<std::size_t>(k)] + 1,
                   a.values()[static_cast<std::size_t>(k)]);
    }
  }
  return Status::Ok();
}

namespace {
constexpr char kMagic[8] = {'O', 'O', 'C', 'C', 'S', 'R', '0', '1'};

/// Writes all of `v`.  An empty array writes nothing: its data() may be
/// null, and fwrite's buffer argument must not be.
template <typename T>
bool WriteAll(std::FILE* f, const std::vector<T>& v) {
  return v.empty() || std::fwrite(v.data(), sizeof(T), v.size(), f) == v.size();
}
}  // namespace

Status WriteBinary(const Csr& a, const std::string& path) {
  FilePtr f(std::fopen(path.c_str(), "wb"));
  if (!f) return Status::IoError("cannot open for write: " + path);
  std::int64_t dims[3] = {a.rows(), a.cols(), a.nnz()};
  if (std::fwrite(kMagic, 1, sizeof(kMagic), f.get()) != sizeof(kMagic) ||
      std::fwrite(dims, sizeof(dims[0]), 3, f.get()) != 3 ||
      !WriteAll(f.get(), a.row_offsets()) || !WriteAll(f.get(), a.col_ids()) ||
      !WriteAll(f.get(), a.values())) {
    return Status::IoError("short write: " + path);
  }
  return Status::Ok();
}

StatusOr<Csr> ReadBinary(const std::string& path) {
  FilePtr f(std::fopen(path.c_str(), "rb"));
  if (!f) return Status::IoError("cannot open " + path);
  char magic[8];
  std::int64_t dims[3];
  if (std::fread(magic, 1, sizeof(magic), f.get()) != sizeof(magic) ||
      std::memcmp(magic, kMagic, sizeof(magic)) != 0) {
    return Status::InvalidArgument("bad magic in " + path);
  }
  if (std::fread(dims, sizeof(dims[0]), 3, f.get()) != 3 || dims[0] < 0 ||
      dims[1] < 0 || dims[2] < 0 || dims[0] > kMaxIndex ||
      dims[1] > kMaxIndex) {
    return Status::IoError("bad dims in " + path);
  }
  // The arrays follow the header: rows + 1 offsets, then 12 bytes (column
  // id and value) per entry.
  const long long entry_bytes =
      RemainingBytes(f.get()) -
      static_cast<long long>(sizeof(offset_t)) * (dims[0] + 1);
  if (entry_bytes < 0 ||
      dims[2] > entry_bytes / static_cast<long long>(sizeof(index_t) +
                                                    sizeof(value_t))) {
    return Status::IoError("short read: " + path);
  }
  std::vector<offset_t> offsets(static_cast<std::size_t>(dims[0]) + 1);
  std::vector<index_t> cols(static_cast<std::size_t>(dims[2]));
  std::vector<value_t> vals(static_cast<std::size_t>(dims[2]));
  if (std::fread(offsets.data(), sizeof(offset_t), offsets.size(), f.get()) !=
          offsets.size() ||
      std::fread(cols.data(), sizeof(index_t), cols.size(), f.get()) !=
          cols.size() ||
      std::fread(vals.data(), sizeof(value_t), vals.size(), f.get()) !=
          vals.size()) {
    return Status::IoError("short read: " + path);
  }
  Csr out(static_cast<index_t>(dims[0]), static_cast<index_t>(dims[1]),
          std::move(offsets), std::move(cols), std::move(vals));
  Status st = out.Validate();
  if (!st.ok()) return st;
  return out;
}

}  // namespace oocgemm::sparse
