// Shared helpers for the test suite.
#pragma once

#include <gtest/gtest.h>

#include <chrono>
#include <filesystem>
#include <thread>
#include <vector>

#include "sparse/csr.hpp"
#include "sparse/generators.hpp"

namespace oocgemm::testutil {

/// Random sparse matrix with uniform structure.
inline sparse::Csr RandomCsr(sparse::index_t rows, sparse::index_t cols,
                             double avg_degree, std::uint64_t seed) {
  sparse::ErdosRenyiParams p;
  p.rows = rows;
  p.cols = cols;
  p.avg_degree = avg_degree;
  p.seed = seed;
  return sparse::GenerateErdosRenyi(p);
}

/// Random skewed square matrix (power-law rows).
inline sparse::Csr RandomRmat(int scale, double edge_factor,
                              std::uint64_t seed) {
  sparse::RmatParams p;
  p.scale = scale;
  p.edge_factor = edge_factor;
  p.seed = seed;
  return sparse::GenerateRmat(p);
}

/// A pair of shared-operand products that each fit a 1 MiB device alone
/// but not on one shared workspace: `wide_out` * b fills a large output
/// pool through b's eight dense rows, `wide_in` * b needs a large A panel
/// whose entries meet b's single-entry rows.  Every value is 1.
struct WorkspaceMisfit {
  sparse::Csr b, wide_out, wide_in;

  WorkspaceMisfit() {
    constexpr sparse::index_t n = 512;
    auto rows = [](auto cols_of) {
      std::vector<sparse::offset_t> offsets{0};
      std::vector<sparse::index_t> ids;
      for (sparse::index_t r = 0; r < n; ++r) {
        cols_of(r, ids);
        offsets.push_back(static_cast<sparse::offset_t>(ids.size()));
      }
      std::vector<sparse::value_t> values(ids.size(), 1.0);
      return sparse::Csr(n, n, std::move(offsets), std::move(ids),
                         std::move(values));
    };
    auto span = [](sparse::index_t lo, sparse::index_t hi, auto& ids) {
      for (sparse::index_t c = lo; c < hi; ++c) ids.push_back(c);
    };
    b = rows([&](sparse::index_t r, auto& ids) {
      if (r < 8) {
        span(0, n, ids);
      } else {
        ids.push_back(0);
      }
    });
    wide_out = rows([&](sparse::index_t, auto& ids) { span(0, 2, ids); });
    wide_in = rows([&](sparse::index_t, auto& ids) { span(8, n, ids); });
  }
};

/// gtest assertion: structural and (approximate) value equality.
inline ::testing::AssertionResult CsrNear(const sparse::Csr& actual,
                                          const sparse::Csr& expected,
                                          double rel_tol = 1e-10) {
  if (actual.rows() != expected.rows() || actual.cols() != expected.cols()) {
    return ::testing::AssertionFailure()
           << "shape mismatch: " << actual.DebugString() << " vs "
           << expected.DebugString();
  }
  if (actual.row_offsets() != expected.row_offsets()) {
    return ::testing::AssertionFailure()
           << "row_offsets mismatch (" << actual.DebugString() << " vs "
           << expected.DebugString() << ")";
  }
  if (actual.col_ids() != expected.col_ids()) {
    return ::testing::AssertionFailure() << "col_ids mismatch";
  }
  if (!actual.ApproxEquals(expected, rel_tol, 1e-12)) {
    return ::testing::AssertionFailure() << "values mismatch";
  }
  return ::testing::AssertionSuccess();
}

/// Threads of this process, read once two reads a millisecond apart agree
/// (a thread joined just before may linger in the list for an instant).
inline int SettledThreadCount() {
  auto count = [] {
    int n = 0;
    for (const auto& task :
         std::filesystem::directory_iterator("/proc/self/task")) {
      (void)task;
      ++n;
    }
    return n;
  };
  for (int n = count();;) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    const int again = count();
    if (again == n) return n;
    n = again;
  }
}

}  // namespace oocgemm::testutil
