// Row accumulators for SpGEMM (Section II-B of the paper, extended into a
// four-strategy family routed by the kernel registry).
//
//  * HashAccumulator — open-addressing map keyed by column id; good for
//    sparse output rows.  Sized from an upper bound, values inserted by
//    column id, extracted sorted.
//  * DenseAccumulator — a dense value array indexed directly by column id
//    with a generation-stamped occupancy mask; good for dense output rows
//    (high compression ratio), wasteful for very sparse ones.
//  * SortMergeAccumulator — gather every (col, val) product into a flat
//    buffer, sort once at extraction and fold duplicates.  Lowest fixed
//    cost of the family: the right kernel for tiny rows where a hash
//    table's setup/probing dominates.
//  * RowMergeAccumulator — keeps each contributing B row as a pre-sorted
//    run and merges runs pairwise (binary row merging).  O(P log k) with
//    sequential access only: the kernel for heavy skewed rows whose hash
//    working set falls out of cache.
//
// All four implement one symbolic/numeric interface (Reserve / AddRun /
// AddRunSymbolic / size / ExtractSorted / Clear, plus single-entry Add
// convenience) and carry a static `Traits` block — the cost coefficients
// and preferred density/flop range the routing pass and the registry's
// cost model read.  Each is designed for reuse across many rows without
// per-row reallocation — the property the paper's pre-allocation scheme
// depends on.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/status.hpp"
#include "sparse/types.hpp"

namespace oocgemm::kernels {

using sparse::index_t;
using sparse::offset_t;
using sparse::value_t;

/// Static per-strategy routing metadata: modeled cost coefficients (in
/// arbitrary "op" units; only ratios matter) and the preferred operating
/// range.  cost(row) = setup_cost + per_product_cost * P
///                   + log_factor * P * log2(max(P, 2))
///                   + width_cost * panel_cols
/// with P = flops / 2 the row's intermediate-product count.  A strategy is
/// eligible for a row when the estimated output density and the flop count
/// fall inside [min_density, max_density] x [min_flops, max_flops].
struct AccumulatorTraits {
  const char* name;
  double setup_cost;
  double per_product_cost;
  double log_factor;
  double width_cost;
  double min_density;
  double max_density;
  std::int64_t min_flops;
  std::int64_t max_flops;
};

class HashAccumulator {
 public:
  static constexpr AccumulatorTraits kTraits = {
      "hash", 16.0, 1.0, 0.0, 0.0, 0.0, 1.0, 0, INT64_MAX};

  /// Ensures capacity for `max_entries` distinct columns (load factor .5).
  void Reserve(std::int64_t max_entries);

  /// Inserts (col, v), accumulating on collision.
  void Add(index_t col, value_t v);

  /// Symbolic insert: records the column only.
  void AddSymbolic(index_t col);

  /// Inserts a sorted run of `n` columns, values scaled by `scale`
  /// (`vals` may be null with scale ignored — symbolic).
  void AddRun(const index_t* cols, const value_t* vals, offset_t n,
              value_t scale);
  void AddRunSymbolic(const index_t* cols, offset_t n);

  std::int64_t size() const { return static_cast<std::int64_t>(used_.size()); }
  std::int64_t capacity() const { return static_cast<std::int64_t>(keys_.size()); }

  /// Total probe steps across every FindSlot since construction — the
  /// load-factor/clustering regression signal (adversarial key sets must
  /// stay near one probe per operation; see test_kernels_accumulators).
  std::int64_t total_probes() const { return probes_; }

  /// Writes the accumulated row sorted by column id; returns entry count.
  /// `cols_out` / `vals_out` must have room for size() entries.  `vals_out`
  /// may be null in symbolic mode.
  std::int64_t ExtractSorted(index_t* cols_out, value_t* vals_out);

  /// Forgets all entries; keeps capacity.  O(touched slots).
  void Clear();

 private:
  std::int64_t FindSlot(index_t col);
  void Grow(std::int64_t min_capacity);

  std::vector<index_t> keys_;    // kEmpty when vacant
  std::vector<value_t> vals_;
  std::vector<std::int64_t> used_;  // occupied slot indices, insertion order
  int shift_ = 64;                  // 64 - log2(capacity): top-bits slot hash
  std::int64_t probes_ = 0;
  static constexpr index_t kEmpty = -1;
};

class DenseAccumulator {
 public:
  // Width, not density, is what dense accumulation actually pays for: the
  // value/stamp arrays are touched per *product* but sized per *column*,
  // so a panel a few thousand columns wide stays cache-resident and cheap
  // at any output density, while a very wide panel goes cold.  Hence a low
  // density floor and a per-column width charge that crosses over hash at
  // roughly 60x the row's product count.
  static constexpr AccumulatorTraits kTraits = {
      "dense", 32.0, 0.40, 0.0, 0.01, 0.005, 1.0, 0, INT64_MAX};

  /// Width beyond which the dense value/stamp arrays are considered
  /// infeasible scratch (the registry's feasibility gate routes such
  /// panels to a sparse strategy instead).
  static constexpr index_t kMaxFeasibleCols = 1 << 22;

  /// Sizes the dense array for columns [0, num_cols).
  void Reserve(index_t num_cols);

  void Add(index_t col, value_t v);
  void AddSymbolic(index_t col);
  void AddRun(const index_t* cols, const value_t* vals, offset_t n,
              value_t scale);
  void AddRunSymbolic(const index_t* cols, offset_t n);

  std::int64_t size() const { return static_cast<std::int64_t>(touched_.size()); }

  std::int64_t ExtractSorted(index_t* cols_out, value_t* vals_out);

  /// O(1): bumps the generation stamp instead of clearing arrays.
  void Clear();

 private:
  std::vector<value_t> values_;
  std::vector<std::uint32_t> stamp_;
  std::vector<index_t> touched_;
  std::uint32_t generation_ = 1;
};

/// Gather-then-sort accumulation: append every product, sort by column at
/// finalization, fold duplicates.  No per-slot state at all, so the setup
/// cost is two vector-size checks — unbeatable on rows of a handful of
/// products, where even a cleared hash table costs more than the sort.
class SortMergeAccumulator {
 public:
  static constexpr AccumulatorTraits kTraits = {
      "sort", 2.0, 0.0, 0.30, 0.0, 0.0, 1.0, 0, 256};

  void Reserve(std::int64_t max_entries);

  void Add(index_t col, value_t v);
  void AddSymbolic(index_t col) { Add(col, 0.0); }
  void AddRun(const index_t* cols, const value_t* vals, offset_t n,
              value_t scale);
  void AddRunSymbolic(const index_t* cols, offset_t n);

  /// Finalizes (sort + duplicate fold) lazily, then reports distinct count.
  std::int64_t size();

  std::int64_t ExtractSorted(index_t* cols_out, value_t* vals_out);

  void Clear();

 private:
  void Finalize();

  std::vector<std::pair<index_t, value_t>> entries_;
  bool finalized_ = false;
};

/// Binary row merging: every contributing B row arrives as a run already
/// sorted by column id (the CSR invariant); runs are merged pairwise in
/// rounds until one remains, summing equal columns as they meet.  Purely
/// sequential passes over the data — P log2(k) work for k runs with no
/// random access, which is why it overtakes hashing on heavy skewed rows
/// whose tables no longer fit in cache.
class RowMergeAccumulator {
 public:
  static constexpr AccumulatorTraits kTraits = {
      "merge", 48.0, 0.75, 0.0, 0.0, 0.0, 0.02, 16384, INT64_MAX};

  void Reserve(std::int64_t max_entries);

  /// Single-entry inserts are runs of length one (API parity with the
  /// other strategies; pairwise merging handles them like any run).
  void Add(index_t col, value_t v);
  void AddSymbolic(index_t col) { Add(col, 0.0); }

  /// `cols` must be ascending within the run (CSR rows are).
  void AddRun(const index_t* cols, const value_t* vals, offset_t n,
              value_t scale);
  void AddRunSymbolic(const index_t* cols, offset_t n);

  std::int64_t size();

  std::int64_t ExtractSorted(index_t* cols_out, value_t* vals_out);

  void Clear();

 private:
  void Finalize();
  /// Appends run [lo, hi) of cols_/vals_ onto the merge buffers, folding
  /// entries equal to the buffer tail (keeps intra-run duplicates from
  /// surviving a round).
  void AppendRun(std::size_t lo, std::size_t hi, std::size_t tail_begin);

  std::vector<index_t> cols_, merge_cols_;
  std::vector<value_t> vals_, merge_vals_;
  std::vector<std::size_t> run_begin_;  // run i = [run_begin_[i], run_begin_[i+1])
  bool finalized_ = false;
};

/// Strategy selector used by the symbolic/numeric phases and the routing
/// pass.  kAuto routes per row (or per row group) through the kernel
/// registry's cost model; the other values force one strategy everywhere
/// (modulo the dense feasibility gate).
enum class AccumulatorKind {
  kAuto,
  kHash,
  kDense,
  kSortMerge,
  kRowMerge,
};

}  // namespace oocgemm::kernels
