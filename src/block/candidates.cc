#include "block/candidates.h"

#include <algorithm>
#include <unordered_set>

#include "common/check.h"
#include "common/rng.h"
#include "runtime/parallel_for.h"

namespace serd::block {

std::pair<size_t, size_t> CandidateSet::PairAt(size_t pos) const {
  SERD_CHECK(pos < cols.size());
  // First row whose slice ends past pos.
  auto it = std::upper_bound(offsets.begin(), offsets.end(), pos);
  const size_t i = static_cast<size_t>(it - offsets.begin()) - 1;
  return {i, cols[pos]};
}

bool CandidateSet::Contains(size_t i, uint32_t j) const {
  if (i + 1 >= offsets.size()) return false;
  auto begin = cols.begin() + static_cast<ptrdiff_t>(offsets[i]);
  auto end = cols.begin() + static_cast<ptrdiff_t>(offsets[i + 1]);
  return std::binary_search(begin, end, j);
}

CandidateSet GenerateCandidates(const QgramIndex& index,
                                size_t num_probe_rows,
                                const QgramIndex::GramAccessor& probe_grams,
                                runtime::ThreadPool* pool) {
  const size_t num_cols = index.stats().indexed_columns;
  std::vector<std::vector<uint32_t>> per_row(num_probe_rows);
  runtime::ParallelFor(
      pool, 0, num_probe_rows, 16, [&](size_t lo, size_t hi) {
        QgramIndex::Scratch scratch;
        std::vector<const std::vector<uint32_t>*> probe(num_cols);
        for (size_t row = lo; row < hi; ++row) {
          for (size_t col = 0; col < num_cols; ++col) {
            probe[col] = &probe_grams(row, col);
          }
          index.Candidates(probe, &scratch, &per_row[row]);
        }
      });

  CandidateSet out;
  out.offsets.resize(num_probe_rows + 1);
  size_t total = 0;
  for (size_t row = 0; row < num_probe_rows; ++row) {
    out.offsets[row] = total;
    total += per_row[row].size();
  }
  out.offsets[num_probe_rows] = total;
  out.cols.reserve(total);
  for (const auto& rows : per_row) {
    out.cols.insert(out.cols.end(), rows.begin(), rows.end());
  }
  return out;
}

RecallEstimate EstimateRecall(
    const CandidateSet& candidates, size_t num_indexed_rows,
    size_t found_matches, uint64_t seed,
    const std::unordered_set<uint64_t>* skip,
    const std::function<bool(size_t i, size_t j)>& is_match) {
  SERD_CHECK(!candidates.offsets.empty());
  RecallEstimate out;
  const size_t total_pairs =
      (candidates.offsets.size() - 1) * num_indexed_rows;
  if (candidates.num_pairs() >= total_pairs) return out;
  out.estimated = true;
  Rng rng(seed ^ 0xb10c4ec5ULL);
  const size_t samples = std::min(kRecallSamples, total_pairs);
  size_t outside = 0, missed = 0;
  for (size_t s = 0; s < samples; ++s) {
    const size_t flat = rng.UniformInt(total_pairs);
    const size_t i = flat / num_indexed_rows, j = flat % num_indexed_rows;
    if (candidates.Contains(i, static_cast<uint32_t>(j))) continue;
    if (skip != nullptr && skip->count(static_cast<uint64_t>(flat))) continue;
    ++outside;
    if (is_match(i, j)) ++missed;
  }
  const double pruned =
      static_cast<double>(total_pairs - candidates.num_pairs());
  const double est_missed =
      outside > 0
          ? (static_cast<double>(missed) / static_cast<double>(outside)) *
                pruned
          : 0.0;
  const double found = static_cast<double>(found_matches);
  out.recall = found + est_missed > 0.0 ? found / (found + est_missed) : 1.0;
  return out;
}

std::vector<size_t> SampleDistinctSorted(size_t n, size_t k, uint64_t seed) {
  SERD_CHECK(k <= n);
  if (k == n) {
    std::vector<size_t> all(n);
    for (size_t i = 0; i < n; ++i) all[i] = i;
    return all;
  }
  Rng rng(seed);
  std::unordered_set<size_t> chosen;
  chosen.reserve(k);
  for (size_t j = n - k; j < n; ++j) {
    size_t pick = rng.UniformInt(j + 1);
    if (!chosen.insert(pick).second) chosen.insert(j);
  }
  std::vector<size_t> out(chosen.begin(), chosen.end());
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace serd::block
