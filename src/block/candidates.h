#ifndef SERD_BLOCK_CANDIDATES_H_
#define SERD_BLOCK_CANDIDATES_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <unordered_set>
#include <utility>
#include <vector>

#include "block/qgram_index.h"
#include "runtime/thread_pool.h"

namespace serd::block {

/// Deduplicated candidate pairs in CSR form over the probe rows: probe row
/// i's candidates are cols[offsets[i], offsets[i+1]), ascending. Flat
/// positions therefore enumerate pairs in ascending (i, j) order — exactly
/// the order of the exact full scan, which is what keeps the blocked match
/// list bit-identical to the exact one whenever recall is 1.
struct CandidateSet {
  std::vector<size_t> offsets;  ///< size = probe rows + 1
  std::vector<uint32_t> cols;   ///< flat indexed-row ids

  size_t num_pairs() const { return cols.size(); }

  /// The (probe row, indexed row) pair at flat position `pos`.
  std::pair<size_t, size_t> PairAt(size_t pos) const;

  /// Membership test by binary search inside probe row i's slice.
  bool Contains(size_t i, uint32_t j) const;
};

/// Generates the candidate set of every probe row against `index`. Probe
/// rows run on `pool` (chunk results land in per-row slots, so the output
/// is bit-identical for any thread count, including pool == nullptr).
/// `probe_grams(row, col)` returns the sorted hashed gram set of the probe
/// row's col-th indexed column (same column order the index was built
/// with).
CandidateSet GenerateCandidates(const QgramIndex& index,
                                size_t num_probe_rows,
                                const QgramIndex::GramAccessor& probe_grams,
                                runtime::ThreadPool* pool = nullptr);

/// Uniform pair draws behind the sampled recall estimate.
constexpr size_t kRecallSamples = 2048;

/// Sampled recall of a blocked match set against the exact scan.
struct RecallEstimate {
  double recall = 1.0;
  /// False when `candidates` covers every pair: nothing was pruned, so
  /// recall is exactly 1.0 and no sample was drawn.
  bool estimated = false;
};

/// Estimates the recall of blocking from kRecallSamples uniform draws over
/// the num_probe_rows x num_indexed_rows pair space (flat key
/// i * num_indexed_rows + j), seeded from `seed` with a fixed salt so the
/// draws never touch any other RNG stream. Draws inside `candidates`, and
/// draws whose flat key is in `skip` (pairs labeled elsewhere; may be
/// null), are dropped; the rest are scored by `is_match`, and the missed
/// share scales to the pruned pair count. recall = found_matches /
/// (found_matches + estimated misses), 1.0 when both are 0.
RecallEstimate EstimateRecall(
    const CandidateSet& candidates, size_t num_indexed_rows,
    size_t found_matches, uint64_t seed,
    const std::unordered_set<uint64_t>* skip,
    const std::function<bool(size_t i, size_t j)>& is_match);

/// `k` distinct values sampled uniformly from [0, n) without replacement
/// (Floyd's algorithm: exactly k UniformInt draws), returned sorted
/// ascending. A pure function of (n, k, seed). Replaces the old
/// evenly-spaced stride subsample of the S3 label cap, which was a biased,
/// non-uniform sample of the pair space (it could never pick two adjacent
/// pairs, so any locality in the pair stream skewed the labeled sample).
std::vector<size_t> SampleDistinctSorted(size_t n, size_t k, uint64_t seed);

}  // namespace serd::block

#endif  // SERD_BLOCK_CANDIDATES_H_
