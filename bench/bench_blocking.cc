// Blocking benchmark: exact O(|A|*|B|) S3 labeling vs the q-gram
// inverted-index candidate path, on the Table II dataset analogs at
// scale 1.0 (the scale the exact scan previously made impractical).
//
// The bench isolates the labeling subsystem: it fits O_real on the real
// analog exactly as S1 does, then labels the real A x B cross space both
// ways and compares wall-clock, pairs scored, and the match lists. This
// keeps every dataset tier affordable (no synthesis in the loop) while
// scoring the same kind of digests S3 scores.
//
// Writes BENCH_blocking.json: per dataset, exact/blocked wall-clock,
// pairs scored on each side, the scored-pairs reduction, measured recall
// (blocked matches / exact matches; precision is 1.0 by construction
// because both sides score with the same posterior), and whether the
// match lists agree exactly.
//
// Flags:
//   --datasets a,b,c   subset of dblp-acm,restaurant,walmart-amazon,
//                      itunes-amazon (default: all four + stress tier)
//   --no-stress        skip the 10x stress tier (dblp-acm at scale 3.16)
//   --exact-all        run the exact scan even above the pair gate
//                      (itunes-amazon at scale 1.0 is ~386M pairs)
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "block/candidates.h"
#include "block/qgram_index.h"
#include "common/timer.h"
#include "core/cached_sim.h"
#include "data/er_dataset.h"
#include "data/similarity.h"
#include "gmm/o_distribution.h"

namespace serd::bench {
namespace {

/// Exact scans above this many pairs are skipped unless --exact-all:
/// covers dblp-acm (6.0M), restaurant (0.7M), walmart-amazon (56M) and
/// the stress tier, while itunes-amazon (386M) reports blocked-only.
constexpr size_t kExactPairGate = 80'000'000;

struct Fitted {
  ERDataset real;
  SimilaritySpec spec;
  ODistribution o;
  std::unique_ptr<CachedSimilarity> sim;
  std::vector<CachedSimilarity::Digest> a_digests, b_digests;
  std::vector<size_t> gram_cols;
};

Fitted FitDataset(DatasetKind kind, double scale, uint64_t seed) {
  Fitted f;
  f.real = datagen::Generate(kind, {.seed = seed, .scale = scale});
  f.spec = SimilaritySpec::FromTables(f.real.schema(), {&f.real.a, &f.real.b});

  Rng rng(seed);
  LabeledPairSet pairs = BuildLabeledPairs(f.real, 10.0, &rng);
  std::vector<Vec> x_pos, x_neg;
  ComputeSimilarityVectors(f.real, f.spec, pairs, &x_pos, &x_neg);
  SERD_CHECK(!x_pos.empty() && !x_neg.empty());
  GmmFitOptions gmm;
  auto m = Gmm::FitWithAic(x_pos, gmm);
  auto n = Gmm::FitWithAic(x_neg, gmm);
  SERD_CHECK(m.ok() && n.ok());
  double pi = static_cast<double>(x_pos.size()) /
              static_cast<double>(x_pos.size() + x_neg.size());
  f.o = ODistribution(pi, m.value(), n.value());

  f.sim = std::make_unique<CachedSimilarity>(f.spec);
  f.a_digests.reserve(f.real.a.size());
  for (size_t i = 0; i < f.real.a.size(); ++i) {
    f.a_digests.push_back(f.sim->MakeDigest(f.real.a.row(i)));
  }
  f.b_digests.reserve(f.real.b.size());
  for (size_t i = 0; i < f.real.b.size(); ++i) {
    f.b_digests.push_back(f.sim->MakeDigest(f.real.b.row(i)));
  }
  f.gram_cols = f.sim->GramColumns();
  return f;
}

/// Labels every pair, returning sorted flat keys i * |B| + j of matches.
std::vector<uint64_t> ExactMatches(const Fitted& f, double* seconds) {
  WallTimer timer;
  std::vector<uint64_t> keys;
  const size_t nb = f.b_digests.size();
  Vec x;
  for (size_t i = 0; i < f.a_digests.size(); ++i) {
    for (size_t j = 0; j < nb; ++j) {
      f.sim->SimilarityVectorInto(f.a_digests[i], f.b_digests[j], &x);
      if (f.o.LabelAsMatch(x)) keys.push_back(i * nb + j);
    }
  }
  *seconds = timer.Seconds();
  return keys;
}

struct BlockedRun {
  std::vector<uint64_t> keys;  ///< sorted flat match keys
  size_t candidates = 0;
  double index_seconds = 0.0;
  double candidate_seconds = 0.0;
  double score_seconds = 0.0;
  /// Sampled-recall estimate (block::EstimateRecall, the estimator S3
  /// runs). Only filled when requested; rows with a measured exact scan
  /// never use it.
  block::RecallEstimate recall;
  double total_seconds() const {
    return index_seconds + candidate_seconds + score_seconds;
  }
};

BlockedRun BlockedMatches(const Fitted& f, bool estimate_recall) {
  BlockedRun run;
  const size_t nb = f.b_digests.size();
  WallTimer index_timer;
  auto index_grams = [&](size_t row, size_t col) -> const auto& {
    return f.b_digests[row].grams[f.gram_cols[col]];
  };
  block::QgramIndex index = block::QgramIndex::Build(
      nb, f.gram_cols.size(), index_grams, block::BlockOptions());
  run.index_seconds = index_timer.Seconds();

  WallTimer cand_timer;
  auto probe_grams = [&](size_t row, size_t col) -> const auto& {
    return f.a_digests[row].grams[f.gram_cols[col]];
  };
  block::CandidateSet cand = block::GenerateCandidates(
      index, f.a_digests.size(), probe_grams, nullptr);
  run.candidate_seconds = cand_timer.Seconds();
  run.candidates = cand.num_pairs();

  WallTimer score_timer;
  Vec x;
  auto is_match = [&](size_t i, size_t j) {
    f.sim->SimilarityVectorInto(f.a_digests[i], f.b_digests[j], &x);
    return f.o.LabelAsMatch(x);
  };
  for (size_t k = 0; k < cand.num_pairs(); ++k) {
    auto [i, j] = cand.PairAt(k);
    if (is_match(i, j)) run.keys.push_back(i * nb + j);
  }
  run.score_seconds = score_timer.Seconds();

  if (estimate_recall) {
    run.recall = block::EstimateRecall(cand, nb, run.keys.size(),
                                       /*seed=*/42, /*skip=*/nullptr,
                                       is_match);
  }
  return run;
}

struct BlockRow {
  std::string name;
  double scale = 1.0;
  size_t rows_a = 0, rows_b = 0;
  size_t total_pairs = 0;
  bool exact_ran = false;
  double exact_seconds = 0.0;
  size_t exact_matches = 0;
  double blocked_seconds = 0.0;
  size_t blocked_matches = 0;
  size_t candidates = 0;
  double reduction = 0.0;  ///< total_pairs / candidates
  double recall = 1.0;
  /// True when `recall` is the sampled estimate (exact scan skipped)
  /// rather than the measured blocked/exact ratio — blocked-only rows
  /// (iTunes-Amazon at scale 1.0) must never be read as measured.
  bool recall_estimated = false;
  bool agree = false;
};

void WriteJson(const std::vector<BlockRow>& rows, const char* path) {
  std::ofstream out(path);
  out << "{\n  \"benchmarks\": [\n";
  for (size_t i = 0; i < rows.size(); ++i) {
    const auto& r = rows[i];
    char buf[512];
    std::snprintf(
        buf, sizeof(buf),
        "    {\"name\": \"blocking_%s\", \"scale\": %.2f, "
        "\"rows_a\": %zu, \"rows_b\": %zu, \"total_pairs\": %zu, "
        "\"exact_ran\": %s, \"exact_seconds\": %.3f, "
        "\"exact_matches\": %zu, \"blocked_seconds\": %.3f, "
        "\"blocked_matches\": %zu, \"candidates\": %zu, "
        "\"scored_reduction\": %.2f, \"recall\": %.6f, "
        "\"recall_estimated\": %s, \"agree\": %s}%s\n",
        r.name.c_str(), r.scale, r.rows_a, r.rows_b, r.total_pairs,
        r.exact_ran ? "true" : "false", r.exact_seconds, r.exact_matches,
        r.blocked_seconds, r.blocked_matches, r.candidates, r.reduction,
        r.recall, r.recall_estimated ? "true" : "false",
        r.agree ? "true" : "false",
        i + 1 < rows.size() ? "," : "");
    out << buf;
  }
  out << "  ]\n}\n";
}

struct Tier {
  DatasetKind kind;
  double scale;
  const char* suffix;  ///< appended to the dataset name ("" for Table II)
};

void Run(int argc, char** argv) {
  std::string filter;
  bool exact_all = false, stress = true;
  for (int i = 1; i < argc; ++i) {
    if (!std::strcmp(argv[i], "--datasets") && i + 1 < argc) {
      filter = argv[++i];
    } else if (!std::strcmp(argv[i], "--exact-all")) {
      exact_all = true;
    } else if (!std::strcmp(argv[i], "--no-stress")) {
      stress = false;
    } else {
      std::fprintf(stderr,
                   "usage: bench_blocking [--datasets a,b] [--exact-all] "
                   "[--no-stress]\n");
      std::exit(2);
    }
  }

  std::vector<DatasetKind> kinds;
  if (filter.empty()) {
    kinds.assign(std::begin(kAllKinds), std::end(kAllKinds));
  } else {
    size_t pos = 0;
    while (pos <= filter.size()) {
      size_t comma = filter.find(',', pos);
      std::string token = filter.substr(
          pos, comma == std::string::npos ? std::string::npos : comma - pos);
      DatasetKind kind;
      if (!datagen::ParseDatasetKind(token, &kind)) {
        std::fprintf(stderr, "bench_blocking: unknown dataset '%s'\n",
                     token.c_str());
        std::exit(2);
      }
      kinds.push_back(kind);
      if (comma == std::string::npos) break;
      pos = comma + 1;
    }
  }

  std::vector<Tier> tiers;
  for (DatasetKind kind : kinds) tiers.push_back({kind, 1.0, ""});
  // 10x stress tier: ~sqrt(10) per side, so the pair space is ~10x the
  // dataset's Table II size.
  if (stress &&
      std::find(kinds.begin(), kinds.end(), DatasetKind::kDblpAcm) !=
          kinds.end()) {
    tiers.push_back({DatasetKind::kDblpAcm, 3.16, "-10x"});
  }

  PrintHeader("S3 labeling: exact scan vs q-gram inverted-index blocking");
  std::vector<BlockRow> rows;
  for (const Tier& tier : tiers) {
    Fitted f = FitDataset(tier.kind, tier.scale, /*seed=*/42);
    std::string name = f.real.name + tier.suffix;
    BlockRow row;
    row.name = name;
    row.scale = tier.scale;
    row.rows_a = f.real.a.size();
    row.rows_b = f.real.b.size();
    row.total_pairs = row.rows_a * row.rows_b;
    std::printf("%s: |A|=%zu |B|=%zu -> %zu pairs\n", name.c_str(),
                row.rows_a, row.rows_b, row.total_pairs);

    std::vector<uint64_t> exact;
    row.exact_ran = exact_all || row.total_pairs <= kExactPairGate;
    if (row.exact_ran) {
      exact = ExactMatches(f, &row.exact_seconds);
      row.exact_matches = exact.size();
      std::printf("  exact:   %9.2fs  %zu matches\n", row.exact_seconds,
                  exact.size());
    } else {
      std::printf("  exact:   skipped (> %zu pairs; --exact-all forces)\n",
                  kExactPairGate);
    }
    BlockedRun run = BlockedMatches(f, /*estimate_recall=*/!row.exact_ran);
    row.blocked_seconds = run.total_seconds();
    row.blocked_matches = run.keys.size();
    row.candidates = run.candidates;
    row.reduction = run.candidates > 0
                        ? static_cast<double>(row.total_pairs) /
                              static_cast<double>(run.candidates)
                        : 0.0;
    if (row.exact_ran) {
      row.recall = exact.empty() ? 1.0
                                 : static_cast<double>(run.keys.size()) /
                                       static_cast<double>(exact.size());
      row.agree = run.keys == exact;
      // Precision 1.0 by construction: every blocked match must also be
      // an exact match (same digests, same posterior).
      SERD_CHECK(std::includes(exact.begin(), exact.end(), run.keys.begin(),
                               run.keys.end()))
          << name << ": blocked matches are not a subset of exact matches";
    } else {
      // No ground truth: publish the sampled estimate and say so — the
      // flag travels into the JSON row so estimated and measured recall
      // can never be conflated downstream.
      row.recall = run.recall.recall;
      row.recall_estimated = run.recall.estimated;
    }
    std::printf(
        "  blocked: %9.2fs  %zu matches  (index %.2fs + candidates %.2fs + "
        "score %.2fs; %zu candidates, %.1fx fewer scored, recall %.4f%s)\n",
        row.blocked_seconds, run.keys.size(), run.index_seconds,
        run.candidate_seconds, run.score_seconds, run.candidates,
        row.reduction, row.recall,
        row.exact_ran ? (row.agree ? ", exact agreement" : ", DISAGREE")
                      : " (sampled estimate; exact scan skipped)");
    rows.push_back(row);
  }

  WriteJson(rows, "BENCH_blocking.json");
  std::printf("\nwrote BENCH_blocking.json (%zu rows)\n", rows.size());
}

}  // namespace
}  // namespace serd::bench

int main(int argc, char** argv) {
  serd::bench::Run(argc, argv);
  return 0;
}
