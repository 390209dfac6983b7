#include "hpo/asha.h"

#include <algorithm>
#include <cmath>

#include "hpo/pasha.h"
#include "hpo/sha.h"

namespace bhpo {

namespace {

struct RungEntry {
  Configuration config;
  double score;
  bool promoted;
};

// The first highest-scoring entry of a rung; null when it is empty.
const RungEntry* BestEntry(const std::vector<RungEntry>& rung) {
  const RungEntry* best = nullptr;
  for (const RungEntry& e : rung) {
    if (best == nullptr || e.score > best->score) best = &e;
  }
  return best;
}

// PASHA's growth test: aligns the configurations present in both of the two
// highest active rungs and asks whether their soft rankings disagree.
bool LadderShouldGrow(const std::vector<RungEntry>& lower,
                      const std::vector<RungEntry>& upper) {
  if (upper.size() < 2) return false;
  std::vector<double> lower_scores, upper_scores;
  for (const RungEntry& up : upper) {
    for (const RungEntry& low : lower) {
      if (low.config == up.config) {
        lower_scores.push_back(low.score);
        upper_scores.push_back(up.score);
        break;
      }
    }
  }
  if (lower_scores.size() < 2) return false;
  // Soft-ranking tolerance: scaled to the observed score spread.
  double lo = *std::min_element(lower_scores.begin(), lower_scores.end());
  double hi = *std::max_element(lower_scores.begin(), lower_scores.end());
  double tolerance = 0.05 * std::max(1e-12, hi - lo);
  return RankingDisagrees(lower_scores, upper_scores, tolerance);
}

}  // namespace

Result<HpoResult> PromotionScheduler::Optimize(const Dataset& train,
                                              Rng* rng) {
  if (rng == nullptr) return Status::InvalidArgument("null rng");

  double eta = static_cast<double>(options_.eta);
  std::vector<size_t> rung_budget =
      RungBudgets(options_.min_budget, train.n(), options_.eta);
  size_t top = rung_budget.size() - 1;
  size_t active_top = progressive_ ? std::min<size_t>(1, top) : top;

  std::vector<std::vector<RungEntry>> rungs(rung_budget.size());
  // Evaluations draw from per-(config, budget) streams off this root, so a
  // config re-evaluated at a rung budget it has already seen (promotion
  // after a cap, duplicate sample) replays identically — and cache-ably.
  EvalRecorder run(strategy_, train, rng->engine()());

  // `config` is taken by value: a promotion passes an entry of rung k and
  // the new entry lands in rung k + 1.
  auto run_job = [&](Configuration config, size_t rung) -> Status {
    // Demotable failures become sentinel entries that sink to the bottom of
    // the rung instead of killing the search.
    BHPO_ASSIGN_OR_RETURN(EvalResult eval,
                          run.Evaluate(config, rung_budget[rung]));
    // ASHA's winner is the best non-failed evaluation of the top rung.
    if (!progressive_ && rung == top) run.KeepBest(config, eval);
    rungs[rung].push_back({std::move(config), eval.score, false});
    return Status::OK();
  };

  for (size_t job = 0; job < options_.max_jobs; ++job) {
    // Promotion rule: scan the active rungs top-down for a configuration
    // that is in the top 1/eta of its rung and not yet promoted.
    bool promoted = false;
    for (size_t k = active_top; k-- > 0 && !promoted;) {
      size_t promotable = static_cast<size_t>(
          std::floor(static_cast<double>(rungs[k].size()) / eta));
      if (promotable == 0) continue;
      std::vector<double> scores;
      scores.reserve(rungs[k].size());
      for (const RungEntry& e : rungs[k]) scores.push_back(e.score);
      for (size_t idx : TopIndicesByScore(scores, promotable)) {
        if (!rungs[k][idx].promoted) {
          rungs[k][idx].promoted = true;
          BHPO_RETURN_NOT_OK(run_job(rungs[k][idx].config, k + 1));
          promoted = true;
          break;
        }
      }
    }
    if (!promoted) {
      BHPO_RETURN_NOT_OK(run_job(space_->Sample(rng), 0));
    }
    if (active_top < top &&
        LadderShouldGrow(rungs[active_top - 1], rungs[active_top])) {
      ++active_top;
    }
  }

  HpoResult& result = run.result();
  if (!run.has_best()) {
    // PASHA, or no ASHA configuration finished the top rung: the best entry
    // of the highest populated rung wins.
    const RungEntry* best = nullptr;
    for (size_t k = rungs.size(); best == nullptr && k-- > 0;) {
      best = BestEntry(rungs[k]);
    }
    BHPO_CHECK(best != nullptr);  // max_jobs > 0 jobs each add an entry.
    result.best_config = best->config;
    result.best_score = best->score;
  }
  return std::move(result);
}

}  // namespace bhpo
