#include "hpo/pasha.h"

#include <cmath>

namespace bhpo {

bool RankingDisagrees(const std::vector<double>& lower_rung_scores,
                      const std::vector<double>& upper_rung_scores,
                      double tolerance) {
  BHPO_CHECK_EQ(lower_rung_scores.size(), upper_rung_scores.size());
  size_t n = lower_rung_scores.size();
  // Any pair ordered confidently (> tolerance apart) in the lower rung but
  // reversed in the upper rung is a disagreement.
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = i + 1; j < n; ++j) {
      double lower_gap = lower_rung_scores[i] - lower_rung_scores[j];
      if (std::fabs(lower_gap) <= tolerance) continue;  // Soft tie.
      double upper_gap = upper_rung_scores[i] - upper_rung_scores[j];
      if (lower_gap * upper_gap < 0.0) return true;
    }
  }
  return false;
}

}  // namespace bhpo
