#ifndef BHPO_DATA_DATASET_VIEW_H_
#define BHPO_DATA_DATASET_VIEW_H_

#include <vector>

#include "common/matrix.h"
#include "common/status.h"
#include "data/dataset.h"

namespace bhpo {

// Non-owning row view over a parent Dataset. This is the unit of currency on
// the evaluation hot path: cross-validation hands models the training and
// validation sides of each fold as views, so no feature row is ever gathered
// into a fresh matrix just to be read once (the old per-fold
// Dataset::Subset cost O(n*d) per fold per configuration evaluation).
//
// A view is either *full* (the identity view over the parent, no index
// table) or a subset defined by an owned index vector; either way it only
// references the parent's storage, which must outlive the view. Views
// compose: ViewOf() of a subset view re-maps through to the parent, so a
// bootstrap sample of a CV fold is still a single indirection deep.
class DatasetView {
 public:
  DatasetView() = default;

  // Identity view over the whole parent (no index table). Explicit so the
  // Dataset-taking and view-taking overloads of CrossValidate/Fit never
  // collide during overload resolution.
  explicit DatasetView(const Dataset& parent) : parent_(&parent) {}

  // Subset view: row i of the view is parent row indices[i]. Indices may
  // repeat (bootstrap resampling) and must all be < parent.n().
  DatasetView(const Dataset& parent, std::vector<size_t> indices);

  // Rows `indices` of *this* view (view-relative), re-mapped so the result
  // points straight at the parent. The rvalue overload reuses the caller's
  // vector instead of copying it.
  DatasetView ViewOf(const std::vector<size_t>& indices) const;
  DatasetView ViewOf(std::vector<size_t>&& indices) const;

  bool valid() const { return parent_ != nullptr; }
  // True for the identity view: rows map 1:1 onto the parent.
  bool is_full() const { return parent_ != nullptr && !has_indices_; }

  const Dataset& parent() const {
    BHPO_CHECK(parent_ != nullptr) << "empty DatasetView";
    return *parent_;
  }

  size_t n() const {
    return has_indices_ ? indices_.size() : parent().n();
  }
  size_t num_features() const { return parent().num_features(); }
  Task task() const { return parent().task(); }
  bool is_classification() const { return parent().is_classification(); }
  int num_classes() const { return parent().num_classes(); }

  size_t parent_index(size_t i) const {
    if (!has_indices_) {
      BHPO_CHECK_LT(i, parent().n());
      return i;
    }
    BHPO_CHECK_LT(i, indices_.size());
    return indices_[i];
  }

  // Contiguous feature row of view row i (points into the parent matrix).
  const double* row(size_t i) const {
    return parent().features().Row(parent_index(i));
  }
  double feature(size_t i, size_t j) const {
    return parent().features()(parent_index(i), j);
  }
  int label(size_t i) const { return parent().label(parent_index(i)); }
  double target(size_t i) const { return parent().target(parent_index(i)); }

  // Number of instances per class (classification only).
  std::vector<size_t> ClassCounts() const;
  // View-relative indices of all instances of each class.
  std::vector<std::vector<size_t>> IndicesByClass() const;

  // Explicit materializations for consumers that genuinely need dense
  // storage (e.g. full-batch matrix solvers). These are the *only* copies
  // left on the CV path, and each caller opts in knowingly.
  Matrix GatherFeatures() const;
  std::vector<int> GatherLabels() const;
  std::vector<double> GatherTargets() const;
  Dataset Materialize() const;

 private:
  const Dataset* parent_ = nullptr;
  bool has_indices_ = false;
  std::vector<size_t> indices_;
};

}  // namespace bhpo

#endif  // BHPO_DATA_DATASET_VIEW_H_
