#ifndef BHPO_DATA_DATASET_VIEW_H_
#define BHPO_DATA_DATASET_VIEW_H_

#include <vector>

#include "common/matrix.h"
#include "common/status.h"
#include "data/dataset.h"

namespace bhpo {

// Non-owning row view over a parent Dataset: the one input type of every
// training and scoring entry point (Model::Fit, EvaluateModel,
// CrossValidate, SampleStratified). A Dataset converts to its identity view
// implicitly, so callers holding a whole dataset pass it as is, while
// cross-validation hands models the training and validation sides of each
// fold as subset views, so no feature row is ever gathered into a fresh
// matrix just to be read once.
//
// A view is either *full* (the identity view over the parent, no index
// table) or a subset defined by an owned index vector; either way it only
// references the parent's storage, which must outlive the view. Views
// compose: ViewOf() of a subset view re-maps through to the parent, so a
// bootstrap sample of a CV fold is still a single indirection deep.
class DatasetView {
 public:
  DatasetView() = default;

  // Identity view over the whole parent (no index table).
  DatasetView(const Dataset& parent)  // NOLINT(runtime/explicit)
      : parent_(&parent) {}

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

  // Number of instances per class (classification only); a full view counts
  // every row of the parent.
  std::vector<size_t> ClassCounts() const;
  // View-relative indices of all instances of each class (classification
  // only).
  std::vector<std::vector<size_t>> IndicesByClass() const;

  // Explicit materializations for consumers that genuinely need dense
  // storage (e.g. full-batch matrix solvers). These are the *only* copies
  // left on the CV path, and each caller opts in knowingly.
  Matrix GatherFeatures() const;
  std::vector<int> GatherLabels() const;
  std::vector<double> GatherTargets() const;
  Dataset Materialize() const;

 private:
  friend class FeatureRows;

  const Dataset* parent_ = nullptr;
  bool has_indices_ = false;
  std::vector<size_t> indices_;
};

// Feature rows to predict on: the one input type of every model's
// prediction methods. Converts implicitly from a dense Matrix (all of its
// rows) and from a DatasetView (the parent's feature matrix plus the view's
// index table, none for a full view), so a model writes each prediction
// body once and walks rows in place either way. Non-owning like a view: the
// matrix and the view's index table must outlive it, so take it as a
// parameter and never store it.
class FeatureRows {
 public:
  FeatureRows(const Matrix& features)  // NOLINT(runtime/explicit)
      : matrix_(&features), n_(features.rows()) {}
  FeatureRows(const DatasetView& view);  // NOLINT(runtime/explicit)

  size_t n() const { return n_; }

  // Contiguous feature row i (points into the source matrix).
  const double* row(size_t i) const {
    BHPO_CHECK_LT(i, n_);
    return matrix_->Row(indices_ == nullptr ? i : (*indices_)[i]);
  }

  // The rows as one dense matrix, for models that need one (matrix
  // products): the source matrix itself when there is no index table,
  // otherwise the rows gathered once into *buffer.
  const Matrix& Dense(Matrix* buffer) const;

 private:
  const Matrix* matrix_;
  // Null: the rows are the matrix's own rows, in order.
  const std::vector<size_t>* indices_ = nullptr;
  size_t n_;
};

}  // namespace bhpo

#endif  // BHPO_DATA_DATASET_VIEW_H_
