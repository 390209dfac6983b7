#include "data/dataset_view.h"

#include "common/gather.h"

namespace bhpo {

DatasetView::DatasetView(const Dataset& parent, std::vector<size_t> indices)
    : parent_(&parent), has_indices_(true), indices_(std::move(indices)) {
  for (size_t idx : indices_) {
    BHPO_CHECK_LT(idx, parent.n()) << "view index out of range";
  }
}

DatasetView DatasetView::ViewOf(const std::vector<size_t>& indices) const {
  BHPO_CHECK(parent_ != nullptr) << "ViewOf on an empty DatasetView";
  if (!has_indices_) return DatasetView(*parent_, indices);
  std::vector<size_t> mapped;
  mapped.reserve(indices.size());
  for (size_t i : indices) {
    BHPO_CHECK_LT(i, indices_.size());
    mapped.push_back(indices_[i]);
  }
  return DatasetView(*parent_, std::move(mapped));
}

DatasetView DatasetView::ViewOf(std::vector<size_t>&& indices) const {
  BHPO_CHECK(parent_ != nullptr) << "ViewOf on an empty DatasetView";
  if (!has_indices_) return DatasetView(*parent_, std::move(indices));
  // Validate everything before remapping anything: a mid-loop CHECK after
  // partial remapping would leave the caller's vector half parent-space,
  // half view-space.
  for (size_t i : indices) {
    BHPO_CHECK_LT(i, indices_.size()) << "ViewOf index out of range";
  }
  for (size_t& i : indices) i = indices_[i];
  return DatasetView(*parent_, std::move(indices));
}

std::vector<size_t> DatasetView::ClassCounts() const {
  BHPO_CHECK(is_classification());
  std::vector<size_t> counts(num_classes(), 0);
  size_t m = n();
  for (size_t i = 0; i < m; ++i) ++counts[label(i)];
  return counts;
}

std::vector<std::vector<size_t>> DatasetView::IndicesByClass() const {
  BHPO_CHECK(is_classification());
  std::vector<std::vector<size_t>> by_class(num_classes());
  size_t m = n();
  for (size_t i = 0; i < m; ++i) by_class[label(i)].push_back(i);
  return by_class;
}

Matrix DatasetView::GatherFeatures() const {
  if (!has_indices_) return parent().features();
  Matrix out;
  FeatureRows(*this).Dense(&out);
  return out;
}

std::vector<int> DatasetView::GatherLabels() const {
  BHPO_CHECK(is_classification());
  if (!has_indices_) return parent().labels();
  std::vector<int> out;
  out.reserve(indices_.size());
  for (size_t idx : indices_) out.push_back(parent().label(idx));
  return out;
}

std::vector<double> DatasetView::GatherTargets() const {
  BHPO_CHECK(!is_classification());
  if (!has_indices_) return parent().targets();
  std::vector<double> out;
  out.reserve(indices_.size());
  for (size_t idx : indices_) out.push_back(parent().target(idx));
  return out;
}

Dataset DatasetView::Materialize() const {
  if (!has_indices_) return parent();
  return parent().Subset(indices_);
}

FeatureRows::FeatureRows(const DatasetView& view)
    : matrix_(&view.parent().features()),
      indices_(view.has_indices_ ? &view.indices_ : nullptr),
      n_(view.n()) {}

const Matrix& FeatureRows::Dense(Matrix* buffer) const {
  if (indices_ == nullptr) return *matrix_;
  size_t d = matrix_->cols();
  *buffer = Matrix(n_, d);
  GatherRows(matrix_->data().data(), d, d, indices_->data(), n_,
             buffer->data().data());
  return *buffer;
}

}  // namespace bhpo
