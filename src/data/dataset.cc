#include "data/dataset.h"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "data/dataset_view.h"

namespace bhpo {

Result<Dataset> Dataset::Classification(Matrix features,
                                        std::vector<int> labels,
                                        int num_classes) {
  if (features.rows() != labels.size()) {
    return Status::InvalidArgument(
        "feature rows != label count (" + std::to_string(features.rows()) +
        " vs " + std::to_string(labels.size()) + ")");
  }
  if (num_classes < 2) {
    return Status::InvalidArgument("classification needs >= 2 classes");
  }
  for (int y : labels) {
    if (y < 0 || y >= num_classes) {
      return Status::OutOfRange("label " + std::to_string(y) +
                                " outside [0, " +
                                std::to_string(num_classes) + ")");
    }
  }
  Dataset d;
  d.task_ = Task::kClassification;
  d.features_ = std::move(features);
  d.labels_ = std::move(labels);
  d.num_classes_ = num_classes;
  return d;
}

Result<Dataset> Dataset::Classification(Matrix features,
                                        std::vector<int> labels) {
  int num_classes = 0;
  for (int y : labels) num_classes = std::max(num_classes, y + 1);
  return Classification(std::move(features), std::move(labels), num_classes);
}

Result<Dataset> Dataset::Regression(Matrix features,
                                    std::vector<double> targets) {
  if (features.rows() != targets.size()) {
    return Status::InvalidArgument("feature rows != target count");
  }
  Dataset d;
  d.task_ = Task::kRegression;
  d.features_ = std::move(features);
  d.targets_ = std::move(targets);
  d.num_classes_ = 0;
  return d;
}

const std::vector<int>& Dataset::labels() const {
  BHPO_CHECK(is_classification()) << "labels() on a regression dataset";
  return labels_;
}

const std::vector<double>& Dataset::targets() const {
  BHPO_CHECK(!is_classification()) << "targets() on a classification dataset";
  return targets_;
}

int Dataset::label(size_t i) const {
  BHPO_CHECK(is_classification());
  BHPO_CHECK_LT(i, labels_.size());
  return labels_[i];
}

double Dataset::target(size_t i) const {
  BHPO_CHECK(!is_classification());
  BHPO_CHECK_LT(i, targets_.size());
  return targets_[i];
}

const FeatureOrder& Dataset::feature_order() const {
  BHPO_CHECK(feature_order_ != nullptr)
      << "feature_order() on a moved-from dataset";
  return feature_order_->Get(features_);
}

Dataset Dataset::Subset(const std::vector<size_t>& indices) const {
  Dataset d;
  d.task_ = task_;
  d.num_classes_ = num_classes_;
  d.features_ = features_.SelectRows(indices);
  if (is_classification()) {
    d.labels_.reserve(indices.size());
    for (size_t i : indices) d.labels_.push_back(label(i));
  } else {
    d.targets_.reserve(indices.size());
    for (size_t i : indices) d.targets_.push_back(target(i));
  }
  return d;
}

Matrix Dataset::Standardizer::Apply(const Matrix& features) const {
  BHPO_CHECK_EQ(features.cols(), mean.size());
  Matrix out = features;
  for (size_t r = 0; r < out.rows(); ++r) {
    double* p = out.Row(r);
    for (size_t c = 0; c < out.cols(); ++c) {
      p[c] = (p[c] - mean[c]) / stddev[c];
    }
  }
  return out;
}

Dataset::Standardizer Dataset::ComputeStandardizer() const {
  Standardizer s;
  size_t d = num_features();
  s.mean.assign(d, 0.0);
  s.stddev.assign(d, 1.0);
  if (n() == 0) return s;
  for (size_t r = 0; r < n(); ++r) {
    const double* p = features_.Row(r);
    for (size_t c = 0; c < d; ++c) s.mean[c] += p[c];
  }
  for (size_t c = 0; c < d; ++c) s.mean[c] /= static_cast<double>(n());
  std::vector<double> var(d, 0.0);
  for (size_t r = 0; r < n(); ++r) {
    const double* p = features_.Row(r);
    for (size_t c = 0; c < d; ++c) {
      double delta = p[c] - s.mean[c];
      var[c] += delta * delta;
    }
  }
  for (size_t c = 0; c < d; ++c) {
    double sd = std::sqrt(var[c] / static_cast<double>(n()));
    s.stddev[c] = sd > 1e-12 ? sd : 1.0;
  }
  return s;
}

Dataset Dataset::Standardized() const {
  Standardizer s = ComputeStandardizer();
  Dataset d = *this;
  d.features_ = s.Apply(features_);
  // New features, so the copy must not share this dataset's order.
  d.feature_order_ = std::make_shared<LazyFeatureOrder>();
  return d;
}

std::string Dataset::Summary() const {
  std::ostringstream os;
  os << (is_classification() ? "classification" : "regression") << " dataset: "
     << n() << " instances, " << num_features() << " features";
  if (is_classification()) {
    os << ", " << num_classes_ << " classes [";
    std::vector<size_t> counts = DatasetView(*this).ClassCounts();
    for (size_t c = 0; c < counts.size(); ++c) {
      if (c > 0) os << ", ";
      os << counts[c];
    }
    os << "]";
  }
  return os.str();
}

}  // namespace bhpo
