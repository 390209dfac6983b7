#ifndef BHPO_DATA_DATASET_H_
#define BHPO_DATA_DATASET_H_

#include <memory>
#include <string>
#include <vector>

#include "common/matrix.h"
#include "common/status.h"
#include "data/feature_order.h"

namespace bhpo {

enum class Task { kClassification, kRegression };

// In-memory supervised dataset: a dense feature matrix plus either integer
// class labels (classification) or real-valued targets (regression). This is
// the unit of currency between the data loaders, the samplers (budget =
// number of instances), the CV substrate and the models.
class Dataset {
 public:
  Dataset() : task_(Task::kClassification), num_classes_(0) {}

  // Labels must lie in [0, num_classes) and match features.rows().
  static Result<Dataset> Classification(Matrix features,
                                        std::vector<int> labels,
                                        int num_classes);
  // num_classes inferred as max(label) + 1.
  static Result<Dataset> Classification(Matrix features,
                                        std::vector<int> labels);
  static Result<Dataset> Regression(Matrix features,
                                    std::vector<double> targets);

  Task task() const { return task_; }
  bool is_classification() const { return task_ == Task::kClassification; }

  size_t n() const { return features_.rows(); }
  size_t num_features() const { return features_.cols(); }
  int num_classes() const { return num_classes_; }

  const Matrix& features() const { return features_; }
  // Valid only for classification datasets.
  const std::vector<int>& labels() const;
  // Valid only for regression datasets.
  const std::vector<double>& targets() const;

  int label(size_t i) const;
  double target(size_t i) const;

  // Every feature column sorted once (FeatureOrder), built by the first
  // call and shared by every copy of this dataset: features never change
  // after construction, so a copy's order is the original's. Thread-safe.
  const FeatureOrder& feature_order() const;

  // Gathers rows `indices` into a new dataset of the same task type.
  Dataset Subset(const std::vector<size_t>& indices) const;

  // Z-score standardization statistics computed over this dataset. Columns
  // with zero variance get stddev 1 so they map to 0.
  struct Standardizer {
    std::vector<double> mean;
    std::vector<double> stddev;
    // Applies the transform out-of-place.
    Matrix Apply(const Matrix& features) const;
  };
  Standardizer ComputeStandardizer() const;

  // Returns a copy with standardized features (fitting the standardizer on
  // this dataset).
  Dataset Standardized() const;

  std::string Summary() const;

 private:
  Task task_;
  Matrix features_;
  std::vector<int> labels_;      // classification
  std::vector<double> targets_;  // regression
  int num_classes_;
  std::shared_ptr<LazyFeatureOrder> feature_order_ =
      std::make_shared<LazyFeatureOrder>();
};

}  // namespace bhpo

#endif  // BHPO_DATA_DATASET_H_
