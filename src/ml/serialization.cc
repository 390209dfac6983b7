#include "ml/serialization.h"

#include <fstream>
#include <iomanip>
#include <istream>
#include <limits>
#include <ostream>
#include <sstream>

#include "ml/decision_tree.h"
#include "ml/gbdt.h"
#include "ml/mlp.h"
#include "ml/random_forest.h"

namespace bhpo {

namespace {

constexpr int kFormatVersion = 1;

void WriteDoublePrecision(std::ostream& out) {
  out << std::setprecision(std::numeric_limits<double>::max_digits10);
}

// Reads one whitespace-delimited token and checks it equals `expected`.
Status Expect(std::istream& in, const std::string& expected) {
  std::string token;
  if (!(in >> token)) {
    return Status::IoError("unexpected end of stream, wanted '" + expected +
                           "'");
  }
  if (token != expected) {
    return Status::InvalidArgument("expected '" + expected + "', got '" +
                                   token + "'");
  }
  return Status::OK();
}

template <typename T>
Status ReadValue(std::istream& in, const char* what, T* out) {
  if (!(in >> *out)) {
    return Status::IoError(std::string("failed to read ") + what);
  }
  return Status::OK();
}

Status WriteMatrix(std::ostream& out, const Matrix& m) {
  out << m.rows() << " " << m.cols() << "\n";
  for (size_t r = 0; r < m.rows(); ++r) {
    const double* p = m.Row(r);
    for (size_t c = 0; c < m.cols(); ++c) {
      if (c > 0) out << " ";
      out << p[c];
    }
    out << "\n";
  }
  return out ? Status::OK() : Status::IoError("matrix write failure");
}

Result<Matrix> ReadMatrix(std::istream& in) {
  size_t rows = 0, cols = 0;
  BHPO_RETURN_NOT_OK(ReadValue(in, "matrix rows", &rows));
  BHPO_RETURN_NOT_OK(ReadValue(in, "matrix cols", &cols));
  if (rows > 1u << 24 || cols > 1u << 24) {
    return Status::InvalidArgument("implausible matrix shape");
  }
  Matrix m(rows, cols);
  for (double& x : m.data()) {
    BHPO_RETURN_NOT_OK(ReadValue(in, "matrix entry", &x));
  }
  return m;
}

const char* TaskTag(Task task) {
  return task == Task::kClassification ? "classification" : "regression";
}

Result<Task> TaskFromTag(const std::string& tag) {
  if (tag == "classification") return Task::kClassification;
  if (tag == "regression") return Task::kRegression;
  return Status::InvalidArgument("unknown task tag '" + tag + "'");
}

}  // namespace

// ---------------------------------------------------------------- MLP ----

Status SaveMlp(const MlpModel& model, std::ostream& out) {
  if (!model.fitted_) {
    return Status::FailedPrecondition("cannot save an unfitted model");
  }
  WriteDoublePrecision(out);
  const MlpConfig& c = model.config_;
  out << "mlp\n";
  out << "task " << TaskTag(model.task_) << " " << model.num_outputs_ << "\n";
  out << "hidden " << c.hidden_layer_sizes.size();
  for (size_t h : c.hidden_layer_sizes) out << " " << h;
  out << "\n";
  out << "config " << ActivationToString(c.activation) << " "
      << SolverToString(c.solver) << " " << c.alpha << " " << c.batch_size
      << " " << ScheduleToString(c.learning_rate) << " "
      << c.learning_rate_init << " " << c.power_t << " " << c.max_iter << " "
      << c.tol << " " << c.momentum << " " << (c.nesterovs_momentum ? 1 : 0)
      << " " << (c.early_stopping ? 1 : 0) << " " << c.validation_fraction
      << " " << c.n_iter_no_change << " " << c.seed << "\n";
  out << "layers " << model.weights_.size() << "\n";
  for (size_t l = 0; l < model.weights_.size(); ++l) {
    BHPO_RETURN_NOT_OK(WriteMatrix(out, model.weights_[l]));
    BHPO_RETURN_NOT_OK(WriteMatrix(out, model.biases_[l]));
  }
  return out ? Status::OK() : Status::IoError("mlp write failure");
}

Result<std::unique_ptr<MlpModel>> LoadMlp(std::istream& in) {
  BHPO_RETURN_NOT_OK(Expect(in, "mlp"));
  BHPO_RETURN_NOT_OK(Expect(in, "task"));
  std::string task_tag;
  BHPO_RETURN_NOT_OK(ReadValue(in, "task", &task_tag));
  BHPO_ASSIGN_OR_RETURN(Task task, TaskFromTag(task_tag));
  size_t num_outputs = 0;
  BHPO_RETURN_NOT_OK(ReadValue(in, "num_outputs", &num_outputs));

  BHPO_RETURN_NOT_OK(Expect(in, "hidden"));
  size_t hidden_count = 0;
  BHPO_RETURN_NOT_OK(ReadValue(in, "hidden count", &hidden_count));
  if (hidden_count > 1024) {
    return Status::InvalidArgument("implausible hidden layer count");
  }
  MlpConfig config;
  config.hidden_layer_sizes.assign(hidden_count, 0);
  for (size_t& h : config.hidden_layer_sizes) {
    BHPO_RETURN_NOT_OK(ReadValue(in, "hidden size", &h));
  }

  BHPO_RETURN_NOT_OK(Expect(in, "config"));
  std::string activation, solver, schedule;
  int nesterov = 0, early = 0;
  BHPO_RETURN_NOT_OK(ReadValue(in, "activation", &activation));
  BHPO_ASSIGN_OR_RETURN(config.activation, ActivationFromString(activation));
  BHPO_RETURN_NOT_OK(ReadValue(in, "solver", &solver));
  BHPO_ASSIGN_OR_RETURN(config.solver, SolverFromString(solver));
  BHPO_RETURN_NOT_OK(ReadValue(in, "alpha", &config.alpha));
  BHPO_RETURN_NOT_OK(ReadValue(in, "batch_size", &config.batch_size));
  BHPO_RETURN_NOT_OK(ReadValue(in, "schedule", &schedule));
  BHPO_ASSIGN_OR_RETURN(config.learning_rate, ScheduleFromString(schedule));
  BHPO_RETURN_NOT_OK(ReadValue(in, "lr_init", &config.learning_rate_init));
  BHPO_RETURN_NOT_OK(ReadValue(in, "power_t", &config.power_t));
  BHPO_RETURN_NOT_OK(ReadValue(in, "max_iter", &config.max_iter));
  BHPO_RETURN_NOT_OK(ReadValue(in, "tol", &config.tol));
  BHPO_RETURN_NOT_OK(ReadValue(in, "momentum", &config.momentum));
  BHPO_RETURN_NOT_OK(ReadValue(in, "nesterov", &nesterov));
  BHPO_RETURN_NOT_OK(ReadValue(in, "early_stopping", &early));
  BHPO_RETURN_NOT_OK(
      ReadValue(in, "validation_fraction", &config.validation_fraction));
  BHPO_RETURN_NOT_OK(
      ReadValue(in, "n_iter_no_change", &config.n_iter_no_change));
  BHPO_RETURN_NOT_OK(ReadValue(in, "seed", &config.seed));
  config.nesterovs_momentum = nesterov != 0;
  config.early_stopping = early != 0;
  BHPO_RETURN_NOT_OK(config.Validate());

  size_t layers = 0;
  BHPO_RETURN_NOT_OK(Expect(in, "layers"));
  BHPO_RETURN_NOT_OK(ReadValue(in, "layer count", &layers));
  if (layers == 0 || layers > 1024) {
    return Status::InvalidArgument("implausible layer count");
  }

  auto model = std::make_unique<MlpModel>(config);
  model->task_ = task;
  model->num_outputs_ = num_outputs;
  for (size_t l = 0; l < layers; ++l) {
    BHPO_ASSIGN_OR_RETURN(Matrix w, ReadMatrix(in));
    BHPO_ASSIGN_OR_RETURN(Matrix b, ReadMatrix(in));
    if (b.rows() != 1 || b.cols() != w.cols()) {
      return Status::InvalidArgument("bias shape mismatch at layer " +
                                     std::to_string(l));
    }
    if (l > 0 && model->weights_.back().cols() != w.rows()) {
      return Status::InvalidArgument("weight shape mismatch at layer " +
                                     std::to_string(l));
    }
    model->weights_.push_back(std::move(w));
    model->biases_.push_back(std::move(b));
  }
  if (model->weights_.back().cols() != num_outputs) {
    return Status::InvalidArgument("output layer width != num_outputs");
  }
  model->fitted_ = true;
  return model;
}

// --------------------------------------------------------------- tree ----

Status SaveDecisionTree(const DecisionTree& tree, std::ostream& out) {
  if (!tree.fitted_) {
    return Status::FailedPrecondition("cannot save an unfitted model");
  }
  WriteDoublePrecision(out);
  out << "tree\n";
  out << "task " << TaskTag(tree.task_) << " " << tree.num_classes_ << "\n";
  const DecisionTreeConfig& c = tree.config_;
  out << "config " << c.max_depth << " " << c.min_samples_split << " "
      << c.min_samples_leaf << " " << c.max_features << " " << c.seed << "\n";
  out << "depth " << tree.depth_ << " nodes " << tree.nodes_.size() << "\n";
  for (const DecisionTree::Node& node : tree.nodes_) {
    out << node.feature << " " << node.threshold << " " << node.left << " "
        << node.right << " " << node.value.size();
    for (double v : node.value) out << " " << v;
    out << "\n";
  }
  return out ? Status::OK() : Status::IoError("tree write failure");
}

Result<std::unique_ptr<DecisionTree>> LoadDecisionTree(std::istream& in) {
  BHPO_RETURN_NOT_OK(Expect(in, "tree"));
  BHPO_RETURN_NOT_OK(Expect(in, "task"));
  std::string task_tag;
  BHPO_RETURN_NOT_OK(ReadValue(in, "task", &task_tag));
  BHPO_ASSIGN_OR_RETURN(Task task, TaskFromTag(task_tag));
  int num_classes = 0;
  BHPO_RETURN_NOT_OK(ReadValue(in, "num_classes", &num_classes));

  DecisionTreeConfig config;
  BHPO_RETURN_NOT_OK(Expect(in, "config"));
  BHPO_RETURN_NOT_OK(ReadValue(in, "max_depth", &config.max_depth));
  BHPO_RETURN_NOT_OK(
      ReadValue(in, "min_samples_split", &config.min_samples_split));
  BHPO_RETURN_NOT_OK(
      ReadValue(in, "min_samples_leaf", &config.min_samples_leaf));
  BHPO_RETURN_NOT_OK(ReadValue(in, "max_features", &config.max_features));
  BHPO_RETURN_NOT_OK(ReadValue(in, "seed", &config.seed));
  BHPO_RETURN_NOT_OK(config.Validate());
  if (task == Task::kClassification && num_classes < 2) {
    return Status::InvalidArgument("classification tree needs 2+ classes");
  }
  size_t leaf_size =
      task == Task::kClassification ? static_cast<size_t>(num_classes) : 1;

  auto tree = std::make_unique<DecisionTree>(config);
  tree->task_ = task;
  tree->num_classes_ = num_classes;
  BHPO_RETURN_NOT_OK(Expect(in, "depth"));
  BHPO_RETURN_NOT_OK(ReadValue(in, "depth", &tree->depth_));
  size_t node_count = 0;
  BHPO_RETURN_NOT_OK(Expect(in, "nodes"));
  BHPO_RETURN_NOT_OK(ReadValue(in, "node count", &node_count));
  if (node_count == 0 || node_count > 1u << 26) {
    return Status::InvalidArgument("implausible node count");
  }
  tree->nodes_.resize(node_count);
  for (size_t i = 0; i < node_count; ++i) {
    DecisionTree::Node& node = tree->nodes_[i];
    size_t value_count = 0;
    BHPO_RETURN_NOT_OK(ReadValue(in, "feature", &node.feature));
    BHPO_RETURN_NOT_OK(ReadValue(in, "threshold", &node.threshold));
    BHPO_RETURN_NOT_OK(ReadValue(in, "left", &node.left));
    BHPO_RETURN_NOT_OK(ReadValue(in, "right", &node.right));
    BHPO_RETURN_NOT_OK(ReadValue(in, "value count", &value_count));
    if (value_count > 1u << 20) {
      return Status::InvalidArgument("implausible leaf payload");
    }
    node.value.assign(value_count, 0.0);
    for (double& v : node.value) {
      BHPO_RETURN_NOT_OK(ReadValue(in, "leaf value", &v));
    }
    if (node.feature < -1) {
      return Status::InvalidArgument("split feature below -1");
    }
    if (node.feature >= 0) {
      // The builder writes nodes in pre-order, so children come after their
      // node and inside the array; every descent then ends at a leaf.
      auto follows = [&](int child) {
        return child > static_cast<int>(i) &&
               child < static_cast<int>(node_count);
      };
      if (!follows(node.left) || !follows(node.right)) {
        return Status::InvalidArgument("child index out of range");
      }
    } else if (node.value.size() != leaf_size) {
      return Status::InvalidArgument("leaf payload size != outputs");
    }
  }
  tree->fitted_ = true;
  return tree;
}

// -------------------------------------------------------------- forest ----

Status SaveRandomForest(const RandomForest& forest, std::ostream& out) {
  if (!forest.fitted_) {
    return Status::FailedPrecondition("cannot save an unfitted model");
  }
  WriteDoublePrecision(out);
  out << "forest\n";
  out << "task " << TaskTag(forest.task_) << " " << forest.num_classes_
      << "\n";
  const RandomForestConfig& c = forest.config_;
  out << "config " << c.num_trees << " " << (c.bootstrap ? 1 : 0) << " "
      << c.seed << "\n";
  out << "trees " << forest.trees_.size() << "\n";
  for (const auto& tree : forest.trees_) {
    BHPO_RETURN_NOT_OK(SaveDecisionTree(*tree, out));
  }
  return out ? Status::OK() : Status::IoError("forest write failure");
}

Result<std::unique_ptr<RandomForest>> LoadRandomForest(std::istream& in) {
  BHPO_RETURN_NOT_OK(Expect(in, "forest"));
  BHPO_RETURN_NOT_OK(Expect(in, "task"));
  std::string task_tag;
  BHPO_RETURN_NOT_OK(ReadValue(in, "task", &task_tag));
  BHPO_ASSIGN_OR_RETURN(Task task, TaskFromTag(task_tag));
  int num_classes = 0;
  BHPO_RETURN_NOT_OK(ReadValue(in, "num_classes", &num_classes));

  RandomForestConfig config;
  int bootstrap = 1;
  BHPO_RETURN_NOT_OK(Expect(in, "config"));
  BHPO_RETURN_NOT_OK(ReadValue(in, "num_trees", &config.num_trees));
  BHPO_RETURN_NOT_OK(ReadValue(in, "bootstrap", &bootstrap));
  BHPO_RETURN_NOT_OK(ReadValue(in, "seed", &config.seed));
  config.bootstrap = bootstrap != 0;

  size_t tree_count = 0;
  BHPO_RETURN_NOT_OK(Expect(in, "trees"));
  BHPO_RETURN_NOT_OK(ReadValue(in, "tree count", &tree_count));
  if (tree_count == 0 || tree_count > 1u << 16) {
    return Status::InvalidArgument("implausible tree count");
  }

  auto forest = std::make_unique<RandomForest>(config);
  forest->task_ = task;
  forest->num_classes_ = num_classes;
  for (size_t t = 0; t < tree_count; ++t) {
    BHPO_ASSIGN_OR_RETURN(std::unique_ptr<DecisionTree> tree,
                          LoadDecisionTree(in));
    if (tree->task() != task || tree->num_classes() != num_classes) {
      return Status::InvalidArgument("forest tree task != forest task");
    }
    forest->trees_.push_back(std::move(tree));
  }
  forest->fitted_ = true;
  return forest;
}


// ---------------------------------------------------------------- gbdt ----

Status SaveGbdt(const GbdtModel& model, std::ostream& out) {
  if (!model.fitted_) {
    return Status::FailedPrecondition("cannot save an unfitted model");
  }
  WriteDoublePrecision(out);
  out << "gbdt\n";
  out << "task " << TaskTag(model.task_) << " " << model.num_classes_
      << "\n";
  const GbdtConfig& c = model.config_;
  out << "config " << c.num_rounds << " " << c.learning_rate << " "
      << c.max_depth << " " << c.min_samples_leaf << " " << c.subsample
      << " " << c.seed << "\n";
  out << "base " << model.base_score_.size();
  for (double b : model.base_score_) out << " " << b;
  out << "\n";
  out << "stages " << model.stages_.size() << "\n";
  for (const auto& stage : model.stages_) {
    out << "stage " << stage.size() << "\n";
    for (const auto& tree : stage) {
      BHPO_RETURN_NOT_OK(SaveDecisionTree(*tree, out));
    }
  }
  return out ? Status::OK() : Status::IoError("gbdt write failure");
}

Result<std::unique_ptr<GbdtModel>> LoadGbdt(std::istream& in) {
  BHPO_RETURN_NOT_OK(Expect(in, "gbdt"));
  BHPO_RETURN_NOT_OK(Expect(in, "task"));
  std::string task_tag;
  BHPO_RETURN_NOT_OK(ReadValue(in, "task", &task_tag));
  BHPO_ASSIGN_OR_RETURN(Task task, TaskFromTag(task_tag));
  int num_classes = 0;
  BHPO_RETURN_NOT_OK(ReadValue(in, "num_classes", &num_classes));

  GbdtConfig config;
  BHPO_RETURN_NOT_OK(Expect(in, "config"));
  BHPO_RETURN_NOT_OK(ReadValue(in, "num_rounds", &config.num_rounds));
  BHPO_RETURN_NOT_OK(ReadValue(in, "learning_rate", &config.learning_rate));
  BHPO_RETURN_NOT_OK(ReadValue(in, "max_depth", &config.max_depth));
  BHPO_RETURN_NOT_OK(
      ReadValue(in, "min_samples_leaf", &config.min_samples_leaf));
  BHPO_RETURN_NOT_OK(ReadValue(in, "subsample", &config.subsample));
  BHPO_RETURN_NOT_OK(ReadValue(in, "seed", &config.seed));
  BHPO_RETURN_NOT_OK(config.Validate());

  auto model = std::make_unique<GbdtModel>(config);
  model->task_ = task;
  model->num_classes_ = num_classes;

  size_t base_count = 0;
  BHPO_RETURN_NOT_OK(Expect(in, "base"));
  BHPO_RETURN_NOT_OK(ReadValue(in, "base count", &base_count));
  if (base_count == 0 || base_count > 1u << 16) {
    return Status::InvalidArgument("implausible base score count");
  }
  model->base_score_.assign(base_count, 0.0);
  for (double& b : model->base_score_) {
    BHPO_RETURN_NOT_OK(ReadValue(in, "base score", &b));
  }

  size_t stage_count = 0;
  BHPO_RETURN_NOT_OK(Expect(in, "stages"));
  BHPO_RETURN_NOT_OK(ReadValue(in, "stage count", &stage_count));
  if (stage_count > 1u << 16) {
    return Status::InvalidArgument("implausible stage count");
  }
  for (size_t s = 0; s < stage_count; ++s) {
    size_t trees = 0;
    BHPO_RETURN_NOT_OK(Expect(in, "stage"));
    BHPO_RETURN_NOT_OK(ReadValue(in, "stage width", &trees));
    if (trees != base_count) {
      return Status::InvalidArgument("stage width != output count");
    }
    std::vector<std::unique_ptr<DecisionTree>> stage;
    for (size_t t = 0; t < trees; ++t) {
      BHPO_ASSIGN_OR_RETURN(std::unique_ptr<DecisionTree> tree,
                            LoadDecisionTree(in));
      if (tree->task() != Task::kRegression) {
        return Status::InvalidArgument("gbdt stage is not a regression tree");
      }
      stage.push_back(std::move(tree));
    }
    model->stages_.push_back(std::move(stage));
  }
  model->fitted_ = true;
  return model;
}

// ---------------------------------------------------------------- file ----

Status SaveModelToFile(const Model& model, const std::string& path) {
  std::ofstream out(path);
  if (!out) return Status::IoError("cannot open '" + path + "' for writing");
  out << "bhpo-model " << kFormatVersion << "\n";

  if (const auto* mlp = dynamic_cast<const MlpModel*>(&model)) {
    BHPO_RETURN_NOT_OK(SaveMlp(*mlp, out));
  } else if (const auto* forest =
                 dynamic_cast<const RandomForest*>(&model)) {
    BHPO_RETURN_NOT_OK(SaveRandomForest(*forest, out));
  } else if (const auto* gbdt = dynamic_cast<const GbdtModel*>(&model)) {
    BHPO_RETURN_NOT_OK(SaveGbdt(*gbdt, out));
  } else if (const auto* tree = dynamic_cast<const DecisionTree*>(&model)) {
    BHPO_RETURN_NOT_OK(SaveDecisionTree(*tree, out));
  } else {
    return Status::NotImplemented("unknown model type for serialization");
  }
  if (!out) return Status::IoError("write failure on '" + path + "'");
  return Status::OK();
}

Result<std::unique_ptr<Model>> LoadModelFromFile(const std::string& path) {
  std::ifstream in(path);
  if (!in) return Status::IoError("cannot open '" + path + "'");
  BHPO_RETURN_NOT_OK(Expect(in, "bhpo-model"));
  int version = 0;
  BHPO_RETURN_NOT_OK(ReadValue(in, "version", &version));
  if (version != kFormatVersion) {
    return Status::InvalidArgument("unsupported model format version " +
                                   std::to_string(version));
  }
  // Peek the type tag, then hand the stream (tag included) to the loader.
  std::string type;
  if (!(in >> type)) return Status::IoError("missing model type");
  for (auto it = type.rbegin(); it != type.rend(); ++it) in.putback(*it);

  if (type == "mlp") {
    BHPO_ASSIGN_OR_RETURN(std::unique_ptr<MlpModel> m, LoadMlp(in));
    return std::unique_ptr<Model>(std::move(m));
  }
  if (type == "forest") {
    BHPO_ASSIGN_OR_RETURN(std::unique_ptr<RandomForest> m,
                          LoadRandomForest(in));
    return std::unique_ptr<Model>(std::move(m));
  }
  if (type == "gbdt") {
    BHPO_ASSIGN_OR_RETURN(std::unique_ptr<GbdtModel> m, LoadGbdt(in));
    return std::unique_ptr<Model>(std::move(m));
  }
  if (type == "tree") {
    BHPO_ASSIGN_OR_RETURN(std::unique_ptr<DecisionTree> m,
                          LoadDecisionTree(in));
    return std::unique_ptr<Model>(std::move(m));
  }
  return Status::InvalidArgument("unknown model type '" + type + "'");
}

}  // namespace bhpo
