#include "hpo/model_factory.h"

#include <memory>
#include <type_traits>

#include "common/rng.h"
#include "common/strings.h"

namespace bhpo {

Result<std::vector<size_t>> ParseHiddenLayers(const std::string& text) {
  std::string inner(StripWhitespace(text));
  if (!inner.empty() && inner.front() == '(') {
    if (inner.back() != ')') {
      return Status::InvalidArgument("unbalanced parentheses in '" + text +
                                     "'");
    }
    inner = inner.substr(1, inner.size() - 2);
  }
  std::vector<size_t> sizes;
  for (const std::string& token : Split(inner, ',')) {
    std::string_view trimmed = StripWhitespace(token);
    if (trimmed.empty()) continue;  // Tolerates "(30,)".
    BHPO_ASSIGN_OR_RETURN(int v, ParseInt(trimmed));
    if (v <= 0) {
      return Status::InvalidArgument("hidden layer size must be positive");
    }
    sizes.push_back(static_cast<size_t>(v));
  }
  if (sizes.empty()) {
    return Status::InvalidArgument("empty hidden_layer_sizes '" + text + "'");
  }
  return sizes;
}

Result<MlpConfig> MlpConfigFromConfiguration(const Configuration& config,
                                             const FactoryOptions& options) {
  MlpConfig mlp;
  mlp.max_iter = options.max_iter;
  mlp.seed = options.seed;
  // scikit-learn defaults for anything not searched over.
  mlp.hidden_layer_sizes = {100};
  mlp.activation = Activation::kRelu;
  mlp.solver = Solver::kAdam;
  mlp.learning_rate_init = 0.001;
  mlp.batch_size = 0;  // auto
  mlp.learning_rate = LearningRateSchedule::kConstant;
  mlp.momentum = 0.9;
  mlp.early_stopping = false;

  if (config.Has("hidden_layer_sizes")) {
    BHPO_ASSIGN_OR_RETURN(std::string text, config.Get("hidden_layer_sizes"));
    BHPO_ASSIGN_OR_RETURN(mlp.hidden_layer_sizes, ParseHiddenLayers(text));
  }
  if (config.Has("activation")) {
    BHPO_ASSIGN_OR_RETURN(std::string text, config.Get("activation"));
    BHPO_ASSIGN_OR_RETURN(mlp.activation, ActivationFromString(text));
  }
  if (config.Has("solver")) {
    BHPO_ASSIGN_OR_RETURN(std::string text, config.Get("solver"));
    BHPO_ASSIGN_OR_RETURN(mlp.solver, SolverFromString(text));
  }
  if (config.Has("learning_rate_init")) {
    BHPO_ASSIGN_OR_RETURN(std::string text, config.Get("learning_rate_init"));
    BHPO_ASSIGN_OR_RETURN(mlp.learning_rate_init, ParseDouble(text));
    if (!(0.0 < mlp.learning_rate_init)) {
      return Status::InvalidArgument("learning_rate_init must be positive");
    }
  }
  if (config.Has("batch_size")) {
    BHPO_ASSIGN_OR_RETURN(std::string text, config.Get("batch_size"));
    BHPO_ASSIGN_OR_RETURN(int batch, ParseInt(text));
    if (batch <= 0) {
      return Status::InvalidArgument("batch_size must be positive");
    }
    mlp.batch_size = static_cast<size_t>(batch);
  }
  if (config.Has("learning_rate")) {
    BHPO_ASSIGN_OR_RETURN(std::string text, config.Get("learning_rate"));
    BHPO_ASSIGN_OR_RETURN(mlp.learning_rate, ScheduleFromString(text));
  }
  if (config.Has("momentum")) {
    BHPO_ASSIGN_OR_RETURN(std::string text, config.Get("momentum"));
    BHPO_ASSIGN_OR_RETURN(mlp.momentum, ParseDouble(text));
    if (!(0.0 <= mlp.momentum && mlp.momentum < 1.0)) {
      return Status::InvalidArgument("momentum must be in [0, 1)");
    }
  }
  if (config.Has("early_stopping")) {
    BHPO_ASSIGN_OR_RETURN(std::string text, config.Get("early_stopping"));
    if (text == "true" || text == "True") {
      mlp.early_stopping = true;
    } else if (text == "false" || text == "False") {
      mlp.early_stopping = false;
    } else {
      return Status::InvalidArgument("early_stopping must be true/false, got '" +
                                     text + "'");
    }
  }
  BHPO_RETURN_NOT_OK(mlp.Validate());
  return mlp;
}

namespace {

// Parses an optional positive-integer hyperparameter into *out.
Status ParsePositiveInt(const Configuration& config, const std::string& name,
                        int* out) {
  if (!config.Has(name)) return Status::OK();
  BHPO_ASSIGN_OR_RETURN(std::string text, config.Get(name));
  BHPO_ASSIGN_OR_RETURN(int value, ParseInt(text));
  if (value <= 0) {
    return Status::InvalidArgument(name + " must be positive");
  }
  *out = value;
  return Status::OK();
}

// A translator's result as a ModelSpec.
template <typename Config>
Result<ModelSpec> Spec(Result<Config> config) {
  if (!config.ok()) return config.status();
  return ModelSpec(std::move(config).value());
}

}  // namespace

Result<RandomForestConfig> RandomForestConfigFromConfiguration(
    const Configuration& config, const FactoryOptions& options) {
  RandomForestConfig rf;
  rf.seed = options.seed;
  BHPO_RETURN_NOT_OK(ParsePositiveInt(config, "num_trees", &rf.num_trees));
  BHPO_RETURN_NOT_OK(ParsePositiveInt(config, "max_depth",
                                      &rf.tree.max_depth));
  BHPO_RETURN_NOT_OK(ParsePositiveInt(config, "min_samples_leaf",
                                      &rf.tree.min_samples_leaf));
  BHPO_RETURN_NOT_OK(ParsePositiveInt(config, "max_features",
                                      &rf.tree.max_features));
  BHPO_RETURN_NOT_OK(rf.Validate());
  return rf;
}

Result<GbdtConfig> GbdtConfigFromConfiguration(
    const Configuration& config, const FactoryOptions& options) {
  GbdtConfig gbdt;
  gbdt.seed = options.seed;
  BHPO_RETURN_NOT_OK(ParsePositiveInt(config, "num_rounds",
                                      &gbdt.num_rounds));
  BHPO_RETURN_NOT_OK(ParsePositiveInt(config, "max_depth", &gbdt.max_depth));
  BHPO_RETURN_NOT_OK(ParsePositiveInt(config, "min_samples_leaf",
                                      &gbdt.min_samples_leaf));
  if (config.Has("learning_rate_init")) {
    BHPO_ASSIGN_OR_RETURN(std::string text, config.Get("learning_rate_init"));
    BHPO_ASSIGN_OR_RETURN(gbdt.learning_rate, ParseDouble(text));
  }
  if (config.Has("subsample")) {
    BHPO_ASSIGN_OR_RETURN(std::string text, config.Get("subsample"));
    BHPO_ASSIGN_OR_RETURN(gbdt.subsample, ParseDouble(text));
  }
  BHPO_RETURN_NOT_OK(gbdt.Validate());
  return gbdt;
}

Result<ModelSpec> ModelSpecFromConfiguration(const Configuration& config,
                                             const FactoryOptions& options) {
  std::string family = config.GetOr("model", "mlp");
  if (family == "mlp") return Spec(MlpConfigFromConfiguration(config, options));
  if (family == "random_forest") {
    return Spec(RandomForestConfigFromConfiguration(config, options));
  }
  if (family == "gbdt") {
    return Spec(GbdtConfigFromConfiguration(config, options));
  }
  return Status::InvalidArgument("unknown model family '" + family + "'");
}

std::unique_ptr<Model> BuildModel(const ModelSpec& spec, uint64_t seed,
                                  ThreadPool* pool) {
  return std::visit(
      [seed, pool](auto config) -> std::unique_ptr<Model> {
        using Config = decltype(config);
        config.seed = seed;
        if constexpr (std::is_same_v<Config, MlpConfig>) {
          return std::make_unique<MlpModel>(std::move(config));
        } else if constexpr (std::is_same_v<Config, RandomForestConfig>) {
          return std::make_unique<RandomForest>(std::move(config), pool);
        } else {
          static_assert(std::is_same_v<Config, GbdtConfig>);
          return std::make_unique<GbdtModel>(std::move(config), pool);
        }
      },
      spec);
}

Result<FoldModelFactory> MakeFoldModelFactory(const Configuration& config,
                                              const FactoryOptions& options,
                                              ThreadPool* pool) {
  BHPO_ASSIGN_OR_RETURN(ModelSpec spec,
                        ModelSpecFromConfiguration(config, options));
  return FoldModelFactory(
      [spec = std::move(spec), base_seed = options.seed, pool](size_t fold) {
        return BuildModel(spec, MixSeed(base_seed, fold), pool);
      });
}

}  // namespace bhpo
