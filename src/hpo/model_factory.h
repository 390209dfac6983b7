#ifndef BHPO_HPO_MODEL_FACTORY_H_
#define BHPO_HPO_MODEL_FACTORY_H_

#include <cstdint>
#include <memory>
#include <variant>

#include "common/status.h"
#include "cv/cross_validate.h"
#include "hpo/configuration.h"
#include "ml/mlp.h"
#include "ml/gbdt.h"
#include "ml/random_forest.h"

namespace bhpo {

// The one path from a configuration to a model. ModelSpecFromConfiguration
// resolves the model family and its settings once, through the
// *ConfigFromConfiguration translators below; BuildModel then makes any
// number of untrained models from that value, each at a seed of the
// caller's choosing. The final model of a search is built at
// FactoryOptions::seed (EvaluateFinalConfig, the CLI's --save-model), and
// cross-validation builds fold f's model at MixSeed(FactoryOptions::seed, f)
// (MakeFoldModelFactory).

// Training knobs that are fixed per experiment rather than searched over.
struct FactoryOptions {
  // Epoch / iteration budget per model fit. The paper uses scikit-learn
  // defaults (200); we default lower for the scaled-down benches.
  int max_iter = 60;
  uint64_t seed = 0;
};

// Translates a Table III configuration into an MlpConfig. Hyperparameters
// absent from the configuration keep scikit-learn's defaults, so truncated
// spaces (Figure 4's 1..8 hyperparameter sweep) work unchanged. Fails on
// unparsable values (e.g. a malformed hidden_layer_sizes tuple).
Result<MlpConfig> MlpConfigFromConfiguration(const Configuration& config,
                                             const FactoryOptions& options);

// Parses "(30,30)"-style tuples (parentheses optional).
Result<std::vector<size_t>> ParseHiddenLayers(const std::string& text);

// Translates a configuration into a random-forest config. Recognized
// hyperparameters: num_trees, max_depth, min_samples_leaf, max_features
// (all integers; absent ones keep the defaults).
Result<RandomForestConfig> RandomForestConfigFromConfiguration(
    const Configuration& config, const FactoryOptions& options);

// Translates a configuration into a GBDT config. Recognized
// hyperparameters: num_rounds, max_depth, min_samples_leaf (integers),
// learning_rate_init, subsample (doubles).
Result<GbdtConfig> GbdtConfigFromConfiguration(const Configuration& config,
                                               const FactoryOptions& options);

// A configuration resolved to one model family and its settings.
using ModelSpec = std::variant<MlpConfig, RandomForestConfig, GbdtConfig>;

// Model-family dispatch: the optional "model" hyperparameter selects
// "mlp" (default), "random_forest" or "gbdt", so a single search space can
// span model families (the CASH setting mentioned in Section II-A). An
// invalid configuration fails here, before any model is built.
Result<ModelSpec> ModelSpecFromConfiguration(const Configuration& config,
                                             const FactoryOptions& options);

// A fresh untrained model of the resolved family, seeded with `seed`. A
// non-null `pool` (not owned; it must outlive the model's fits) lets a
// random forest grow its trees, and a GBDT each round's per-class trees, in
// parallel; the fitted model is bit-identical at any pool size. The pool
// is an argument of the fit, not a hyperparameter: it is not part of the
// spec and is never serialized. The MLP ignores it.
std::unique_ptr<Model> BuildModel(const ModelSpec& spec, uint64_t seed,
                                  ThreadPool* pool = nullptr);

// Cross-validation's factory: the configuration is resolved once, then
// fold f's model is built at MixSeed(options.seed, f) on `pool`. Seeds
// depend only on (options.seed, fold), never on which thread evaluates the
// fold, so fold-parallel CV reproduces the serial result exactly.
Result<FoldModelFactory> MakeFoldModelFactory(const Configuration& config,
                                              const FactoryOptions& options,
                                              ThreadPool* pool = nullptr);

}  // namespace bhpo

#endif  // BHPO_HPO_MODEL_FACTORY_H_
