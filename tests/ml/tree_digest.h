#ifndef BHPO_TESTS_ML_TREE_DIGEST_H_
#define BHPO_TESTS_ML_TREE_DIGEST_H_

#include <bit>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "common/matrix.h"
#include "data/dataset.h"

namespace bhpo {

// 64-bit FNV-1a over the exact bits of what a tree fit produced. The tree
// lock tests compare such digests against recorded constants.
class Fnv1a {
 public:
  void Bytes(const void* data, size_t size) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (size_t i = 0; i < size; ++i) {
      hash_ ^= p[i];
      hash_ *= 1099511628211ULL;
    }
  }
  void U64(uint64_t v) { Bytes(&v, sizeof(v)); }
  void Double(double d) { U64(std::bit_cast<uint64_t>(d)); }
  void Text(const std::string& s) {
    U64(s.size());
    Bytes(s.data(), s.size());
  }
  void Matrix(const bhpo::Matrix& m) {
    U64(m.rows());
    U64(m.cols());
    for (double x : m.data()) Double(x);
  }
  void Values(const std::vector<double>& v) {
    U64(v.size());
    for (double x : v) Double(x);
  }
  void Labels(const std::vector<int>& v) {
    U64(v.size());
    for (int x : v) U64(static_cast<uint64_t>(static_cast<int64_t>(x)));
  }
  uint64_t value() const { return hash_; }

 private:
  uint64_t hash_ = 14695981039346656037ULL;
};

// Class probabilities (classification) or values (regression) of `model`
// on every row of `data`.
template <typename M>
void HashPredictions(const M& model, const Dataset& data, Fnv1a* h) {
  if (data.is_classification()) {
    h->Matrix(model.PredictProba(data.features()));
  } else {
    h->Values(model.PredictValues(data.features()));
  }
}

// A digest as a C++ literal, so a failing comparison prints the constant
// to record.
inline std::string Hex(uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "0x%016llxULL",
                static_cast<unsigned long long>(v));
  return buf;
}

}  // namespace bhpo

#endif  // BHPO_TESTS_ML_TREE_DIGEST_H_
