// Bit-exactness lockdown for the vectorized gather: for any composition of
// DatasetViews, GatherFeatures (run-coalescing + optional AVX2) must
// produce a byte-identical matrix to the historical per-row scalar loop,
// and the tree index's column store (SortedColumns) must hold exactly the
// same doubles transposed. "Byte-identical" is memcmp over the raw storage —
// not EXPECT_DOUBLE_EQ — because the evaluation cache and every
// determinism guarantee downstream assume gathers never perturb a bit.

#include <cstring>
#include <vector>

#include <gtest/gtest.h>

#include "common/gather.h"
#include "common/rng.h"
#include "data/dataset_view.h"
#include "data/synthetic.h"
#include "ml/sorted_columns.h"
#include "tests/common/scoped_simd.h"

namespace bhpo {
namespace {

Dataset MakeData(size_t n, size_t d, uint64_t seed) {
  BlobsSpec spec;
  spec.n = n;
  spec.num_features = d;
  spec.num_classes = 3;
  spec.seed = seed;
  return MakeBlobs(spec).value();
}

// The pre-kernel GatherFeatures body, verbatim: one memcpy per view row.
Matrix ScalarGatherReference(const DatasetView& view) {
  size_t d = view.num_features();
  Matrix out(view.n(), d);
  for (size_t i = 0; i < view.n(); ++i) {
    std::memcpy(out.Row(i), view.parent().features().Row(view.parent_index(i)),
                d * sizeof(double));
  }
  return out;
}

void ExpectByteIdenticalGathers(const DatasetView& view, const char* label) {
  Matrix reference = ScalarGatherReference(view);

  for (bool simd : {false, true}) {
    ScopedSimd scoped(simd);
    Matrix gathered = view.GatherFeatures();
    ASSERT_EQ(gathered.rows(), reference.rows()) << label;
    ASSERT_EQ(gathered.cols(), reference.cols()) << label;
    // An empty matrix's data() may be null, which memcmp must never see.
    if (reference.empty()) continue;
    ASSERT_EQ(0, std::memcmp(gathered.data().data(), reference.data().data(),
                             reference.size() * sizeof(double)))
        << label << " simd=" << simd;
  }

  // SortedColumns indexes non-empty views only.
  if (view.n() == 0) return;
  SortedColumns index = SortedColumns::Build(view).value();
  ASSERT_EQ(index.rows(), reference.rows()) << label;
  ASSERT_EQ(index.cols(), reference.cols()) << label;
  for (size_t c = 0; c < reference.cols(); ++c) {
    const double* column = index.Column(c);
    for (size_t r = 0; r < reference.rows(); ++r) {
      // Exact equality of bits, via doubles that compare == iff their bit
      // patterns match here (no NaNs in synthetic data).
      ASSERT_EQ(column[r], reference(r, c)) << label << " @ " << r << "," << c;
    }
  }
}

TEST(GatherBitExactTest, FullRangeIdentityView) {
  Dataset data = MakeData(97, 11, 1);
  // Explicit 0..n-1 index table (NOT the indexless full view, which
  // returns the parent matrix without gathering).
  std::vector<size_t> all(data.n());
  for (size_t i = 0; i < data.n(); ++i) all[i] = i;
  ExpectByteIdenticalGathers(DatasetView(data, all), "identity");
}

TEST(GatherBitExactTest, EmptyView) {
  Dataset data = MakeData(50, 7, 2);
  ExpectByteIdenticalGathers(DatasetView(data, {}), "empty");
}

TEST(GatherBitExactTest, SingleRowView) {
  Dataset data = MakeData(50, 7, 3);
  ExpectByteIdenticalGathers(DatasetView(data, {31}), "single");
}

TEST(GatherBitExactTest, DuplicateIndices) {
  Dataset data = MakeData(50, 7, 4);
  ExpectByteIdenticalGathers(DatasetView(data, {8, 8, 8, 2, 49, 2, 0, 0}),
                             "duplicates");
}

TEST(GatherBitExactTest, SortedRunsLikeFoldComplements) {
  Dataset data = MakeData(200, 13, 5);
  // A sorted index list with one contiguous block removed — the exact shape
  // of a CV fold complement, where run coalescing does the most work.
  std::vector<size_t> indices;
  for (size_t i = 0; i < data.n(); ++i) {
    if (i < 60 || i >= 80) indices.push_back(i);
  }
  ExpectByteIdenticalGathers(DatasetView(data, indices), "fold-complement");
}

TEST(GatherBitExactTest, NestedViewOfCompositions) {
  Dataset data = MakeData(120, 9, 6);
  std::vector<size_t> outer;
  for (size_t i = 0; i < data.n(); i += 2) outer.push_back(i);
  DatasetView level1 = DatasetView(data).ViewOf(outer);

  std::vector<size_t> mid = {50, 0, 3, 3, 17, 59, 21};
  DatasetView level2 = level1.ViewOf(mid);
  ExpectByteIdenticalGathers(level2, "nested-2");

  DatasetView level3 = level2.ViewOf(std::vector<size_t>{6, 6, 0, 2});
  ExpectByteIdenticalGathers(level3, "nested-3");
}

TEST(GatherBitExactTest, RandomizedCompositions) {
  Rng rng(99);
  for (int trial = 0; trial < 30; ++trial) {
    size_t n = 20 + rng.UniformIndex(150);
    size_t d = 1 + rng.UniformIndex(40);
    Dataset data = MakeData(n, d, 1000 + static_cast<uint64_t>(trial));

    DatasetView view(data);
    size_t depth = 1 + rng.UniformIndex(3);
    for (size_t level = 0; level < depth && view.n() > 0; ++level) {
      // Anywhere from empty to oversampled (bootstrap-style) selections,
      // sorted half the time so both the coalesced and the scattered
      // kernel paths are hit.
      size_t count = rng.UniformIndex(view.n() + 10);
      std::vector<size_t> indices(count);
      if (rng.UniformIndex(2) == 0) {
        for (size_t& idx : indices) idx = rng.UniformIndex(view.n());
      } else {
        size_t start = rng.UniformIndex(view.n());
        for (size_t i = 0; i < count; ++i) {
          indices[i] = (start + i) % view.n();  // Mostly-contiguous runs.
        }
      }
      view = view.ViewOf(std::move(indices));
    }
    ExpectByteIdenticalGathers(view, "randomized");
  }
}

}  // namespace
}  // namespace bhpo
