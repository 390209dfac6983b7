// bhpo_lint's own coverage: every rule proven to fire on a fixture with
// the exact rule id and line number, suppression and classification
// semantics locked down, and a clean-tree run over src/ asserting the
// real code carries zero findings (the same gate scripts/check.sh runs).
#include <algorithm>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "tools/lint/lint.h"

#ifndef BHPO_SOURCE_DIR
#error "BHPO_SOURCE_DIR must be defined by the build"
#endif

namespace bhpo {
namespace lint {
namespace {

std::string FixturePath(const std::string& name) {
  return std::string(BHPO_SOURCE_DIR) + "/tests/tools/lint_fixtures/" + name;
}

std::string ReadFixture(const std::string& name) {
  std::ifstream in(FixturePath(name));
  EXPECT_TRUE(in.good()) << "missing fixture " << name;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

using RuleLine = std::pair<std::string, int>;

std::vector<RuleLine> RuleLines(const std::vector<Finding>& findings) {
  std::vector<RuleLine> out;
  out.reserve(findings.size());
  for (const Finding& f : findings) out.emplace_back(f.rule, f.line);
  return out;
}

TEST(LintFixtureTest, NondeterminismPrimitives) {
  std::vector<Finding> findings =
      LintSource("fixture/nondeterminism.cc", ReadFixture("nondeterminism.cc"));
  EXPECT_EQ(RuleLines(findings),
            (std::vector<RuleLine>{{"random-device", 6},
                                   {"libc-rand", 7},
                                   {"libc-rand", 8},
                                   {"time-seed", 9},
                                   {"unseeded-mt19937", 10},
                                   {"unseeded-mt19937", 11},
                                   {"unseeded-mt19937", 13}}));
}

TEST(LintFixtureTest, WallclockFiresOnlyOnScorePaths) {
  std::string content = ReadFixture("wallclock.cc");
  Options score;
  score.score_path = true;
  EXPECT_EQ(RuleLines(LintSource("fixture/wallclock.cc", content, score)),
            (std::vector<RuleLine>{{"wallclock-now", 6},
                                   {"wallclock-now", 9}}));
  Options bench;
  bench.score_path = false;
  EXPECT_TRUE(LintSource("fixture/wallclock.cc", content, bench).empty());
}

TEST(LintFixtureTest, UnorderedIterationFiresOnlyOnScorePaths) {
  std::string content = ReadFixture("unordered_iter.cc");
  Options score;
  score.score_path = true;
  EXPECT_EQ(RuleLines(LintSource("fixture/unordered_iter.cc", content, score)),
            (std::vector<RuleLine>{{"unordered-iteration", 13},
                                   {"unordered-iteration", 14}}));
  Options bench;
  bench.score_path = false;
  EXPECT_TRUE(
      LintSource("fixture/unordered_iter.cc", content, bench).empty());
}

TEST(LintFixtureTest, StatusWithoutNodiscard) {
  std::vector<Finding> findings = LintSource(
      "fixture/status_nodiscard.h", ReadFixture("status_nodiscard.h"));
  EXPECT_EQ(RuleLines(findings),
            (std::vector<RuleLine>{{"status-nodiscard", 7},
                                   {"status-nodiscard", 13}}));
}

TEST(LintFixtureTest, RawNewDelete) {
  std::vector<Finding> findings =
      LintSource("fixture/raw_memory.cc", ReadFixture("raw_memory.cc"));
  EXPECT_EQ(RuleLines(findings),
            (std::vector<RuleLine>{{"raw-new", 9},
                                   {"raw-delete", 11},
                                   {"raw-delete", 13}}));
}

TEST(LintFixtureTest, RawThread) {
  std::vector<Finding> findings =
      LintSource("fixture/raw_thread.cc", ReadFixture("raw_thread.cc"));
  EXPECT_EQ(RuleLines(findings),
            (std::vector<RuleLine>{{"raw-thread", 5}, {"raw-thread", 10}}));
}

TEST(LintFixtureTest, SwallowedCatch) {
  std::vector<Finding> findings = LintSource("fixture/swallowed_catch.cc",
                                             ReadFixture("swallowed_catch.cc"));
  // The rethrowing, returning, and allow-annotated catch-alls stay silent;
  // the empty body and the comment-only body (comments are blanked before
  // matching) both fire.
  EXPECT_EQ(RuleLines(findings),
            (std::vector<RuleLine>{{"swallowed-catch", 6},
                                   {"swallowed-catch", 13}}));
}

TEST(LintFixtureTest, X86IntrinsicsOutsideTheAvx2Kernels) {
  std::string content = ReadFixture("x86_intrinsics.cc");
  EXPECT_EQ(RuleLines(LintSource("fixture/x86_intrinsics.cc", content)),
            (std::vector<RuleLine>{{"x86-intrinsics", 2},
                                   {"x86-intrinsics", 3},
                                   {"x86-intrinsics", 4}}));
  // The runtime-dispatched kernels are the one home of intrinsics.
  EXPECT_TRUE(LintSource("src/common/matmul_avx2.cc", content).empty());
  EXPECT_TRUE(
      LintSource("/abs/path/src/common/gather_avx2.cc", content).empty());
  EXPECT_EQ(LintSource("src/common/matrix.cc", content).size(), 3u);
  EXPECT_EQ(LintSource("src/ml/decision_tree_avx2.cc", content).size(), 3u);
  EXPECT_EQ(LintSource("src/common/matmul_avx2.h", content).size(), 3u);
}

TEST(LintFixtureTest, CleanFixtureHasNoFindings) {
  Options score;
  score.score_path = true;  // Strictest classification.
  EXPECT_TRUE(
      LintSource("fixture/clean.cc", ReadFixture("clean.cc"), score).empty());
}

TEST(LintFixtureTest, EveryFixtureRuleIsRegistered) {
  const std::vector<std::string>& ids = RuleIds();
  for (const char* rule :
       {"random-device", "libc-rand", "time-seed", "wallclock-now",
        "unseeded-mt19937", "unordered-iteration", "status-nodiscard",
        "raw-new", "raw-delete", "raw-thread", "swallowed-catch",
        "x86-intrinsics"}) {
    EXPECT_NE(std::find(ids.begin(), ids.end(), rule), ids.end())
        << rule << " missing from RuleIds()";
  }
}

TEST(LintDirectiveTest, AllowFileSuppressesEverywhere) {
  std::string src =
      "// bhpo-lint: allow-file(raw-new)\n"
      "int* A() { return new int(1); }\n"
      "int* B() { return new int(2); }\n";
  EXPECT_TRUE(LintSource("x.cc", src).empty());
}

TEST(LintDirectiveTest, AllowOnlySuppressesNamedRule) {
  std::string src =
      "#include <thread>\n"
      "void F() {\n"
      "  std::thread t([] {});  // bhpo-lint: allow(raw-new)\n"
      "}\n";
  std::vector<Finding> findings = LintSource("x.cc", src);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "raw-thread");
  EXPECT_EQ(findings[0].line, 3);
}

TEST(LintDirectiveTest, CommentOnlyLineGuardsNextLine) {
  std::string src =
      "// bhpo-lint: allow(raw-new)\n"
      "int* A() { return new int(1); }\n"
      "int* B() { return new int(2); }\n";
  std::vector<Finding> findings = LintSource("x.cc", src);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].line, 3);
}

TEST(LintClassificationTest, ScorePathDerivedFromLabel) {
  EXPECT_TRUE(IsScorePath("src/hpo/sha.cc"));
  EXPECT_TRUE(IsScorePath("/root/repo/src/cv/folds.cc"));
  EXPECT_FALSE(IsScorePath("bench/micro_gather.cc"));
  EXPECT_FALSE(IsScorePath("tests/common/rng_test.cc"));
  EXPECT_FALSE(IsScorePath("tools/bhpo_lint.cc"));
}

TEST(LintClassificationTest, RngHomeMayUseRandomDevice) {
  std::string src = "#include <random>\nstd::random_device g_device;\n";
  EXPECT_TRUE(LintSource("src/common/rng.cc", src).empty());
  EXPECT_FALSE(LintSource("src/hpo/sha.cc", src).empty());
}

TEST(LintClassificationTest, ThreadPoolHomeMayUseStdThread) {
  std::string src = "#include <thread>\nstd::thread t;\n";
  EXPECT_TRUE(LintSource("src/common/thread_pool.cc", src).empty());
  EXPECT_FALSE(LintSource("src/hpo/asha.cc", src).empty());
}

TEST(LintFormatTest, FindingFormatIsStable) {
  Finding f{"raw-new", "src/foo.cc", 12, "raw `new`"};
  EXPECT_EQ(FormatFinding(f), "src/foo.cc:12: [raw-new] raw `new`");
}

TEST(LintTreeTest, SrcTreeIsClean) {
  Result<std::vector<Finding>> findings =
      LintTree({std::string(BHPO_SOURCE_DIR) + "/src"});
  ASSERT_TRUE(findings.ok()) << findings.status().ToString();
  for (const Finding& f : *findings) {
    ADD_FAILURE() << FormatFinding(f);
  }
}

TEST(LintTreeTest, FixtureDirectoryIsSkippedViaMarker) {
  // The fixtures deliberately violate every rule, but their directory
  // carries .bhpo-lint-ignore, so walking it (or any parent) yields
  // nothing from it.
  Result<std::vector<Finding>> direct =
      LintTree({std::string(BHPO_SOURCE_DIR) + "/tests/tools/lint_fixtures"});
  ASSERT_TRUE(direct.ok());
  EXPECT_TRUE(direct->empty());

  Result<std::vector<Finding>> parent =
      LintTree({std::string(BHPO_SOURCE_DIR) + "/tests/tools"});
  ASSERT_TRUE(parent.ok());
  for (const Finding& f : *parent) {
    EXPECT_EQ(f.file.find("lint_fixtures"), std::string::npos)
        << FormatFinding(f);
  }
}

TEST(LintTreeTest, MissingRootIsAnError) {
  Result<std::vector<Finding>> findings =
      LintTree({std::string(BHPO_SOURCE_DIR) + "/no/such/dir"});
  EXPECT_FALSE(findings.ok());
  EXPECT_EQ(findings.status().code(), StatusCode::kNotFound);
}

TEST(LintTreeTest, SingleFileRootIsLinted) {
  Result<std::vector<Finding>> findings =
      LintTree({FixturePath("raw_thread.cc")});
  ASSERT_TRUE(findings.ok());
  EXPECT_EQ(findings->size(), 2u);
}

}  // namespace
}  // namespace lint
}  // namespace bhpo
