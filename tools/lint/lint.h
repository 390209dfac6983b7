#ifndef BHPO_TOOLS_LINT_LINT_H_
#define BHPO_TOOLS_LINT_LINT_H_

#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"

namespace bhpo {
namespace lint {

// ---------------------------------------------------------------------------
// bhpo_lint: repo-invariant checks for determinism and concurrency hygiene.
//
// The enhancements this repo reproduces (GenGroups/GenFolds, the Eq. 3
// variance-aware metric) only replay bit-exactly because every evaluation
// is a pure function of (run stream root, config hash, budget). That
// contract is easy to break with one stray std::random_device or an
// unordered_map iteration in a score loop, so these rules are enforced
// statically over src/, bench/ and tests/ rather than hoped for in review.
//
// Rules (ids are stable; fixture tests assert them):
//   random-device      std::random_device outside src/common/rng.*
//   libc-rand          rand()/srand() calls
//   time-seed          time(nullptr)/time(NULL)/time(0)
//   wallclock-now      ::now( wall-clock reads in score-path files (src/)
//   unseeded-mt19937   default-constructed std::mt19937[_64]
//   unordered-iteration  iterating an unordered_{map,set} in a score path
//   status-nodiscard   class Status / class Result declared without
//                      [[nodiscard]]
//   raw-new            raw `new` (use make_unique / containers)
//   raw-delete         raw `delete` (`= delete` is fine)
//   raw-thread         std::thread outside src/common/thread_pool.*
//   swallowed-catch    catch (...) whose body neither rethrows, returns,
//                      logs nor aborts — the exception vanishes
//   x86-intrinsics     an x86 intrinsics header (<immintrin.h>,
//                      <emmintrin.h>, <x86intrin.h>, ...) outside
//                      src/common/*_avx2.cc, the runtime-dispatched kernels;
//                      other code is portable (GCC/Clang vector extensions
//                      where it wants lanes)
//
// Suppression: `// bhpo-lint: allow(rule-a, rule-b)` on the offending
// line, or on a comment-only line immediately above it. A directory is
// skipped entirely when it contains a `.bhpo-lint-ignore` marker file
// (used by the lint's own violation fixtures under tests/tools/).
// ---------------------------------------------------------------------------

struct Finding {
  std::string rule;     // Stable rule id, e.g. "random-device".
  std::string file;     // Path label as supplied by the caller.
  int line = 0;         // 1-based.
  std::string message;  // Human-readable explanation.
};

struct Options {
  // Overrides score-path classification (wallclock-now and
  // unordered-iteration fire only on score paths). nullopt derives it
  // from the path label via IsScorePath. Fixture tests use the override
  // to lint non-src files as if they fed scores.
  std::optional<bool> score_path;
};

// Stable ids of every rule, in reporting order.
const std::vector<std::string>& RuleIds();

// True when `label` names a file on the score / fold-assignment path:
// anything under src/. bench/, tests/ and tools/ may read clocks and
// iterate unordered containers freely.
bool IsScorePath(std::string_view label);

// Lints one translation unit's text. `label` is used for reporting and
// (unless overridden) score-path classification.
std::vector<Finding> LintSource(std::string_view label,
                                std::string_view content,
                                const Options& options = {});

// Reads and lints one file; the path is the report label.
Result<std::vector<Finding>> LintFile(const std::string& path);

// Walks each root (file or directory, recursively; only .cc/.h files) and
// lints everything found, skipping directories that contain a
// `.bhpo-lint-ignore` marker. Findings are sorted (file, line, rule).
Result<std::vector<Finding>> LintTree(const std::vector<std::string>& roots);

// "file:line: [rule] message" — stable, grep- and editor-friendly.
std::string FormatFinding(const Finding& finding);

}  // namespace lint
}  // namespace bhpo

#endif  // BHPO_TOOLS_LINT_LINT_H_
