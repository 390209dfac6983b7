#include "tools/lint/lint.h"

#include <algorithm>
#include <cctype>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <regex>
#include <set>
#include <sstream>
#include <tuple>

#include "common/strings.h"

namespace bhpo {
namespace lint {
namespace {

bool IsWordChar(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
}

bool EndsWith(std::string_view text, std::string_view suffix) {
  return text.size() >= suffix.size() &&
         text.substr(text.size() - suffix.size()) == suffix;
}

// ---------------------------------------------------------------------------
// Source preprocessing: blank out comments, string and character literals
// (preserving length and newlines) so the rule matchers never fire on
// documentation or literal text. Raw strings R"delim(...)delim" are
// handled so a fixture can embed violation text safely.
// ---------------------------------------------------------------------------
std::string BlankCommentsAndLiterals(std::string_view src) {
  std::string out(src);
  enum class State { kCode, kLineComment, kBlockComment, kString, kChar };
  State state = State::kCode;
  std::string raw_delim;  // Non-empty while inside a raw string literal.
  for (size_t i = 0; i < src.size(); ++i) {
    char c = src[i];
    char next = i + 1 < src.size() ? src[i + 1] : '\0';
    switch (state) {
      case State::kCode:
        if (c == '/' && next == '/') {
          state = State::kLineComment;
          out[i] = ' ';
        } else if (c == '/' && next == '*') {
          state = State::kBlockComment;
          out[i] = ' ';
        } else if (c == '"') {
          // Raw string? Look back for R (optionally prefixed u8/u/U/L).
          size_t j = i;
          bool raw = j > 0 && src[j - 1] == 'R' &&
                     (j < 2 || !IsWordChar(src[j - 2]) || src[j - 2] == '8' ||
                      src[j - 2] == 'u' || src[j - 2] == 'U' ||
                      src[j - 2] == 'L');
          if (raw) {
            raw_delim.clear();
            size_t k = i + 1;
            while (k < src.size() && src[k] != '(') {
              raw_delim.push_back(src[k]);
              ++k;
            }
            raw_delim = ")" + raw_delim + "\"";
          }
          state = State::kString;
          if (!raw) raw_delim.clear();
        } else if (c == '\'') {
          // Only treat as a char literal when it does not follow an
          // identifier character (C++14 digit separators like 1'000'000).
          if (i == 0 || !IsWordChar(src[i - 1])) state = State::kChar;
        }
        break;
      case State::kLineComment:
        if (c == '\n') {
          state = State::kCode;
        } else {
          out[i] = ' ';
        }
        break;
      case State::kBlockComment:
        if (c == '*' && next == '/') {
          out[i] = ' ';
          out[i + 1] = ' ';
          ++i;
          state = State::kCode;
        } else if (c != '\n') {
          out[i] = ' ';
        }
        break;
      case State::kString:
        if (!raw_delim.empty()) {
          if (c == ')' && src.compare(i, raw_delim.size(), raw_delim) == 0) {
            for (size_t k = 0; k + 1 < raw_delim.size(); ++k) {
              out[i + k] = ' ';
            }
            i += raw_delim.size() - 1;
            raw_delim.clear();
            state = State::kCode;
          } else if (c != '\n') {
            out[i] = ' ';
          }
        } else if (c == '\\' && next != '\0') {
          out[i] = ' ';
          if (next != '\n') out[i + 1] = ' ';
          ++i;
        } else if (c == '"') {
          state = State::kCode;
        } else if (c != '\n') {
          out[i] = ' ';
        }
        break;
      case State::kChar:
        if (c == '\\' && next != '\0') {
          out[i] = ' ';
          out[i + 1] = ' ';
          ++i;
        } else if (c == '\'') {
          state = State::kCode;
        } else if (c != '\n') {
          out[i] = ' ';
        }
        break;
    }
  }
  return out;
}

std::vector<std::string> SplitLines(std::string_view text) {
  std::vector<std::string> lines;
  size_t start = 0;
  while (start <= text.size()) {
    size_t nl = text.find('\n', start);
    if (nl == std::string_view::npos) {
      lines.emplace_back(text.substr(start));
      break;
    }
    lines.emplace_back(text.substr(start, nl - start));
    start = nl + 1;
  }
  return lines;
}

bool IsBlank(std::string_view line) {
  return StripWhitespace(line).empty();
}

// ---------------------------------------------------------------------------
// Allowlist directives. `// bhpo-lint: allow(rule-a, rule-b)` suppresses
// the named rules on its own line, or — when the line holds nothing but
// the comment — on the following line. `bhpo-lint: allow-file(rule)`
// suppresses for the whole file.
// ---------------------------------------------------------------------------
struct Allowances {
  std::set<std::string> file_wide;
  std::map<int, std::set<std::string>> by_line;  // 1-based line -> rules.

  bool Allowed(const std::string& rule, int line) const {
    if (file_wide.count(rule) > 0) return true;
    auto it = by_line.find(line);
    return it != by_line.end() && it->second.count(rule) > 0;
  }
};

void ParseRuleList(std::string_view list, std::set<std::string>* out) {
  for (const std::string& item : Split(std::string(list), ',')) {
    std::string_view rule = StripWhitespace(item);
    if (!rule.empty()) out->emplace(rule);
  }
}

Allowances CollectAllowances(const std::vector<std::string>& raw_lines,
                             const std::vector<std::string>& code_lines) {
  static const std::regex kAllow(
      R"(bhpo-lint:\s*(allow|allow-file)\(([^)]*)\))");
  Allowances allow;
  for (size_t i = 0; i < raw_lines.size(); ++i) {
    std::smatch m;
    if (!std::regex_search(raw_lines[i], m, kAllow)) continue;
    std::set<std::string> rules;
    ParseRuleList(m[2].str(), &rules);
    if (m[1].str() == "allow-file") {
      allow.file_wide.insert(rules.begin(), rules.end());
      continue;
    }
    // A comment-only line guards the next line; otherwise its own line.
    int target = static_cast<int>(i) + 1;
    if (IsBlank(code_lines[i])) target += 1;
    allow.by_line[target].insert(rules.begin(), rules.end());
  }
  return allow;
}

// ---------------------------------------------------------------------------
// Rule matchers. Each walks the blanked code lines and emits findings;
// LintSource filters them through the allowances afterwards.
// ---------------------------------------------------------------------------
struct RuleContext {
  std::string_view label;
  const std::vector<std::string>& code_lines;
  const std::string& code;  // Whole blanked content (multi-line rules).
  bool score_path = false;
  std::vector<Finding>* findings;

  void Emit(const std::string& rule, int line,
            const std::string& message) const {
    findings->push_back(
        Finding{rule, std::string(label), line, message});
  }
};

// True at match positions where the token is not part of a larger
// identifier.
bool TokenBoundary(const std::string& line, size_t pos, size_t len) {
  if (pos > 0 && IsWordChar(line[pos - 1])) return false;
  size_t end = pos + len;
  if (end < line.size() && IsWordChar(line[end])) return false;
  return true;
}

void ForEachToken(const std::string& line, std::string_view token,
                  const std::function<void(size_t)>& fn) {
  size_t pos = 0;
  while ((pos = line.find(token, pos)) != std::string::npos) {
    if (TokenBoundary(line, pos, token.size())) fn(pos);
    pos += token.size();
  }
}

void CheckNondeterminismPrimitives(const RuleContext& ctx) {
  bool rng_home = EndsWith(ctx.label, "src/common/rng.h") ||
                  EndsWith(ctx.label, "src/common/rng.cc");
  static const std::regex kLibcRand(
      R"((^|[^A-Za-z0-9_])(std::)?(srand|rand)\s*\()");
  static const std::regex kTimeSeed(
      R"((^|[^A-Za-z0-9_])time\s*\(\s*(nullptr|NULL|0)\s*\))");
  static const std::regex kUnseededDecl(
      R"(std::mt19937(_64)?\s+[A-Za-z_][A-Za-z0-9_]*\s*(;|\{\s*\}))");
  static const std::regex kUnseededTemp(
      R"(std::mt19937(_64)?\s*(\(\s*\)|\{\s*\}))");
  for (size_t i = 0; i < ctx.code_lines.size(); ++i) {
    const std::string& line = ctx.code_lines[i];
    int lineno = static_cast<int>(i) + 1;
    if (!rng_home) {
      if (line.find("std::random_device") != std::string::npos) {
        ctx.Emit("random-device", lineno,
                 "std::random_device is nondeterministic; derive streams "
                 "from the run's Rng (common/rng.h)");
      }
      if (std::regex_search(line, kLibcRand)) {
        ctx.Emit("libc-rand", lineno,
                 "rand()/srand() bypass the seeded Rng; use common/rng.h");
      }
      if (std::regex_search(line, kUnseededDecl) ||
          std::regex_search(line, kUnseededTemp)) {
        ctx.Emit("unseeded-mt19937", lineno,
                 "default-constructed std::mt19937 has an unpinned seed; "
                 "seed it from the run's Rng stream");
      }
    }
    if (std::regex_search(line, kTimeSeed)) {
      ctx.Emit("time-seed", lineno,
               "time(...) is nondeterministic; seeds must come from the "
               "run's root stream");
    }
    if (ctx.score_path && line.find("::now") != std::string::npos) {
      static const std::regex kNow(R"(::now\s*\()");
      if (std::regex_search(line, kNow)) {
        ctx.Emit("wallclock-now", lineno,
                 "wall-clock read in a score path; timing belongs in "
                 "bench/ harnesses, not where scores are computed");
      }
    }
  }
}

// Collects identifiers declared with an unordered_{map,set} type anywhere
// in the file (members, locals, parameters). Angle brackets are matched
// across lines; an identifier immediately followed by `(` is a function
// declarator and is skipped.
std::set<std::string> CollectUnorderedNames(const std::string& code) {
  std::set<std::string> names;
  static const std::string kMarkers[] = {"unordered_map<", "unordered_set<"};
  for (const std::string& marker : kMarkers) {
    size_t pos = 0;
    while ((pos = code.find(marker, pos)) != std::string::npos) {
      size_t open = pos + marker.size() - 1;
      int depth = 0;
      size_t i = open;
      for (; i < code.size(); ++i) {
        if (code[i] == '<') ++depth;
        if (code[i] == '>' && --depth == 0) break;
      }
      pos = open;
      if (i >= code.size()) break;  // Unbalanced; give up on this marker.
      size_t j = i + 1;
      while (j < code.size() &&
             (std::isspace(static_cast<unsigned char>(code[j])) != 0 ||
              code[j] == '&' || code[j] == '*')) {
        ++j;
      }
      size_t name_start = j;
      while (j < code.size() && IsWordChar(code[j])) ++j;
      if (j > name_start) {
        size_t k = j;
        while (k < code.size() &&
               std::isspace(static_cast<unsigned char>(code[k])) != 0) {
          ++k;
        }
        if (k >= code.size() || code[k] != '(') {
          names.insert(code.substr(name_start, j - name_start));
        }
      }
    }
  }
  return names;
}

void CheckUnorderedIteration(const RuleContext& ctx) {
  if (!ctx.score_path) return;
  std::set<std::string> names = CollectUnorderedNames(ctx.code);
  if (names.empty()) return;
  for (size_t i = 0; i < ctx.code_lines.size(); ++i) {
    const std::string& line = ctx.code_lines[i];
    int lineno = static_cast<int>(i) + 1;
    for (const std::string& name : names) {
      std::regex range_for(R"(for\s*\([^()]*:\s*[&*]?\s*)" + name +
                           R"(\s*\))");
      std::regex begin_call(R"((^|[^A-Za-z0-9_]))" + name +
                            R"(\s*(\.|->)\s*c?begin\s*\()");
      if (std::regex_search(line, range_for) ||
          std::regex_search(line, begin_call)) {
        ctx.Emit("unordered-iteration", lineno,
                 "iteration over unordered container '" + name +
                     "' in a score path; visit order is unspecified and "
                     "can change scores or fold assignment");
      }
    }
  }
}

void CheckStatusNodiscard(const RuleContext& ctx) {
  static const std::regex kClassDecl(
      R"((^|[^A-Za-z0-9_])class\s+(Status|Result)\b)");
  static const std::regex kForwardDecl(
      R"(class\s+(Status|Result)\s*;)");
  for (size_t i = 0; i < ctx.code_lines.size(); ++i) {
    const std::string& line = ctx.code_lines[i];
    std::smatch m;
    if (!std::regex_search(line, m, kClassDecl)) continue;
    if (line.find("nodiscard") != std::string::npos) continue;
    if (std::regex_search(line, kForwardDecl)) continue;
    ctx.Emit("status-nodiscard", static_cast<int>(i) + 1,
             "class " + m[2].str() +
                 " must be declared [[nodiscard]] so a discarded error "
                 "fails the build");
  }
}

void CheckRawMemoryAndThreads(const RuleContext& ctx) {
  bool pool_home = EndsWith(ctx.label, "src/common/thread_pool.h") ||
                   EndsWith(ctx.label, "src/common/thread_pool.cc");
  for (size_t i = 0; i < ctx.code_lines.size(); ++i) {
    const std::string& line = ctx.code_lines[i];
    int lineno = static_cast<int>(i) + 1;
    auto trimmed_prefix = [&line](size_t pos) {
      std::string_view prefix(line.data(), pos);
      while (!prefix.empty() &&
             (prefix.back() == ' ' || prefix.back() == '\t')) {
        prefix.remove_suffix(1);
      }
      return prefix;
    };
    ForEachToken(line, "new", [&](size_t pos) {
      // `operator new` declarations are about the allocator, not a use.
      if (EndsWith(trimmed_prefix(pos), "operator")) return;
      ctx.Emit("raw-new", lineno,
               "raw `new`; own allocations with std::make_unique or a "
               "container");
    });
    ForEachToken(line, "delete", [&](size_t pos) {
      std::string_view prefix = trimmed_prefix(pos);
      // `= delete` is a deleted special member, not a deallocation, and
      // `operator delete` declarations are about the allocator.
      if (EndsWith(prefix, "=") || EndsWith(prefix, "operator")) return;
      ctx.Emit("raw-delete", lineno,
               "raw `delete`; the matching allocation should be owned by "
               "RAII (make_unique / containers)");
    });
    if (!pool_home) {
      ForEachToken(line, "std::thread", [&](size_t) {
        ctx.Emit("raw-thread", lineno,
                 "std::thread outside common/thread_pool; route "
                 "parallelism through ThreadPool so nesting and shutdown "
                 "stay deadlock-free");
      });
      ForEachToken(line, "std::jthread", [&](size_t) {
        ctx.Emit("raw-thread", lineno,
                 "std::jthread outside common/thread_pool; route "
                 "parallelism through ThreadPool");
      });
    }
  }
}

// Flags `catch (...)` blocks that swallow the exception: a catch-all whose
// body neither rethrows, returns (converting to a Status/sentinel), logs,
// nor aborts hides real failures from the fault-tolerance layer, which
// relies on every error surfacing as a Status. Works over the blanked
// code, so comments inside the body do not count as handling.
void CheckSwallowedCatch(const RuleContext& ctx) {
  static const std::regex kCatchAll(R"(catch\s*\(\s*\.\.\.\s*\))");
  static const std::regex kHandles(
      R"((^|[^A-Za-z0-9_])(throw|return|BHPO_LOG|Status|FAIL|ADD_FAILURE|abort)([^A-Za-z0-9_]|$))");
  const std::string& code = ctx.code;
  for (auto it = std::sregex_iterator(code.begin(), code.end(), kCatchAll);
       it != std::sregex_iterator(); ++it) {
    size_t match_pos = static_cast<size_t>(it->position());
    size_t open = code.find('{', match_pos + it->length());
    if (open == std::string::npos) continue;
    size_t close = std::string::npos;
    int depth = 0;
    for (size_t i = open; i < code.size(); ++i) {
      if (code[i] == '{') {
        ++depth;
      } else if (code[i] == '}' && --depth == 0) {
        close = i;
        break;
      }
    }
    if (close == std::string::npos) continue;
    std::string body = code.substr(open + 1, close - open - 1);
    if (std::regex_search(body, kHandles)) continue;
    int lineno = 1 + static_cast<int>(std::count(
                         code.begin(), code.begin() + match_pos, '\n'));
    ctx.Emit("swallowed-catch", lineno,
             "catch (...) swallows the exception; rethrow, convert it to a "
             "Status, or log it (BHPO_LOG) so the failure stays visible");
  }
}

// Flags an include of an x86 intrinsics header (every one is named
// *intrin.h: mmintrin, emmintrin, immintrin, x86intrin, ...) outside the
// AVX2 kernel translation units, the only files built with arch flags and
// reached only through the runtime dispatch of common/simd.h.
void CheckX86Intrinsics(const RuleContext& ctx) {
  std::string_view label = ctx.label;
  size_t slash = label.rfind('/');
  std::string_view dir =
      slash == std::string_view::npos ? "" : label.substr(0, slash + 1);
  if (EndsWith(dir, "src/common/") && EndsWith(label, "_avx2.cc")) return;
  static const std::regex kInclude(
      R"(^\s*#\s*include\s*<([A-Za-z0-9_]*intrin)\.h>)");
  for (size_t i = 0; i < ctx.code_lines.size(); ++i) {
    std::smatch m;
    if (!std::regex_search(ctx.code_lines[i], m, kInclude)) continue;
    // Appended piecewise: GCC 12 warns (-Wrestrict) on "<" + str().
    std::string message = "<";
    message += m[1].str();
    message +=
        ".h> outside src/common/*_avx2.cc; put x86 kernels there behind "
        "the runtime dispatch, or use portable vector extensions";
    ctx.Emit("x86-intrinsics", static_cast<int>(i) + 1, message);
  }
}

bool HasLintableExtension(const std::filesystem::path& path) {
  std::string ext = path.extension().string();
  return ext == ".cc" || ext == ".h";
}

}  // namespace

const std::vector<std::string>& RuleIds() {
  static const std::vector<std::string> kIds = {
      "random-device",   "libc-rand",
      "time-seed",       "wallclock-now",
      "unseeded-mt19937", "unordered-iteration",
      "status-nodiscard", "raw-new",
      "raw-delete",      "raw-thread",
      "swallowed-catch", "x86-intrinsics",
  };
  return kIds;
}

bool IsScorePath(std::string_view label) {
  if (StartsWith(label, "src/")) return true;
  return label.find("/src/") != std::string_view::npos;
}

std::vector<Finding> LintSource(std::string_view label,
                                std::string_view content,
                                const Options& options) {
  std::string code = BlankCommentsAndLiterals(content);
  std::vector<std::string> raw_lines = SplitLines(content);
  std::vector<std::string> code_lines = SplitLines(code);
  Allowances allow = CollectAllowances(raw_lines, code_lines);

  std::vector<Finding> findings;
  RuleContext ctx{label, code_lines, code,
                  options.score_path.value_or(IsScorePath(label)),
                  &findings};
  CheckNondeterminismPrimitives(ctx);
  CheckUnorderedIteration(ctx);
  CheckStatusNodiscard(ctx);
  CheckRawMemoryAndThreads(ctx);
  CheckSwallowedCatch(ctx);
  CheckX86Intrinsics(ctx);

  std::vector<Finding> kept;
  kept.reserve(findings.size());
  for (Finding& f : findings) {
    if (!allow.Allowed(f.rule, f.line)) kept.push_back(std::move(f));
  }
  std::sort(kept.begin(), kept.end(),
            [](const Finding& a, const Finding& b) {
              return std::tie(a.file, a.line, a.rule) <
                     std::tie(b.file, b.line, b.rule);
            });
  return kept;
}

Result<std::vector<Finding>> LintFile(const std::string& path) {
  std::ifstream in(path);
  if (!in) return Status::IoError("cannot open " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return LintSource(path, buffer.str());
}

Result<std::vector<Finding>> LintTree(const std::vector<std::string>& roots) {
  namespace fs = std::filesystem;
  std::vector<std::string> files;
  for (const std::string& root : roots) {
    std::error_code ec;
    fs::file_status st = fs::status(root, ec);
    if (ec || st.type() == fs::file_type::not_found) {
      return Status::NotFound("no such path: " + root);
    }
    if (fs::is_regular_file(st)) {
      files.push_back(root);
      continue;
    }
    if (!fs::is_directory(st)) continue;
    if (fs::exists(fs::path(root) / ".bhpo-lint-ignore")) continue;
    fs::recursive_directory_iterator it(root, ec), end;
    if (ec) return Status::IoError("cannot walk " + root);
    for (; it != end; it.increment(ec)) {
      if (ec) return Status::IoError("cannot walk " + root);
      if (it->is_directory()) {
        if (fs::exists(it->path() / ".bhpo-lint-ignore")) {
          it.disable_recursion_pending();
        }
        continue;
      }
      if (it->is_regular_file() && HasLintableExtension(it->path())) {
        files.push_back(it->path().generic_string());
      }
    }
  }
  std::sort(files.begin(), files.end());
  std::vector<Finding> all;
  for (const std::string& file : files) {
    BHPO_ASSIGN_OR_RETURN(std::vector<Finding> findings, LintFile(file));
    all.insert(all.end(), std::make_move_iterator(findings.begin()),
               std::make_move_iterator(findings.end()));
  }
  return all;
}

std::string FormatFinding(const Finding& finding) {
  return finding.file + ":" + std::to_string(finding.line) + ": [" +
         finding.rule + "] " + finding.message;
}

}  // namespace lint
}  // namespace bhpo
