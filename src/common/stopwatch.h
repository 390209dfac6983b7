#ifndef BHPO_COMMON_STOPWATCH_H_
#define BHPO_COMMON_STOPWATCH_H_

#include "common/check.h"
#include "common/clock.h"

namespace bhpo {

// Monotonic timer used to report search times in the benchmark harnesses,
// mirroring the "time (sec.)" rows of the paper's tables. Reads go through
// the Clock seam (common/clock.h): the default is the real steady clock,
// and tests that exercise deadline behaviour pass a FakeClock. Nothing
// score-affecting may depend on the *real* clock (bhpo_lint flags any
// other ::now() under src/).
class Stopwatch {
 public:
  explicit Stopwatch(const Clock* clock = Clock::Real()) : clock_(clock) {
    BHPO_CHECK(clock != nullptr);
    start_ = clock_->NowSeconds();
  }

  double ElapsedSeconds() const { return clock_->NowSeconds() - start_; }

 private:
  const Clock* clock_;
  double start_;
};

}  // namespace bhpo

#endif  // BHPO_COMMON_STOPWATCH_H_
