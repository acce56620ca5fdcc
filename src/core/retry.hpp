// Retry-with-replan: the one pool-overflow policy of the executors and the
// serving scheduler.
//
// A plan sizes its chunk pools from an output estimate, so a chunk can
// overflow them at run time (kOutOfMemory).  The answer is always the same:
// double the plan's nnz_safety_factor, re-plan (the chunks shrink) and run
// again, as a production out-of-core runner must.
#pragma once

#include <algorithm>
#include <string>
#include <utility>

#include "common/status.hpp"
#include "core/executor_options.hpp"

namespace oocgemm::core {

/// Calls `attempt(options)` until it returns anything but kOutOfMemory or
/// options.max_oom_attempts attempts (at least one) are spent; each retry
/// doubles options.plan.nnz_safety_factor.  The budget is spent here, so
/// `attempt` sees max_oom_attempts = 1 and an executor it calls makes a
/// single attempt.  options.deadline is checked before every attempt: a
/// call that starts past it, or a deadline that passes after an overflow,
/// ends with kCancelled instead of another attempt.  `attempts`, when given,
/// is incremented per attempt run.
template <typename Fn>
auto RetryWithReplan(ExecutorOptions options, Fn&& attempt,
                     int* attempts = nullptr)
    -> decltype(attempt(std::as_const(options))) {
  const int max_attempts = std::max(1, options.max_oom_attempts);
  options.max_oom_attempts = 1;
  for (int i = 1;; ++i) {
    if (DeadlinePassed(options.deadline)) {
      return Status::Cancelled("deadline passed before pool-overflow attempt " +
                               std::to_string(i));
    }
    if (attempts != nullptr) ++*attempts;
    auto r = attempt(std::as_const(options));
    if (r.ok() || r.status().code() != StatusCode::kOutOfMemory ||
        i == max_attempts) {
      return r;
    }
    options.plan.nnz_safety_factor *= 2.0;
  }
}

}  // namespace oocgemm::core
