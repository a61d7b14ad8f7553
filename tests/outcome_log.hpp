#pragma once

/// \file outcome_log.hpp
/// Test helper: collects every outcome a bare executor settles through its
/// completion callback, in completion order (the executor itself keeps no
/// log unless asked).

#include <vector>

#include "cluster/executor.hpp"

namespace pran::cluster {

struct OutcomeLog {
  explicit OutcomeLog(Executor& ex) {
    ex.set_completion_callback(
        [this](const JobOutcome& o) { outcomes.push_back(o); });
  }
  // The executor's callback holds `this`.
  OutcomeLog(const OutcomeLog&) = delete;
  OutcomeLog& operator=(const OutcomeLog&) = delete;

  std::vector<JobOutcome> outcomes;
};

}  // namespace pran::cluster
