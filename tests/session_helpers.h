// Test helper for suites that plan through the public Session API: one request in, one
// plan out, with any Status reported as a test failure instead of a process abort.
#ifndef TOFU_TESTS_SESSION_HELPERS_H_
#define TOFU_TESTS_SESSION_HELPERS_H_

#include <gtest/gtest.h>

#include <utility>

#include "tofu/core/session.h"

namespace tofu {

inline PartitionPlan PlanOrFail(Session& session, const Graph& graph,
                                PartitionAlgorithm algorithm = PartitionAlgorithm::kTofu) {
  PartitionRequest request;
  request.graph = &graph;
  request.algorithm = algorithm;
  Result<PartitionResponse> response = session.Partition(request);
  if (!response.ok()) {
    ADD_FAILURE() << AlgorithmName(algorithm) << ": " << response.status().ToString();
    return PartitionPlan{};
  }
  return std::move(*response).plan;
}

}  // namespace tofu

#endif  // TOFU_TESTS_SESSION_HELPERS_H_
