// Fault-plan neutrality differential (ROADMAP item 5, PR 7).
//
// A FaultPlan whose every probability/period is zero must be provably
// result-neutral: attaching it (force_attach) schedules no events and
// consumes no randomness, so the result digest — which covers
// events_processed — is byte-identical to the no-plan path. This test proves
// that across EVERY registered scenario at the conformance preset, plus a
// handful of extra seeds on representative scenarios.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "exp/experiment.hpp"
#include "exp/scenario.hpp"
#include "sim/fault_plan.hpp"

namespace dpjit::exp {
namespace {

std::uint64_t conformance_digest_with_faults(const Scenario& scenario, bool force_attach,
                                             std::uint64_t seed = 0) {
  ExperimentConfig cfg = conformance_preset(scenario.config());
  // Zero every fault knob (realism scenarios configure real faults); the
  // differential is about the all-zero plan, attached vs absent.
  cfg.faults = sim::FaultParams{};
  cfg.faults.force_attach = force_attach;
  if (seed != 0) cfg.seed = seed;
  return result_digest(run_experiment(cfg));
}

class FaultNeutrality : public ::testing::TestWithParam<std::string> {};

TEST_P(FaultNeutrality, ZeroProbabilityPlanIsByteIdentical) {
  const auto& scenario = scenario_registry().at(GetParam());
  EXPECT_EQ(conformance_digest_with_faults(scenario, /*force_attach=*/false),
            conformance_digest_with_faults(scenario, /*force_attach=*/true))
      << scenario.name
      << ": an attached all-zero FaultPlan changed results — some fault-path "
         "code runs (or draws randomness) when no faults are configured.";
}

std::vector<std::string> scenario_names() {
  std::vector<std::string> names;
  for (const auto& s : scenario_registry().all()) names.push_back(s.name);
  return names;
}

INSTANTIATE_TEST_SUITE_P(All, FaultNeutrality, ::testing::ValuesIn(scenario_names()),
                         [](const ::testing::TestParamInfo<std::string>& info) {
                           std::string name = info.param;
                           for (char& c : name) {
                             if (c == '/' || c == '-') c = '_';
                           }
                           return name;
                         });

TEST(FaultNeutrality, HoldsAcrossSeeds) {
  // Same differential on representative scenarios under seeds the goldens
  // never exercise — the neutrality must not be an artifact of seed 1.
  const std::vector<std::string> reps = {"paper/static-n200", "churn/correlated-waves",
                                         "realism/lossy-gossip"};
  for (const auto& name : reps) {
    const auto& scenario = scenario_registry().at(name);
    for (const std::uint64_t seed : {2ULL, 97ULL, 20260808ULL}) {
      EXPECT_EQ(conformance_digest_with_faults(scenario, false, seed),
                conformance_digest_with_faults(scenario, true, seed))
          << name << " seed " << seed;
    }
  }
}

}  // namespace
}  // namespace dpjit::exp
