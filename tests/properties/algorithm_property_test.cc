// Parameterized sweeps over the Centroid Learning design space and the
// FIND_BEST/FIND_GRADIENT variants: every combination must keep the tuning
// loop well-defined (valid proposals, finite state, bounded window) and the
// selection primitives must be exact on clean data.

#include <cmath>
#include <memory>
#include <tuple>

#include <gtest/gtest.h>

#include "core/centroid_learning.h"
#include "core/find_best.h"
#include "core/find_gradient.h"
#include "core/guardrail.h"
#include "sparksim/synthetic.h"

namespace rockhopper {
namespace {

using core::CentroidLearner;
using core::CentroidLearningOptions;
using core::FindBest;
using core::FindBestVersion;
using core::GradientMethod;
using core::Observation;
using core::ObservationWindow;
using sparksim::ConfigVector;

// ---------------------------------------------------------------------
// FIND_BEST exactness on clean, equal-size windows: with no noise and a
// constant data size every version must return the true argmin.
class FindBestExactness : public ::testing::TestWithParam<FindBestVersion> {};

TEST_P(FindBestExactness, PicksTrueArgminOnCleanWindow) {
  const sparksim::SyntheticFunction f = sparksim::SyntheticFunction::Default();
  const sparksim::ConfigSpace& space = f.space();
  common::Rng rng(3);
  for (int trial = 0; trial < 10; ++trial) {
    ObservationWindow window;
    double best_runtime = 1e300;
    for (int i = 0; i < 15; ++i) {
      Observation obs;
      obs.config = space.Sample(&rng);
      obs.data_size = 1.0;
      obs.runtime = f.TruePerformance(obs.config, 1.0);
      best_runtime = std::min(best_runtime, obs.runtime);
      window.push_back(std::move(obs));
    }
    core::WindowModel model(&space);
    (void)model.Fit(window);
    const auto best = FindBest(window, GetParam(), model, 1.0);
    ASSERT_TRUE(best.ok());
    // v3's regularized model may not be exact; it must still land in the
    // top third of the window. v1/v2 are exact by construction.
    if (GetParam() == FindBestVersion::kModelPredicted) {
      int better = 0;
      for (const Observation& obs : window) {
        if (obs.runtime < best->runtime) ++better;
      }
      EXPECT_LE(better, 4) << "trial " << trial;
    } else {
      EXPECT_DOUBLE_EQ(best->runtime, best_runtime) << "trial " << trial;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllVersions, FindBestExactness,
                         ::testing::Values(FindBestVersion::kMinRuntime,
                                           FindBestVersion::kNormalized,
                                           FindBestVersion::kModelPredicted));

// ---------------------------------------------------------------------
// Centroid Learning option grid: (find_best, gradient, multiplicative,
// elites) — the loop must stay valid and bounded under all of them.
using ClGridParam = std::tuple<FindBestVersion, GradientMethod, bool, int>;

class ClOptionGrid : public ::testing::TestWithParam<ClGridParam> {};

TEST_P(ClOptionGrid, LoopStaysValidUnderNoise) {
  const auto [find_best, gradient, multiplicative, elites] = GetParam();
  const sparksim::SyntheticFunction f = sparksim::SyntheticFunction::Default();
  const sparksim::ConfigSpace& space = f.space();
  CentroidLearningOptions options;
  options.find_best_version = find_best;
  options.gradient_method = gradient;
  options.multiplicative_update = multiplicative;
  options.elite_size = elites;
  options.window_size = 12;
  CentroidLearner learner(space, space.Defaults(),
                          std::make_unique<core::PseudoSurrogateScorer>(&f, 5),
                          options, 77);
  common::Rng rng(78);
  for (int t = 0; t < 60; ++t) {
    const ConfigVector c = learner.Propose(1.0);
    ASSERT_TRUE(space.Validate(c).ok());
    learner.Observe(c, 1.0,
                    f.Observe(c, 1.0, sparksim::NoiseParams::High(), &rng));
    ASSERT_TRUE(space.Validate(learner.centroid()).ok());
    for (double v : learner.centroid()) ASSERT_TRUE(std::isfinite(v));
  }
  EXPECT_LE(learner.history().size(), 12u);
  EXPECT_EQ(learner.iteration(), 60);
}

INSTANTIATE_TEST_SUITE_P(
    DesignGrid, ClOptionGrid,
    ::testing::Combine(::testing::Values(FindBestVersion::kMinRuntime,
                                         FindBestVersion::kNormalized,
                                         FindBestVersion::kModelPredicted),
                       ::testing::Values(GradientMethod::kLinearSign,
                                         GradientMethod::kModelSign),
                       ::testing::Bool(), ::testing::Values(0, 3)));

// ---------------------------------------------------------------------
// Guardrail threshold sweep: stricter thresholds can only disable earlier.
class GuardrailThreshold : public ::testing::TestWithParam<double> {};

TEST_P(GuardrailThreshold, StricterNeverDisablesLater) {
  const double threshold = GetParam();
  auto run = [](double thr) {
    core::GuardrailOptions options;
    options.min_iterations = 10;
    options.max_strikes = 2;
    options.regression_threshold = thr;
    core::Guardrail guard(options);
    int disabled_at = -1;
    for (int i = 0; i < 60; ++i) {
      Observation obs;
      obs.config = {1.0, 2.0, 3.0};
      obs.data_size = 1.0;
      obs.runtime = 10.0 + 2.0 * i;
      obs.iteration = i;
      if (!guard.Record(obs) && disabled_at < 0) disabled_at = i;
    }
    return disabled_at;
  };
  const int at_threshold = run(threshold);
  const int at_double = run(threshold * 2.0);
  // A regressing series trips every reasonable threshold, and the stricter
  // one no later than the looser one.
  ASSERT_GE(at_threshold, 0);
  if (at_double >= 0) {
    EXPECT_LE(at_threshold, at_double);
  }
}

INSTANTIATE_TEST_SUITE_P(Thresholds, GuardrailThreshold,
                         ::testing::Values(0.02, 0.05, 0.1, 0.2));

}  // namespace
}  // namespace rockhopper
