#include "core/find_best.h"

#include <gtest/gtest.h>

#include "sparksim/synthetic.h"

namespace rockhopper::core {
namespace {

Observation Obs(const sparksim::ConfigVector& config, double data_size,
                double runtime) {
  Observation o;
  o.config = config;
  o.data_size = data_size;
  o.runtime = runtime;
  return o;
}

// FindBest with H fitted on the window, as the centroid learner calls it.
Result<Observation> Best(const sparksim::ConfigSpace& space,
                         const ObservationWindow& window,
                         FindBestVersion version, double reference_data_size) {
  WindowModel model(&space);
  (void)model.Fit(window);
  return FindBest(window, version, model, reference_data_size);
}

class FindBestTest : public ::testing::Test {
 protected:
  sparksim::ConfigSpace space_ = sparksim::QueryLevelSpace();
};

TEST_F(FindBestTest, EmptyWindowFails) {
  EXPECT_FALSE(Best(space_, {}, FindBestVersion::kMinRuntime, 1.0).ok());
}

TEST_F(FindBestTest, V1PicksShortestRuntime) {
  common::Rng rng(1);
  ObservationWindow w = {Obs(space_.Defaults(), 1.0, 30.0),
                         Obs(space_.Sample(&rng), 1.0, 10.0),
                         Obs(space_.Defaults(), 1.0, 20.0)};
  Result<Observation> best =
      Best(space_, w, FindBestVersion::kMinRuntime, 1.0);
  ASSERT_TRUE(best.ok());
  EXPECT_DOUBLE_EQ(best->runtime, 10.0);
}

TEST_F(FindBestTest, V1IsFooledBySmallDataSizes) {
  // A mediocre config that happened to run on tiny input wins under v1.
  common::Rng rng(2);
  const sparksim::ConfigVector good = space_.Defaults();
  const sparksim::ConfigVector lucky = space_.Sample(&rng);
  ObservationWindow w = {Obs(good, 10.0, 100.0),   // 10 s per unit
                         Obs(lucky, 0.1, 5.0)};    // 50 s per unit
  Result<Observation> v1 =
      Best(space_, w, FindBestVersion::kMinRuntime, 10.0);
  ASSERT_TRUE(v1.ok());
  EXPECT_EQ(v1->config, lucky);  // the failure mode the paper describes
  Result<Observation> v2 =
      Best(space_, w, FindBestVersion::kNormalized, 10.0);
  ASSERT_TRUE(v2.ok());
  EXPECT_EQ(v2->config, good);  // normalization fixes it
}

TEST_F(FindBestTest, V2NormalizesByDataSize) {
  ObservationWindow w = {Obs(space_.Defaults(), 2.0, 10.0),   // 5 per unit
                         Obs(space_.Defaults(), 10.0, 20.0)}; // 2 per unit
  Result<Observation> best =
      Best(space_, w, FindBestVersion::kNormalized, 1.0);
  ASSERT_TRUE(best.ok());
  EXPECT_DOUBLE_EQ(best->runtime, 20.0);
}

TEST_F(FindBestTest, V3ComparesAtFixedReferenceSize) {
  // Sublinear size-scaling: r/p falls with p, so v2 is biased toward the
  // biggest input. v3's model evaluates all configs at the same p.
  const sparksim::SyntheticFunction f = sparksim::SyntheticFunction::Default();
  common::Rng rng(3);
  ObservationWindow w;
  // One observation of the optimum at a small size, many mediocre configs
  // at large sizes (where r/p looks flattering).
  w.push_back(Obs(f.optimum(), 0.6, f.TruePerformance(f.optimum(), 0.6)));
  for (int i = 0; i < 15; ++i) {
    sparksim::ConfigVector c = f.space().SampleNeighbor(
        f.space().Denormalize({0.9, 0.9, 0.9}), 0.1, &rng);
    const double p = rng.Uniform(3.0, 5.0);
    w.push_back(Obs(c, p, f.TruePerformance(c, p)));
  }
  Result<Observation> v3 =
      Best(f.space(), w, FindBestVersion::kModelPredicted, 1.0);
  ASSERT_TRUE(v3.ok());
  // v3 must identify the optimum's observation despite its small p.
  EXPECT_EQ(v3->config, f.optimum());
}

TEST_F(FindBestTest, V3FallsBackOnDegenerateWindow) {
  ObservationWindow w = {Obs(space_.Defaults(), 1.0, 10.0)};
  Result<Observation> best =
      Best(space_, w, FindBestVersion::kModelPredicted, 1.0);
  ASSERT_TRUE(best.ok());
  EXPECT_DOUBLE_EQ(best->runtime, 10.0);
}

TEST_F(FindBestTest, ZeroDataSizeDoesNotDivideByZero) {
  ObservationWindow w = {Obs(space_.Defaults(), 0.0, 10.0),
                         Obs(space_.Defaults(), 1.0, 5.0)};
  Result<Observation> best =
      Best(space_, w, FindBestVersion::kNormalized, 1.0);
  ASSERT_TRUE(best.ok());
  // The zero-size observation normalizes to a huge value; the other wins.
  EXPECT_DOUBLE_EQ(best->runtime, 5.0);
}

}  // namespace
}  // namespace rockhopper::core
