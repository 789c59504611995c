// Differential test of the running-moment guardrail against the
// history-based reference it replaced: every Record decision (its return,
// strikes, failure strikes, disabled) must match at every step.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "core/centroid_learning.h"
#include "core/embedding.h"
#include "core/guardrail.h"
#include "core/scorer.h"
#include "guardrail_reference.h"
#include "sparksim/simulator.h"
#include "sparksim/workloads.h"

namespace rockhopper::core {
namespace {

using testing::ReferenceGuardrail;

Observation Obs(int iteration, double runtime, double data_size = 1.0,
                bool failed = false) {
  Observation o;
  o.config = {1.0, 2.0, 3.0};
  o.iteration = iteration;
  o.runtime = runtime;
  o.data_size = data_size;
  o.failed = failed;
  return o;
}

/// A guardrail that can never disable, so a long stream keeps producing
/// strike decisions to compare.
GuardrailOptions NeverDisable() {
  GuardrailOptions options;
  options.max_strikes = std::numeric_limits<int>::max();
  options.max_failure_strikes = std::numeric_limits<int>::max();
  return options;
}

/// Feeds `stream` to both guardrails and asserts equal decisions at every
/// step. With `compare_prediction`, PredictNextRuntime must also agree to a
/// relative 1e-6 (the moments and the two-pass fit round differently).
void ExpectSameDecisions(const std::vector<Observation>& stream,
                         const GuardrailOptions& options,
                         const std::string& label,
                         bool compare_prediction = false) {
  Guardrail live(options);
  ReferenceGuardrail reference(options);
  for (size_t i = 0; i < stream.size(); ++i) {
    const bool live_ok = live.Record(stream[i]);
    const bool reference_ok = reference.Record(stream[i]);
    ASSERT_EQ(live_ok, reference_ok) << label << " step " << i;
    ASSERT_EQ(live.strikes(), reference.strikes()) << label << " step " << i;
    ASSERT_EQ(live.failure_strikes(), reference.failure_strikes())
        << label << " step " << i;
    ASSERT_EQ(live.disabled(), reference.disabled())
        << label << " step " << i;
    if (compare_prediction) {
      const double expected = reference.PredictNextRuntime();
      const double actual = live.PredictNextRuntime();
      ASSERT_EQ(actual < 0.0, expected < 0.0) << label << " step " << i;
      if (expected >= 0.0) {
        ASSERT_NEAR(actual, expected, 1e-6 * std::fabs(expected))
            << label << " step " << i;
      }
    }
  }
}

/// One CL tuner's observation stream on a sparksim TPC-H-like query: the
/// tuner proposes, the simulator runs the proposal under `noise` and
/// `faults`, and the tuner learns from the result. With `growth` the input
/// grows by 0.1% per run. Failed runs carry a 4x penalty runtime, like the
/// failure policy's imputation.
std::vector<Observation> ClStream(const sparksim::NoiseParams& noise,
                                  const sparksim::FaultParams& faults,
                                  bool growth, int length, uint64_t seed) {
  const sparksim::ConfigSpace space = sparksim::QueryLevelSpace();
  const sparksim::QueryPlan plan =
      sparksim::TpchPlan(1 + static_cast<int>(seed % 22));
  auto scorer = std::make_unique<SurrogateScorer>(
      space, nullptr, ComputeEmbedding(plan, EmbeddingOptions()));
  CentroidLearner tuner(space, space.Defaults(), std::move(scorer),
                        CentroidLearningOptions(), seed);
  sparksim::SparkSimulator::Options sim_options;
  sim_options.noise = noise;
  sim_options.faults = faults;
  sim_options.seed = seed;
  sparksim::SparkSimulator sim(sim_options);
  std::vector<Observation> stream;
  stream.reserve(static_cast<size_t>(length));
  for (int i = 0; i < length; ++i) {
    const double scale = growth ? 1.0 + 0.001 * i : 1.0;
    const sparksim::ConfigVector config = tuner.Propose(scale);
    const sparksim::ExecutionResult run =
        sim.ExecuteQuery(plan, config, scale);
    Observation obs;
    obs.config = config;
    obs.data_size = run.input_bytes;
    obs.runtime = run.failed ? 4.0 * run.runtime_seconds : run.runtime_seconds;
    obs.failed = run.failed;
    obs.iteration = i;
    tuner.Observe(config, obs.data_size, obs.runtime);
    stream.push_back(std::move(obs));
  }
  return stream;
}

TEST(GuardrailDifferentialTest, UnitScenarios) {
  // The streams of guardrail_test.cc, each with its options.
  struct Scenario {
    std::string name;
    GuardrailOptions options;
    std::vector<Observation> stream;
  };
  std::vector<Scenario> scenarios;
  auto add = [&](const std::string& name, auto configure, auto fill) {
    Scenario s{name, GuardrailOptions(), {}};
    configure(&s.options);
    fill(&s.stream);
    scenarios.push_back(std::move(s));
  };
  auto defaults = [](GuardrailOptions*) {};
  add("never_before_min", defaults, [](std::vector<Observation>* out) {
    for (int i = 0; i < 30; ++i) out->push_back(Obs(i, 10.0 + 5.0 * i));
  });
  add("persistent_regression",
      [](GuardrailOptions* o) {
        o->min_iterations = 10;
        o->max_strikes = 3;
      },
      [](std::vector<Observation>* out) {
        for (int i = 0; i < 40; ++i) out->push_back(Obs(i, 10.0 + 3.0 * i));
      });
  add("improving", [](GuardrailOptions* o) { o->min_iterations = 10; },
      [](std::vector<Observation>* out) {
        common::Rng rng(1);
        for (int i = 0; i < 100; ++i) {
          out->push_back(
              Obs(i, 100.0 / (1.0 + 0.05 * i) + rng.Uniform(0.0, 2.0)));
        }
      });
  add("flat_noisy",
      [](GuardrailOptions* o) {
        o->min_iterations = 10;
        o->regression_threshold = 0.15;
      },
      [](std::vector<Observation>* out) {
        common::Rng rng(2);
        for (int i = 0; i < 80; ++i) {
          out->push_back(Obs(i, 50.0 * (1.0 + 0.1 * rng.Uniform())));
        }
      });
  add("data_size_growth", [](GuardrailOptions* o) { o->min_iterations = 10; },
      [](std::vector<Observation>* out) {
        for (int i = 0; i < 60; ++i) {
          const double p = 1.0 + 0.2 * i;
          out->push_back(Obs(i, 20.0 * p, p));
        }
      });
  add("strikes_reset",
      [](GuardrailOptions* o) {
        o->min_iterations = 5;
        o->max_strikes = 8;
      },
      [](std::vector<Observation>* out) {
        int i = 0;
        for (; i < 10; ++i) out->push_back(Obs(i, 10.0 + 3.0 * i));
        for (; i < 45; ++i) out->push_back(Obs(i, 2.0));
      });
  add("disabled_sticky",
      [](GuardrailOptions* o) {
        o->min_iterations = 5;
        o->max_strikes = 2;
      },
      [](std::vector<Observation>* out) {
        for (int i = 0; i < 50; ++i) out->push_back(Obs(i, 10.0 + 4.0 * i));
        out->push_back(Obs(50, 0.1));
      });
  add("persistent_failures", defaults, [](std::vector<Observation>* out) {
    for (int i = 0; i < 20; ++i) out->push_back(Obs(i, 90.0, 1.0, true));
  });
  add("sporadic_failures", defaults, [](std::vector<Observation>* out) {
    for (int i = 0; i < 100; ++i) {
      const bool failed = (i % 4 == 3);
      out->push_back(Obs(i, failed ? 90.0 : 30.0, 1.0, failed));
    }
  });
  add("failure_bursts", defaults, [](std::vector<Observation>* out) {
    int i = 0;
    for (int burst = 0; burst < 3; ++burst) {
      for (int k = 0; k < 2; ++k, ++i) out->push_back(Obs(i, 90.0, 1.0, true));
      for (int k = 0; k < 10; ++k, ++i) out->push_back(Obs(i, 30.0));
    }
  });
  add("long_failure_streak",
      [](GuardrailOptions* o) { o->max_failure_strikes = 10; },
      [](std::vector<Observation>* out) {
        for (int i = 0; i < 7; ++i) out->push_back(Obs(i, 90.0, 1.0, true));
      });
  add("predict_trend", defaults, [](std::vector<Observation>* out) {
    for (int i = 0; i < 10; ++i) out->push_back(Obs(i, 10.0 + 2.0 * i));
  });
  for (const Scenario& s : scenarios) {
    ExpectSameDecisions(s.stream, s.options, s.name,
                        /*compare_prediction=*/true);
  }
}

TEST(GuardrailDifferentialTest, SparksimClStreams) {
  struct Setting {
    std::string name;
    sparksim::NoiseParams noise;
    sparksim::FaultParams faults;
    bool growth;
  };
  const std::vector<Setting> settings = {
      {"low", sparksim::NoiseParams::Low(), sparksim::FaultParams::None(),
       false},
      {"high", sparksim::NoiseParams::High(), sparksim::FaultParams::None(),
       false},
      {"low_faults", sparksim::NoiseParams::Low(),
       sparksim::FaultParams::Production(), false},
      {"high_faults", sparksim::NoiseParams::High(),
       sparksim::FaultParams::Production(), false},
      {"low_growth", sparksim::NoiseParams::Low(),
       sparksim::FaultParams::None(), true},
      {"high_growth_faults", sparksim::NoiseParams::High(),
       sparksim::FaultParams::Production(), true},
  };
  for (const Setting& setting : settings) {
    for (uint64_t seed = 1; seed <= 3; ++seed) {
      const std::vector<Observation> stream =
          ClStream(setting.noise, setting.faults, setting.growth, 400, seed);
      const std::string label = setting.name + " seed " + std::to_string(seed);
      ExpectSameDecisions(stream, GuardrailOptions(), label + " defaults",
                          /*compare_prediction=*/true);
      ExpectSameDecisions(stream, NeverDisable(), label + " never-disable");
    }
  }
}

TEST(GuardrailDifferentialTest, LongClHistories) {
  // 3,000-observation histories: the length where the reference's refit
  // cost dominated ingest.
  const std::vector<Observation> low = ClStream(
      sparksim::NoiseParams::Low(), sparksim::FaultParams::Production(),
      /*growth=*/true, 3000, 11);
  ExpectSameDecisions(low, NeverDisable(), "long low");
  const std::vector<Observation> high =
      ClStream(sparksim::NoiseParams::High(), sparksim::FaultParams::None(),
               /*growth=*/false, 3000, 12);
  ExpectSameDecisions(high, NeverDisable(), "long high");
}

TEST(GuardrailDifferentialTest, LinearTrendsSweptAcrossThreshold) {
  // runtime = base + slope * t (+ small noise): the projected drift crosses
  // regression_threshold * mean at some step for most slopes of the sweep,
  // so strikes start, accumulate and reset around the threshold.
  for (double threshold : {0.05, 0.1, 0.2}) {
    GuardrailOptions options = NeverDisable();
    options.min_iterations = 10;
    options.regression_threshold = threshold;
    for (int j = 0; j < 120; ++j) {
      const double base = 40.0;
      // Slopes from about -0.02 to 0.2 runtime units per iteration, on an
      // incommensurate grid so no step lands exactly on the threshold.
      const double slope = -0.0213 + 0.0018371 * j;
      common::Rng rng(1000 + static_cast<uint64_t>(j));
      const double noise = (j % 3) * 0.01;
      std::vector<Observation> stream;
      for (int t = 0; t < 160; ++t) {
        const double runtime =
            base + slope * t + noise * base * rng.Uniform(-1.0, 1.0);
        stream.push_back(Obs(t, runtime, 1e9 * (1.0 + 0.01 * (t % 7))));
      }
      ExpectSameDecisions(stream, options,
                          "threshold " + std::to_string(threshold) +
                              " slope " + std::to_string(slope),
                          /*compare_prediction=*/true);
    }
  }
}

TEST(GuardrailDifferentialTest, ConstantDataSize) {
  // C_ss = 0: the ridge alone keeps the size stage solvable.
  for (double size : {1.0, 0.1, 3.7e9}) {
    std::vector<Observation> regressing, improving;
    common::Rng rng(7);
    for (int t = 0; t < 200; ++t) {
      regressing.push_back(
          Obs(t, 20.0 + 0.3 * t + rng.Uniform(0.0, 2.0), size));
      improving.push_back(
          Obs(t, 80.0 / (1.0 + 0.02 * t) + rng.Uniform(0.0, 2.0), size));
    }
    const std::string label = "size " + std::to_string(size);
    ExpectSameDecisions(regressing, NeverDisable(), label + " regressing",
                        /*compare_prediction=*/true);
    ExpectSameDecisions(improving, NeverDisable(), label + " improving",
                        /*compare_prediction=*/true);
    ExpectSameDecisions(regressing, GuardrailOptions(), label + " defaults");
  }
}

TEST(GuardrailDifferentialTest, HugeAndNonFiniteRows) {
  const double kNan = std::numeric_limits<double>::quiet_NaN();
  const double kInf = std::numeric_limits<double>::infinity();
  struct Bad {
    std::string name;
    double data_size;  // 0 = keep the stream's value
    double runtime;    // 0 = keep the stream's value
  };
  const std::vector<Bad> bad_rows = {
      {"huge_size", 1e300, 0.0},   {"huge_runtime", 0.0, 1e300},
      {"huge_both", 1e300, 1e300}, {"nan_size", kNan, 0.0},
      {"nan_runtime", 0.0, kNan},  {"inf_size", kInf, 0.0},
      {"-inf_size", -kInf, 0.0},   {"inf_runtime", 0.0, kInf},
      {"-inf_runtime", 0.0, -kInf},
  };
  // Bad rows land before the exploration budget ends, just after it, and
  // while strikes are accumulating on a regressing stream.
  for (const Bad& bad : bad_rows) {
    for (int at : {5, 31, 45, 70}) {
      for (bool regressing : {false, true}) {
        std::vector<Observation> stream;
        common::Rng rng(static_cast<uint64_t>(at));
        for (int t = 0; t < 120; ++t) {
          const double trend = regressing ? 0.4 * t : -0.05 * t;
          Observation obs = Obs(t, 30.0 + trend + rng.Uniform(0.0, 1.0),
                                1.0 + 0.1 * (t % 5));
          if (t == at) {
            if (bad.data_size != 0.0) obs.data_size = bad.data_size;
            if (bad.runtime != 0.0) obs.runtime = bad.runtime;
          }
          stream.push_back(std::move(obs));
        }
        const std::string label = bad.name + " at " + std::to_string(at) +
                                  (regressing ? " regressing" : " flat");
        ExpectSameDecisions(stream, NeverDisable(), label);
        ExpectSameDecisions(stream, GuardrailOptions(), label + " defaults");
      }
    }
  }
}

}  // namespace
}  // namespace rockhopper::core
