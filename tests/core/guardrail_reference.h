#ifndef ROCKHOPPER_TESTS_CORE_GUARDRAIL_REFERENCE_H_
#define ROCKHOPPER_TESTS_CORE_GUARDRAIL_REFERENCE_H_

#include <cmath>
#include <vector>

#include "core/guardrail.h"
#include "core/observation.h"
#include "ml/dataset.h"
#include "ml/linear_regression.h"

namespace rockhopper::core::testing {

/// The history-based guardrail that Guardrail's running moments replaced,
/// kept as the reference of the differential tests. It stores every
/// observation and refits both §4.3 stages over the whole history with
/// two-pass ridge regressions on every Record — O(n) time and memory per
/// call. Decisions (Record's return, strikes, failure strikes, disabled)
/// must match Guardrail's at every step.
class ReferenceGuardrail {
 public:
  explicit ReferenceGuardrail(GuardrailOptions options = {})
      : options_(options) {}

  bool Record(const Observation& obs) {
    if (disabled_) return false;
    history_.push_back(obs);
    if (obs.failed) {
      ++consecutive_failures_;
      if (options_.failure_strike_threshold > 0 &&
          consecutive_failures_ % options_.failure_strike_threshold == 0) {
        ++failure_strikes_;
        if (failure_strikes_ >= options_.max_failure_strikes) {
          disabled_ = true;
          return false;
        }
      }
    } else {
      consecutive_failures_ = 0;
    }
    if (static_cast<int>(history_.size()) <= options_.min_iterations) {
      return true;
    }
    const TrendFit fit = FitTrend();
    if (!fit.ok) return true;
    const double slope = fit.trend_model.coefficients()[0];
    const double projected_drift =
        slope * static_cast<double>(history_.back().iteration + 1);
    if (projected_drift >
        options_.regression_threshold * std::fabs(fit.mean_runtime)) {
      ++strikes_;
      if (strikes_ >= options_.max_strikes) disabled_ = true;
    } else {
      strikes_ = 0;
    }
    return !disabled_;
  }

  double PredictNextRuntime() const {
    const TrendFit fit = FitTrend();
    if (!fit.ok) return -1.0;
    const Observation& last = history_.back();
    return fit.size_model.Predict({last.data_size}) +
           fit.trend_model.Predict({static_cast<double>(last.iteration + 1)});
  }

  bool disabled() const { return disabled_; }
  int strikes() const { return strikes_; }
  int failure_strikes() const { return failure_strikes_; }
  int consecutive_failures() const { return consecutive_failures_; }

 private:
  struct TrendFit {
    bool ok = false;
    ml::LinearRegression size_model{1e-8};   // runtime ~ data size
    ml::LinearRegression trend_model{1e-8};  // residual ~ iteration
    double mean_runtime = 0.0;
  };

  TrendFit FitTrend() const {
    TrendFit fit;
    if (history_.size() < 3) return fit;
    ml::Dataset size_data;
    double sum = 0.0;
    for (const Observation& obs : history_) {
      size_data.Add({obs.data_size}, obs.runtime);
      sum += obs.runtime;
    }
    fit.mean_runtime = sum / static_cast<double>(history_.size());
    if (!fit.size_model.Fit(size_data).ok()) return fit;
    ml::Dataset trend_data;
    for (const Observation& obs : history_) {
      const double residual =
          obs.runtime - fit.size_model.Predict({obs.data_size});
      trend_data.Add({static_cast<double>(obs.iteration)}, residual);
    }
    if (!fit.trend_model.Fit(trend_data).ok()) return fit;
    fit.ok = true;
    return fit;
  }

  GuardrailOptions options_;
  std::vector<Observation> history_;
  bool disabled_ = false;
  int strikes_ = 0;
  int failure_strikes_ = 0;
  int consecutive_failures_ = 0;
};

}  // namespace rockhopper::core::testing

#endif  // ROCKHOPPER_TESTS_CORE_GUARDRAIL_REFERENCE_H_
