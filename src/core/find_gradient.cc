#include "core/find_gradient.h"

#include <cmath>
#include <limits>

#include "ml/linear_regression.h"

namespace rockhopper::core {

namespace {

// Moves one dimension of `config` by a signed relative step, reflecting at
// the range boundaries (clamping would make boundaries absorbing: the
// clamped probe coincides with c* and "don't move" would win every model
// comparison at an edge).
double StepDimension(const sparksim::ParamSpec& spec, double value, int sign,
                     double alpha) {
  if (sign == 0) return value;
  double next;
  if (spec.log_scale) {
    // Multiplicative probe: c * (1 - alpha * sign).
    next = value * (1.0 - alpha * static_cast<double>(sign));
  } else {
    next = value - alpha * static_cast<double>(sign) *
                       (spec.max_value - spec.min_value);
  }
  return sparksim::ConfigSpace::Reflect(spec, next);
}

Result<GradientSigns> LinearSignGradient(const sparksim::ConfigSpace& space,
                                         const ObservationWindow& window) {
  ml::Dataset data;
  for (const Observation& obs : window) {
    data.Add(WindowFeatures(space, obs.config, obs.data_size), obs.runtime);
  }
  ml::LinearRegression model(/*l2=*/1e-6);
  ROCKHOPPER_RETURN_IF_ERROR(model.Fit(data));
  GradientSigns delta(space.size(), 0);
  for (size_t i = 0; i < space.size(); ++i) {
    const double coef = model.coefficients()[i];
    delta[i] = coef > 0.0 ? 1 : (coef < 0.0 ? -1 : 0);
  }
  return delta;
}

Result<GradientSigns> ModelSignGradient(const sparksim::ConfigSpace& space,
                                        const WindowModel& model,
                                        const sparksim::ConfigVector& c_star,
                                        double reference_data_size,
                                        double alpha) {
  if (!model.is_fitted()) {
    return Status::FailedPrecondition("window model is not fitted");
  }
  const size_t d = space.size();
  const size_t combos = static_cast<size_t>(1) << d;
  double best_pred = std::numeric_limits<double>::infinity();
  GradientSigns best_delta(d, 0);
  for (size_t mask = 0; mask < combos; ++mask) {
    GradientSigns delta(d);
    sparksim::ConfigVector probe = c_star;
    for (size_t i = 0; i < d; ++i) {
      delta[i] = (mask >> i) & 1 ? 1 : -1;
      probe[i] = StepDimension(space.param(i), probe[i], delta[i], alpha);
    }
    probe = space.Clamp(std::move(probe));
    const double pred = model.Predict(probe, reference_data_size);
    if (pred < best_pred) {
      best_pred = pred;
      best_delta = delta;
    }
  }
  return best_delta;
}

}  // namespace

Result<GradientSigns> FindGradient(const sparksim::ConfigSpace& space,
                                   const ObservationWindow& window,
                                   GradientMethod method,
                                   const WindowModel& model,
                                   const sparksim::ConfigVector& c_star,
                                   double reference_data_size, double alpha) {
  if (window.size() < 2) {
    return Status::InvalidArgument("need at least 2 observations for gradient");
  }
  switch (method) {
    case GradientMethod::kLinearSign:
      return LinearSignGradient(space, window);
    case GradientMethod::kModelSign:
      return ModelSignGradient(space, model, c_star, reference_data_size,
                               alpha);
  }
  return Status::Internal("unknown GradientMethod");
}

sparksim::ConfigVector UpdateCentroid(const sparksim::ConfigSpace& space,
                                      const sparksim::ConfigVector& c_star,
                                      const GradientSigns& delta, double alpha,
                                      bool multiplicative) {
  if (multiplicative) {
    sparksim::ConfigVector next = c_star;
    for (size_t i = 0; i < space.size() && i < delta.size(); ++i) {
      next[i] = StepDimension(space.param(i), next[i], delta[i], alpha);
    }
    return space.Clamp(std::move(next));
  }
  // Literal Algorithm 1 form: e <- c* - alpha * Delta, interpreted in
  // normalized coordinates so the step is comparable across dimensions.
  std::vector<double> unit = space.Normalize(c_star);
  for (size_t i = 0; i < unit.size() && i < delta.size(); ++i) {
    unit[i] -= alpha * static_cast<double>(delta[i]);
  }
  return space.Denormalize(unit);
}

}  // namespace rockhopper::core
