#ifndef ROCKHOPPER_CORE_FIND_BEST_H_
#define ROCKHOPPER_CORE_FIND_BEST_H_

#include "common/status.h"
#include "core/observation.h"
#include "core/window_model.h"

namespace rockhopper::core {

/// The three refinements of Algorithm 1's FIND_BEST (paper §4.3).
enum class FindBestVersion {
  /// v1: argmin runtime. Biased toward observations that happened to run on
  /// small inputs.
  kMinRuntime,
  /// v2: argmin runtime / data size (Eq. 3). Fairer, but still biased: r/p
  /// typically shrinks as p grows.
  kNormalized,
  /// v3: fit H(c, p) on the window (Eq. 4) and compare all window configs at
  /// one fixed reference data size (Eq. 5). The production setting.
  kModelPredicted,
};

/// Selects c*, the best configuration among the latest-N observations.
/// `model` is H fitted on `window` by the caller, who shares the one fit
/// with FindGradient; kModelPredicted scores the window's configs with it at
/// the fixed `reference_data_size` (typically the most recent observation's
/// size). The other versions ignore both. Fails on an empty window;
/// kModelPredicted falls back to kNormalized when the model is unfitted.
Result<Observation> FindBest(const ObservationWindow& window,
                             FindBestVersion version, const WindowModel& model,
                             double reference_data_size);

}  // namespace rockhopper::core

#endif  // ROCKHOPPER_CORE_FIND_BEST_H_
