#include "core/find_best.h"

#include <algorithm>

namespace rockhopper::core {

namespace {

Result<Observation> ArgminBy(const ObservationWindow& window,
                             const std::vector<double>& scores) {
  size_t best = 0;
  for (size_t i = 1; i < scores.size(); ++i) {
    if (scores[i] < scores[best]) best = i;
  }
  return window[best];
}

}  // namespace

Result<Observation> FindBest(const ObservationWindow& window,
                             FindBestVersion version, const WindowModel& model,
                             double reference_data_size) {
  if (window.empty()) return Status::InvalidArgument("empty window");
  std::vector<double> scores(window.size());
  switch (version) {
    case FindBestVersion::kMinRuntime:
      for (size_t i = 0; i < window.size(); ++i) {
        scores[i] = window[i].runtime;
      }
      return ArgminBy(window, scores);
    case FindBestVersion::kNormalized:
      for (size_t i = 0; i < window.size(); ++i) {
        scores[i] =
            window[i].runtime / std::max(1e-12, window[i].data_size);
      }
      return ArgminBy(window, scores);
    case FindBestVersion::kModelPredicted: {
      if (!model.is_fitted()) {
        // Degenerate window (e.g. a single point): fall back to v2.
        return FindBest(window, FindBestVersion::kNormalized, model,
                        reference_data_size);
      }
      for (size_t i = 0; i < window.size(); ++i) {
        scores[i] = model.Predict(window[i].config, reference_data_size);
      }
      return ArgminBy(window, scores);
    }
  }
  return Status::Internal("unknown FindBestVersion");
}

}  // namespace rockhopper::core
