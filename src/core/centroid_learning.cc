#include "core/centroid_learning.h"

#include <algorithm>
#include <limits>
#include <sstream>

namespace rockhopper::core {

namespace {

// Observation lists are archived one row per observation: [data_size,
// runtime, iteration, failed, config...]. Iteration counts and the failed
// flag fit exactly in doubles, so the round-trip is lossless.
std::vector<std::vector<double>> ObservationsToRows(
    const ObservationWindow& observations) {
  std::vector<std::vector<double>> rows;
  rows.reserve(observations.size());
  for (const Observation& obs : observations) {
    std::vector<double> row;
    row.reserve(4 + obs.config.size());
    row.push_back(obs.data_size);
    row.push_back(obs.runtime);
    row.push_back(static_cast<double>(obs.iteration));
    row.push_back(obs.failed ? 1.0 : 0.0);
    row.insert(row.end(), obs.config.begin(), obs.config.end());
    rows.push_back(std::move(row));
  }
  return rows;
}

Status RowsToObservations(const std::vector<std::vector<double>>& rows,
                          ObservationWindow* observations) {
  ObservationWindow out;
  out.reserve(rows.size());
  for (const std::vector<double>& row : rows) {
    if (row.size() < 4) {
      return Status::InvalidArgument("observation row too short in archive");
    }
    Observation obs;
    obs.data_size = row[0];
    obs.runtime = row[1];
    obs.iteration = static_cast<int>(row[2]);
    obs.failed = row[3] != 0.0;
    obs.config.assign(row.begin() + 4, row.end());
    out.push_back(std::move(obs));
  }
  *observations = std::move(out);
  return Status::OK();
}

}  // namespace

CentroidLearner::CentroidLearner(const sparksim::ConfigSpace& space,
                                 sparksim::ConfigVector initial_centroid,
                                 std::unique_ptr<CandidateScorer> scorer,
                                 CentroidLearningOptions options, uint64_t seed)
    : space_(space),
      options_(options),
      centroid_(space.Clamp(std::move(initial_centroid))),
      scorer_(std::move(scorer)),
      rng_(seed),
      best_runtime_(std::numeric_limits<double>::infinity()),
      alpha_(options.alpha),
      beta_(options.beta) {}

sparksim::ConfigVector CentroidLearner::Propose(double expected_data_size) {
  // Candidate 0 is the centroid itself, so "stay put" is always on the
  // table; the rest are drawn from the beta-neighborhood.
  last_candidates_.clear();
  last_candidates_.push_back(centroid_);
  for (int i = 1; i < options_.num_candidates; ++i) {
    last_candidates_.push_back(
        space_.SampleNeighbor(centroid_, beta_, &rng_));
  }
  const size_t pick = scorer_->SelectBest(last_candidates_, expected_data_size,
                                          best_runtime_);
  return last_candidates_[pick < last_candidates_.size() ? pick : 0];
}

void CentroidLearner::Observe(const sparksim::ConfigVector& config,
                              double data_size, double runtime) {
  Observation obs;
  obs.config = config;
  obs.data_size = data_size;
  obs.runtime = runtime;
  obs.iteration = iteration_++;
  history_.push_back(std::move(obs));
  const size_t window =
      static_cast<size_t>(std::max(1, options_.window_size));
  if (history_.size() > window) {
    history_.erase(history_.begin());
  }
  best_runtime_ = std::min(best_runtime_, runtime);
  if (options_.elite_size > 0) {
    // Keep the all-time-best observations by size-normalized runtime; under
    // one-sided production noise these are also the least-noisy samples.
    elites_.push_back(history_.back());
    std::sort(elites_.begin(), elites_.end(),
              [](const Observation& a, const Observation& b) {
                return a.runtime / std::max(1e-12, a.data_size) <
                       b.runtime / std::max(1e-12, b.data_size);
              });
    if (elites_.size() > static_cast<size_t>(options_.elite_size)) {
      elites_.resize(static_cast<size_t>(options_.elite_size));
    }
  }
  scorer_->Update(history_);
  if (options_.update_every > 0 && iteration_ % options_.update_every == 0) {
    MaybeUpdateCentroid(data_size);
  }
  alpha_ = std::max(options_.min_alpha, alpha_ * options_.step_decay);
  beta_ = std::max(options_.min_beta, beta_ * options_.step_decay);
}

void CentroidLearner::MaybeUpdateCentroid(double reference_data_size) {
  ObservationWindow window = history_;
  window.insert(window.end(), elites_.begin(), elites_.end());
  // One fit of H serves FIND_BEST and FIND_GRADIENT: both read the same
  // window, and the fit is deterministic. A failed fit leaves the model
  // unfitted, and each step falls back on its own.
  WindowModel model(&space_);
  (void)model.Fit(window);
  Result<Observation> best = FindBest(window, options_.find_best_version,
                                      model, reference_data_size);
  if (!best.ok()) return;
  const sparksim::ConfigVector& c_star = best->config;
  Result<GradientSigns> gradient =
      FindGradient(space_, window, options_.gradient_method, model, c_star,
                   reference_data_size, alpha_);
  if (!gradient.ok()) {
    // Not enough observations for a gradient yet: anchor on the best point.
    centroid_ = c_star;
    return;
  }
  last_gradient_ = *gradient;
  centroid_ = UpdateCentroid(space_, c_star, last_gradient_, alpha_,
                             options_.multiplicative_update);
}

Status CentroidLearner::Save(const std::string& prefix,
                             common::ArchiveWriter* writer) const {
  ROCKHOPPER_RETURN_IF_ERROR(writer->PutDoubles(prefix + ".centroid",
                                                centroid_));
  // mt19937_64's stream inserter emits the full 312-word state as
  // space-separated decimal on one line — exactly reproducible through the
  // matching extractor.
  std::ostringstream rng_state;
  rng_state << rng_.engine();
  ROCKHOPPER_RETURN_IF_ERROR(
      writer->PutString(prefix + ".rng", rng_state.str()));
  ROCKHOPPER_RETURN_IF_ERROR(writer->PutDoubleRows(
      prefix + ".history", ObservationsToRows(history_)));
  ROCKHOPPER_RETURN_IF_ERROR(writer->PutDoubleRows(
      prefix + ".elites", ObservationsToRows(elites_)));
  ROCKHOPPER_RETURN_IF_ERROR(writer->PutDoubleRows(
      prefix + ".last_candidates",
      std::vector<std::vector<double>>(last_candidates_.begin(),
                                       last_candidates_.end())));
  std::vector<double> gradient(last_gradient_.begin(), last_gradient_.end());
  ROCKHOPPER_RETURN_IF_ERROR(
      writer->PutDoubles(prefix + ".last_gradient", gradient));
  ROCKHOPPER_RETURN_IF_ERROR(
      writer->PutDouble(prefix + ".best_runtime", best_runtime_));
  ROCKHOPPER_RETURN_IF_ERROR(writer->PutDouble(prefix + ".alpha", alpha_));
  ROCKHOPPER_RETURN_IF_ERROR(writer->PutDouble(prefix + ".beta", beta_));
  ROCKHOPPER_RETURN_IF_ERROR(writer->PutInt(prefix + ".iteration",
                                            iteration_));
  return scorer_->Save(prefix + ".scorer", writer);
}

Status CentroidLearner::Load(const std::string& prefix,
                             const common::ArchiveReader& reader) {
  ROCKHOPPER_ASSIGN_OR_RETURN(centroid, reader.GetDoubles(prefix + ".centroid"));
  ROCKHOPPER_ASSIGN_OR_RETURN(rng_state, reader.GetString(prefix + ".rng"));
  ROCKHOPPER_ASSIGN_OR_RETURN(history_rows,
                              reader.GetDoubleRows(prefix + ".history"));
  ROCKHOPPER_ASSIGN_OR_RETURN(elite_rows,
                              reader.GetDoubleRows(prefix + ".elites"));
  ROCKHOPPER_ASSIGN_OR_RETURN(
      candidate_rows, reader.GetDoubleRows(prefix + ".last_candidates"));
  ROCKHOPPER_ASSIGN_OR_RETURN(gradient,
                              reader.GetDoubles(prefix + ".last_gradient"));
  ROCKHOPPER_ASSIGN_OR_RETURN(best_runtime,
                              reader.GetDouble(prefix + ".best_runtime"));
  ROCKHOPPER_ASSIGN_OR_RETURN(alpha, reader.GetDouble(prefix + ".alpha"));
  ROCKHOPPER_ASSIGN_OR_RETURN(beta, reader.GetDouble(prefix + ".beta"));
  ROCKHOPPER_ASSIGN_OR_RETURN(iteration, reader.GetInt(prefix + ".iteration"));
  ObservationWindow history, elites;
  ROCKHOPPER_RETURN_IF_ERROR(RowsToObservations(history_rows, &history));
  ROCKHOPPER_RETURN_IF_ERROR(RowsToObservations(elite_rows, &elites));
  std::istringstream rng_in(rng_state);
  std::mt19937_64 engine;
  rng_in >> engine;
  if (rng_in.fail()) {
    return Status::InvalidArgument("corrupt rng state in archive: " + prefix);
  }
  ROCKHOPPER_RETURN_IF_ERROR(scorer_->Load(prefix + ".scorer", reader));
  centroid_ = std::move(centroid);
  rng_.engine() = engine;
  history_ = std::move(history);
  elites_ = std::move(elites);
  last_candidates_.assign(candidate_rows.begin(), candidate_rows.end());
  last_gradient_.clear();
  last_gradient_.reserve(gradient.size());
  for (double g : gradient) last_gradient_.push_back(static_cast<int>(g));
  best_runtime_ = best_runtime;
  alpha_ = alpha;
  beta_ = beta;
  iteration_ = static_cast<int>(iteration);
  return Status::OK();
}

size_t CentroidLearner::ApproxBytes() const {
  size_t bytes = sizeof(*this) + centroid_.size() * sizeof(double) +
                 last_gradient_.size() * sizeof(int);
  for (const Observation& obs : history_) {
    bytes += sizeof(Observation) + obs.config.size() * sizeof(double);
  }
  for (const Observation& obs : elites_) {
    bytes += sizeof(Observation) + obs.config.size() * sizeof(double);
  }
  for (const auto& candidate : last_candidates_) {
    bytes += sizeof(candidate) + candidate.size() * sizeof(double);
  }
  return bytes + scorer_->ApproxBytes();
}

}  // namespace rockhopper::core
