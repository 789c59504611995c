#include "core/guardrail.h"

#include <cmath>

namespace rockhopper::core {

namespace {

// Ridge on both slopes' variances: keeps a constant data size (or a single
// iteration) solvable without moving any meaningful fit.
constexpr double kRidge = 1e-8;

}  // namespace

// The trend decomposition behind §4.3's regression model on "iteration
// number and input cardinality". Two stages instead of one joint fit:
// input size and iteration are often collinear in production (data grows as
// the query recurs), and a joint fit would split the blame arbitrarily.
// Fitting data size first deliberately attributes as much runtime growth as
// possible to the input, so only growth the input cannot explain counts
// against the tuner — the conservative direction for a guardrail.
//
// Stage 1 regresses runtime on data size: b = C_sy / C_ss. Stage 2 regresses
// the stage-1 residual on iteration; the residual's co-moment with iteration
// is C_ty - b * C_ts, so neither stage needs the rows.
bool Guardrail::FitTrend(Trend* trend) const {
  if (count_ < 3 || !std::isfinite(c_ss_)) return false;
  trend->size_slope = c_sy_ / (c_ss_ + kRidge);
  trend->iteration_slope =
      (c_ty_ - trend->size_slope * c_ts_) / (c_tt_ + kRidge);
  return true;
}

void Guardrail::Accumulate(double data_size, double runtime, int iteration) {
  ++count_;
  const double n = static_cast<double>(count_);
  const double t = static_cast<double>(iteration);
  // Deviations from the old means; each co-moment pairs one with the
  // matching deviation from the new mean (Welford's update).
  const double ds = data_size - mean_s_;
  const double dt = t - mean_t_;
  mean_s_ += ds / n;
  mean_y_ += (runtime - mean_y_) / n;
  mean_t_ += dt / n;
  c_ss_ += ds * (data_size - mean_s_);
  c_sy_ += ds * (runtime - mean_y_);
  c_ts_ += dt * (data_size - mean_s_);
  c_ty_ += dt * (runtime - mean_y_);
  c_tt_ += dt * (t - mean_t_);
  last_s_ = data_size;
  last_t_ = iteration;
}

double Guardrail::PredictNextRuntime() const {
  Trend trend;
  if (!FitTrend(&trend)) return -1.0;
  return mean_y_ + trend.size_slope * (last_s_ - mean_s_) +
         trend.iteration_slope * (static_cast<double>(last_t_ + 1) - mean_t_);
}

bool Guardrail::Record(const Observation& obs) {
  if (disabled_) return false;
  Accumulate(obs.data_size, obs.runtime, obs.iteration);
  // Failure strikes run ahead of the exploration-budget gate: a config that
  // keeps killing jobs is disabled fast, while a lone failure resets before
  // the consecutive counter reaches the strike threshold. Failure strikes
  // are sticky across successes so a flapping query still drains them.
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
  if (count_ <= options_.min_iterations) return true;
  Trend trend;
  if (!FitTrend(&trend)) return true;
  // Projected cumulative regression attributable to tuning: the iteration
  // trend extrapolated over the whole history. A positive drift exceeding
  // `regression_threshold` of the typical runtime is a strike. A non-finite
  // runtime makes the drift NaN, which never strikes and clears the count.
  const double projected_drift =
      trend.iteration_slope * static_cast<double>(obs.iteration + 1);
  if (projected_drift > options_.regression_threshold * std::fabs(mean_y_)) {
    ++strikes_;
    if (strikes_ >= options_.max_strikes) disabled_ = true;
  } else {
    strikes_ = 0;
  }
  return !disabled_;
}

Status Guardrail::Save(const std::string& prefix,
                       common::ArchiveWriter* writer) const {
  ROCKHOPPER_RETURN_IF_ERROR(writer->PutBool(prefix + ".disabled", disabled_));
  ROCKHOPPER_RETURN_IF_ERROR(writer->PutInt(prefix + ".strikes", strikes_));
  ROCKHOPPER_RETURN_IF_ERROR(
      writer->PutInt(prefix + ".failure_strikes", failure_strikes_));
  ROCKHOPPER_RETURN_IF_ERROR(writer->PutInt(prefix + ".consecutive_failures",
                                            consecutive_failures_));
  // The moments, as hexfloat doubles so they round-trip exactly.
  ROCKHOPPER_RETURN_IF_ERROR(writer->PutInt(prefix + ".count", count_));
  return writer->PutDoubles(
      prefix + ".moments", {mean_s_, mean_y_, mean_t_, c_ss_, c_sy_, c_ts_,
                            c_ty_, c_tt_, last_s_,
                            static_cast<double>(last_t_)});
}

Status Guardrail::Load(const std::string& prefix,
                       const common::ArchiveReader& reader) {
  ROCKHOPPER_ASSIGN_OR_RETURN(disabled, reader.GetBool(prefix + ".disabled"));
  ROCKHOPPER_ASSIGN_OR_RETURN(strikes, reader.GetInt(prefix + ".strikes"));
  ROCKHOPPER_ASSIGN_OR_RETURN(failure_strikes,
                              reader.GetInt(prefix + ".failure_strikes"));
  ROCKHOPPER_ASSIGN_OR_RETURN(
      consecutive, reader.GetInt(prefix + ".consecutive_failures"));
  ROCKHOPPER_ASSIGN_OR_RETURN(count, reader.GetInt(prefix + ".count"));
  ROCKHOPPER_ASSIGN_OR_RETURN(moments, reader.GetDoubles(prefix + ".moments"));
  if (count < 0 || moments.size() != 10) {
    return Status::InvalidArgument("malformed guardrail moments");
  }
  Guardrail loaded(options_);
  loaded.count_ = count;
  loaded.mean_s_ = moments[0];
  loaded.mean_y_ = moments[1];
  loaded.mean_t_ = moments[2];
  loaded.c_ss_ = moments[3];
  loaded.c_sy_ = moments[4];
  loaded.c_ts_ = moments[5];
  loaded.c_ty_ = moments[6];
  loaded.c_tt_ = moments[7];
  loaded.last_s_ = moments[8];
  loaded.last_t_ = static_cast<int>(moments[9]);
  loaded.disabled_ = disabled;
  loaded.strikes_ = static_cast<int>(strikes);
  loaded.failure_strikes_ = static_cast<int>(failure_strikes);
  loaded.consecutive_failures_ = static_cast<int>(consecutive);
  *this = loaded;
  return Status::OK();
}

}  // namespace rockhopper::core
