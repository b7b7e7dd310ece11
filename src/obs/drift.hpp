// fsda::obs -- inference-time drift telemetry.
//
// The pipeline's scaler and feature partition are fitted on source data
// only, so drift shows up at inference as target batches whose per-feature
// distributions move away from the cached scaled-source reference.  The
// Population Stability Index over the variant block is the per-feature
// signal (Eastwood et al. frame measurement shift as exactly this kind of
// progressively monitorable quantity; the variant/invariant split of
// Wu & Chen tells us *which* features are worth the gauges):
//
//   PSI(p, q) = sum_b (p_b - q_b) * ln(p_b / q_b)
//
// over 16 fixed bins spanning the scaled envelope [-1.5, 1.5] (the
// pipeline's [-1, 1] plus its clamp margin), with underflow/overflow bins
// and proportions floored at 1e-4.  Rules of thumb: < 0.1 stable,
// 0.1-0.25 moderate shift, > 0.25 action needed.
//
// DriftMonitor is deliberately matrix-library-light: it reads element
// views only (no owning la::Matrix operations), so fsda_obs stays
// link-independent of fsda_la.
#pragma once

#include <cstddef>
#include <vector>

#include "la/view.hpp"

namespace fsda::obs {

/// Caches per-column reference histograms of a (scaled) source matrix and
/// scores later batches against them with PSI.
class DriftMonitor {
 public:
  /// Builds reference proportions for the listed columns of `reference`.
  /// Proportions are Laplace-smoothed with floor-sized pseudo-counts so
  /// empty reference bins stay strictly positive (finite PSI even against a
  /// batch concentrated where the reference is empty).  Throws NumericError
  /// when a monitored column has no finite reference value at all -- an
  /// all-NaN column would otherwise produce an all-zero reference that
  /// silently scores every batch as maximally drifted.
  void fit(la::ConstMatrixView reference,
           const std::vector<std::size_t>& columns);

  [[nodiscard]] bool fitted() const { return !ref_props_.empty(); }
  [[nodiscard]] const std::vector<std::size_t>& columns() const {
    return columns_;
  }

  /// PSI of each monitored column of `batch` (full-width matrix; the
  /// monitor indexes its own columns) against the reference, in
  /// columns() order.  Non-finite cells are ignored.
  [[nodiscard]] std::vector<double> psi(la::ConstMatrixView batch) const;

  /// Binned two-sample Kolmogorov-Smirnov statistic per monitored column:
  /// the maximum CDF gap between `batch` and the reference over the PSI
  /// bins, in [0, 1].  Complements PSI in the streaming drift detector --
  /// KS responds to location shifts that spread mass across adjacent bins
  /// before any single bin's proportion moves enough to register on PSI.
  [[nodiscard]] std::vector<double> ks(la::ConstMatrixView batch) const;

 private:
  std::vector<std::size_t> columns_;
  /// Per monitored column: bins + 2 reference proportions.
  std::vector<std::vector<double>> ref_props_;
};

}  // namespace fsda::obs
