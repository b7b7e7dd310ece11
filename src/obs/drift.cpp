#include "obs/drift.hpp"

#include <algorithm>
#include <cmath>
#include <string>

#include "common/error.hpp"

namespace fsda::obs {

namespace {

/// Interior bins over [kLo, kHi]; two outlier bins are added outside.
constexpr std::size_t kBins = 16;
constexpr double kLo = -1.5;
constexpr double kHi = 1.5;
/// Floor applied to bin proportions so empty bins cannot blow up the log.
constexpr double kMinProportion = 1e-4;

/// Bin index of value v: 0 = underflow, 1..kBins = interior, kBins+1 = over.
std::size_t bin_of(double v) {
  if (v < kLo) return 0;
  if (v >= kHi) return kBins + 1;
  const double width = (kHi - kLo) / static_cast<double>(kBins);
  const auto b = static_cast<std::size_t>((v - kLo) / width);
  return 1 + std::min(b, kBins - 1);
}

}  // namespace

void DriftMonitor::fit(la::ConstMatrixView reference,
                       const std::vector<std::size_t>& columns) {
  FSDA_CHECK_MSG(reference.rows() > 0, "empty PSI reference");
  columns_ = columns;
  ref_props_.assign(columns_.size(), std::vector<double>(kBins + 2, 0.0));
  for (std::size_t k = 0; k < columns_.size(); ++k) {
    const std::size_t c = columns_[k];
    FSDA_CHECK_MSG(c < reference.cols(),
                   "PSI column " << c << " out of " << reference.cols());
    double n = 0.0;
    for (std::size_t r = 0; r < reference.rows(); ++r) {
      const double v = reference(r, c);
      if (!std::isfinite(v)) continue;
      ref_props_[k][bin_of(v)] += 1.0;
      n += 1.0;
    }
    if (n == 0.0) {
      ref_props_.clear();  // leave the monitor unfitted, not half-fitted
      throw common::NumericError(
          "DriftMonitor::fit: reference column " + std::to_string(c) +
          " has no finite values; cannot build a PSI reference");
    }
    // Laplace smoothing: every bin keeps at least a kMinProportion-sized
    // pseudo-count, so a batch landing in an empty reference bin scores a
    // large-but-finite PSI contribution instead of relying solely on the
    // psi()-time floor.
    const double alpha = kMinProportion;
    const double denom =
        1.0 + alpha * static_cast<double>(ref_props_[k].size());
    for (double& p : ref_props_[k]) p = (p / n + alpha) / denom;
  }
}

std::vector<double> DriftMonitor::psi(la::ConstMatrixView batch) const {
  FSDA_CHECK_MSG(fitted(), "psi before fit");
  std::vector<double> out(columns_.size(), 0.0);
  std::vector<double> props(kBins + 2);
  for (std::size_t k = 0; k < columns_.size(); ++k) {
    const std::size_t c = columns_[k];
    FSDA_CHECK_MSG(c < batch.cols(),
                   "PSI column " << c << " out of " << batch.cols());
    std::fill(props.begin(), props.end(), 0.0);
    double n = 0.0;
    for (std::size_t r = 0; r < batch.rows(); ++r) {
      const double v = batch(r, c);
      if (!std::isfinite(v)) continue;
      props[bin_of(v)] += 1.0;
      n += 1.0;
    }
    if (n == 0.0) continue;  // all-quarantined column: report 0, not NaN
    double value = 0.0;
    for (std::size_t b = 0; b < props.size(); ++b) {
      const double q = std::max(props[b] / n, kMinProportion);
      const double p = std::max(ref_props_[k][b], kMinProportion);
      value += (q - p) * std::log(q / p);
    }
    out[k] = value;
  }
  return out;
}

std::vector<double> DriftMonitor::ks(la::ConstMatrixView batch) const {
  FSDA_CHECK_MSG(fitted(), "ks before fit");
  std::vector<double> out(columns_.size(), 0.0);
  std::vector<double> props(kBins + 2);
  for (std::size_t k = 0; k < columns_.size(); ++k) {
    const std::size_t c = columns_[k];
    FSDA_CHECK_MSG(c < batch.cols(),
                   "KS column " << c << " out of " << batch.cols());
    std::fill(props.begin(), props.end(), 0.0);
    double n = 0.0;
    for (std::size_t r = 0; r < batch.rows(); ++r) {
      const double v = batch(r, c);
      if (!std::isfinite(v)) continue;
      props[bin_of(v)] += 1.0;
      n += 1.0;
    }
    if (n == 0.0) continue;  // all-quarantined column: report 0, not NaN
    double cdf_batch = 0.0;
    double cdf_ref = 0.0;
    double gap = 0.0;
    for (std::size_t b = 0; b < props.size(); ++b) {
      cdf_batch += props[b] / n;
      cdf_ref += ref_props_[k][b];
      gap = std::max(gap, std::abs(cdf_batch - cdf_ref));
    }
    out[k] = std::min(gap, 1.0);
  }
  return out;
}

}  // namespace fsda::obs
