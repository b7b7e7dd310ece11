// fsda::core -- interface for variant-feature reconstructors.
//
// Step 2 of the paper's framework: a model trained *exclusively on source
// data* that estimates P(X_var | X_inv) and, at inference, maps a target
// sample's variant features back onto the source distribution.  The paper's
// primary instantiation is the conditional GAN (Section V-C); the ablation
// of Table II swaps in a VAE and a vanilla autoencoder.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "la/matrix.hpp"

namespace fsda::core {

/// Learns X_var from X_inv on source data; reconstructs at inference.
class Reconstructor {
 public:
  virtual ~Reconstructor() = default;

  /// Trains on source-domain rows: invariant block, variant block, labels.
  /// Labels are used only by conditional variants (the paper's discriminator
  /// conditioning, eq. 7); unconditional ones ignore them.
  virtual void fit(const la::Matrix& x_inv, const la::Matrix& x_var,
                   const std::vector<std::int64_t>& labels,
                   std::size_t num_classes) = 0;

  /// Generates variant features for each row of x_inv (eq. 10).  Stochastic
  /// reconstructors draw fresh noise per call.
  [[nodiscard]] virtual la::Matrix reconstruct(const la::Matrix& x_inv) = 0;

  [[nodiscard]] virtual std::string name() const = 0;

  /// False when the last fit() diverged and exhausted its retry budget; the
  /// pipeline then swaps in the degraded-mode fallback (core/health.hpp).
  [[nodiscard]] virtual bool healthy() const { return true; }

  /// Extra fit() attempts consumed by divergence recovery.
  [[nodiscard]] virtual std::size_t fit_retries() const { return 0; }

  /// Parameter rollbacks performed by divergence recovery.
  [[nodiscard]] virtual std::size_t fit_rollbacks() const { return 0; }
};

using ReconstructorPtr = std::unique_ptr<Reconstructor>;

/// Factory signature used by the pipeline (seeded for determinism).
using ReconstructorFactory =
    std::function<ReconstructorPtr(std::size_t inv_dim, std::size_t var_dim,
                                   std::uint64_t seed)>;

}  // namespace fsda::core
