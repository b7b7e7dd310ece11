// fsda::core -- the paper's conditional GAN reconstructor (Section V-C).
//
// Generator G([X_inv, Z]) -> X̂_var with two hidden layers (ReLU + batch
// norm, CTGAN-style) and a tanh output (features are normalized to [-1,1]);
// discriminator D([X_inv, X̂_var, Y]) with two LeakyReLU+Dropout layers and
// a sigmoid head.  The discriminator's label conditioning is the knob the
// FS+NoCond ablation of Table II turns off.  Losses follow eq. (8)-(9);
// both networks train with Adam (lr 2e-4, weight decay 1e-6, Section V-C3).
//
// An optional L2 reconstruction term on the generator (pix2pix-style)
// stabilizes the small training budgets used on a single core; setting
// `recon_weight = 0` recovers the paper's pure adversarial objective.
#pragma once

#include <optional>

#include "common/retry.hpp"
#include "common/rng.hpp"
#include "core/health.hpp"
#include "core/reconstructor.hpp"
#include "nn/sequential.hpp"
#include "nn/workspace.hpp"

namespace fsda::core {

struct CganOptions {
  /// Noise dimension; 0 = auto (var_dim / 3, clamped to [4, 30] -- the
  /// paper uses 30 for 442 features and 15 for 116).
  std::size_t noise_dim = 0;
  /// Hidden widths for both networks; empty = auto (256 for wide telemetry,
  /// 128 otherwise, matching Section V-C3).
  std::vector<std::size_t> hidden;
  std::size_t epochs = 60;
  std::size_t batch_size = 64;
  double learning_rate = 2e-4;
  double adam_beta1 = 0.5;
  double weight_decay = 1e-6;
  double dropout = 0.3;
  /// Condition the discriminator on the one-hot label (eq. 7).  false
  /// reproduces the FS+NoCond ablation.
  bool conditional = true;
  /// Weight of the auxiliary L2 reconstruction term in the generator loss.
  double recon_weight = 1.0;
  /// Probability of marginal-preserving corruption per generator-input cell
  /// during training (denoising robustness to undetected drift; see
  /// core/corruption.hpp).
  double input_corruption_p = 0.1;
  /// Divergence recovery (core/health.hpp): on a NaN/Inf or sustained-
  /// explosion epoch the trainer rolls both networks back to the last
  /// healthy snapshot, decays the learning rate by retry.backoff_factor,
  /// reseeds, and retries up to retry.max_attempts total attempts.
  common::RetryPolicy retry;
  DivergenceMonitorOptions divergence;
  /// Epochs between healthy-parameter snapshots (rollback granularity).
  std::size_t snapshot_every = 10;
  /// Data-parallel minibatch shards (nn/sharded.hpp): 1 = one shard (the
  /// master networks train directly), 0 = auto (one shard per pool worker,
  /// each keeping >= 16 rows), N = at most N shards.
  std::size_t train_shards = 1;
  /// Read by nothing: fits always run `epochs`.  Kept only because the
  /// repository benchmark (perfbench/perfbench.cpp) still assigns it; delete
  /// it together with that assignment.
  std::size_t plateau_patience = 4;

  static CganOptions quick();  ///< single-core benchmark budget
  static CganOptions paper();  ///< Section V-C3 budget (500 epochs)
};

/// Per-epoch training diagnostics.
struct GanEpochStats {
  double d_loss = 0.0;
  double g_adv_loss = 0.0;
  double g_recon_loss = 0.0;
};

class ConditionalGAN : public Reconstructor {
 public:
  ConditionalGAN(std::size_t inv_dim, std::size_t var_dim, CganOptions options,
                 std::uint64_t seed);

  void fit(const la::Matrix& x_inv, const la::Matrix& x_var,
           const std::vector<std::int64_t>& labels,
           std::size_t num_classes) override;

  la::Matrix reconstruct(const la::Matrix& x_inv) override;

  [[nodiscard]] std::string name() const override {
    return options_.conditional ? "CGAN" : "NoCondGAN";
  }

  [[nodiscard]] const std::vector<GanEpochStats>& history() const {
    return history_;
  }
  [[nodiscard]] std::size_t noise_dim() const { return noise_dim_; }

  /// Fills `z` with rows x noise_dim N(0,1) draws from the GAN's own rng
  /// stream.  Public so the serving path (core/inference_session.hpp) can
  /// consume the stream in exactly the order reconstruct() would, keeping
  /// packed and layer-API predictions on the same noise sequence.
  void sample_noise_into(std::size_t rows, la::Matrix& z);

  /// Same draw shape, but from a caller-owned rng stream; const, so
  /// concurrent serve contexts can sample noise without touching (or
  /// racing on) the GAN's own stream.
  void sample_noise_into(std::size_t rows, la::Matrix& z,
                         common::Rng& rng) const;

  /// The trained generator network, or nullptr before fit(); used by the
  /// inference-plan compiler.  The pointer is invalidated by the next fit().
  [[nodiscard]] nn::Sequential* generator_network() {
    return fitted_ ? generator_.get() : nullptr;
  }
  [[nodiscard]] std::size_t inv_dim() const { return inv_dim_; }
  [[nodiscard]] std::size_t var_dim() const { return var_dim_; }

  /// Divergence-recovery diagnostics of the last fit().
  [[nodiscard]] const TrainHealth& train_health() const {
    return train_health_;
  }
  [[nodiscard]] bool healthy() const override { return train_health_.healthy; }
  [[nodiscard]] std::size_t fit_retries() const override {
    return train_health_.retries;
  }
  [[nodiscard]] std::size_t fit_rollbacks() const override {
    return train_health_.rollbacks;
  }

 private:
  [[nodiscard]] la::Matrix one_hot(const std::vector<std::int64_t>& labels,
                                   std::size_t num_classes) const;

  std::size_t inv_dim_;
  std::size_t var_dim_;
  CganOptions options_;
  std::size_t noise_dim_;
  common::Rng rng_;
  std::unique_ptr<nn::Sequential> generator_;
  std::unique_ptr<nn::Sequential> discriminator_;
  std::vector<GanEpochStats> history_;
  TrainHealth train_health_;
  bool fitted_ = false;

  // Training workspace and persistent mini-batch buffers: capacities are
  // reused across batches/epochs so the steady-state step allocates nothing
  // (per-shard scratch lives in fit()).
  nn::Workspace ws_;
  la::Matrix inv_b_;
  la::Matrix var_b_;
  la::Matrix y_b_;
  la::Matrix corrupt_b_;
  la::Matrix noise_b_;
  la::Matrix g_in_;
};

}  // namespace fsda::core
