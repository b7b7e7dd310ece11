// fsda::core -- the one inference path of a trained pipeline.
//
// An InferenceSession runs the reconstruct->assemble->classify chain of
// FsGanPipeline predictions (paper Fig. 1(c), DESIGN.md §11) for one model
// generation.  Each stage is either a compiled nn::InferencePlan or an
// opaque stage:
//
//   - plans: the CGAN generator and the neural classifier are compiled
//     once -- weights packed into the panel-major GEMM layout, activations
//     fused, dropout and batch-norm folded -- and every prediction executes
//     into caller-owned buffers with zero steady-state heap allocations;
//   - opaque stages: any other classifier (RF, XGBoost, ...) or
//     reconstructor (VAE, autoencoder, the MeanImpute fallback), or a
//     network with an unsupported layer kind, is called through its own
//     Classifier::predict_proba / Reconstructor::reconstruct.  Those models
//     keep shared mutable state (workspaces, noise streams), so every
//     opaque call holds one mutex the pipeline shares across all of its
//     sessions.
//
// The session serves the three separation regimes (FS-only /
// no-reconstructor / full FS+GAN) and reproduces the models' own numerics:
// the single-caller path draws generator noise from the GAN's own stream in
// the order reconstruct() would, and the plan forwards match the layer
// forwards to ~1e-12 under either GEMM kernel.  Health guardrails
// (quarantine, clamp envelope, uniform-row rewrites) wrap the session in
// the pipeline.
//
// The single-caller predict shards micro-batches over the global
// ThreadPool (noise is drawn serially first, so serial and threaded
// execution are bitwise-identical) and is not re-entrant; the ServeContext
// overload is, with one context per thread.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <vector>

#include "common/rng.hpp"
#include "core/feature_separation.hpp"
#include "core/reconstructor.hpp"
#include "la/matrix.hpp"
#include "models/classifier.hpp"
#include "nn/inference.hpp"

namespace fsda::core {

class ConditionalGAN;

/// Maps the classifier's trained input order onto a (possibly different)
/// serving-time partition.  The classifier is frozen with inputs
/// [X_inv | X_var] of the partition it was TRAINED on; when drift
/// re-adaptation discovers a fresh partition, column j of the classifier
/// input is sourced from either a raw feature (still trusted under the new
/// partition) or a column of the new reconstructor's output:
///
///   input[j] = from_recon[j] ? recon_out[src[j]] : x[src[j]]
///
/// `identity` marks the fast path where the map is exactly
/// [sep.invariant raw gather | recon 0..var) in order -- the partition the
/// classifier was trained on -- letting the generator write straight into
/// the assembled block with no per-column scatter.
struct AssemblyMap {
  std::vector<std::size_t> src;
  std::vector<char> from_recon;
  bool identity = false;

  /// Builds the map for a classifier trained on raw features
  /// `trained_order` (in input order) served under partition `sep`.  With
  /// a reconstructor, trained features that are variant under `sep` come
  /// from the reconstruction; everything else stays raw.
  static AssemblyMap build(const std::vector<std::size_t>& trained_order,
                           const SeparationResult& sep,
                           bool with_reconstructor);
};

class InferenceSession {
  /// Plan workspaces for one thread of execution.
  struct Workspaces {
    nn::InferenceWorkspace gen;
    nn::InferenceWorkspace clf;
  };

 public:
  /// Builds the session serving a classifier trained on one feature order
  /// through the partition/reconstructor of a (possibly newer) generation,
  /// routing each classifier input column per `map`.  Stages that do not
  /// compile run opaque under `opaque_mu`; never returns null.  Throws when
  /// the map does not fit the classifier/reconstructor shapes.
  static std::unique_ptr<InferenceSession> build(
      models::Classifier& classifier, Reconstructor* reconstructor,
      const SeparationResult& sep, const AssemblyMap& map,
      std::size_t monte_carlo_m, bool use_reconstruction,
      std::shared_ptr<std::mutex> opaque_mu);

  /// Per-caller execution state: every per-call buffer, private plan
  /// workspaces, and an independent noise stream.  One context belongs to
  /// one thread at a time.  A context is bound to the session that created
  /// it -- after a model hot-swap, build a fresh context from the new
  /// session.
  class ServeContext {
   public:
    /// Pre-sizes every buffer for batches of up to `rows` rows, so calls
    /// at any batch size <= rows are allocation-free from the first one.
    void reserve(std::size_t rows);

   private:
    friend class InferenceSession;
    ServeContext(const InferenceSession* owner, std::uint64_t noise_seed)
        : owner_(owner), rng_(noise_seed) {}
    const InferenceSession* owner_;
    common::Rng rng_;  ///< private noise stream (serve path only)
    Workspaces ws_;
    la::Matrix selected_, assembled_, recon_, g_in_, noise_, mc_tmp_;
  };

  /// Creates a serving context whose reconstruction-noise stream derives
  /// from `noise_seed` (decorrelate concurrent workers with distinct
  /// seeds).
  [[nodiscard]] std::unique_ptr<ServeContext> create_serve_context(
      std::uint64_t noise_seed) const;

  /// Single-caller predict (drift loop, validation, predict_proba): `x` is
  /// the scaled, sanitized batch in original feature order; `proba` is
  /// resized to rows x classes.  Generator noise comes from the GAN's own
  /// stream; batches of more than one row shard over the global pool
  /// unless the caller already runs on a pool worker.
  void predict_proba_scaled(const la::Matrix& x, la::Matrix& proba);

  /// Re-entrant predict for the serving daemon: the same chain, but every
  /// mutable buffer lives in `ctx`, generator noise comes from the
  /// context's own stream, and the batch runs serially on the calling
  /// thread -- a daemon's worker pool is the parallelism.
  void predict_proba_scaled(const la::Matrix& x, la::Matrix& proba,
                            ServeContext& ctx) const;

  /// True when every stage runs a compiled plan (no opaque stage).
  [[nodiscard]] bool all_stages_compiled() const {
    return clf_plan_.has_value() &&
           (mode_ != Mode::Reconstruct || gen_plan_.has_value());
  }

 private:
  enum class Mode {
    Direct,       ///< classify x as-is (FS-only, empty invariant set)
    Select,       ///< classify a column gather of x
    Reconstruct,  ///< gather inv block, generate var block, classify
  };

  InferenceSession() : own_(this, 0) {}

  /// The one executor body: `c` supplies the buffers, `noise` the
  /// generator's noise stream (null = the GAN's own), and `shard` whether
  /// plan stages split the rows over the global pool.
  void run(const la::Matrix& x, la::Matrix& proba, ServeContext& c,
           common::Rng* noise, bool shard) const;

  Mode mode_ = Mode::Direct;
  std::size_t num_classes_ = 0;  // 0 with an opaque classifier: its output
  std::size_t monte_carlo_m_ = 1;

  // Classifier stage: a compiled plan, else the opaque classifier.
  std::optional<nn::InferencePlan> clf_plan_;
  const models::Classifier* classifier_ = nullptr;
  // Reconstruct mode: the generator plan fed by gan_'s noise, else the
  // opaque reconstructor.
  std::optional<nn::InferencePlan> gen_plan_;
  ConditionalGAN* gan_ = nullptr;
  Reconstructor* reconstructor_ = nullptr;
  std::size_t var_dim_ = 0;
  std::shared_ptr<std::mutex> opaque_mu_;  // held by every opaque call

  std::vector<std::size_t> cols_;  // gather list (Select: all, Reconstruct: inv)
  AssemblyMap map_;                // Reconstruct: classifier column routing
  std::size_t min_input_cols_ = 0;  // raw width the gathers require
  // Scatter lists from the map: assembled(.,raw_dst_[i]) = x(.,raw_src_[i])
  // once per batch; assembled(.,recon_dst_[i]) = recon(.,recon_src_[i])
  // once per Monte-Carlo draw, unless the generator plan writes the
  // identity map's variant block directly.
  std::vector<std::size_t> raw_dst_, raw_src_;
  std::vector<std::size_t> recon_dst_, recon_src_;

  ServeContext own_;  // the single-caller path's buffers

  // Sharded chunks borrow workspaces from this pool.
  mutable std::mutex pool_mu_;
  mutable std::vector<std::unique_ptr<Workspaces>> pool_;
  mutable std::vector<Workspaces*> pool_free_;
};

}  // namespace fsda::core
