// fsda::nn -- the scaffolding the reconstructor fit loops (CGAN/VAE/AE)
// share: deterministic minibatch sharding and fit telemetry.
//
// Each minibatch splits into contiguous row shards.  Every shard runs the
// model's one step body, forward/backward on its own networks; the shard
// gradients then combine into the master parameters through a fixed
// pairwise reduction tree.  A batch that resolves to ONE shard runs that
// body on the master networks and workspace themselves, with weight 1.0
// and no broadcast, batch-norm sync or reduction -- the exact unsharded
// step, since scaling by 1.0 is exact.
//
// Determinism contract: for a given shard count, running the shards
// serially (e.g. from inside a pool worker, where parallel_for runs
// inline) or on the pool produces BITWISE identical parameters.  Shards
// touch disjoint replica state, every random stream is pre-assigned (batch
// noise is drawn by the caller on the master stream before the shards
// run; dropout streams are per-replica), and the reduction order never
// depends on thread completion order.
//
// Replicas are throwaway architecture clones: their parameter VALUES are
// overwritten by a version-gated broadcast before every pass, and only
// their gradients flow back.  BatchNorm running statistics stay
// master-owned: each replica pass recombines the shards' batch statistics
// into exact full-batch statistics and applies the master's running update.
#pragma once

#include <algorithm>
#include <cstddef>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "common/stopwatch.hpp"
#include "la/matrix.hpp"
#include "nn/sequential.hpp"
#include "nn/workspace.hpp"
#include "obs/journal.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace fsda::nn {

class BatchNorm1d;

/// Half-open row range [first, second) of one shard.
using ShardRange = std::pair<std::size_t, std::size_t>;

/// Rows `range` of `src`: `src` itself when the range spans every row (a
/// one-shard step reads the batch buffers in place), else a copy of the
/// row block into `scratch`.
[[nodiscard]] const la::Matrix& shard_rows(const la::Matrix& src,
                                           ShardRange range,
                                           la::Matrix& scratch);

/// The networks each shard of a fit's minibatches trains on.
class ShardedNets {
 public:
  /// Builds network `index` of one replica from `rng`; called for indices
  /// 0..N-1 in order with one rng per replica.
  using Builder =
      std::function<std::unique_ptr<Sequential>(std::size_t index,
                                                 common::Rng& rng)>;

  /// `master` lists the fit's networks in a fixed order (the index every
  /// other call uses); `master_ws` is their workspace.  `requested` is the
  /// train_shards option: 0 = auto (one shard per pool worker), N = at most
  /// N; every shard keeps at least 16 rows of a `batch_rows` batch.
  /// Replicas are built only when that cap exceeds one, replica r from
  /// init_rng.split(0xD15C0 + r).
  ShardedNets(std::vector<Sequential*> master, Workspace& master_ws,
              std::size_t requested, std::size_t batch_rows,
              common::Rng& init_rng, const Builder& build);

  /// Splits a `rows`-row minibatch (a tail batch may resolve to fewer
  /// shards); returns the shard count.
  std::size_t split(std::size_t rows);

  [[nodiscard]] std::size_t count() const { return ranges_.size(); }
  /// Upper bound on count() over the fit (sizes per-shard scratch).
  [[nodiscard]] std::size_t max_count() const {
    return std::max<std::size_t>(1, replicas_.size());
  }
  [[nodiscard]] ShardRange range(std::size_t shard) const {
    return ranges_[shard];
  }
  /// rows_shard / rows: scales the shard's loss and loss gradient so the
  /// reduced gradient is the full-batch mean-loss gradient (1.0 exactly
  /// for one shard).
  [[nodiscard]] double weight(std::size_t shard) const;

  /// Network `index` of `shard`: the master's own when count() == 1.
  [[nodiscard]] Sequential& net(std::size_t shard, std::size_t index);
  [[nodiscard]] Workspace& workspace(std::size_t shard);

  /// Runs fn(shard) for every shard, on the thread pool when there are
  /// several.  A replica first receives the master's parameter values.
  /// Afterwards the replicas' batch statistics update the master's
  /// batch-norm running averages, so every network with batch norm must
  /// run one training forward per shard in each pass.
  void run(const std::function<void(std::size_t)>& fn);

  /// Adds the shards' gradients of network `index` into the master's in a
  /// fixed pairwise tree (0+=1, 2+=3, ... then 0+=2, ...) and clears the
  /// replicas' for the next pass.  A no-op for one shard, which wrote the
  /// master's gradients directly.
  void reduce(std::size_t index);

 private:
  struct Replica {
    std::vector<std::unique_ptr<Sequential>> nets;
    std::vector<std::vector<Parameter*>> params;  // per network
    Workspace ws;
  };
  /// A master BatchNorm1d and its counterpart in every replica.
  struct BatchNormClones {
    BatchNorm1d* master = nullptr;
    std::vector<BatchNorm1d*> replicas;
  };

  /// Recombines the shards' batch statistics of the last pass into exact
  /// full-batch statistics and applies the master's running update.
  void sync_batch_norms();

  std::vector<Sequential*> master_;
  std::vector<std::vector<Parameter*>> master_params_;
  Workspace& master_ws_;
  std::size_t requested_;
  std::vector<std::unique_ptr<Replica>> replicas_;
  std::vector<BatchNormClones> batch_norms_;
  la::Matrix bn_mean_;  // sync_batch_norms() scratch
  la::Matrix bn_var_;
  std::vector<ShardRange> ranges_;
  std::size_t rows_ = 0;
};

/// The telemetry every reconstructor fit records: a trace span and a
/// flight-recorder scope named `name` around the fit, the `epochs_counter`
/// counter and the training.epoch_ms histogram per epoch, and the
/// training.steps_per_second / training.gemm_pack_seconds gauges at
/// finish().
class FitTelemetry {
 public:
  FitTelemetry(const char* name, const char* epochs_counter,
               const char* epochs_help);

  void begin_epoch() { epoch_watch_.reset(); }
  void end_epoch();
  void count_step() { ++steps_; }
  /// Sets the closing gauges for this fit.
  void finish();

 private:
  obs::SpanGuard span_;
  obs::ScopedEvent event_;
  common::Stopwatch fit_watch_;
  common::Stopwatch epoch_watch_;
  double pack_seconds0_;
  std::size_t steps_ = 0;
  obs::Counter& epochs_;
  obs::HdrHistogram& epoch_ms_;
};

}  // namespace fsda::nn
