#include "nn/sharded.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "common/thread_pool.hpp"
#include "la/kernels.hpp"
#include "la/view.hpp"
#include "nn/batchnorm.hpp"

namespace fsda::nn {

namespace {

constexpr std::size_t kMinRowsPerShard = 16;  // BN statistics degrade below

std::size_t resolve_shard_count(std::size_t requested, std::size_t rows) {
  const std::size_t count =
      requested == 0 ? common::ThreadPool::global().size() : requested;
  return std::max<std::size_t>(std::min(count, rows / kMinRowsPerShard), 1);
}

// Balanced: the first rows % count shards get one extra row.
ShardRange shard_range(std::size_t rows, std::size_t count,
                       std::size_t shard) {
  const std::size_t base = rows / count;
  const std::size_t rem = rows % count;
  const std::size_t begin = shard * base + std::min(shard, rem);
  return {begin, begin + base + (shard < rem ? 1 : 0)};
}

// Copies master parameter values into a replica, skipping parameters whose
// version the replica already holds (replicas never step, so a matching
// version means a matching value).
void broadcast_parameters(const std::vector<Parameter*>& master,
                          const std::vector<Parameter*>& replica) {
  for (std::size_t i = 0; i < master.size(); ++i) {
    if (replica[i]->version == master[i]->version) continue;
    la::copy_into(master[i]->value, replica[i]->value);
    replica[i]->version = master[i]->version;
  }
}

void collect_batch_norms(Layer& layer, std::vector<BatchNorm1d*>& out) {
  if (auto* bn = dynamic_cast<BatchNorm1d*>(&layer)) out.push_back(bn);
  layer.for_each_child(
      [&out](Layer& child) { collect_batch_norms(child, out); });
}

}  // namespace

const la::Matrix& shard_rows(const la::Matrix& src, ShardRange range,
                             la::Matrix& scratch) {
  if (range.first == 0 && range.second == src.rows()) return src;
  const std::size_t rows = range.second - range.first;
  scratch.resize(rows, src.cols());
  la::copy_into(la::ConstMatrixView(src).row_block(range.first, rows),
                scratch);
  return scratch;
}

ShardedNets::ShardedNets(std::vector<Sequential*> master,
                         Workspace& master_ws, std::size_t requested,
                         std::size_t batch_rows, common::Rng& init_rng,
                         const Builder& build)
    : master_(std::move(master)),
      master_ws_(master_ws),
      requested_(requested) {
  for (Sequential* net : master_) master_params_.push_back(net->parameters());
  const std::size_t max_shards = resolve_shard_count(requested, batch_rows);
  if (max_shards <= 1) return;
  for (std::size_t r = 0; r < max_shards; ++r) {
    // The replica rng seeds throwaway initial weights (the broadcast
    // overwrites them) and the replica's own dropout streams.
    common::Rng rng = init_rng.split(0xD15C0ULL + r);
    auto replica = std::make_unique<Replica>();
    for (std::size_t i = 0; i < master_.size(); ++i) {
      replica->nets.push_back(build(i, rng));
      replica->params.push_back(replica->nets.back()->parameters());
      FSDA_CHECK_MSG(replica->params.back().size() == master_params_[i].size(),
                     "replica and master parameter counts differ");
    }
    replicas_.push_back(std::move(replica));
  }
  for (std::size_t i = 0; i < master_.size(); ++i) {
    std::vector<BatchNorm1d*> master_bns;
    collect_batch_norms(*master_[i], master_bns);
    const std::size_t first = batch_norms_.size();
    for (BatchNorm1d* bn : master_bns) batch_norms_.push_back({bn, {}});
    for (const auto& replica : replicas_) {
      std::vector<BatchNorm1d*> bns;
      collect_batch_norms(*replica->nets[i], bns);
      FSDA_CHECK_MSG(bns.size() == master_bns.size(),
                     "replica and master BatchNorm layers differ");
      for (std::size_t b = 0; b < bns.size(); ++b) {
        batch_norms_[first + b].replicas.push_back(bns[b]);
      }
    }
  }
}

std::size_t ShardedNets::split(std::size_t rows) {
  const std::size_t count =
      replicas_.empty()
          ? 1
          : std::min(resolve_shard_count(requested_, rows), replicas_.size());
  ranges_.clear();
  for (std::size_t s = 0; s < count; ++s) {
    ranges_.push_back(shard_range(rows, count, s));
  }
  rows_ = rows;
  return count;
}

double ShardedNets::weight(std::size_t shard) const {
  return static_cast<double>(ranges_[shard].second - ranges_[shard].first) /
         static_cast<double>(rows_);
}

Sequential& ShardedNets::net(std::size_t shard, std::size_t index) {
  return count() == 1 ? *master_[index] : *replicas_[shard]->nets[index];
}

Workspace& ShardedNets::workspace(std::size_t shard) {
  return count() == 1 ? master_ws_ : replicas_[shard]->ws;
}

void ShardedNets::run(const std::function<void(std::size_t)>& fn) {
  if (count() == 1) {
    fn(0);
    return;
  }
  common::parallel_for(count(), [&](std::size_t shard) {
    Replica& replica = *replicas_[shard];
    for (std::size_t i = 0; i < master_.size(); ++i) {
      broadcast_parameters(master_params_[i], replica.params[i]);
    }
    fn(shard);
  });
  sync_batch_norms();
}

// Ghost batch norm: normalization inside a shard uses the shard's own
// statistics, the running state tracks the full batch.  With weights
// w_r = rows_r / rows, E[x] = sum w_r mean_r and
// Var[x] = sum w_r (var_r + mean_r^2) - E[x]^2 are exact because the
// shards partition the batch.
void ShardedNets::sync_batch_norms() {
  for (BatchNormClones& bn : batch_norms_) {
    bool used = true;
    for (std::size_t r = 0; r < count(); ++r) {
      used = used && bn.replicas[r]->last_used_batch_stats();
    }
    if (!used) continue;  // eval-mode or degenerate forward; nothing to fold
    const std::size_t d = bn.replicas.front()->last_batch_mean().cols();
    bn_mean_.resize(1, d);
    bn_var_.resize(1, d);
    bn_mean_.fill(0.0);
    bn_var_.fill(0.0);
    for (std::size_t r = 0; r < count(); ++r) {
      const double w = weight(r);
      const la::Matrix& sm = bn.replicas[r]->last_batch_mean();
      const la::Matrix& sv = bn.replicas[r]->last_batch_var();
      for (std::size_t c = 0; c < d; ++c) {
        bn_mean_(0, c) += w * sm(0, c);
        bn_var_(0, c) += w * (sv(0, c) + sm(0, c) * sm(0, c));
      }
    }
    for (std::size_t c = 0; c < d; ++c) {
      // Clamp guards rounding-induced tiny negatives on constant columns.
      bn_var_(0, c) =
          std::max(bn_var_(0, c) - bn_mean_(0, c) * bn_mean_(0, c), 0.0);
    }
    bn.master->apply_running_update(bn_mean_, bn_var_);
  }
}

void ShardedNets::reduce(std::size_t index) {
  const std::size_t count = this->count();
  if (count == 1) return;
  const auto grads = [&](std::size_t shard, std::size_t p) -> la::Matrix& {
    return replicas_[shard]->params[index][p]->grad;
  };
  const std::size_t num_params = master_params_[index].size();
  // Fixed tree: pass 1 folds 1->0, 3->2, ...; pass 2 folds 2->0, 6->4, ...;
  // independent of shard execution order, and the log-depth pairing keeps
  // magnitudes balanced compared to a left fold.
  for (std::size_t step = 1; step < count; step *= 2) {
    for (std::size_t s = 0; s + step < count; s += 2 * step) {
      for (std::size_t p = 0; p < num_params; ++p) {
        grads(s, p) += grads(s + step, p);
      }
    }
  }
  for (std::size_t p = 0; p < num_params; ++p) {
    master_params_[index][p]->grad += grads(0, p);
  }
  for (std::size_t s = 0; s < count; ++s) {
    for (Parameter* param : replicas_[s]->params[index]) param->zero_grad();
  }
}

FitTelemetry::FitTelemetry(const char* name, const char* epochs_counter,
                           const char* epochs_help)
    : span_(name),
      event_(obs::EventCategory::Training,
             [name] { return obs::FlightRecorder::global().intern(name); }),
      pack_seconds0_(gemm_pack_seconds()),
      epochs_(obs::MetricsRegistry::global().counter(epochs_counter,
                                                     epochs_help)),
      epoch_ms_(obs::MetricsRegistry::global().hdr(
          "training.epoch_ms", obs::HdrOptions{},
          "reconstructor training epoch wall time (ms), all model kinds")) {}

void FitTelemetry::end_epoch() {
  epochs_.inc();
  epoch_ms_.record(epoch_watch_.millis());
}

void FitTelemetry::finish() {
  auto& registry = obs::MetricsRegistry::global();
  const double fit_seconds = fit_watch_.seconds();
  registry
      .gauge("training.steps_per_second",
             "optimizer steps per second, last fit")
      .set(fit_seconds > 0.0 ? static_cast<double>(steps_) / fit_seconds
                             : 0.0);
  registry
      .gauge("training.gemm_pack_seconds",
             "wall-clock seconds spent packing GEMM panels, last fit")
      .set(gemm_pack_seconds() - pack_seconds0_);
}

}  // namespace fsda::nn
