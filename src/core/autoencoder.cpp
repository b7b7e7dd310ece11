#include "core/autoencoder.hpp"

#include <algorithm>
#include <memory>
#include <numeric>

#include "common/error.hpp"
#include "la/kernels.hpp"
#include "nn/activations.hpp"
#include "nn/linear.hpp"
#include "nn/loss.hpp"
#include "nn/optimizer.hpp"
#include "nn/parallel_sum.hpp"
#include "nn/sharded.hpp"
#include "obs/metrics.hpp"

namespace fsda::core {

AutoencoderOptions AutoencoderOptions::quick() {
  AutoencoderOptions o;
  o.hidden = {96, 96};
  o.epochs = 180;
  o.learning_rate = 1.5e-3;
  return o;
}

AutoencoderReconstructor::AutoencoderReconstructor(std::size_t inv_dim,
                                                   std::size_t var_dim,
                                                   AutoencoderOptions options,
                                                   std::uint64_t seed)
    : inv_dim_(inv_dim),
      var_dim_(var_dim),
      options_(std::move(options)),
      rng_(seed ^ 0xAE0ULL) {
  FSDA_CHECK(inv_dim > 0 && var_dim > 0);
  if (options_.hidden.empty()) {
    const std::size_t width = (inv_dim + var_dim) >= 300 ? 256 : 128;
    options_.hidden = {width, width};
  }
}

void AutoencoderReconstructor::fit(const la::Matrix& x_inv,
                                   const la::Matrix& x_var,
                                   const std::vector<std::int64_t>& /*labels*/,
                                   std::size_t /*num_classes*/) {
  nn::FitTelemetry telemetry("ae.fit", "ae.epochs_total",
                             "autoencoder training epochs completed");
  const std::size_t n = x_inv.rows();
  FSDA_CHECK(x_var.rows() == n);
  FSDA_CHECK(x_inv.cols() == inv_dim_ && x_var.cols() == var_dim_);

  common::Rng init_rng = rng_.split(0xA0E0ULL);
  // Architecture matches the GAN generator (Section VI-E): a parallel
  // linear path plus an MLP correction, minus the noise input.  The builder
  // takes the rng so the same architecture can be cloned for shard replicas.
  const auto make_net = [&](common::Rng& rng) {
    auto net = std::make_unique<nn::Sequential>();
    auto trunk = std::make_unique<nn::Sequential>();
    std::size_t width = inv_dim_;
    for (std::size_t h : options_.hidden) {
      trunk->emplace<nn::Linear>(width, h, rng);
      trunk->emplace<nn::ReLU>();
      width = h;
    }
    trunk->emplace<nn::Linear>(width, var_dim_, rng);
    auto skip = std::make_unique<nn::Linear>(inv_dim_, var_dim_, rng);
    net->add(
        std::make_unique<nn::ParallelSum>(std::move(skip), std::move(trunk)));
    net->emplace<nn::Tanh>();
    return net;
  };
  net_ = make_net(init_rng);

  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), std::size_t{0});
  const std::size_t batch = std::min(options_.batch_size, n);

  const std::vector<nn::Parameter*> params = net_->parameters();
  TrainingSentinel sentinel(params, options_.retry, options_.divergence,
                            options_.snapshot_every);

  // Deterministic data-parallel sharding (nn/sharded.hpp); see core/cgan.cpp.
  nn::ShardedNets shards(
      {net_.get()}, ws_, options_.train_shards, batch, init_rng,
      [&](std::size_t /*net*/, common::Rng& rng) { return make_net(rng); });
  struct ShardScratch {
    la::Matrix inv;
    la::Matrix var;
    la::Matrix loss_grad;
    double loss = 0.0;
  };
  std::vector<ShardScratch> scratch(shards.max_count());

  const auto run_attempt = [&] {
    if (sentinel.health().retries > 0) rng_ = rng_.split(sentinel.seed_salt());
    nn::Adam optimizer(params, options_.learning_rate * sentinel.lr_scale(),
                       0.9, 0.999, 1e-8, options_.weight_decay);
    for (std::size_t epoch = 0; epoch < options_.epochs; ++epoch) {
      telemetry.begin_epoch();
      rng_.shuffle(order);
      double epoch_loss = 0.0;
      std::size_t batches = 0;
      for (std::size_t start = 0; start < n; start += batch) {
        const std::size_t end = std::min(n, start + batch);
        const std::span<const std::size_t> rows{order.data() + start,
                                                end - start};
        la::select_rows_into(x_inv, rows, inv_b_);
        la::select_rows_into(x_var, rows, var_b_);
        optimizer.zero_grad();
        const std::size_t count = shards.split(rows.size());
        // Per-shard loss gradients are weighted by rows_s / rows so the
        // reduced gradient equals the full-batch mean-loss gradient.
        shards.run([&](std::size_t s) {
          ShardScratch& sc = scratch[s];
          const nn::ShardRange range = shards.range(s);
          const double w = shards.weight(s);
          nn::Sequential& net = shards.net(s, 0);
          nn::Workspace& ws = shards.workspace(s);
          const la::Matrix& recon = net.forward(
              nn::shard_rows(inv_b_, range, sc.inv), /*training=*/true, ws);
          const double loss = nn::mse_into(
              recon, nn::shard_rows(var_b_, range, sc.var), sc.loss_grad);
          sc.loss_grad *= w;
          net.backward(sc.loss_grad, ws);
          sc.loss = w * loss;
        });
        shards.reduce(0);
        for (std::size_t s = 0; s < count; ++s) epoch_loss += scratch[s].loss;
        optimizer.step();
        telemetry.count_step();
        ++batches;
      }
      last_loss_ = epoch_loss / static_cast<double>(std::max<std::size_t>(
                                    1, batches));
      telemetry.end_epoch();
      if (sentinel.observe_epoch(epoch, last_loss_)) return;  // diverged
    }
  };

  do {
    run_attempt();
  } while (sentinel.retry_after_divergence());
  train_health_ = sentinel.health();
  obs::MetricsRegistry::global()
      .gauge("ae.loss", "mean epoch loss of the last autoencoder epoch")
      .set(last_loss_);
  telemetry.finish();
  fitted_ = true;
}

la::Matrix AutoencoderReconstructor::reconstruct(const la::Matrix& x_inv) {
  FSDA_CHECK_MSG(fitted_, "reconstruct before fit");
  FSDA_CHECK(x_inv.cols() == inv_dim_);
  return net_->forward(x_inv, /*training=*/false, ws_);
}

}  // namespace fsda::core
