#include "core/cgan.hpp"

#include "core/corruption.hpp"

#include <algorithm>
#include <numeric>

#include "common/error.hpp"
#include "la/kernels.hpp"
#include "la/view.hpp"
#include "nn/activations.hpp"
#include "nn/batchnorm.hpp"
#include "nn/dropout.hpp"
#include "nn/linear.hpp"
#include "nn/loss.hpp"
#include "nn/optimizer.hpp"
#include "nn/parallel_sum.hpp"
#include "nn/sharded.hpp"
#include "obs/metrics.hpp"

namespace fsda::core {

CganOptions CganOptions::quick() {
  CganOptions o;
  o.hidden = {96, 96};
  o.epochs = 200;
  o.batch_size = 96;
  o.learning_rate = 5e-4;
  o.recon_weight = 0.25;
  return o;
}

CganOptions CganOptions::paper() {
  CganOptions o;
  o.epochs = 500;
  o.batch_size = 64;
  o.recon_weight = 0.0;  // pure adversarial objective, as in the paper
  return o;
}

ConditionalGAN::ConditionalGAN(std::size_t inv_dim, std::size_t var_dim,
                               CganOptions options, std::uint64_t seed)
    : inv_dim_(inv_dim),
      var_dim_(var_dim),
      options_(std::move(options)),
      noise_dim_(options_.noise_dim),
      rng_(seed ^ 0xC6A4ULL) {
  FSDA_CHECK_MSG(inv_dim > 0, "no invariant features to condition on");
  FSDA_CHECK_MSG(var_dim > 0, "no variant features to reconstruct");
  if (noise_dim_ == 0) {
    noise_dim_ = std::clamp<std::size_t>(var_dim / 3, 4, 30);
  }
  if (options_.hidden.empty()) {
    const std::size_t width = (inv_dim + var_dim) >= 300 ? 256 : 128;
    options_.hidden = {width, width};
  }
}

void ConditionalGAN::sample_noise_into(std::size_t rows, la::Matrix& z) {
  sample_noise_into(rows, z, rng_);
}

void ConditionalGAN::sample_noise_into(std::size_t rows, la::Matrix& z,
                                       common::Rng& rng) const {
  z.resize(rows, noise_dim_);
  for (auto& v : z.data()) v = rng.normal();
}

la::Matrix ConditionalGAN::one_hot(const std::vector<std::int64_t>& labels,
                                   std::size_t num_classes) const {
  la::Matrix out(labels.size(), num_classes, 0.0);
  for (std::size_t r = 0; r < labels.size(); ++r) {
    FSDA_CHECK(labels[r] >= 0 &&
               static_cast<std::size_t>(labels[r]) < num_classes);
    out(r, static_cast<std::size_t>(labels[r])) = 1.0;
  }
  return out;
}

void ConditionalGAN::fit(const la::Matrix& x_inv, const la::Matrix& x_var,
                         const std::vector<std::int64_t>& labels,
                         std::size_t num_classes) {
  nn::FitTelemetry telemetry("cgan.fit", "cgan.epochs_total",
                             "CGAN training epochs completed");
  const std::size_t n = x_inv.rows();
  FSDA_CHECK(x_var.rows() == n && labels.size() == n);
  FSDA_CHECK(x_inv.cols() == inv_dim_ && x_var.cols() == var_dim_);

  common::Rng init_rng = rng_.split(0x6E17ULL);
  // Generator: tanh( linear([X_inv, Z]) + MLP([X_inv, Z]) ).  The parallel
  // linear path captures the dominant linear structure of telemetry
  // conditionals immediately; the ReLU+BN trunk (CTGAN-style) learns the
  // nonlinear correction and the noise-driven spread.  Builders take the rng
  // so the same architecture can be cloned for shard replicas.
  const auto make_generator = [&](common::Rng& rng) {
    auto net = std::make_unique<nn::Sequential>();
    const std::size_t in = inv_dim_ + noise_dim_;
    auto trunk = std::make_unique<nn::Sequential>();
    std::size_t width = in;
    for (std::size_t h : options_.hidden) {
      trunk->emplace<nn::Linear>(width, h, rng);
      trunk->emplace<nn::ReLU>();
      trunk->emplace<nn::BatchNorm1d>(h);
      width = h;
    }
    trunk->emplace<nn::Linear>(width, var_dim_, rng);
    auto skip = std::make_unique<nn::Linear>(in, var_dim_, rng);
    net->add(
        std::make_unique<nn::ParallelSum>(std::move(skip), std::move(trunk)));
    net->emplace<nn::Tanh>();
    return net;
  };
  // Discriminator: [X_inv, X_var(, Y)] -> LeakyReLU+Dropout x2 -> sigmoid.
  const std::size_t label_dim = options_.conditional ? num_classes : 0;
  const auto make_discriminator = [&](common::Rng& rng) {
    auto net = std::make_unique<nn::Sequential>();
    std::size_t width = inv_dim_ + var_dim_ + label_dim;
    for (std::size_t h : options_.hidden) {
      net->emplace<nn::Linear>(width, h, rng);
      net->emplace<nn::LeakyReLU>(0.2);
      net->emplace<nn::Dropout>(options_.dropout, rng.split(h));
      width = h;
    }
    net->emplace<nn::Linear>(width, 1, rng);
    net->emplace<nn::Sigmoid>();
    return net;
  };
  generator_ = make_generator(init_rng);
  discriminator_ = make_discriminator(init_rng);

  const la::Matrix y_onehot = one_hot(labels, num_classes);
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), std::size_t{0});
  const std::size_t batch = std::min(options_.batch_size, n);

  // Divergence recovery: both networks' parameters are snapshotted every
  // snapshot_every healthy epochs; a NaN/Inf or sustained-explosion epoch
  // rolls back to the last snapshot and retries the fit with a decayed
  // learning rate and a reseeded noise/shuffle stream.
  std::vector<nn::Parameter*> all_params = generator_->parameters();
  for (nn::Parameter* p : discriminator_->parameters()) all_params.push_back(p);
  TrainingSentinel sentinel(all_params, options_.retry, options_.divergence,
                            options_.snapshot_every);

  // Deterministic data-parallel sharding (nn/sharded.hpp): each step pair
  // below is one shard body, run on the master networks for a one-shard
  // batch and on per-shard replicas otherwise.  Every replica has its own
  // workspace and dropout streams; scratch buffers are per shard.
  constexpr std::size_t kGen = 0;
  constexpr std::size_t kDis = 1;
  nn::ShardedNets shards(
      {generator_.get(), discriminator_.get()}, ws_, options_.train_shards,
      batch, init_rng, [&](std::size_t net, common::Rng& rng) {
        return net == kGen ? make_generator(rng) : make_discriminator(rng);
      });
  struct ShardScratch {
    la::Matrix g_in;
    la::Matrix d_in;
    la::Matrix var;
    la::Matrix loss_grad;
    la::Matrix grad_fake;
    la::Matrix recon_grad;
    std::vector<double> ones;
    std::vector<double> zeros;
    double d_loss = 0.0;
    double g_adv = 0.0;
    double g_recon = 0.0;
  };
  std::vector<ShardScratch> scratch(shards.max_count());
  // Assembles a shard's discriminator input [X_inv | var_block (| Y)] from
  // row blocks of the batch buffers.
  const auto build_d_input = [&](ShardScratch& sc, nn::ShardRange range,
                                 la::ConstMatrixView var_block)
      -> const la::Matrix& {
    const std::size_t rows = range.second - range.first;
    sc.d_in.resize(rows, inv_dim_ + var_dim_ + label_dim);
    la::MatrixView dv(sc.d_in);
    la::copy_into(la::ConstMatrixView(inv_b_).row_block(range.first, rows),
                  dv.col_block(0, inv_dim_));
    la::copy_into(var_block, dv.col_block(inv_dim_, var_dim_));
    if (options_.conditional) {
      la::copy_into(la::ConstMatrixView(y_b_).row_block(range.first, rows),
                    dv.col_block(inv_dim_ + var_dim_, label_dim));
    }
    return sc.d_in;
  };

  const auto run_attempt = [&] {
    if (sentinel.health().retries > 0) rng_ = rng_.split(sentinel.seed_salt());
    const double lr = options_.learning_rate * sentinel.lr_scale();
    nn::Adam g_opt(generator_->parameters(), lr, options_.adam_beta1, 0.999,
                   1e-8, options_.weight_decay);
    nn::Adam d_opt(discriminator_->parameters(), lr, options_.adam_beta1,
                   0.999, 1e-8, options_.weight_decay);

    history_.clear();
    history_.reserve(options_.epochs);
    for (std::size_t epoch = 0; epoch < options_.epochs; ++epoch) {
      telemetry.begin_epoch();
      rng_.shuffle(order);
      GanEpochStats stats;
      std::size_t batches = 0;
      for (std::size_t start = 0; start + 1 < n; start += batch) {
        const std::size_t end = std::min(n, start + batch);
        const std::span<const std::size_t> rows{order.data() + start,
                                                end - start};
        const std::size_t m = rows.size();
        if (m < 2) continue;  // batch norm needs at least two rows
        la::select_rows_into(x_inv, rows, inv_b_);
        la::select_rows_into(x_var, rows, var_b_);
        if (options_.conditional) la::select_rows_into(y_onehot, rows, y_b_);
        const std::size_t count = shards.split(m);
        // All randomness the shards consume (corruption, noise) is drawn on
        // the master stream before they run, so shard execution order never
        // touches shared rng state.  Per-shard losses and loss gradients are
        // weighted by rows_s / rows, making the reduced gradient the
        // full-batch mean-loss gradient.

        // ---- Discriminator step (eq. 8) ----
        d_opt.zero_grad();
        permute_corrupt_into(inv_b_, options_.input_corruption_p, rng_,
                             corrupt_b_);
        sample_noise_into(m, noise_b_);
        la::hcat_into(corrupt_b_, noise_b_, g_in_);
        shards.run([&](std::size_t s) {
          ShardScratch& sc = scratch[s];
          const nn::ShardRange range = shards.range(s);
          const std::size_t rows = range.second - range.first;
          const double w = shards.weight(s);
          nn::Sequential& dis = shards.net(s, kDis);
          nn::Workspace& ws = shards.workspace(s);
          sc.ones.assign(rows, 1.0);
          sc.zeros.assign(rows, 0.0);
          const la::Matrix& real_prob = dis.forward(
              build_d_input(
                  sc, range,
                  la::ConstMatrixView(var_b_).row_block(range.first, rows)),
              /*training=*/true, ws);
          const double real_loss =
              nn::bce_on_probs_into(real_prob, sc.ones, sc.loss_grad);
          sc.loss_grad *= w;
          dis.backward(sc.loss_grad, ws);
          const la::Matrix& fake = shards.net(s, kGen).forward(
              nn::shard_rows(g_in_, range, sc.g_in), /*training=*/true, ws);
          const la::Matrix& fake_prob = dis.forward(
              build_d_input(sc, range, fake), /*training=*/true, ws);
          const double fake_loss =
              nn::bce_on_probs_into(fake_prob, sc.zeros, sc.loss_grad);
          sc.loss_grad *= w;
          dis.backward(sc.loss_grad, ws);
          sc.d_loss = w * (real_loss + fake_loss);
        });
        shards.reduce(kDis);
        d_opt.step();
        for (std::size_t s = 0; s < count; ++s) stats.d_loss += scratch[s].d_loss;

        // ---- Generator step (eq. 9, non-saturating) ----
        g_opt.zero_grad();
        permute_corrupt_into(inv_b_, options_.input_corruption_p, rng_,
                             corrupt_b_);
        sample_noise_into(m, noise_b_);
        la::hcat_into(corrupt_b_, noise_b_, g_in_);
        shards.run([&](std::size_t s) {
          ShardScratch& sc = scratch[s];
          const nn::ShardRange range = shards.range(s);
          const std::size_t rows = range.second - range.first;
          const double w = shards.weight(s);
          nn::Sequential& gen = shards.net(s, kGen);
          nn::Sequential& dis = shards.net(s, kDis);
          nn::Workspace& ws = shards.workspace(s);
          sc.ones.assign(rows, 1.0);
          const la::Matrix& fake = gen.forward(
              nn::shard_rows(g_in_, range, sc.g_in), /*training=*/true, ws);
          const la::Matrix& fake_prob = dis.forward(
              build_d_input(sc, range, fake), /*training=*/true, ws);
          const double adv_loss =
              nn::bce_on_probs_into(fake_prob, sc.ones, sc.loss_grad);
          sc.loss_grad *= w;
          // Only dX of the discriminator is consumed here, so its weight
          // gradients are not even computed.
          ws.set_param_grads_enabled(false);
          const la::Matrix& grad_d_input = dis.backward(sc.loss_grad, ws);
          ws.set_param_grads_enabled(true);
          // Slice the gradient w.r.t. the generated block out of the
          // discriminator's input gradient.
          sc.grad_fake.resize(rows, var_dim_);
          la::copy_into(
              la::ConstMatrixView(grad_d_input).col_block(inv_dim_, var_dim_),
              sc.grad_fake);
          double recon_value = 0.0;
          if (options_.recon_weight > 0.0) {
            recon_value = nn::mse_into(
                fake, nn::shard_rows(var_b_, range, sc.var), sc.recon_grad);
            sc.recon_grad *= options_.recon_weight * w;
            sc.grad_fake += sc.recon_grad;
          }
          gen.backward(sc.grad_fake, ws);
          sc.g_adv = w * adv_loss;
          sc.g_recon = w * recon_value;
        });
        shards.reduce(kGen);
        g_opt.step();
        for (std::size_t s = 0; s < count; ++s) {
          stats.g_adv_loss += scratch[s].g_adv;
          stats.g_recon_loss += scratch[s].g_recon;
        }
        telemetry.count_step();  // one D+G optimizer-step pair per batch
        ++batches;
      }
      if (batches > 0) {
        stats.d_loss /= static_cast<double>(batches);
        stats.g_adv_loss /= static_cast<double>(batches);
        stats.g_recon_loss /= static_cast<double>(batches);
      }
      history_.push_back(stats);
      telemetry.end_epoch();
      if (sentinel.observe_epoch(
              epoch, stats.d_loss + stats.g_adv_loss + stats.g_recon_loss)) {
        return;  // diverged; parameters rolled back to last healthy snapshot
      }
    }
  };

  do {
    run_attempt();
  } while (sentinel.retry_after_divergence());
  train_health_ = sentinel.health();
  if (!history_.empty()) {
    auto& registry = obs::MetricsRegistry::global();
    const GanEpochStats& last = history_.back();
    registry.gauge("cgan.d_loss", "discriminator loss, last CGAN epoch")
        .set(last.d_loss);
    registry
        .gauge("cgan.g_adv_loss", "generator adversarial loss, last epoch")
        .set(last.g_adv_loss);
    registry
        .gauge("cgan.g_recon_loss", "generator reconstruction loss, last "
                                    "epoch")
        .set(last.g_recon_loss);
  }
  telemetry.finish();
  fitted_ = true;
}

la::Matrix ConditionalGAN::reconstruct(const la::Matrix& x_inv) {
  FSDA_CHECK_MSG(fitted_, "reconstruct before fit");
  FSDA_CHECK(x_inv.cols() == inv_dim_);
  sample_noise_into(x_inv.rows(), noise_b_);
  la::hcat_into(x_inv, noise_b_, g_in_);
  return generator_->forward(g_in_, /*training=*/false, ws_);
}

}  // namespace fsda::core
