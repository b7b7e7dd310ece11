#include "core/vae.hpp"

#include <algorithm>
#include <cmath>
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

VaeOptions VaeOptions::quick() {
  VaeOptions o;
  o.hidden = {96, 96};
  o.epochs = 180;
  o.learning_rate = 1.5e-3;
  return o;
}

VaeReconstructor::VaeReconstructor(std::size_t inv_dim, std::size_t var_dim,
                                   VaeOptions options, std::uint64_t seed)
    : inv_dim_(inv_dim),
      var_dim_(var_dim),
      options_(std::move(options)),
      latent_dim_(options_.latent_dim),
      rng_(seed ^ 0x7AE5ULL) {
  FSDA_CHECK(inv_dim > 0 && var_dim > 0);
  if (latent_dim_ == 0) {
    latent_dim_ = std::clamp<std::size_t>(var_dim / 3, 4, 30);
  }
  if (options_.hidden.empty()) {
    const std::size_t width = (inv_dim + var_dim) >= 300 ? 256 : 128;
    options_.hidden = {width, width};
  }
}

void VaeReconstructor::fit(const la::Matrix& x_inv, const la::Matrix& x_var,
                           const std::vector<std::int64_t>& /*labels*/,
                           std::size_t /*num_classes*/) {
  nn::FitTelemetry telemetry("vae.fit", "vae.epochs_total",
                             "VAE training epochs completed");
  const std::size_t n = x_inv.rows();
  FSDA_CHECK(x_var.rows() == n);
  FSDA_CHECK(x_inv.cols() == inv_dim_ && x_var.cols() == var_dim_);

  common::Rng init_rng = rng_.split(0x1A7EULL);
  // Builders take the rng so the same architecture can be cloned for shard
  // replicas.
  const auto make_encoder = [&](common::Rng& rng) {
    auto net = std::make_unique<nn::Sequential>();
    std::size_t width = inv_dim_ + var_dim_;
    for (std::size_t h : options_.hidden) {
      net->emplace<nn::Linear>(width, h, rng);
      net->emplace<nn::ReLU>();
      width = h;
    }
    net->emplace<nn::Linear>(width, 2 * latent_dim_, rng);
    return net;
  };
  const auto make_decoder = [&](common::Rng& rng) {
    // Decoder matches the GAN generator (Section VI-E): parallel linear
    // path plus MLP correction.
    auto net = std::make_unique<nn::Sequential>();
    const std::size_t in = inv_dim_ + latent_dim_;
    auto trunk = std::make_unique<nn::Sequential>();
    std::size_t width = in;
    for (std::size_t h : options_.hidden) {
      trunk->emplace<nn::Linear>(width, h, rng);
      trunk->emplace<nn::ReLU>();
      width = h;
    }
    trunk->emplace<nn::Linear>(width, var_dim_, rng);
    auto skip = std::make_unique<nn::Linear>(in, var_dim_, rng);
    net->add(
        std::make_unique<nn::ParallelSum>(std::move(skip), std::move(trunk)));
    net->emplace<nn::Tanh>();
    return net;
  };
  encoder_ = make_encoder(init_rng);
  decoder_ = make_decoder(init_rng);

  std::vector<nn::Parameter*> params = encoder_->parameters();
  for (nn::Parameter* p : decoder_->parameters()) params.push_back(p);

  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), std::size_t{0});
  const std::size_t batch = std::min(options_.batch_size, n);

  TrainingSentinel sentinel(params, options_.retry, options_.divergence,
                            options_.snapshot_every);

  // Deterministic data-parallel sharding (nn/sharded.hpp); see core/cgan.cpp.
  constexpr std::size_t kEnc = 0;
  constexpr std::size_t kDec = 1;
  nn::ShardedNets shards(
      {encoder_.get(), decoder_.get()}, ws_, options_.train_shards, batch,
      init_rng, [&](std::size_t net, common::Rng& rng) {
        return net == kEnc ? make_encoder(rng) : make_decoder(rng);
      });
  struct ShardScratch {
    la::Matrix inv;
    la::Matrix var;
    la::Matrix eps;
    la::Matrix enc_in;
    la::Matrix dec_in;
    la::Matrix mu;
    la::Matrix log_var;
    la::Matrix z;
    la::Matrix recon_grad;
    la::Matrix grad_enc_out;
    nn::KlResult kl;
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
        const std::size_t m = rows.size();
        la::select_rows_into(x_inv, rows, inv_b_);
        la::select_rows_into(x_var, rows, var_b_);

        optimizer.zero_grad();
        const std::size_t count = shards.split(m);
        // The reparameterization noise for the whole batch is drawn from the
        // master stream before the shards run; per-shard losses and loss
        // gradients are weighted by rows_s / rows, making the reduced
        // gradient the full-batch mean-loss gradient.
        eps_.resize(m, latent_dim_);
        for (auto& v : eps_.data()) v = rng_.normal();
        shards.run([&](std::size_t s) {
          ShardScratch& sc = scratch[s];
          const nn::ShardRange range = shards.range(s);
          const std::size_t rows = range.second - range.first;
          const double w = shards.weight(s);
          nn::Sequential& enc = shards.net(s, kEnc);
          nn::Sequential& dec = shards.net(s, kDec);
          nn::Workspace& ws = shards.workspace(s);
          const la::Matrix& inv = nn::shard_rows(inv_b_, range, sc.inv);
          const la::Matrix& var = nn::shard_rows(var_b_, range, sc.var);
          const la::Matrix& eps = nn::shard_rows(eps_, range, sc.eps);

          // Encode: split encoder output into mu | log_var.
          la::hcat_into(inv, var, sc.enc_in);
          const la::Matrix& enc_out =
              enc.forward(sc.enc_in, /*training=*/true, ws);
          sc.mu.resize(rows, latent_dim_);
          sc.log_var.resize(rows, latent_dim_);
          for (std::size_t r = 0; r < rows; ++r) {
            for (std::size_t c = 0; c < latent_dim_; ++c) {
              sc.mu(r, c) = enc_out(r, c);
              // Clamp log-variance for numerical safety.
              sc.log_var(r, c) =
                  std::clamp(enc_out(r, latent_dim_ + c), -8.0, 8.0);
            }
          }

          // Reparameterize: z = mu + exp(log_var / 2) * eps.
          sc.z.resize(rows, latent_dim_);
          for (std::size_t r = 0; r < rows; ++r) {
            for (std::size_t c = 0; c < latent_dim_; ++c) {
              sc.z(r, c) =
                  sc.mu(r, c) + std::exp(0.5 * sc.log_var(r, c)) * eps(r, c);
            }
          }

          // Decode and compute losses.
          la::hcat_into(inv, sc.z, sc.dec_in);
          const la::Matrix& recon =
              dec.forward(sc.dec_in, /*training=*/true, ws);
          const double rec_value = nn::mse_into(recon, var, sc.recon_grad);
          nn::gaussian_kl_into(sc.mu, sc.log_var, sc.kl);
          sc.loss = w * (rec_value + options_.kl_weight * sc.kl.value);

          // Backprop: decoder -> z -> (mu, log_var) -> encoder.
          sc.recon_grad *= w;
          const la::Matrix& grad_dec_in = dec.backward(sc.recon_grad, ws);
          sc.grad_enc_out.resize(rows, 2 * latent_dim_);
          const double klw = options_.kl_weight * w;
          for (std::size_t r = 0; r < rows; ++r) {
            for (std::size_t c = 0; c < latent_dim_; ++c) {
              const double gz = grad_dec_in(r, inv_dim_ + c);
              const double sigma = std::exp(0.5 * sc.log_var(r, c));
              sc.grad_enc_out(r, c) = gz + klw * sc.kl.grad_mu(r, c);
              sc.grad_enc_out(r, latent_dim_ + c) =
                  gz * eps(r, c) * 0.5 * sigma + klw * sc.kl.grad_log_var(r, c);
            }
          }
          enc.backward(sc.grad_enc_out, ws);
        });
        shards.reduce(kEnc);
        shards.reduce(kDec);
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
      .gauge("vae.loss", "mean epoch loss of the last VAE epoch")
      .set(last_loss_);
  telemetry.finish();
  fitted_ = true;
}

la::Matrix VaeReconstructor::reconstruct(const la::Matrix& x_inv) {
  FSDA_CHECK_MSG(fitted_, "reconstruct before fit");
  FSDA_CHECK(x_inv.cols() == inv_dim_);
  z_.resize(x_inv.rows(), latent_dim_);
  for (auto& v : z_.data()) v = rng_.normal();
  la::hcat_into(x_inv, z_, dec_in_);
  return decoder_->forward(dec_in_, /*training=*/false, ws_);
}

}  // namespace fsda::core
