#include "core/inference_session.hpp"

#include <algorithm>
#include <cstddef>
#include <unordered_map>

#include "common/error.hpp"
#include "common/stopwatch.hpp"
#include "common/thread_pool.hpp"
#include "core/cgan.hpp"
#include "la/view.hpp"
#include "models/neural.hpp"
#include "obs/inference_metrics.hpp"
#include "obs/metrics.hpp"

namespace fsda::core {

namespace {

/// dst(r, i) = x(r, cols[i]) -- the view-level equivalent of select_cols.
void gather_cols(const la::Matrix& x, const std::vector<std::size_t>& cols,
                 la::MatrixView dst) {
  const la::ConstMatrixView xv(x);
  for (std::size_t r = 0; r < xv.rows(); ++r) {
    const double* in = xv.row_data(r);
    double* out = dst.row_data(r);
    for (std::size_t i = 0; i < cols.size(); ++i) out[i] = in[cols[i]];
  }
}

}  // namespace

AssemblyMap AssemblyMap::build(const std::vector<std::size_t>& trained_order,
                               const SeparationResult& sep,
                               bool with_reconstructor) {
  AssemblyMap map;
  map.src.reserve(trained_order.size());
  map.from_recon.assign(trained_order.size(), 0);
  std::unordered_map<std::size_t, std::size_t> var_pos;
  if (with_reconstructor) {
    for (std::size_t k = 0; k < sep.variant.size(); ++k) {
      var_pos.emplace(sep.variant[k], k);
    }
  }
  for (std::size_t j = 0; j < trained_order.size(); ++j) {
    const auto it = var_pos.find(trained_order[j]);
    if (it != var_pos.end()) {
      map.src.push_back(it->second);
      map.from_recon[j] = 1;
    } else {
      map.src.push_back(trained_order[j]);
    }
  }
  // Identity iff the map is exactly [sep.invariant raw | recon 0..var):
  // the trained partition IS the serving partition.
  map.identity =
      with_reconstructor &&
      trained_order.size() == sep.invariant.size() + sep.variant.size();
  for (std::size_t j = 0; j < sep.invariant.size() && map.identity; ++j) {
    if (map.from_recon[j] != 0 || map.src[j] != sep.invariant[j]) {
      map.identity = false;
    }
  }
  for (std::size_t k = 0; k < sep.variant.size() && map.identity; ++k) {
    const std::size_t j = sep.invariant.size() + k;
    if (map.from_recon[j] == 0 || map.src[j] != k) map.identity = false;
  }
  return map;
}

std::unique_ptr<InferenceSession> InferenceSession::build(
    models::Classifier& classifier, Reconstructor* reconstructor,
    const SeparationResult& sep, const AssemblyMap& map,
    std::size_t monte_carlo_m, bool use_reconstruction,
    std::shared_ptr<std::mutex> opaque_mu) {
  FSDA_CHECK_MSG(map.from_recon.size() == map.src.size(),
                 "AssemblyMap: src/from_recon size mismatch");
  std::unique_ptr<InferenceSession> s(new InferenceSession());
  s->monte_carlo_m_ = std::max<std::size_t>(monte_carlo_m, 1);
  s->map_ = map;
  s->opaque_mu_ = std::move(opaque_mu);
  FSDA_CHECK_MSG(s->opaque_mu_ != nullptr, "InferenceSession needs a mutex");

  // Only the neural classifiers expose a compilable network; everything
  // else (and a network the compiler rejects) is an opaque stage.
  s->classifier_ = &classifier;
  auto* mlp = dynamic_cast<models::MLPClassifier*>(&classifier);
  if (mlp != nullptr && mlp->network() != nullptr) {
    s->clf_plan_ = nn::InferencePlan::compile(*mlp->network(),
                                              mlp->num_features(),
                                              /*append_softmax=*/true);
  }
  if (s->clf_plan_.has_value()) {
    FSDA_CHECK_MSG(map.src.size() == s->clf_plan_->in_features(),
                   "AssemblyMap routes " << map.src.size()
                                         << " columns, classifier takes "
                                         << s->clf_plan_->in_features());
    s->num_classes_ = mlp->num_classes();
  }

  const bool routes_recon =
      std::any_of(map.from_recon.begin(), map.from_recon.end(),
                  [](char c) { return c != 0; });
  if (!use_reconstruction || !routes_recon) {
    FSDA_CHECK_MSG(!routes_recon,
                   "AssemblyMap routes reconstructed columns in FS mode");
    s->cols_ = map.src;
    bool contiguous = true;
    for (std::size_t j = 0; j < s->cols_.size(); ++j) {
      if (s->cols_[j] != j) contiguous = false;
    }
    s->mode_ = contiguous ? Mode::Direct : Mode::Select;
    for (const std::size_t c : s->cols_) {
      s->min_input_cols_ = std::max(s->min_input_cols_, c + 1);
    }
    return s;
  }

  FSDA_CHECK_MSG(reconstructor != nullptr,
                 "AssemblyMap routes reconstructed columns but the "
                 "generation has no reconstructor");
  s->mode_ = Mode::Reconstruct;
  s->reconstructor_ = reconstructor;
  s->var_dim_ = sep.variant.size();
  s->cols_ = sep.invariant;
  // Only the CGAN generator compiles (VAE/AE and the MeanImpute fallback
  // run opaque).
  auto* gan = dynamic_cast<ConditionalGAN*>(reconstructor);
  if (gan != nullptr && gan->generator_network() != nullptr) {
    FSDA_CHECK_MSG(gan->inv_dim() == sep.invariant.size() &&
                       gan->var_dim() == sep.variant.size(),
                   "CGAN shape does not match the generation's partition");
    auto gen_plan = nn::InferencePlan::compile(
        *gan->generator_network(), gan->inv_dim() + gan->noise_dim());
    if (gen_plan.has_value() && gen_plan->out_features() == gan->var_dim()) {
      s->gan_ = gan;
      s->gen_plan_ = std::move(gen_plan);
    }
  }
  for (std::size_t j = 0; j < map.src.size(); ++j) {
    if (map.from_recon[j] != 0) {
      FSDA_CHECK_MSG(map.src[j] < s->var_dim_,
                     "AssemblyMap reads reconstructed column " << map.src[j]
                                                               << " of "
                                                               << s->var_dim_);
      s->recon_dst_.push_back(j);
      s->recon_src_.push_back(map.src[j]);
    } else {
      s->raw_dst_.push_back(j);
      s->raw_src_.push_back(map.src[j]);
      s->min_input_cols_ = std::max(s->min_input_cols_, map.src[j] + 1);
    }
  }
  for (const std::size_t c : s->cols_) {
    s->min_input_cols_ = std::max(s->min_input_cols_, c + 1);
  }
  return s;
}

void InferenceSession::ServeContext::reserve(std::size_t rows) {
  if (rows == 0) return;
  const InferenceSession& s = *owner_;
  if (s.clf_plan_.has_value()) s.clf_plan_->reserve(rows, ws_.clf);
  switch (s.mode_) {
    case Mode::Direct:
      break;
    case Mode::Select:
      selected_.resize(rows, s.cols_.size());
      break;
    case Mode::Reconstruct: {
      const std::size_t inv = s.cols_.size();
      assembled_.resize(rows, s.map_.src.size());
      if (s.gen_plan_.has_value()) {
        const std::size_t nz = s.gan_->noise_dim();
        g_in_.resize(rows, inv + nz);
        noise_.resize(rows, nz);
        if (!s.map_.identity) recon_.resize(rows, s.var_dim_);
        s.gen_plan_->reserve(rows, ws_.gen);
      } else {
        selected_.resize(rows, inv);
      }
      if (s.monte_carlo_m_ > 1 && s.clf_plan_.has_value()) {
        mc_tmp_.resize(rows, s.num_classes_);
      }
      break;
    }
  }
}

std::unique_ptr<InferenceSession::ServeContext>
InferenceSession::create_serve_context(std::uint64_t noise_seed) const {
  return std::unique_ptr<ServeContext>(new ServeContext(this, noise_seed));
}

void InferenceSession::predict_proba_scaled(const la::Matrix& x,
                                            la::Matrix& proba) {
  run(x, proba, own_, /*noise=*/nullptr,
      /*shard=*/x.rows() > 1 && !common::ThreadPool::in_worker());
}

void InferenceSession::predict_proba_scaled(const la::Matrix& x,
                                            la::Matrix& proba,
                                            ServeContext& ctx) const {
  FSDA_CHECK_MSG(ctx.owner_ == this,
                 "ServeContext bound to a different InferenceSession");
  run(x, proba, ctx, &ctx.rng_, /*shard=*/false);
}

void InferenceSession::run(const la::Matrix& x, la::Matrix& proba,
                           ServeContext& c, common::Rng* noise,
                           bool shard) const {
  common::Stopwatch timer;
  const std::size_t rows = x.rows();
  proba.resize(rows, num_classes_);
  if (rows == 0) return;
  FSDA_CHECK_MSG(x.cols() >= min_input_cols_,
                 "InferenceSession: batch has " << x.cols()
                                                << " columns, gathers need "
                                                << min_input_cols_);

  // Runs body(begin, end, workspaces) over [0, rows): inline on the
  // context's workspaces, or sharded over the global pool with each chunk
  // borrowing pool workspaces so concurrent chunks never share them.
  auto for_rows = [&](auto&& body) {
    if (!shard) {
      body(std::size_t{0}, rows, c.ws_);
      return;
    }
    common::parallel_for_chunked(rows, [&](std::size_t b, std::size_t e) {
      Workspaces* ws = nullptr;
      {
        std::lock_guard<std::mutex> lk(pool_mu_);
        if (pool_free_.empty()) {
          pool_.push_back(std::make_unique<Workspaces>());
          ws = pool_.back().get();
        } else {
          ws = pool_free_.back();
          pool_free_.pop_back();
        }
      }
      body(b, e, *ws);
      std::lock_guard<std::mutex> lk(pool_mu_);
      pool_free_.push_back(ws);
    });
  };
  // Opaque classifier stage: the whole batch, under the shared mutex.
  auto classify_opaque = [&](const la::Matrix& in, la::Matrix& dst) {
    std::lock_guard<std::mutex> lk(*opaque_mu_);
    dst = classifier_->predict_proba(in);
  };

  if (mode_ != Mode::Reconstruct) {
    const la::Matrix* in = &x;
    if (mode_ == Mode::Select) {
      c.selected_.resize(rows, cols_.size());
      gather_cols(x, cols_, c.selected_);
      in = &c.selected_;
    }
    if (clf_plan_.has_value()) {
      for_rows([&](std::size_t b, std::size_t e, Workspaces& ws) {
        clf_plan_->run(la::ConstMatrixView(*in).row_block(b, e - b),
                       la::MatrixView(proba).row_block(b, e - b), ws.clf);
      });
    } else {
      classify_opaque(*in, proba);
    }
  } else {
    const std::size_t inv = cols_.size();
    // The generator writes its rows straight into the variant block of the
    // assembled classifier input when the map is the trained partition;
    // otherwise reconstructions land in recon_ and scatter per map.
    const bool direct = gen_plan_.has_value() && map_.identity;
    la::Matrix& assembled = c.assembled_;
    assembled.resize(rows, map_.src.size());
    {
      // Raw columns are draw-invariant: scatter them once per batch.
      const la::ConstMatrixView xv(x);
      la::MatrixView av(assembled);
      for (std::size_t r = 0; r < rows; ++r) {
        const double* in = xv.row_data(r);
        double* out = av.row_data(r);
        for (std::size_t i = 0; i < raw_dst_.size(); ++i) {
          out[raw_dst_[i]] = in[raw_src_[i]];
        }
      }
    }
    std::size_t nz = 0;
    if (gen_plan_.has_value()) {
      nz = gan_->noise_dim();
      c.g_in_.resize(rows, inv + nz);
      gather_cols(x, cols_, la::MatrixView(c.g_in_).col_block(0, inv));
      if (!direct) c.recon_.resize(rows, var_dim_);
    } else {
      c.selected_.resize(rows, inv);
      gather_cols(x, cols_, c.selected_);
    }
    static obs::Counter& draws_total = obs::MetricsRegistry::global().counter(
        "recon.draws_total", "Monte-Carlo reconstruction draws performed");
    static obs::Counter& recon_rows_total =
        obs::MetricsRegistry::global().counter(
            "recon.rows_total", "rows passed through the reconstructor");
    for (std::size_t m = 0; m < monte_carlo_m_; ++m) {
      draws_total.inc();
      recon_rows_total.inc(rows);
      la::Matrix& dst = m == 0 ? proba : c.mc_tmp_;
      dst.resize(rows, num_classes_);
      if (gen_plan_.has_value()) {
        // Noise is drawn serially -- from the GAN's own stream, exactly the
        // sequence reconstruct() would consume, or from the context's
        // private one -- then chunks only read it, so threaded and serial
        // execution are bitwise-identical.
        if (noise != nullptr) {
          gan_->sample_noise_into(rows, c.noise_, *noise);
        } else {
          // Generations that keep a reused reconstructor share its stream,
          // and a candidate validates while the active generation serves.
          std::lock_guard<std::mutex> lk(*opaque_mu_);
          gan_->sample_noise_into(rows, c.noise_);
        }
        la::MatrixView zdst = la::MatrixView(c.g_in_).col_block(inv, nz);
        const la::ConstMatrixView zsrc(c.noise_);
        for (std::size_t r = 0; r < rows; ++r) {
          std::copy_n(zsrc.row_data(r), nz, zdst.row_data(r));
        }
      } else {
        std::lock_guard<std::mutex> lk(*opaque_mu_);
        c.recon_ = reconstructor_->reconstruct(c.selected_);
      }
      for_rows([&](std::size_t b, std::size_t e, Workspaces& ws) {
        const std::size_t n = e - b;
        if (direct) {
          gen_plan_->run(
              la::ConstMatrixView(c.g_in_).row_block(b, n),
              la::MatrixView(assembled).col_block(inv, var_dim_).row_block(b,
                                                                           n),
              ws.gen);
        } else {
          if (gen_plan_.has_value()) {
            gen_plan_->run(la::ConstMatrixView(c.g_in_).row_block(b, n),
                           la::MatrixView(c.recon_).row_block(b, n), ws.gen);
          }
          const la::ConstMatrixView rv(c.recon_);
          la::MatrixView av(assembled);
          for (std::size_t r = b; r < e; ++r) {
            const double* in = rv.row_data(r);
            double* out = av.row_data(r);
            for (std::size_t i = 0; i < recon_dst_.size(); ++i) {
              out[recon_dst_[i]] = in[recon_src_[i]];
            }
          }
        }
        if (clf_plan_.has_value()) {
          clf_plan_->run(la::ConstMatrixView(assembled).row_block(b, n),
                         la::MatrixView(dst).row_block(b, n), ws.clf);
        }
      });
      if (!clf_plan_.has_value()) classify_opaque(assembled, dst);
      if (m > 0) proba += c.mc_tmp_;
    }
    proba *= 1.0 / static_cast<double>(monte_carlo_m_);
  }

  auto& im = obs::InferenceMetrics::global();
  im.samples_total.inc(rows);
  const double ms = timer.millis();
  im.batch_latency_ms.record(ms);
  im.samples_per_second.set(ms > 0.0 ? 1000.0 * static_cast<double>(rows) / ms
                                     : 0.0);
}

}  // namespace fsda::core
