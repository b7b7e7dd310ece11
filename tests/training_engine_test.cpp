// Training fast path (DESIGN.md section 12): backward-pass packed GEMM
// kernels, the fused Adam sweep, and deterministic sharded minibatches.
//
// Pinned contracts:
//   - gemm_grad_weights and the pack_transposed dX path match naive
//     references (and each other across ISAs) at 1e-12;
//   - fused_adam_update reproduces the reference Adam loop BITWISE over a
//     100-step trajectory, on both the scalar and AVX2 kernels;
//   - a sharded fit is bitwise identical whether the shards run serially or
//     on the thread pool;
//   - a steady-state training loop allocates no matrices;
//   - a CGAN fit through the packed engine matches a golden recording of
//     the former blocked-matmul training path under the scalar ISA.
#include <cmath>
#include <cstddef>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "core/autoencoder.hpp"
#include "core/cgan.hpp"
#include "core/vae.hpp"
#include "la/gemm.hpp"
#include "la/matrix.hpp"
#include "la/optim_kernels.hpp"
#include "nn/activations.hpp"
#include "nn/linear.hpp"
#include "nn/loss.hpp"
#include "nn/optimizer.hpp"
#include "nn/sequential.hpp"
#include "nn/sharded.hpp"
#include "nn/workspace.hpp"

namespace fsda {
namespace {

la::Matrix random_matrix(std::size_t rows, std::size_t cols,
                         common::Rng& rng) {
  la::Matrix m(rows, cols, 0.0);
  for (auto& v : m.data()) v = rng.normal();
  return m;
}

// Restores global ISA forcing even when an assertion fails.
struct IsaGuard {
  ~IsaGuard() { la::set_gemm_isa(la::GemmIsa::Auto); }
};

// ---------------------------------------------------------------------------
// Backward-pass kernels.

TEST(GemmBackward, GradWeightsMatchesNaiveReference) {
  common::Rng rng(101);
  for (const auto [m, k, n] :
       {std::array<std::size_t, 3>{1, 1, 1}, {3, 5, 7}, {17, 23, 9},
        {32, 40, 33}}) {
    const la::Matrix a = random_matrix(m, k, rng);
    const la::Matrix dy = random_matrix(m, n, rng);
    la::Matrix dw(k, n, 0.5);  // accumulate on top of an existing gradient
    la::Matrix expected = dw;
    for (std::size_t i = 0; i < m; ++i) {
      for (std::size_t kk = 0; kk < k; ++kk) {
        for (std::size_t j = 0; j < n; ++j) {
          expected(kk, j) += a(i, kk) * dy(i, j);
        }
      }
    }
    la::gemm_grad_weights(a, dy, dw, /*accumulate=*/true);
    for (std::size_t kk = 0; kk < k; ++kk) {
      for (std::size_t j = 0; j < n; ++j) {
        EXPECT_NEAR(dw(kk, j), expected(kk, j), 1e-12)
            << m << "x" << k << "x" << n << " at (" << kk << "," << j << ")";
      }
    }
  }
}

TEST(GemmBackward, GradWeightsScalarVsAvx2) {
  if (!la::gemm_avx2_available()) GTEST_SKIP() << "AVX2 unavailable";
  IsaGuard guard;
  common::Rng rng(202);
  for (const auto [m, k, n] :
       {std::array<std::size_t, 3>{5, 9, 13}, {64, 96, 77}, {33, 17, 130}}) {
    const la::Matrix a = random_matrix(m, k, rng);
    const la::Matrix dy = random_matrix(m, n, rng);
    la::Matrix dw_scalar(k, n, 0.0);
    la::Matrix dw_avx2(k, n, 0.0);
    la::set_gemm_isa(la::GemmIsa::Scalar);
    la::gemm_grad_weights(a, dy, dw_scalar, /*accumulate=*/false);
    la::set_gemm_isa(la::GemmIsa::Avx2);
    la::gemm_grad_weights(a, dy, dw_avx2, /*accumulate=*/false);
    for (std::size_t kk = 0; kk < k; ++kk) {
      for (std::size_t j = 0; j < n; ++j) {
        EXPECT_NEAR(dw_scalar(kk, j), dw_avx2(kk, j), 1e-12);
      }
    }
  }
}

TEST(GemmBackward, PackTransposedComputesGradInput) {
  common::Rng rng(303);
  for (const auto [m, in, out] :
       {std::array<std::size_t, 3>{4, 6, 5}, {19, 33, 24}, {48, 64, 96}}) {
    const la::Matrix w = random_matrix(in, out, rng);  // forward weight
    const la::Matrix dy = random_matrix(m, out, rng);
    la::PackedB packed;
    packed.pack_transposed(w);  // represents w^T without materializing it
    la::Matrix dx(m, in, 0.0);
    la::gemm_packed(dy, packed, dx, la::GemmEpilogue{});
    for (std::size_t i = 0; i < m; ++i) {
      for (std::size_t c = 0; c < in; ++c) {
        double acc = 0.0;
        for (std::size_t j = 0; j < out; ++j) acc += dy(i, j) * w(c, j);
        EXPECT_NEAR(dx(i, c), acc, 1e-12);
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Fused Adam.

void reference_adam(std::vector<double>& value, std::vector<double>& m,
                    std::vector<double>& v, const std::vector<double>& grad,
                    const la::AdamStepConstants& c) {
  for (std::size_t i = 0; i < value.size(); ++i) {
    const double g = grad[i];
    m[i] = c.beta1 * m[i] + (1.0 - c.beta1) * g;
    v[i] = c.beta2 * v[i] + (1.0 - c.beta2) * g * g;
    const double m_hat = m[i] / c.bias_corr1;
    const double v_hat = v[i] / c.bias_corr2;
    value[i] -= c.lr * (m_hat / (std::sqrt(v_hat) + c.eps) +
                        c.weight_decay * value[i]);
  }
}

void run_fused_adam_trajectory(la::GemmIsa isa) {
  IsaGuard guard;
  la::set_gemm_isa(isa);
  common::Rng rng(404);
  const std::size_t n = 1037;  // odd size exercises the SIMD tail
  std::vector<double> value(n), ref_value(n);
  std::vector<double> m(n, 0.0), ref_m(n, 0.0);
  std::vector<double> v(n, 0.0), ref_v(n, 0.0);
  std::vector<double> grad(n);
  for (std::size_t i = 0; i < n; ++i) ref_value[i] = value[i] = rng.normal();
  for (std::size_t t = 1; t <= 100; ++t) {
    for (auto& g : grad) g = rng.normal();
    la::AdamStepConstants c;
    c.lr = 2e-4;
    c.beta1 = 0.5;
    c.beta2 = 0.999;
    c.eps = 1e-8;
    c.weight_decay = 1e-6;
    c.bias_corr1 = 1.0 - std::pow(c.beta1, static_cast<double>(t));
    c.bias_corr2 = 1.0 - std::pow(c.beta2, static_cast<double>(t));
    la::fused_adam_update(value.data(), m.data(), v.data(), grad.data(), n, c);
    reference_adam(ref_value, ref_m, ref_v, grad, c);
  }
  for (std::size_t i = 0; i < n; ++i) {
    // Bitwise: the fused kernel IS the reference update, in IEEE op order.
    ASSERT_EQ(value[i], ref_value[i]) << "value diverged at " << i;
    ASSERT_EQ(m[i], ref_m[i]) << "m diverged at " << i;
    ASSERT_EQ(v[i], ref_v[i]) << "v diverged at " << i;
  }
}

TEST(FusedAdam, ScalarMatchesReferenceBitwise) {
  run_fused_adam_trajectory(la::GemmIsa::Scalar);
}

TEST(FusedAdam, Avx2MatchesReferenceBitwise) {
  if (!la::gemm_avx2_available()) GTEST_SKIP() << "AVX2 unavailable";
  run_fused_adam_trajectory(la::GemmIsa::Avx2);
}

// ---------------------------------------------------------------------------
// Sharded training determinism.

struct GanFixture {
  la::Matrix x_inv;
  la::Matrix x_var;
  std::vector<std::int64_t> labels;
};

GanFixture make_gan_fixture(std::size_t n, std::size_t inv, std::size_t var) {
  common::Rng rng(505);
  GanFixture f;
  f.x_inv = la::Matrix(n, inv, 0.0);
  f.x_var = la::Matrix(n, var, 0.0);
  for (auto& v : f.x_inv.data()) v = rng.uniform(-1.0, 1.0);
  for (auto& v : f.x_var.data()) v = rng.uniform(-1.0, 1.0);
  f.labels.resize(n);
  for (std::size_t i = 0; i < n; ++i) f.labels[i] = static_cast<int>(i % 3);
  return f;
}

core::CganOptions tiny_gan_options() {
  core::CganOptions o;
  o.hidden = {16, 16};
  o.epochs = 3;
  o.batch_size = 64;
  return o;
}

void expect_params_bitwise_equal(nn::Sequential* a, nn::Sequential* b) {
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  const auto pa = a->parameters();
  const auto pb = b->parameters();
  ASSERT_EQ(pa.size(), pb.size());
  for (std::size_t p = 0; p < pa.size(); ++p) {
    ASSERT_EQ(pa[p]->value.rows(), pb[p]->value.rows());
    ASSERT_EQ(pa[p]->value.cols(), pb[p]->value.cols());
    const auto& da = pa[p]->value.data();
    const auto& db = pb[p]->value.data();
    for (std::size_t i = 0; i < da.size(); ++i) {
      ASSERT_EQ(da[i], db[i]) << "param " << p << " element " << i;
    }
  }
}

// Runs `fn` on a ThreadPool worker, where parallel_for runs nested calls
// inline: the shards of a fit started there execute serially.
template <typename F>
void run_serially(F&& fn) {
  common::ThreadPool::global().submit(std::forward<F>(fn)).get();
}

void expect_bitwise_equal(const la::Matrix& a, const la::Matrix& b) {
  ASSERT_EQ(a.rows(), b.rows());
  ASSERT_EQ(a.cols(), b.cols());
  for (std::size_t i = 0; i < a.data().size(); ++i) {
    ASSERT_EQ(a.data()[i], b.data()[i]) << "element " << i;
  }
}

TEST(ShardedTraining, SerialAndThreadedShardsBitwiseIdentical) {
  const GanFixture f = make_gan_fixture(128, 6, 8);
  core::CganOptions opts = tiny_gan_options();
  opts.train_shards = 4;

  core::ConditionalGAN serial_gan(6, 8, opts, 99);
  core::ConditionalGAN threaded_gan(6, 8, opts, 99);
  run_serially([&] { serial_gan.fit(f.x_inv, f.x_var, f.labels, 3); });
  threaded_gan.fit(f.x_inv, f.x_var, f.labels, 3);
  expect_params_bitwise_equal(serial_gan.generator_network(),
                              threaded_gan.generator_network());
}

TEST(ShardedTraining, AutoencoderSerialThreadedBitwiseIdentical) {
  const GanFixture f = make_gan_fixture(96, 5, 7);
  core::AutoencoderOptions opts;
  opts.hidden = {12, 12};
  opts.epochs = 4;
  opts.batch_size = 48;
  opts.train_shards = 3;
  core::AutoencoderReconstructor serial_ae(5, 7, opts, 11);
  core::AutoencoderReconstructor threaded_ae(5, 7, opts, 11);
  run_serially([&] { serial_ae.fit(f.x_inv, f.x_var, f.labels, 3); });
  threaded_ae.fit(f.x_inv, f.x_var, f.labels, 3);
  EXPECT_TRUE(serial_ae.healthy());
  ASSERT_EQ(serial_ae.last_loss(), threaded_ae.last_loss());
  expect_bitwise_equal(serial_ae.reconstruct(f.x_inv),
                       threaded_ae.reconstruct(f.x_inv));
}

TEST(ShardedTraining, VaeShardedFitStaysHealthy) {
  const GanFixture f = make_gan_fixture(96, 5, 7);
  core::VaeOptions opts;
  opts.hidden = {12, 12};
  opts.epochs = 4;
  opts.batch_size = 48;
  opts.train_shards = 0;  // auto: one shard per pool worker
  core::VaeReconstructor serial_vae(5, 7, opts, 21);
  core::VaeReconstructor threaded_vae(5, 7, opts, 21);
  run_serially([&] { serial_vae.fit(f.x_inv, f.x_var, f.labels, 3); });
  threaded_vae.fit(f.x_inv, f.x_var, f.labels, 3);
  EXPECT_TRUE(threaded_vae.healthy());
  EXPECT_TRUE(std::isfinite(threaded_vae.last_loss()));
  ASSERT_EQ(serial_vae.last_loss(), threaded_vae.last_loss());
  // reconstruct() draws its latent noise from each model's own stream, so
  // equal outputs need equal decoders and equal stream positions.
  const la::Matrix recon = threaded_vae.reconstruct(f.x_inv);
  for (double v : recon.data()) ASSERT_TRUE(std::isfinite(v));
  expect_bitwise_equal(serial_vae.reconstruct(f.x_inv), recon);
}

// ---------------------------------------------------------------------------
// Zero steady-state allocations.

TEST(TrainingAllocations, SteadyStateStepAllocatesNothing) {
  common::Rng rng(606);
  nn::Sequential net;
  net.emplace<nn::Linear>(32, 64, rng);
  net.emplace<nn::ReLU>();
  net.emplace<nn::Linear>(64, 32, rng);
  nn::Adam opt(net.parameters(), 1e-3, 0.9, 0.999, 1e-8, 1e-6);
  nn::Workspace ws;
  const la::Matrix input = random_matrix(64, 32, rng);
  const la::Matrix target = random_matrix(64, 32, rng);
  la::Matrix grad;
  // Warm up: workspace buffers, pack panels, Adam moments, loss grad.
  for (int i = 0; i < 3; ++i) {
    opt.zero_grad();
    const la::Matrix& out = net.forward(input, /*training=*/true, ws);
    nn::mse_into(out, target, grad);
    net.backward(grad, ws);
    opt.step();
  }
  const std::size_t before = la::matrix_allocations();
  for (int i = 0; i < 1000; ++i) {
    opt.zero_grad();
    const la::Matrix& out = net.forward(input, /*training=*/true, ws);
    nn::mse_into(out, target, grad);
    net.backward(grad, ws);
    opt.step();
  }
  EXPECT_EQ(la::matrix_allocations(), before)
      << "training steps must not allocate after warm-up";
}

// ---------------------------------------------------------------------------
// Packed engine vs the former blocked-matmul training path, end to end.

// The tiny-fixture CGAN fit (make_gan_fixture(128, 6, 8), tiny_gan_options,
// seed 7) as recorded through the removed blocked-matmul Linear path under
// GemmIsa::Scalar: per-epoch {d_loss, g_adv_loss, g_recon_loss}, then
// reconstruct() of the fixture's first four invariant rows.
constexpr double kLegacyHistory[3][3] = {
    {1.4534165835732806, 0.89804899256348902, 0.84347600605571194},
    {1.4088812618903825, 0.86330003160374968, 0.82570918132542204},
    {1.5002617884426037, 0.88155374363702532, 0.81757594161223146},
};
constexpr double kLegacyProbe[4][8] = {
    {0.29387457204002371, -0.48655144116272292, -0.66256100667158302,
     0.7311848787435471, -0.77671944747146515, -0.89194104584126666,
     0.87888367969771153, 0.50935424411829344},
    {0.90476527220873226, -0.91800223473654929, 0.85683950562382794,
     0.50466726419368535, -0.96447199248587356, 0.04244708955082873,
     0.29917841076956514, 0.39581135750629098},
    {-0.91599201770515193, 0.22696395353492749, -0.73666644843738327,
     -0.9073249457390099, 0.98600805436940575, 0.17749939579909668,
     -0.41619583210451033, 0.33808818316970446},
    {-0.46661235344942426, -0.99880129753327018, 0.96518859572293481,
     0.28379697159075179, -0.18610495959934895, 0.55530391199094054,
     0.6217106951225011, -0.28376097567290298},
};

TEST(PackedTrainingGolden, CganFitMatchesLegacyRecordingUnderScalarIsa) {
  IsaGuard isa_guard;
  // One forced ISA, as in the recording, so the only difference left is
  // the packed engine's kernel/loop structure.
  la::set_gemm_isa(la::GemmIsa::Scalar);
  const GanFixture f = make_gan_fixture(128, 6, 8);
  core::ConditionalGAN gan(6, 8, tiny_gan_options(), 7);
  gan.fit(f.x_inv, f.x_var, f.labels, 3);

  ASSERT_EQ(gan.history().size(), 3u);
  for (std::size_t e = 0; e < 3; ++e) {
    const core::GanEpochStats& h = gan.history()[e];
    EXPECT_NEAR(h.d_loss, kLegacyHistory[e][0], 1e-6) << "epoch " << e;
    EXPECT_NEAR(h.g_adv_loss, kLegacyHistory[e][1], 1e-6) << "epoch " << e;
    EXPECT_NEAR(h.g_recon_loss, kLegacyHistory[e][2], 1e-6) << "epoch " << e;
  }
  la::Matrix probe(4, 6, 0.0);
  for (std::size_t r = 0; r < 4; ++r) {
    for (std::size_t c = 0; c < 6; ++c) probe(r, c) = f.x_inv(r, c);
  }
  const la::Matrix out = gan.reconstruct(probe);
  ASSERT_EQ(out.rows(), 4u);
  ASSERT_EQ(out.cols(), 8u);
  for (std::size_t r = 0; r < 4; ++r) {
    for (std::size_t c = 0; c < 8; ++c) {
      EXPECT_NEAR(out(r, c), kLegacyProbe[r][c], 1e-6)
          << "probe (" << r << "," << c << ")";
    }
  }
}

}  // namespace
}  // namespace fsda
