// Property tests for the re-adaptation fast path (DESIGN.md §16): the
// Gram-statistic CI engine (incremental vs batch parity, ring eviction,
// label-shift weighting, the F-node indicator assembly, the near-constant
// column guard), skeleton warm-start (full-fidelity equality with a cold
// search), reconstructor reuse for an unchanged partition (and its shared
// noise stream under concurrent validate + serve), the adaptation buffer's
// incremental per-class statistics, and the drift loop's warm/cold ladder.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <memory>
#include <thread>
#include <vector>

#include "baselines/ours.hpp"
#include "causal/fnode.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "core/drift_loop.hpp"
#include "core/model_registry.hpp"
#include "core/pipeline.hpp"
#include "data/gen5gc.hpp"
#include "data/scaler.hpp"
#include "la/stats.hpp"
#include "models/factory.hpp"

namespace fsda {
namespace {

double max_abs_diff(const la::Matrix& a, const la::Matrix& b) {
  EXPECT_EQ(a.rows(), b.rows());
  EXPECT_EQ(a.cols(), b.cols());
  double worst = 0.0;
  for (std::size_t r = 0; r < a.rows(); ++r) {
    for (std::size_t c = 0; c < a.cols(); ++c) {
      worst = std::max(worst, std::abs(a(r, c) - b(r, c)));
    }
  }
  return worst;
}

bool bitwise_equal(const la::Matrix& a, const la::Matrix& b) {
  if (a.rows() != b.rows() || a.cols() != b.cols()) return false;
  return std::memcmp(a.data().data(), b.data().data(),
                     a.data().size() * sizeof(double)) == 0;
}

// ---------------------------------------------------------------------------
// GramStats: sufficient statistics vs the batch formulas

TEST(GramStatsTest, IncrementalMatchesBatchMoments) {
  common::Rng rng(42);
  const la::Matrix x = la::Matrix::randn(200, 8, rng);

  la::GramStats inc(8);
  for (std::size_t r = 0; r < x.rows(); ++r) inc.add(x.row(r));
  EXPECT_EQ(inc.dim(), 8u);
  EXPECT_DOUBLE_EQ(inc.weight(), 200.0);

  la::Matrix cov, corr;
  inc.covariance_into(cov);
  inc.correlation_into(corr);
  EXPECT_LE(max_abs_diff(cov, la::covariance(x)), 1e-12);
  EXPECT_LE(max_abs_diff(corr, la::correlation(x)), 1e-12);

  // add_rows is the same accumulation in one call.
  la::GramStats batch(8);
  batch.add_rows(x);
  EXPECT_LE(max_abs_diff(batch.correlation(), corr), 1e-14);
}

TEST(GramStatsTest, RemoveIsInverseOfAdd) {
  common::Rng rng(43);
  const la::Matrix x = la::Matrix::randn(120, 6, rng);

  // Fold in all 120 rows, then downdate the first 40 (ring eviction).
  la::GramStats evicted(6);
  evicted.add_rows(x);
  for (std::size_t r = 0; r < 40; ++r) evicted.remove(x.row(r));

  la::GramStats fresh(6);
  for (std::size_t r = 40; r < x.rows(); ++r) fresh.add(x.row(r));

  EXPECT_DOUBLE_EQ(evicted.weight(), fresh.weight());
  EXPECT_LE(max_abs_diff(evicted.correlation(), fresh.correlation()), 1e-10);
}

TEST(GramStatsTest, AddScaledMatchesIntegerReplication) {
  common::Rng rng(44);
  const la::Matrix xa = la::Matrix::randn(30, 6, rng);
  const la::Matrix xb = la::Matrix::randn(50, 6, rng);

  // Materialized label-shift correction: class a replicated 3x, class b 2x.
  la::Matrix rep(3 * 30 + 2 * 50, 6);
  std::size_t out = 0;
  for (int k = 0; k < 3; ++k) {
    for (std::size_t r = 0; r < xa.rows(); ++r, ++out) {
      for (std::size_t c = 0; c < 6; ++c) rep(out, c) = xa(r, c);
    }
  }
  for (int k = 0; k < 2; ++k) {
    for (std::size_t r = 0; r < xb.rows(); ++r, ++out) {
      for (std::size_t c = 0; c < 6; ++c) rep(out, c) = xb(r, c);
    }
  }

  la::GramStats ca(6), cb(6), total(6);
  ca.add_rows(xa);
  cb.add_rows(xb);
  total.add_scaled(ca, 3.0);
  total.add_scaled(cb, 2.0);
  EXPECT_DOUBLE_EQ(total.weight(), static_cast<double>(rep.rows()));
  EXPECT_LE(max_abs_diff(total.correlation(), la::correlation(rep)), 1e-10);

  // Fractional class weights equal weighted row accumulation exactly.
  la::GramStats frac(6), direct(6);
  frac.add_scaled(ca, 1.5);
  direct.add_rows(xa, 1.5);
  EXPECT_DOUBLE_EQ(frac.weight(), direct.weight());
  EXPECT_LE(max_abs_diff(frac.correlation(), direct.correlation()), 1e-12);
}

TEST(GramStatsTest, NearConstantColumnGuardMatchesBatchCorrelation) {
  common::Rng rng(45);
  la::Matrix x = la::Matrix::randn(100, 4, rng);
  // An exactly-representable constant column: the raw-moment centering
  // cancels to a roundoff-sized residual that the relative variance floor
  // must clamp to "constant" just like la::correlation's exact-zero guard.
  for (std::size_t r = 0; r < x.rows(); ++r) x(r, 2) = 0.5;

  la::GramStats s(4);
  s.add_rows(x);
  const la::Matrix corr = s.correlation();
  EXPECT_LE(max_abs_diff(corr, la::correlation(x)), 1e-12);
  for (std::size_t j = 0; j < 4; ++j) {
    if (j == 2) continue;
    EXPECT_EQ(corr(2, j), 0.0);
    EXPECT_EQ(corr(j, 2), 0.0);
  }
}

TEST(GramStatsTest, WithIndicatorMatchesMaterializedFNodeColumn) {
  common::Rng rng(46);
  const la::Matrix source = la::Matrix::randn(150, 5, rng);
  la::Matrix target = la::Matrix::randn(40, 5, rng);
  for (std::size_t r = 0; r < target.rows(); ++r) target(r, 1) += 3.0;

  // Materialized [source; target] with the trailing 0/1 F column.
  la::Matrix combined(190, 6);
  for (std::size_t r = 0; r < source.rows(); ++r) {
    for (std::size_t c = 0; c < 5; ++c) combined(r, c) = source(r, c);
    combined(r, 5) = 0.0;
  }
  for (std::size_t r = 0; r < target.rows(); ++r) {
    for (std::size_t c = 0; c < 5; ++c) combined(150 + r, c) = target(r, c);
    combined(150 + r, 5) = 1.0;
  }

  la::GramStats src(5), tgt(5);
  src.add_rows(source);
  tgt.add_rows(target);
  const la::GramStats with_f = la::GramStats::with_indicator(src, tgt);
  EXPECT_EQ(with_f.dim(), 6u);
  EXPECT_DOUBLE_EQ(with_f.weight(), 190.0);
  EXPECT_LE(max_abs_diff(with_f.correlation(), la::correlation(combined)),
            1e-12);
}

// ---------------------------------------------------------------------------
// F-node search: stats path parity and skeleton warm-start

/// Source/target pair with two strongly shifted features (1 and 3) and a
/// composite feature 5 = feature 0 + feature 2 + small noise in BOTH
/// domains, where 0 and 2 carry shifts small enough to stay below the
/// marginal Fisher-z threshold (so they remain in the screened conditioning
/// pool) while their sum pushes 5 over it.  The level search then removes
/// 5's F edge given a conditioning set drawn from {0, 2} -- a non-trivial
/// separating set for the warm-start probe to reconfirm.  The seed is
/// chosen so this draw yields variant = {1, 3} with at least one non-empty
/// sepset (the construction rides the test threshold by design; the rng is
/// deterministic, so the partition is too).
struct FnodeFixture {
  la::Matrix source;
  la::Matrix target;

  FnodeFixture() {
    common::Rng rng(777);
    source = la::Matrix::randn(400, 6, rng);
    const la::Matrix sn = la::Matrix::randn(400, 1, rng);
    for (std::size_t r = 0; r < source.rows(); ++r) {
      source(r, 5) = source(r, 0) + source(r, 2) + 0.05 * sn(r, 0);
    }
    target = la::Matrix::randn(120, 6, rng);
    const la::Matrix tn = la::Matrix::randn(120, 1, rng);
    for (std::size_t r = 0; r < target.rows(); ++r) {
      target(r, 1) += 4.0;
      target(r, 3) += 4.0;
      target(r, 0) += 0.3;
      target(r, 2) += 0.3;
      target(r, 5) = target(r, 0) + target(r, 2) + 0.05 * tn(r, 0);
    }
  }

  [[nodiscard]] static causal::FNodeOptions options() {
    causal::FNodeOptions o;
    o.max_condition_size = 2;
    o.candidate_pool = 4;
    o.max_subsets_per_level = 16;
    return o;
  }
};

TEST(FnodeStatsPathTest, SufficientStatisticsMatchMaterializedSearch) {
  const FnodeFixture fx;
  const causal::FNodeOptions o = FnodeFixture::options();

  const causal::FNodeResult cold =
      causal::find_intervention_targets(fx.source, fx.target, o);
  ASSERT_EQ(cold.variant.size() + cold.invariant.size(), 6u);
  EXPECT_EQ(cold.variant, (std::vector<std::size_t>{1, 3}));

  la::GramStats src(6), tgt(6);
  src.add_rows(fx.source);
  tgt.add_rows(fx.target);
  const causal::FNodeResult stats =
      causal::find_intervention_targets(src, tgt, o);

  EXPECT_EQ(stats.variant, cold.variant);
  EXPECT_EQ(stats.invariant, cold.invariant);
  EXPECT_EQ(stats.sepsets, cold.sepsets);
}

TEST(FnodeWarmStartTest, FullFidelityEqualsColdSearch) {
  const FnodeFixture fx;
  const causal::FNodeOptions cold_o = FnodeFixture::options();
  const causal::FNodeResult cold =
      causal::find_intervention_targets(fx.source, fx.target, cold_o);

  // The fixture must yield at least one level>=1 separating set, or the
  // warm probe has nothing to reconfirm and this test is vacuous.
  bool any_sepset = false;
  for (const auto& s : cold.sepsets) any_sepset = any_sepset || !s.empty();
  ASSERT_TRUE(any_sepset);

  causal::FNodeSeed seed;
  seed.sepsets = cold.sepsets;
  const causal::FNodeResult warm =
      causal::find_intervention_targets(fx.source, fx.target, cold_o, &seed);

  // The partition (and every separating set) is IDENTICAL to the cold
  // run, and at least one probe short-circuited its level enumeration.
  EXPECT_EQ(warm.variant, cold.variant);
  EXPECT_EQ(warm.invariant, cold.invariant);
  EXPECT_EQ(warm.sepsets, cold.sepsets);
  EXPECT_GE(warm.warm_reconfirmed, 1u);
}

// ---------------------------------------------------------------------------
// AdaptationBuffer: incremental per-class statistics

TEST(AdaptationBufferStatsTest, ClassStatsTrackScaledRingThroughEviction) {
  common::Rng rng(7);
  data::MinMaxScaler scaler;
  scaler.fit(la::Matrix::randn(256, 5, rng));

  core::AdaptationBuffer buf(64, 5, 3);
  buf.enable_stats(&scaler);
  ASSERT_TRUE(buf.stats_enabled());

  // Ingest 160 rows in batches of 16: 96 rows are evicted (rank-1
  // downdated) on the way through.
  for (std::size_t b = 0; b < 10; ++b) {
    const la::Matrix batch = la::Matrix::randn(16, 5, rng);
    std::vector<std::int64_t> labels(16);
    for (std::size_t r = 0; r < 16; ++r) {
      labels[r] = static_cast<std::int64_t>((b * 16 + r) % 3);
    }
    buf.ingest(batch, labels);
  }
  ASSERT_EQ(buf.size(), 64u);

  // Reference: statistics built fresh from the surviving rows.
  const data::Dataset snap = buf.snapshot();
  const la::Matrix scaled = scaler.transform(snap.x);
  for (std::size_t cls = 0; cls < 3; ++cls) {
    la::GramStats fresh(5);
    std::size_t count = 0;
    for (std::size_t r = 0; r < scaled.rows(); ++r) {
      if (snap.y[r] != static_cast<std::int64_t>(cls)) continue;
      fresh.add(scaled.row(r));
      ++count;
    }
    ASSERT_GT(count, 1u);
    EXPECT_EQ(buf.class_counts()[cls], count);
    EXPECT_NEAR(buf.class_stats()[cls].weight(), static_cast<double>(count),
                1e-9);
    EXPECT_LE(max_abs_diff(buf.class_stats()[cls].correlation(),
                           fresh.correlation()),
              1e-10);
  }
}

TEST(AdaptationBufferStatsTest, EnableStatsRebuildsFromBufferedRows) {
  common::Rng rng(8);
  data::MinMaxScaler scaler;
  scaler.fit(la::Matrix::randn(128, 4, rng));

  // Rows ingested BEFORE enable_stats must be folded in by the rebuild.
  core::AdaptationBuffer buf(32, 4, 2);
  const la::Matrix batch = la::Matrix::randn(24, 4, rng);
  std::vector<std::int64_t> labels(24);
  for (std::size_t r = 0; r < 24; ++r) labels[r] = r % 2;
  buf.ingest(batch, labels);

  buf.enable_stats(&scaler);
  double total = 0.0;
  for (const auto& s : buf.class_stats()) total += s.weight();
  EXPECT_DOUBLE_EQ(total, 24.0);
}

TEST(AdaptationBufferStatsTest, SnapshotIntoIsAllocationFlatWhenWarm) {
  common::Rng rng(9);
  core::AdaptationBuffer buf(32, 6, 2);
  const la::Matrix batch = la::Matrix::randn(48, 6, rng);
  std::vector<std::int64_t> labels(48, 0);
  buf.ingest(batch, labels);

  data::Dataset snap;
  buf.snapshot_into(snap);  // first gather sizes the scratch
  ASSERT_EQ(snap.x.rows(), 32u);

  const std::size_t before = la::matrix_allocations();
  buf.snapshot_into(snap);  // same ring occupancy: must reuse capacity
  EXPECT_EQ(la::matrix_allocations(), before);
  EXPECT_EQ(snap.x.rows(), 32u);
  EXPECT_EQ(snap.y.size(), 32u);
}

// ---------------------------------------------------------------------------
// Pipeline + drift loop: warm candidate builds end to end

causal::FNodeOptions fast_fs() {
  causal::FNodeOptions o;
  o.max_condition_size = 1;
  o.candidate_pool = 4;
  o.max_subsets_per_level = 8;
  return o;
}

struct LoopFixture {
  data::DomainSplit split;
  data::Dataset shots;
  la::Matrix drifted;
  la::Matrix drifted_low;  // the same columns pushed below the source range

  LoopFixture() {
    split = data::generate_5gc(data::Gen5GCConfig::tiny());
    shots = data::sample_few_shot(split.target_pool, 5, 3);
    drifted = split.target_test.x;
    drifted_low = split.target_test.x;
    for (std::size_t c = 0; c < 3; ++c) {
      double lo = drifted(0, c), hi = drifted(0, c);
      for (std::size_t r = 0; r < split.source_train.x.rows(); ++r) {
        lo = std::min(lo, split.source_train.x(r, c));
        hi = std::max(hi, split.source_train.x(r, c));
      }
      const double push = 2.0 * (hi - lo) + 1.0;
      for (std::size_t r = 0; r < drifted.rows(); ++r) {
        drifted(r, c) += push;
        drifted_low(r, c) -= push;
      }
    }
  }

  [[nodiscard]] core::FsGanPipeline make_pipeline(std::uint64_t seed) const {
    core::PipelineOptions options;
    options.fs = fast_fs();
    options.use_reconstruction = true;
    options.validation_rows = 64;
    return core::FsGanPipeline(
        models::make_classifier_factory("mlp"),
        baselines::make_reconstructor_factory(baselines::ReconKind::Gan),
        options, seed);
  }

  [[nodiscard]] core::DriftLoopOptions loop_options() const {
    core::DriftLoopOptions o;
    o.detector.window = 64;
    o.detector.min_window = 32;
    o.detector.patience = 2;
    o.detector.cooldown = 2;
    o.detector.psi_trigger = 3.0;
    o.detector.psi_clear = 1.5;
    o.detector.ks_trigger = 0.6;
    o.detector.ks_clear = 0.4;
    o.buffer_capacity = 256;
    o.min_adaptation_samples = 16;
    o.base_backoff_batches = 1;
    o.background = false;
    return o;
  }
};

la::Matrix slice_rows(const la::Matrix& m, std::size_t start, std::size_t n) {
  la::Matrix out(n, m.cols());
  for (std::size_t r = 0; r < n; ++r) {
    const std::size_t src = (start + r) % m.rows();
    for (std::size_t c = 0; c < m.cols(); ++c) out(r, c) = m(src, c);
  }
  return out;
}

std::vector<std::int64_t> slice_labels(const std::vector<std::int64_t>& y,
                                       std::size_t start, std::size_t n) {
  std::vector<std::int64_t> out(n);
  for (std::size_t r = 0; r < n; ++r) out[r] = y[(start + r) % y.size()];
  return out;
}

// Candidate builds and validations leave the registry untouched, so these
// tests share one trained pipeline.
class ReadaptPipelineTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    fx = std::make_unique<LoopFixture>();
    pipeline = std::make_unique<core::FsGanPipeline>(fx->make_pipeline(11));
    pipeline->train(fx->split.source_train, fx->shots);
  }
  static void TearDownTestSuite() {
    pipeline.reset();
    fx.reset();
  }

  static core::ValidationOptions permissive() {
    core::ValidationOptions vo;
    vo.min_accuracy = 0.0;
    vo.max_accuracy_drop = 1.0;
    vo.max_uniform_fraction = 1.0;
    return vo;
  }

  static inline std::unique_ptr<LoopFixture> fx;
  static inline std::unique_ptr<core::FsGanPipeline> pipeline;
};

TEST_F(ReadaptPipelineTest, WarmContextReusesBuildsAndKeepsScalerBitwise) {
  // Satellite: candidate builds must NOT refit the scaler -- the fitted
  // min/max vectors stay bitwise identical across any number of builds.
  const la::Matrix mins = pipeline->scaler().mins();
  const la::Matrix maxs = pipeline->scaler().maxs();

  // Warm context against the active generation: the same few-shot rows
  // reproduce the active partition, so the skeleton seed applies, the
  // active reconstructor is reused as is, and the assembly/drift-monitor
  // are copied.
  core::ReadaptContext ctx;
  ctx.warm = true;
  const core::CandidateOutcome warm =
      pipeline->build_candidate_generation(fx->shots, fast_fs(), ctx);
  ASSERT_NE(warm.generation, nullptr) << warm.reason;
  const core::GenerationPtr active = pipeline->active_generation();
  EXPECT_EQ(warm.generation->separation.variant, active->separation.variant);
  ASSERT_NE(warm.generation->reconstructor, nullptr);
  EXPECT_EQ(warm.generation->reconstructor, active->reconstructor);
  EXPECT_TRUE(bitwise_equal(pipeline->scaler().mins(), mins));
  EXPECT_TRUE(bitwise_equal(pipeline->scaler().maxs(), maxs));

  // Warm candidates clear the same validation gate as cold ones.
  const core::ValidationVerdict verdict =
      pipeline->validate_generation(warm.generation, permissive());
  EXPECT_TRUE(verdict.ok) << verdict.reason;
}

TEST_F(ReadaptPipelineTest, ColdContextRefitsAnUnchangedPartition) {
  const la::Matrix mins = pipeline->scaler().mins();
  const la::Matrix maxs = pipeline->scaler().maxs();

  // The default context (warm = false) is every attempt after a
  // rejection: it refits even though the partition is unchanged.
  const core::CandidateOutcome cold =
      pipeline->build_candidate_generation(fx->shots, fast_fs());
  ASSERT_NE(cold.generation, nullptr) << cold.reason;
  const core::GenerationPtr active = pipeline->active_generation();
  EXPECT_EQ(cold.generation->separation.variant, active->separation.variant);
  ASSERT_NE(cold.generation->reconstructor, nullptr);
  EXPECT_NE(cold.generation->reconstructor, active->reconstructor);
  EXPECT_TRUE(bitwise_equal(pipeline->scaler().mins(), mins));
  EXPECT_TRUE(bitwise_equal(pipeline->scaler().maxs(), maxs));
}

TEST_F(ReadaptPipelineTest, WarmContextRefitsAChangedPartition) {
  data::Dataset drifted_shots;
  drifted_shots.num_classes = fx->split.target_test.num_classes;
  drifted_shots.x = slice_rows(fx->drifted, 0, 64);
  drifted_shots.y = slice_labels(fx->split.target_test.y, 0, 64);
  core::ReadaptContext ctx;
  ctx.warm = true;
  const core::CandidateOutcome warm =
      pipeline->build_candidate_generation(drifted_shots, fast_fs(), ctx);
  ASSERT_NE(warm.generation, nullptr) << warm.reason;
  const core::GenerationPtr active = pipeline->active_generation();
  ASSERT_NE(warm.generation->separation.variant, active->separation.variant);
  ASSERT_NE(warm.generation->reconstructor, nullptr);
  EXPECT_NE(warm.generation->reconstructor, active->reconstructor);
}

TEST_F(ReadaptPipelineTest, ValidateReusedCandidateWhileServing) {
  core::ReadaptContext ctx;
  ctx.warm = true;
  const core::CandidateOutcome reused =
      pipeline->build_candidate_generation(fx->shots, fast_fs(), ctx);
  ASSERT_NE(reused.generation, nullptr) << reused.reason;
  ASSERT_EQ(reused.generation->reconstructor,
            pipeline->active_generation()->reconstructor);

  // The candidate's validation (on a second thread, as the drift loop's
  // worker runs it) and the active generation's predictions both draw from
  // the one shared CGAN noise stream.
  constexpr int kRounds = 8;
  int validated = 0;
  std::thread validator([&] {
    for (int i = 0; i < kRounds; ++i) {
      if (pipeline->validate_generation(reused.generation, permissive()).ok) {
        ++validated;
      }
    }
  });
  const la::Matrix x = slice_rows(fx->split.target_test.x, 0, 32);
  la::Matrix proba;
  bool finite = true;
  for (int i = 0; i < kRounds; ++i) {
    pipeline->predict_proba_into(x, proba);
    for (const double p : proba.data()) finite = finite && std::isfinite(p);
  }
  validator.join();
  EXPECT_TRUE(finite);
  EXPECT_EQ(validated, kRounds);
}

// A reconstructor whose every fit throws, so the pipeline degrades to the
// MeanImpute fallback.
class ThrowingReconstructor : public core::Reconstructor {
 public:
  void fit(const la::Matrix&, const la::Matrix&,
           const std::vector<std::int64_t>&, std::size_t) override {
    throw common::NumericError("injected divergence");
  }
  [[nodiscard]] la::Matrix reconstruct(const la::Matrix&) override {
    return {};
  }
  [[nodiscard]] std::string name() const override { return "Throwing"; }
};

TEST(ReadaptReuseTest, WarmContextRefitsTheMeanImputeFallback) {
  const LoopFixture fx;
  core::PipelineOptions options;
  options.fs = fast_fs();
  options.use_reconstruction = true;
  options.validation_rows = 64;
  core::FsGanPipeline pipeline(
      models::make_classifier_factory("mlp"),
      [](std::size_t, std::size_t, std::uint64_t) {
        return std::make_unique<ThrowingReconstructor>();
      },
      options, 11);
  pipeline.train(fx.split.source_train, fx.shots);
  const core::GenerationPtr active = pipeline.active_generation();
  ASSERT_TRUE(pipeline.health().fallback_reconstructor);
  ASSERT_NE(active->reconstructor, nullptr);
  ASSERT_EQ(active->reconstructor->name(), "MeanImpute");

  // The partition is unchanged, but a fallback is never reused: the next
  // fit may converge where the last one diverged.
  core::ReadaptContext ctx;
  ctx.warm = true;
  const core::CandidateOutcome warm =
      pipeline.build_candidate_generation(fx.shots, fast_fs(), ctx);
  ASSERT_NE(warm.generation, nullptr) << warm.reason;
  EXPECT_EQ(warm.generation->separation.variant, active->separation.variant);
  EXPECT_TRUE(warm.health.fallback_reconstructor);
  EXPECT_NE(warm.generation->reconstructor, active->reconstructor);
}

TEST(ReadaptReuseTest, AdaptWithUnchangedPartitionKeepsTrainedReconstructor) {
  const LoopFixture fx;
  core::FsGanPipeline pipeline = fx.make_pipeline(11);
  pipeline.train(fx.split.source_train, fx.shots);
  const core::GenerationPtr trained = pipeline.active_generation();

  pipeline.adapt_to_new_target(fx.shots);
  const core::GenerationPtr adapted = pipeline.active_generation();
  ASSERT_NE(adapted, trained);
  EXPECT_EQ(adapted->provenance, "adapt");
  EXPECT_EQ(adapted->separation.variant, trained->separation.variant);
  ASSERT_NE(adapted->reconstructor, nullptr);
  EXPECT_EQ(adapted->reconstructor, trained->reconstructor);
}

TEST(ReadaptDriftLoopTest, WarmFastPathPromotesOnRealDrift) {
  const LoopFixture fx;
  core::FsGanPipeline pipeline = fx.make_pipeline(11);
  pipeline.train(fx.split.source_train, fx.shots);

  core::DriftLoopOptions options = fx.loop_options();
  options.validation.min_accuracy = 0.0;
  options.validation.max_accuracy_drop = 1.0;
  options.validation.max_uniform_fraction = 1.0;
  options.probation_batches = 2;
  options.quarantine_spike = 1.1;
  ASSERT_TRUE(options.warm_readapt);  // the fast path is the default
  core::DriftLoop loop(pipeline, options);

  la::Matrix proba;
  std::size_t served = 0;
  while (loop.stats().promotions == 0 && served < 10) {
    loop.serve(slice_rows(fx.drifted, served * 32, 32),
               slice_labels(fx.split.target_test.y, served * 32, 32), proba);
    ++served;
  }
  ASSERT_EQ(loop.stats().promotions, 1u);
  EXPECT_GE(loop.stats().warm_attempts, 1u);
  EXPECT_EQ(pipeline.active_generation()->provenance, "readapt");
  // The promoted generation carries its separating sets so the NEXT
  // re-adaptation can warm-start from it in turn.
  EXPECT_EQ(pipeline.active_generation()->separation.sepsets.size(),
            fx.split.source_train.x.cols());
}

TEST(ReadaptDriftLoopTest, RejectionFallsBackToColdAttempts) {
  const LoopFixture fx;
  core::FsGanPipeline pipeline = fx.make_pipeline(11);
  pipeline.train(fx.split.source_train, fx.shots);

  core::DriftLoopOptions options = fx.loop_options();
  options.validation.min_accuracy = 1.01;  // unsatisfiable: reject everything
  core::DriftLoop loop(pipeline, options);

  la::Matrix proba;
  std::size_t served = 0;
  while (loop.stats().attempts < 2 && served < 24) {
    loop.serve(slice_rows(fx.drifted, served * 32, 32),
               slice_labels(fx.split.target_test.y, served * 32, 32), proba);
    ++served;
  }
  ASSERT_GE(loop.stats().attempts, 2u);
  // Only the FIRST attempt after the trigger ran warm; every attempt after
  // a rejection dropped to the fully cold ladder.
  EXPECT_EQ(loop.stats().warm_attempts, 1u);
  EXPECT_EQ(loop.stats().promotions, 0u);
  EXPECT_EQ(pipeline.active_generation()->provenance, "train");
}

TEST(ReadaptDriftLoopTest, BackgroundLoopPromotesReusedGenerationWhileServing) {
  const LoopFixture fx;
  core::FsGanPipeline pipeline = fx.make_pipeline(11);
  pipeline.train(fx.split.source_train, fx.shots);

  core::DriftLoopOptions options = fx.loop_options();
  options.background = true;
  // Two batches: at each trigger the buffer holds only the current regime.
  options.buffer_capacity = 64;
  options.validation.min_accuracy = 0.0;
  options.validation.max_accuracy_drop = 1.0;
  options.validation.max_uniform_fraction = 1.0;
  options.probation_batches = 2;
  options.quarantine_spike = 1.1;
  core::DriftLoop loop(pipeline, options);

  // Alternate the drift between the two sides of the same columns: every
  // recovery after the first rediscovers the partition the active
  // generation already serves.  The serving thread keeps predicting through
  // the active generation while the worker validates the candidate.
  la::Matrix proba;
  std::size_t served = 0;
  const auto serve = [&](const la::Matrix& regime) {
    // The same 64 rows in every regime, so only the shift differs between
    // the buffers the searches see.
    const std::size_t start = (served % 2) * 32;
    loop.serve(slice_rows(regime, start, 32),
               slice_labels(fx.split.target_test.y, start, 32), proba);
    ++served;
    for (const double p : proba.data()) ASSERT_TRUE(std::isfinite(p));
  };
  std::size_t reuses = 0;
  for (std::size_t cycle = 0; cycle < 3; ++cycle) {
    const la::Matrix& regime = cycle % 2 == 0 ? fx.drifted : fx.drifted_low;
    const core::GenerationPtr prev = pipeline.active_generation();
    const std::uint64_t attempts = loop.stats().attempts;
    for (std::size_t i = 0; i < 40 && loop.stats().attempts == attempts; ++i) {
      serve(regime);
    }
    ASSERT_GT(loop.stats().attempts, attempts) << "cycle " << cycle;
    for (std::size_t i = 0; i < 8; ++i) serve(regime);
    loop.drain();
    const core::GenerationPtr now = pipeline.active_generation();
    ASSERT_NE(now, prev) << "cycle " << cycle << " never promoted";
    if (now->reconstructor == prev->reconstructor) ++reuses;
    for (std::size_t i = 0; i < 4; ++i) serve(regime);
  }
  loop.drain();
  EXPECT_EQ(loop.stats().rejections, 0u);
  EXPECT_GE(reuses, 2u);  // cycles 1 and 2 rediscover cycle 0's partition
}

}  // namespace
}  // namespace fsda
