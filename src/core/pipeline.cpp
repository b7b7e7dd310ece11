#include "core/pipeline.hpp"

#include <algorithm>
#include <cmath>
#include <string>
#include <utility>

#include "core/corruption.hpp"

#include "common/rng.hpp"

#include "common/error.hpp"
#include "common/logging.hpp"
#include "common/stopwatch.hpp"
#include "obs/journal.hpp"
#include "obs/metrics.hpp"
#include "obs/slo.hpp"
#include "obs/trace.hpp"

namespace fsda::core {

FsGanPipeline::FsGanPipeline(models::ClassifierFactory classifier_factory,
                             ReconstructorFactory reconstructor_factory,
                             PipelineOptions options, std::uint64_t seed)
    : classifier_factory_(std::move(classifier_factory)),
      reconstructor_factory_(std::move(reconstructor_factory)),
      options_(options),
      seed_(seed) {
  FSDA_CHECK_MSG(classifier_factory_ != nullptr, "null classifier factory");
  FSDA_CHECK_MSG(!options_.use_reconstruction ||
                     reconstructor_factory_ != nullptr,
                 "FS+GAN mode requires a reconstructor factory");
  FSDA_CHECK_MSG(options_.monte_carlo_m >= 1, "M must be >= 1");
}

const SeparationResult& FsGanPipeline::separation() const {
  const GenerationPtr gen = registry_.active();
  FSDA_CHECK_MSG(gen != nullptr, "separation before train");
  // The generation is kept alive by the registry until the next publish,
  // which is exactly the old lifetime (valid until train/adapt).
  return gen->separation;
}

namespace {

/// Validation counts a row as uniform when every probability is within
/// this of 1/C.
constexpr double kUniformTol = 1e-6;

/// Resamples `target` so its label mix matches `source_counts`.
///
/// The few-shot draw is stratified per fault type, so its label
/// distribution generally differs from the source's (e.g. the paper's
/// 5GIPC setup draws k normal + 4k faulty shots against a 72%-normal
/// source).  P(V | F) then differs across domains for every
/// label-responsive feature even without any drift, and the F-node tests
/// would flag label shift as intervention.  Labels of the shots are known,
/// so we correct exactly: each target class is replicated in proportion to
/// the source prior before the combined dataset D* is formed.
data::Dataset match_label_distribution(
    const std::vector<std::size_t>& source_counts,
    const data::Dataset& target, std::size_t rows_target_hint) {
  double source_total = 0.0;
  for (std::size_t c : source_counts) {
    source_total += static_cast<double>(c);
  }
  std::vector<std::size_t> rows;
  for (std::size_t c = 0; c < target.num_classes; ++c) {
    const auto members =
        target.indices_of_class(static_cast<std::int64_t>(c));
    if (members.empty() || source_counts[c] == 0) continue;
    const double prior =
        static_cast<double>(source_counts[c]) / source_total;
    const auto want = static_cast<std::size_t>(
        prior * static_cast<double>(rows_target_hint) + 0.5);
    for (std::size_t i = 0; i < std::max<std::size_t>(want, 1); ++i) {
      rows.push_back(members[i % members.size()]);
    }
  }
  if (rows.empty()) return target;  // degenerate; fall back unchanged
  return target.subset(rows);
}

/// Screens rows with non-finite features out of a few-shot set.  A dirty
/// shot would poison the F-node correlation matrix (one NaN contaminates
/// every test involving its column), so screening happens before anything
/// else touches the data.  Throws when nothing survives.
data::Dataset drop_nonfinite_rows(const data::Dataset& d,
                                  std::size_t* dropped) {
  const std::vector<std::size_t> bad = nonfinite_rows(d.x);
  *dropped = bad.size();
  if (bad.empty()) return d;
  std::vector<std::size_t> keep;
  keep.reserve(d.size() - bad.size());
  std::size_t bi = 0;
  for (std::size_t r = 0; r < d.size(); ++r) {
    if (bi < bad.size() && bad[bi] == r) {
      ++bi;
      continue;
    }
    keep.push_back(r);
  }
  if (keep.empty()) {
    throw common::NumericError(
        "FsGanPipeline: every few-shot target row contains NaN/Inf; "
        "cannot run feature separation");
  }
  return d.subset(keep);
}

}  // namespace

data::Dataset FsGanPipeline::label_shift_corrected(
    const data::Dataset& source, const data::Dataset& target_few_shot) {
  source_class_counts_ = source.class_counts();
  return label_shift_corrected_cached(target_few_shot);
}

data::Dataset FsGanPipeline::label_shift_corrected_cached(
    const data::Dataset& target_few_shot) const {
  FSDA_CHECK_MSG(!source_class_counts_.empty(),
                 "label-shift correction before train");
  // Resample to ~4x the shot count so replication granularity is fine
  // enough for skewed priors.
  return match_label_distribution(source_class_counts_, target_few_shot,
                                  std::max<std::size_t>(
                                      4 * target_few_shot.size(), 64));
}

double FsGanPipeline::reconstructor_train_seconds() const {
  return obs::MetricsRegistry::global().gauge_value(
      "pipeline.reconstructor_fit_seconds", 0.0);
}

std::shared_ptr<Reconstructor> FsGanPipeline::reuse_or_fit_reconstructor(
    const SeparationResult& sep, HealthReport& health, std::uint64_t seed,
    const ModelGeneration* reuse) {
  // Reconstructor reuse (DESIGN.md §16): the reconstructor trains on source
  // rows only, so it depends on the source, the partition and a seed -- for
  // an unchanged partition the published one already solves the problem a
  // refit would.  The MeanImpute fallback is never reused: a fresh fit may
  // converge where the last one diverged.
  if (reuse != nullptr && reuse->reconstructor != nullptr &&
      reuse->separation.invariant == sep.invariant &&
      reuse->separation.variant == sep.variant &&
      dynamic_cast<const MeanImputeReconstructor*>(
          reuse->reconstructor.get()) == nullptr) {
    health.note_stage("reconstructor_reused", true,
                      reuse->reconstructor->name() +
                          " kept from the active generation (partition "
                          "unchanged)");
    return reuse->reconstructor;
  }
  return fit_reconstructor_for(sep, health, seed);
}

std::shared_ptr<Reconstructor> FsGanPipeline::fit_reconstructor_for(
    const SeparationResult& sep, HealthReport& health, std::uint64_t seed) {
  FSDA_SPAN("pipeline.reconstructor_fit");
  if (sep.variant.empty() || sep.invariant.empty()) {
    return nullptr;  // nothing to reconstruct / condition on
  }
  common::Stopwatch timer;
  const la::Matrix x_inv = source_scaled_.select_cols(sep.invariant);
  const la::Matrix x_var = source_scaled_.select_cols(sep.variant);
  std::shared_ptr<Reconstructor> reconstructor =
      reconstructor_factory_(sep.invariant.size(), sep.variant.size(), seed);
  bool fit_threw = false;
  std::string fit_error;
  try {
    reconstructor->fit(x_inv, x_var, source_labels_, num_classes_);
  } catch (const common::NumericError& e) {
    fit_threw = true;
    fit_error = e.what();
  }
  health.reconstructor_retries = fit_threw ? 0 : reconstructor->fit_retries();
  health.reconstructor_rollbacks =
      fit_threw ? 0 : reconstructor->fit_rollbacks();
  if (fit_threw || !reconstructor->healthy()) {
    // Every training attempt diverged (or fit itself blew up numerically):
    // degrade to class-conditional mean imputation so predictions keep
    // flowing, and say so in the report.
    const std::string why =
        fit_threw ? "fit threw NumericError: " + fit_error
                  : "training diverged and exhausted its retry budget";
    health.note_stage("reconstructor", false,
                      reconstructor->name() + " " + why +
                          "; falling back to MeanImpute");
    health.fallback_reconstructor = true;
    auto fallback = std::make_shared<MeanImputeReconstructor>();
    fallback->fit(x_inv, x_var, source_labels_, num_classes_);
    reconstructor = std::move(fallback);
  } else if (health.reconstructor_retries > 0) {
    health.note_stage("reconstructor", true,
                      reconstructor->name() + " recovered after " +
                          std::to_string(health.reconstructor_retries) +
                          " retry(ies)");
  }
  // Gauge (not span) so the most recent fit time is readable even with
  // tracing off; reconstructor_train_seconds() is a view over it.
  obs::MetricsRegistry::global()
      .gauge("pipeline.reconstructor_fit_seconds",
             "wall seconds of the most recent reconstructor fit")
      .set(timer.seconds());
  return reconstructor;
}

std::shared_ptr<ModelGeneration> FsGanPipeline::make_generation(
    SeparationResult sep, std::shared_ptr<Reconstructor> reconstructor,
    std::string provenance, const ModelGeneration* reuse) {
  auto gen = std::make_shared<ModelGeneration>();
  gen->provenance = std::move(provenance);
  gen->separation = std::move(sep);
  gen->reconstructor = std::move(reconstructor);
  const bool with_recon =
      options_.use_reconstruction && gen->reconstructor != nullptr;
  const bool partition_unchanged =
      reuse != nullptr &&
      reuse->separation.invariant == gen->separation.invariant &&
      reuse->separation.variant == gen->separation.variant &&
      (reuse->reconstructor != nullptr) == (gen->reconstructor != nullptr);
  if (partition_unchanged) {
    // Generation build cache (DESIGN.md §16): the AssemblyMap depends only
    // on (trained_order_, partition, with_recon) and the drift reference
    // only on (scaled source, variant set), all unchanged -- copy them from
    // the published (hence immutable) previous generation instead of
    // re-deriving them.  The packed session below still rebuilds, even
    // around a reused reconstructor: its single-caller context is not
    // re-entrant, and the candidate validates while the active serves.
    gen->assembly = reuse->assembly;
    gen->drift_monitor = reuse->drift_monitor;
  } else {
    gen->assembly =
        AssemblyMap::build(trained_order_, gen->separation, with_recon);
    // The PSI reference is the scaled source restricted to the generation's
    // variant block: those are the features expected to drift, so their
    // batch-vs-source divergence is the drift signal worth exporting.
    gen->drift_monitor.fit(source_scaled_, gen->separation.variant);
  }
  FSDA_CHECK_MSG(classifier_ != nullptr, "make_generation before train");
  gen->session = InferenceSession::build(
      *classifier_, gen->reconstructor.get(), gen->separation, gen->assembly,
      options_.monte_carlo_m, options_.use_reconstruction, opaque_mu_);
  FSDA_CHECK_MSG(gen->session != nullptr, "generation without a session");
  return gen;
}

void FsGanPipeline::stamp_validation_accuracy(ModelGeneration& gen,
                                              double carry) {
  gen.validation_accuracy = carry;
  if (validation_x_.rows() == 0) return;
  la::Matrix proba;
  gen.session->predict_proba_scaled(validation_x_, proba);
  const std::vector<std::int64_t> pred = models::argmax_rows(proba);
  std::size_t hits = 0;
  for (std::size_t r = 0; r < pred.size(); ++r) {
    if (pred[r] == validation_y_[r]) ++hits;
  }
  gen.validation_accuracy =
      pred.empty() ? 0.0
                   : static_cast<double>(hits) /
                         static_cast<double>(pred.size());
}

void FsGanPipeline::train(const data::Dataset& source,
                          const data::Dataset& target_few_shot) {
  FSDA_SPAN("pipeline.train");
  auto& registry = obs::MetricsRegistry::global();
  source.validate();
  FSDA_CHECK_MSG(source.num_features() == target_few_shot.num_features(),
                 "source/target feature mismatch");

  health_ = HealthReport{};
  registry_.reset();
  trained_ = false;
  source_stats_ = la::GramStats();  // rebuilt lazily over the new source
  // Screen before validate(): dirty few-shot rows are an expected telemetry
  // failure, not a caller bug, so they are dropped rather than rejected.
  std::size_t dropped = 0;
  const data::Dataset shots = drop_nonfinite_rows(target_few_shot, &dropped);
  shots.validate();
  if (dropped > 0) {
    health_.note_stage("few_shot_screen", true,
                       std::to_string(dropped) +
                           " non-finite few-shot target row(s) dropped");
  }

  la::Matrix target_scaled;
  {
    FSDA_SPAN("pipeline.scaler_fit");
    common::Stopwatch timer;
    scaler_.fit(source.x);  // throws NumericError on a dirty source
    source_scaled_ = scaler_.transform(source.x);
    source_labels_ = source.y;
    num_classes_ = source.num_classes;
    target_scaled = scaler_.transform(label_shift_corrected(source, shots).x);
    registry
        .gauge("pipeline.scaler_fit_seconds",
               "wall seconds spent fitting the scaler and scaling inputs")
        .set(timer.seconds());
  }

  SeparationResult sep;
  {
    FSDA_SPAN("pipeline.feature_separation");
    common::Stopwatch timer;
    sep = separate_features(source_scaled_, target_scaled, options_.fs);
    registry
        .gauge("pipeline.feature_separation_seconds",
               "wall seconds of the most recent F-node search")
        .set(timer.seconds());
  }
  registry
      .gauge("fs.variant_features",
             "variant feature count of the current separation")
      .set(static_cast<double>(sep.variant.size()));
  registry
      .gauge("fs.invariant_features",
             "invariant feature count of the current separation")
      .set(static_cast<double>(sep.invariant.size()));
  // Fail fast on an unmonitorable reference (all-NaN variant column) before
  // any expensive network training; make_generation refits the same
  // reference into the published generation below.
  {
    obs::DriftMonitor probe;
    probe.fit(source_scaled_, sep.variant);
  }
  health_.fs_truncated = sep.truncated;
  if (sep.truncated) {
    health_.note_stage("feature_separation", false,
                       "F-node search hit its deadline; partition is "
                       "best-so-far");
  }
  FSDA_LOG_INFO << "pipeline: " << sep.variant.size() << " variant / "
                << sep.invariant.size() << " invariant features";

  classifier_ = classifier_factory_(seed_ ^ 0xC1A55ULL);
  std::shared_ptr<Reconstructor> reconstructor;
  common::Stopwatch classifier_timer;
  if (options_.use_reconstruction) {
    // Classifier sees all features, reordered [X_inv | X_var] so that
    // inference-time assembly (eq. 11) matches the training feature order.
    // Training data is the real source samples *augmented with their
    // GAN-reconstructed views* ([X_inv, G(X_inv)]): the classifier remains
    // trained exclusively on source data with all features included, but it
    // also sees the exact input distribution it will receive at inference
    // (implementation note in DESIGN.md).
    reconstructor = fit_reconstructor_for(sep, health_, seed_ ^ 0x6EC0ULL);
    trained_order_ = sep.invariant;
    trained_order_.insert(trained_order_.end(), sep.variant.begin(),
                          sep.variant.end());
    la::Matrix x_train = source_scaled_.select_cols(trained_order_);
    std::vector<std::int64_t> y_train = source_labels_;
    if (reconstructor != nullptr) {
      const la::Matrix x_inv = source_scaled_.select_cols(sep.invariant);
      // Reconstructed views with independent noise draws and lightly
      // corrupted invariant inputs, so the classifier sees the generator's
      // conditional spread AND stays calibrated for the minority of
      // invariant features that may have drifted undetected.
      common::Rng view_rng(seed_ ^ 0x71E85ULL);
      for (int view = 0; view < 3; ++view) {
        const la::Matrix inv_view =
            permute_corrupt(x_inv, view == 0 ? 0.0 : 0.1, view_rng);
        x_train = x_train.vcat(
            inv_view.hcat(reconstructor->reconstruct(inv_view)));
        y_train.insert(y_train.end(), source_labels_.begin(),
                       source_labels_.end());
      }
    }
    classifier_timer.reset();
    FSDA_SPAN("pipeline.classifier_fit");
    classifier_->fit(x_train, y_train, num_classes_, {});
  } else {
    // FS mode: invariant features only.  An empty invariant set would leave
    // nothing to train on; fall back to all features (degenerate but safe).
    classifier_timer.reset();
    FSDA_SPAN("pipeline.classifier_fit");
    if (sep.invariant.empty()) {
      trained_order_.resize(source_scaled_.cols());
      for (std::size_t c = 0; c < trained_order_.size(); ++c) {
        trained_order_[c] = c;
      }
      classifier_->fit(source_scaled_, source_labels_, num_classes_, {});
    } else {
      trained_order_ = sep.invariant;
      classifier_->fit(source_scaled_.select_cols(sep.invariant),
                       source_labels_, num_classes_, {});
    }
  }
  registry
      .gauge("pipeline.classifier_fit_seconds",
             "wall seconds of the most recent classifier fit")
      .set(classifier_timer.seconds());

  // Deterministic stride sample of the scaled source as the validation
  // reference (empty by default -- see PipelineOptions::validation_rows).
  validation_x_ = la::Matrix();
  validation_y_.clear();
  if (options_.validation_rows > 0 && source_scaled_.rows() > 0) {
    const std::size_t n = source_scaled_.rows();
    const std::size_t want = std::min(options_.validation_rows, n);
    const std::size_t stride = std::max<std::size_t>(1, n / want);
    std::vector<std::size_t> idx;
    for (std::size_t r = 0; r < n && idx.size() < want; r += stride) {
      idx.push_back(r);
    }
    la::select_rows_into(source_scaled_, idx, validation_x_);
    validation_y_.reserve(idx.size());
    for (const std::size_t r : idx) validation_y_.push_back(source_labels_[r]);
  }

  trained_ = true;
  auto gen = make_generation(std::move(sep), std::move(reconstructor),
                             "train");
  stamp_validation_accuracy(*gen, 0.0);
  registry_.publish(std::move(gen));
}

void FsGanPipeline::adapt_to_new_target(const data::Dataset& target_few_shot) {
  FSDA_SPAN("pipeline.adapt");
  FSDA_CHECK_MSG(trained_, "adapt_to_new_target before train");
  FSDA_CHECK_MSG(options_.use_reconstruction,
                 "FS mode cannot adapt without classifier retraining; use "
                 "FS+GAN mode");
  std::size_t dropped = 0;
  const data::Dataset shots = drop_nonfinite_rows(target_few_shot, &dropped);
  shots.validate();
  if (dropped > 0) {
    health_.note_stage("few_shot_screen", true,
                       std::to_string(dropped) +
                           " non-finite few-shot target row(s) dropped");
  }
  const la::Matrix target_scaled =
      scaler_.transform(label_shift_corrected_cached(shots).x);
  // Re-run FS against the new target.  The classifier's feature partition
  // stays fixed ([inv | var] of the training-time separation), but the
  // published generation serves the FRESH partition: its AssemblyMap routes
  // each trained input column to a raw feature or a reconstructed column of
  // the new reconstructor, so a changed partition (even a resized one) is
  // servable without touching the network-management model.
  SeparationResult fresh =
      separate_features(source_scaled_, target_scaled, options_.fs);
  health_.fs_truncated = fresh.truncated;
  if (fresh.truncated) {
    health_.note_stage("feature_separation", false,
                       "F-node search hit its deadline; partition is "
                       "best-so-far");
  }
  // An unchanged partition keeps the active reconstructor: a refit with
  // train()'s seed would only recompute the train-time weights.
  const GenerationPtr previous = registry_.active();
  std::shared_ptr<Reconstructor> reconstructor = reuse_or_fit_reconstructor(
      fresh, health_, seed_ ^ 0x6EC0ULL, previous.get());
  auto gen = make_generation(std::move(fresh), std::move(reconstructor),
                             "adapt");
  stamp_validation_accuracy(
      *gen, previous != nullptr ? previous->validation_accuracy : 0.0);
  registry_.publish(std::move(gen));
}

CandidateOutcome FsGanPipeline::build_candidate_generation(
    const data::Dataset& target_few_shot, const causal::FNodeOptions& fs,
    const ReadaptContext& ctx) {
  CandidateOutcome out;
  if (!trained_ || !options_.use_reconstruction) {
    out.reason = !trained_ ? "pipeline not trained"
                           : "FS mode cannot re-adapt without classifier "
                             "retraining";
    return out;
  }
  // Snapshot once: every warm layer keys off the same previous generation.
  const GenerationPtr active = registry_.active();
  try {
    SeparationResult fresh;
    {
      FSDA_EVENT_SCOPE(obs::EventCategory::Drift, "readapt.stats");
      std::size_t dropped = 0;
      const data::Dataset shots =
          drop_nonfinite_rows(target_few_shot, &dropped);
      shots.validate();
      if (dropped > 0) {
        out.health.note_stage(
            "few_shot_screen", true,
            std::to_string(dropped) +
                " non-finite few-shot target row(s) dropped");
      }
      causal::FNodeSeed skeleton;
      const causal::FNodeSeed* seed_ptr = nullptr;
      if (ctx.warm && active != nullptr &&
          active->separation.sepsets.size() == source_scaled_.cols()) {
        skeleton.sepsets = active->separation.sepsets;
        seed_ptr = &skeleton;
      }
      if (ctx.target_stats != nullptr &&
          ctx.target_stats->dim() == source_scaled_.cols()) {
        // Stats path: the combined correlation assembles in O(d²) from the
        // cached source statistics plus the caller's target statistics; no
        // row is rescanned and no combined matrix is materialized.
        const la::GramStats& src = source_stats();
        FSDA_EVENT_SCOPE(obs::EventCategory::Drift, "readapt.search");
        fresh = separate_features(src, *ctx.target_stats, fs, seed_ptr);
      } else {
        const la::Matrix target_scaled =
            scaler_.transform(label_shift_corrected_cached(shots).x);
        FSDA_EVENT_SCOPE(obs::EventCategory::Drift, "readapt.search");
        fresh = separate_features(source_scaled_, target_scaled, fs, seed_ptr);
      }
    }
    out.health.fs_truncated = fresh.truncated;
    if (fresh.invariant.empty()) {
      out.reason =
          "candidate partition has no invariant features; nothing to "
          "condition the reconstructor on";
      return out;
    }
    const std::uint64_t salt =
        readapt_seq_.fetch_add(1) + 1;
    // Only a warm attempt may reuse.  Every attempt after a rejection is
    // cold and refits, so a bad reuse can delay recovery but not block it.
    std::shared_ptr<Reconstructor> reconstructor;
    {
      FSDA_EVENT_SCOPE(obs::EventCategory::Drift, "readapt.refit");
      reconstructor = reuse_or_fit_reconstructor(
          fresh, out.health,
          seed_ ^ 0x6EC0ULL ^ (salt * 0x9E3779B97F4A7C15ULL),
          ctx.warm ? active.get() : nullptr);
    }
    {
      FSDA_EVENT_SCOPE(obs::EventCategory::Drift, "readapt.compile");
      out.generation =
          make_generation(std::move(fresh), std::move(reconstructor),
                          "readapt",
                          ctx.warm ? active.get() : nullptr);
    }
  } catch (const common::Error& e) {
    out.generation = nullptr;
    out.reason = e.what();
  }
  return out;
}

la::GramStats FsGanPipeline::weighted_target_stats(
    const std::vector<la::GramStats>& per_class,
    const std::vector<std::size_t>& counts, std::size_t shots) const {
  FSDA_CHECK_MSG(!source_class_counts_.empty(),
                 "weighted_target_stats before train");
  FSDA_CHECK(per_class.size() == counts.size());
  double source_total = 0.0;
  for (const std::size_t c : source_class_counts_) {
    source_total += static_cast<double>(c);
  }
  // Mirror label_shift_corrected_cached exactly: class c would materialize
  // want_c replicated rows, so its statistics get total weight want_c spread
  // evenly over the m_c accumulated rows.  (The cold path's round-robin
  // replication weights individual rows by floor/ceil(want_c / m_c); the
  // uniform fractional weight has the same per-class mass and total sample
  // size, which is what the Fisher-z tests consume.)
  const std::size_t hint = std::max<std::size_t>(4 * shots, 64);
  la::GramStats out;
  for (std::size_t c = 0; c < per_class.size(); ++c) {
    if (counts[c] == 0 || c >= source_class_counts_.size() ||
        source_class_counts_[c] == 0) {
      continue;
    }
    const double prior =
        static_cast<double>(source_class_counts_[c]) / source_total;
    const auto want = std::max<std::size_t>(
        static_cast<std::size_t>(prior * static_cast<double>(hint) + 0.5), 1);
    if (out.dim() == 0) out.reset(per_class[c].dim());
    out.add_scaled(per_class[c],
                   static_cast<double>(want) / static_cast<double>(counts[c]));
  }
  return out;
}

const la::GramStats& FsGanPipeline::source_stats() {
  FSDA_CHECK_MSG(trained_, "source_stats before train");
  if (source_stats_.dim() != source_scaled_.cols()) {
    la::GramStats fresh(source_scaled_.cols());
    fresh.add_rows(source_scaled_);
    source_stats_ = std::move(fresh);
  }
  return source_stats_;
}

ValidationVerdict FsGanPipeline::validate_generation(
    const std::shared_ptr<ModelGeneration>& gen, const ValidationOptions& vo) {
  ValidationVerdict v;
  const GenerationPtr active = registry_.active();
  v.baseline = active != nullptr ? active->validation_accuracy : 0.0;
  if (gen == nullptr) {
    v.reason = "no candidate generation";
    return v;
  }
  if (validation_x_.rows() == 0) {
    v.reason =
        "no validation holdout; set PipelineOptions::validation_rows > 0";
    return v;
  }
  la::Matrix proba;
  gen->session->predict_proba_scaled(validation_x_, proba);
  for (const double p : proba.data()) {
    if (!std::isfinite(p)) {
      v.reason = "candidate produced non-finite probabilities";
      return v;
    }
  }
  const double uniform = 1.0 / static_cast<double>(num_classes_);
  std::size_t uniform_rows = 0;
  for (std::size_t r = 0; r < proba.rows(); ++r) {
    bool is_uniform = true;
    for (std::size_t c = 0; c < proba.cols() && is_uniform; ++c) {
      if (std::abs(proba(r, c) - uniform) > kUniformTol) is_uniform = false;
    }
    if (is_uniform) ++uniform_rows;
  }
  const double uniform_fraction =
      proba.rows() > 0
          ? static_cast<double>(uniform_rows) /
                static_cast<double>(proba.rows())
          : 0.0;
  const std::vector<std::int64_t> pred = models::argmax_rows(proba);
  std::size_t hits = 0;
  for (std::size_t r = 0; r < pred.size(); ++r) {
    if (pred[r] == validation_y_[r]) ++hits;
  }
  v.accuracy = pred.empty() ? 0.0
                            : static_cast<double>(hits) /
                                  static_cast<double>(pred.size());
  if (uniform_fraction > vo.max_uniform_fraction) {
    v.reason = "uniform-output fraction " + std::to_string(uniform_fraction) +
               " exceeds " + std::to_string(vo.max_uniform_fraction);
    return v;
  }
  if (v.accuracy < vo.min_accuracy) {
    v.reason = "holdout accuracy " + std::to_string(v.accuracy) +
               " below floor " + std::to_string(vo.min_accuracy);
    return v;
  }
  if (v.accuracy < v.baseline - vo.max_accuracy_drop) {
    v.reason = "holdout accuracy " + std::to_string(v.accuracy) +
               " drops more than " + std::to_string(vo.max_accuracy_drop) +
               " below active generation (" + std::to_string(v.baseline) + ")";
    return v;
  }
  v.ok = true;
  return v;
}

std::uint64_t FsGanPipeline::promote_generation(
    std::shared_ptr<ModelGeneration> gen) {
  FSDA_CHECK_MSG(gen != nullptr, "promote of a null generation");
  return registry_.publish(std::move(gen));
}

la::Matrix FsGanPipeline::predict_proba(const la::Matrix& x_raw) {
  la::Matrix proba;
  predict_proba_into(x_raw, proba);
  return proba;
}

FsGanPipeline::GuardrailTally FsGanPipeline::guarded_predict(
    const ModelGeneration& gen, const la::Matrix& x_raw, la::Matrix& x,
    la::Matrix& proba, InferenceSession::ServeContext* ctx) const {
  static auto& registry = obs::MetricsRegistry::global();
  static obs::Counter& rows_total =
      registry.counter("predict.rows_total", "rows scored by predict_proba");
  static obs::Counter& batches_total = registry.counter(
      "predict.batches_total", "predict_proba batch invocations");
  static obs::Counter& quarantined_total = registry.counter(
      "predict.quarantined_rows_total",
      "inference rows quarantined for non-finite raw features");
  static obs::Counter& clamped_total = registry.counter(
      "predict.clamped_cells_total",
      "scaled inference cells clamped into the envelope");
  static obs::HdrHistogram& latency_ms = registry.hdr(
      "predict.latency_ms", obs::HdrOptions{},
      "predict_proba batch latency (ms), log-linear quantile histogram");
  FSDA_EVENT_SCOPE(obs::EventCategory::Serving, "predict.batch");
  common::Stopwatch timer;
  GuardrailTally tally;

  // Quarantine rows with non-finite raw features before they reach any
  // network.  Both policies impute the scaled midpoint first (the matrix
  // must be finite end to end); Reject additionally overwrites the
  // quarantined rows' output with the uniform distribution.
  // MinMaxScaler's transform_into/clamp_transformed are const and write
  // only through the caller's destination, so they are re-entrant.
  const std::vector<std::size_t> bad_rows = nonfinite_rows(x_raw);
  scaler_.transform_into(x_raw, x);
  tally.quarantined = bad_rows.size();
  if (!bad_rows.empty()) {
    quarantined_total.inc(bad_rows.size());
    for (std::size_t r : bad_rows) {
      for (std::size_t c = 0; c < x.cols(); ++c) {
        if (!std::isfinite(x(r, c))) x(r, c) = 0.0;
      }
    }
  }
  if (options_.clamp_margin >= 0.0) {
    tally.clamped = scaler_.clamp_transformed(x, options_.clamp_margin);
    clamped_total.inc(tally.clamped);
  }

  if (ctx != nullptr) {
    gen.session->predict_proba_scaled(x, proba, *ctx);
  } else {
    gen.session->predict_proba_scaled(x, proba);
  }

  const double uniform = 1.0 / static_cast<double>(num_classes_);
  if (!bad_rows.empty() && options_.quarantine == QuarantinePolicy::Reject) {
    for (std::size_t r : bad_rows) {
      for (std::size_t c = 0; c < proba.cols(); ++c) proba(r, c) = uniform;
    }
  }
  // Last-line guard: the pipeline never emits a non-finite probability,
  // whatever state the classifier or reconstructor is in.
  const std::vector<std::size_t> bad_out = nonfinite_rows(proba);
  tally.nonfinite_out = bad_out.size();
  for (std::size_t r : bad_out) {
    for (std::size_t c = 0; c < proba.cols(); ++c) proba(r, c) = uniform;
  }

  rows_total.inc(x_raw.rows());
  batches_total.inc();
  tally.elapsed_ms = timer.millis();
  latency_ms.record(tally.elapsed_ms);
  return tally;
}

void FsGanPipeline::predict_proba_into(const la::Matrix& x_raw,
                                       la::Matrix& proba) {
  FSDA_SPAN("pipeline.predict");
  FSDA_CHECK_MSG(trained_, "predict before train");
  // One atomic snapshot per batch: a concurrent promote/rollback swaps the
  // NEXT batch's generation, never this one's mid-flight.
  const GenerationPtr gen = registry_.active();
  FSDA_CHECK_MSG(gen != nullptr, "predict with no published generation");
  const GuardrailTally t =
      guarded_predict(*gen, x_raw, predict_x_, proba, /*ctx=*/nullptr);
  health_.quarantined_rows += t.quarantined;
  health_.clamped_cells += t.clamped;
  if (options_.quarantine == QuarantinePolicy::Reject) {
    health_.rejected_rows += t.quarantined;
  }
  if (t.nonfinite_out > 0) {
    health_.note_stage("predict", false,
                       std::to_string(t.nonfinite_out) +
                           " row(s) produced non-finite probabilities; "
                           "served uniform");
  }
  if (obs::telemetry_enabled()) {
    update_drift_gauges(*gen, predict_x_, t.quarantined, t.clamped);
  }
}

std::unique_ptr<FsGanPipeline::ServeSlot> FsGanPipeline::create_serve_slot(
    std::uint64_t noise_seed) const {
  return std::unique_ptr<ServeSlot>(new ServeSlot(noise_seed));
}

void FsGanPipeline::reserve_serve_slot(ServeSlot& slot, std::size_t rows) {
  slot.reserve_rows_ = std::max(slot.reserve_rows_, rows);
  if (trained_ && slot.reserve_rows_ > 0) {
    slot.x_scaled_.resize(slot.reserve_rows_, source_scaled_.cols());
  }
  if (slot.ctx_ != nullptr) slot.ctx_->reserve(slot.reserve_rows_);
}

void FsGanPipeline::predict_proba_serve(const la::Matrix& x_raw,
                                        la::Matrix& proba, ServeSlot& slot) {
  FSDA_CHECK_MSG(trained_, "predict before train");
  // One atomic snapshot per batch, exactly like predict_proba_into.
  const GenerationPtr gen = registry_.active();
  FSDA_CHECK_MSG(gen != nullptr, "predict with no published generation");
  if (slot.generation_ != gen) {
    // Hot-swap (or first call): rebind the slot.  The context rebuild
    // happens here, off the registry's writer lock, so a publish never
    // stalls behind serving workers and vice versa.
    slot.ctx_ = gen->session->create_serve_context(
        slot.noise_seed_ ^ (gen->id * 0x9e3779b97f4a7c15ULL));
    if (slot.reserve_rows_ > 0) slot.ctx_->reserve(slot.reserve_rows_);
    slot.generation_ = gen;
  }
  const GuardrailTally t =
      guarded_predict(*gen, x_raw, slot.x_scaled_, proba, slot.ctx_.get());
  // Only daemon traffic feeds the SLO its admission control sheds on;
  // offline predicts and drift-loop batches stay out of it.  Always-on,
  // like gauges.
  obs::serving_slo().record(t.elapsed_ms);
}

void FsGanPipeline::update_drift_gauges(const ModelGeneration& gen,
                                        const la::Matrix& x_scaled,
                                        std::size_t quarantined,
                                        std::size_t clamped) {
  auto& registry = obs::MetricsRegistry::global();
  const double rows = static_cast<double>(x_scaled.rows());
  const double cells = rows * static_cast<double>(x_scaled.cols());
  registry
      .gauge("drift.quarantine_rate",
             "fraction of the last batch's rows quarantined for NaN/Inf")
      .set(rows > 0 ? static_cast<double>(quarantined) / rows : 0.0);
  registry
      .gauge("drift.clamped_fraction",
             "fraction of the last batch's scaled cells clamped")
      .set(cells > 0 ? static_cast<double>(clamped) / cells : 0.0);
  const obs::DriftMonitor& monitor = gen.drift_monitor;
  if (!monitor.fitted()) return;
  const std::vector<double> psi = monitor.psi(x_scaled);
  const std::vector<std::size_t>& cols = monitor.columns();
  double psi_max = 0.0;
  double psi_sum = 0.0;
  for (std::size_t i = 0; i < psi.size(); ++i) {
    // Labelled per original feature index so dashboards line up across
    // separations: drift.psi{feature="17"}.
    registry
        .gauge(obs::metric_with_label("drift.psi", "feature",
                                      std::to_string(cols[i])),
               "PSI of the last batch vs. scaled source, per variant feature")
        .set(psi[i]);
    psi_max = std::max(psi_max, psi[i]);
    psi_sum += psi[i];
  }
  registry
      .gauge("drift.psi_max", "max per-feature PSI of the last batch")
      .set(psi_max);
  registry
      .gauge("drift.psi_mean", "mean per-feature PSI of the last batch")
      .set(psi.empty() ? 0.0 : psi_sum / static_cast<double>(psi.size()));
}

std::vector<std::int64_t> FsGanPipeline::predict(const la::Matrix& x_raw) {
  return models::argmax_rows(predict_proba(x_raw));
}

}  // namespace fsda::core
