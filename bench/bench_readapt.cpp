// Re-adaptation fast-path benchmark (DESIGN.md §16): drives repeated
// drift -> recover cycles through a synchronous DriftLoop and measures the
// trigger -> promote wall-clock recovery time, cold versus warm.
//
// The drift alternates between +5 and -5 shifts on the SAME intervened
// feature set, so every cycle rediscovers the same variant/invariant
// partition -- the steady-state regime the warm path is built for: the
// F-node search runs from the adaptation buffer's incremental Gram
// statistics with the previous generation's separating sets as a skeleton
// seed, the active CGAN is reused without a refit (the partition is
// unchanged), and the generation build cache reuses the assembly map and
// drift monitor.  The cold run is the identical pipeline and stream with
// `warm_readapt` off, so every cycle refits the CGAN.
//
// The loop runs in synchronous mode (background=false), so each recovery
// is one inline build+validate inside the triggering serve() call and the
// journal decomposes it exactly: per-cycle trigger -> promote latency plus
// per-stage breakdowns (readapt.stats / search / refit / validate /
// compile) come from the flight recorder, not from batch counts.
//
// Output: one JSON line to BENCH_readapt.json (p50 and mean recovery per
// mode, per-stage totals, speedup) and a Perfetto trace covering both runs
// to BENCH_readapt_trace.json.  The process exits non-zero when a cycle
// fails to promote, the warm run never reuses a reconstructor, the cold
// run reuses one, or the warm p50 recovery is not at least 5x faster than
// cold (a CI-safe floor; the measured speedup on the reference layouts is
// recorded in EXPERIMENTS.md).  FSDA_SMOKE=1 shrinks the dataset and cycle
// budget.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "baselines/ours.hpp"
#include "bench_util.hpp"
#include "common/env.hpp"
#include "common/rng.hpp"
#include "core/drift_loop.hpp"
#include "core/pipeline.hpp"
#include "data/gen5gc.hpp"
#include "data/scm.hpp"
#include "models/factory.hpp"
#include "obs/journal.hpp"
#include "obs/perfetto_export.hpp"

using namespace fsda;

namespace {

constexpr std::size_t kBatchRows = 64;

struct StreamSampler {
  const data::Scm* scm = nullptr;
  common::Rng rng{12345};
  std::size_t label_cursor = 0;

  data::Dataset batch(std::size_t domain, std::size_t rows = kBatchRows) {
    data::Dataset d;
    d.num_classes = data::k5gcNumClasses;
    d.y.resize(rows);
    for (std::size_t i = 0; i < rows; ++i) {
      d.y[i] = static_cast<std::int64_t>(label_cursor++ % data::k5gcNumClasses);
    }
    d.x = scm->sample(domain, d.y, rng);
    return d;
  }
};

/// Registers soft interventions with `shift` on `count` observed LEAF
/// features (no node downstream) that domain 1 (the trained target) left
/// alone, for `domain`.  Called once per drift domain with the SAME feature
/// selection (only the shift differs), so successive cycles re-intervene
/// the same set; restricting to leaves keeps the shifted set exactly the
/// intervened features -- an intervened interior node bleeds an attenuated,
/// threshold-riding shift into its descendants, and that marginal feature
/// flickers in and out of the discovered partition between cycles, which
/// would break the partition-stable steady state this bench measures.
void drift_same_features(data::Scm& scm, std::size_t domain, std::size_t count,
                         double shift) {
  std::vector<char> is_parent(scm.num_nodes(), 0);
  for (std::size_t i = 0; i < scm.num_nodes(); ++i) {
    for (const std::size_t p : scm.node(i).parents) is_parent[p] = 1;
  }
  std::vector<std::size_t> nodes;
  for (std::size_t i = 0; i < scm.num_nodes(); ++i) {
    if (scm.node(i).observed && !is_parent[i]) nodes.push_back(i);
  }
  std::vector<char> taken(nodes.size(), 0);
  // Observed-feature index -> position in the leaf list (if a leaf).
  std::vector<std::size_t> leaf_of_feature(scm.num_observed(), nodes.size());
  {
    std::size_t feature = 0;
    for (std::size_t i = 0; i < scm.num_nodes(); ++i) {
      if (!scm.node(i).observed) continue;
      const auto it = std::find(nodes.begin(), nodes.end(), i);
      if (it != nodes.end()) {
        leaf_of_feature[feature] =
            static_cast<std::size_t>(it - nodes.begin());
      }
      ++feature;
    }
  }
  for (const std::size_t f : scm.intervened_observed_features(1)) {
    if (leaf_of_feature[f] < nodes.size()) taken[leaf_of_feature[f]] = 1;
  }
  const std::size_t stride = std::max<std::size_t>(nodes.size() / count, 1);
  std::size_t planted = 0;
  for (std::size_t k = 0; k < nodes.size() && planted < count; ++k) {
    const std::size_t f = (3 + k * stride) % nodes.size();
    if (taken[f]) continue;
    taken[f] = 1;
    data::SoftIntervention iv;
    iv.shift = shift;
    iv.extra_noise = 0.1;
    scm.intervene(domain, nodes[f], iv);
    ++planted;
  }
}

/// Recovery spans and per-stage totals recovered from one mode's journal.
struct ModeTimes {
  std::vector<double> recover_ms;  ///< trigger -> promote, per promotion
  double stats_ms = 0.0;
  double search_ms = 0.0;
  double refit_ms = 0.0;
  double validate_ms = 0.0;
  double compile_ms = 0.0;
};

ModeTimes analyze(const obs::Journal& journal) {
  ModeTimes t;
  std::int64_t trigger_ns = -1;  // first trigger since the last promote
  // One open-scope timestamp per stage name; adaptation runs inline on one
  // thread, so scopes of the same name never nest or overlap.
  std::int64_t open_stats = -1, open_search = -1, open_refit = -1;
  std::int64_t open_validate = -1, open_compile = -1;
  auto stage = [&](const std::string& name) -> std::pair<std::int64_t*,
                                                         double*> {
    if (name == "readapt.stats") return {&open_stats, &t.stats_ms};
    if (name == "readapt.search") return {&open_search, &t.search_ms};
    if (name == "readapt.refit") return {&open_refit, &t.refit_ms};
    if (name == "readapt.validate") return {&open_validate, &t.validate_ms};
    if (name == "readapt.compile") return {&open_compile, &t.compile_ms};
    return {nullptr, nullptr};
  };
  for (const auto& e : journal.events) {
    const std::string& name = journal.name(e.name_id);
    const auto ns = static_cast<std::int64_t>(e.ts_ns);
    if (e.type == obs::EventType::Instant) {
      if (name == "drift.trigger" && trigger_ns < 0) {
        trigger_ns = ns;
      } else if (name == "readapt.promote" && trigger_ns >= 0) {
        t.recover_ms.push_back(static_cast<double>(ns - trigger_ns) / 1e6);
        trigger_ns = -1;
      }
      continue;
    }
    const auto [open, total] = stage(name);
    if (open == nullptr) continue;
    if (e.type == obs::EventType::Begin) {
      *open = ns;
    } else if (e.type == obs::EventType::End && *open >= 0) {
      *total += static_cast<double>(ns - *open) / 1e6;
      *open = -1;
    }
  }
  return t;
}

double p50(std::vector<double> v) {
  if (v.empty()) return -1.0;
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

double mean(const std::vector<double>& v) {
  if (v.empty()) return -1.0;
  double total = 0.0;
  for (double x : v) total += x;
  return total / static_cast<double>(v.size());
}

struct ModeResult {
  ModeTimes times;
  std::uint64_t promotions = 0;
  std::uint64_t warm_attempts = 0;
  std::uint64_t rejections = 0;
  double train_seconds = 0.0;
  bool recon_reused_seen = false;  ///< a measured cycle's promotion kept
                                   ///< the previous reconstructor
  obs::Journal journal;
};

}  // namespace

int main() {
  bench::BenchTelemetry telemetry;
  const bool smoke = common::env_int("FSDA_SMOKE", 0) != 0;
  const data::Gen5GCConfig config =
      smoke ? data::Gen5GCConfig::tiny() : data::Gen5GCConfig::quick();
  const std::size_t drifted_features = smoke ? 4 : 8;
  const std::size_t cycles = smoke ? 2 : 4;  // measured (post burn-in)
  const std::size_t cycle_cap = 100;  // serve calls per cycle until promote
  const std::size_t settle = 6;       // post-promotion batches per cycle

  // Domains: 0 source, 1 trained target, 2 and 3 the alternating drift
  // regimes (+5 / -5 on the same feature set).
  data::Scm scm = data::build_5gc_scm(config);
  drift_same_features(scm, 2, drifted_features, 5.0);
  drift_same_features(scm, 3, drifted_features, -5.0);

  std::printf("re-adaptation bench: %zu features, %zu cycles per mode%s\n",
              scm.num_observed(), cycles, smoke ? " (smoke)" : "");

  core::PipelineOptions options;
  // Strict significance: at the default alpha = 0.01 a spurious variant
  // feature per search is likely across hundreds of features, and one
  // false positive flips the partition between cycles, knocking the warm
  // reconstructor + build cache back to cold.  The planted +-5 shifts have
  // enormous z-scores, so tightening costs no true detections.
  options.fs.alpha = 1e-6;
  options.fs.max_condition_size = 1;
  options.fs.candidate_pool = 4;
  options.fs.max_subsets_per_level = 8;
  options.fs.deadline_ms = 3000;
  options.use_reconstruction = true;
  options.validation_rows = 64;

  auto& recorder = obs::FlightRecorder::global();
  recorder.set_thread_ring_capacity(1 << 16);

  bool ok = true;
  std::string failure;
  auto expect = [&](bool cond, const std::string& what) {
    if (!cond && ok) {
      ok = false;
      failure = what;
    }
    if (!cond) std::printf("EXPECTATION FAILED: %s\n", what.c_str());
  };

  // One full run per mode: identically constructed pipeline and stream, so
  // the only difference between the runs is the warm fast path.
  auto run_mode = [&](bool warm) -> ModeResult {
    ModeResult res;
    StreamSampler stream{&scm, common::Rng(config.seed ^ 0xD81F7ULL)};

    common::Rng label_rng(config.seed);
    data::Dataset source;
    source.num_classes = data::k5gcNumClasses;
    source.y.resize(config.source_samples);
    for (std::size_t i = 0; i < source.y.size(); ++i) {
      source.y[i] = static_cast<std::int64_t>(i % data::k5gcNumClasses);
    }
    source.x = scm.sample(0, source.y, label_rng);
    const data::Dataset shots = stream.batch(1, 2 * data::k5gcNumClasses);

    core::FsGanPipeline pipeline(
        models::make_classifier_factory("mlp"),
        baselines::make_reconstructor_factory(baselines::ReconKind::Gan),
        options, /*seed=*/config.seed);
    common::Stopwatch train_watch;
    pipeline.train(source, shots);
    res.train_seconds = train_watch.seconds();

    core::DriftLoopOptions lo;
    lo.detector.window = kBatchRows;
    lo.detector.min_window = kBatchRows / 2;
    lo.detector.patience = 2;
    lo.detector.cooldown = 4;
    lo.detector.psi_trigger = 3.0;
    lo.detector.psi_clear = 1.5;
    lo.detector.ks_trigger = 0.6;
    lo.detector.ks_clear = 0.4;
    // Two batches: at trigger time (patience = 2) the ring has evicted every
    // pre-drift row, so each cycle's candidate search sees a pure
    // current-domain sample and rediscovers the same partition -- the
    // steady-state the reconstructor reuse + build cache key on.
    lo.buffer_capacity = 2 * kBatchRows;
    lo.min_adaptation_samples = 64;
    lo.fs = options.fs;
    lo.validation.min_accuracy = 0.3;
    lo.validation.max_accuracy_drop = 0.25;
    lo.validation.max_uniform_fraction = 0.5;
    lo.probation_batches = 4;
    lo.background = false;  // inline: trigger -> promote is pure build time
    lo.warm_readapt = warm;
    core::DriftLoop loop(pipeline, lo);

    // Warmup on the trained target regime, detector suppressed while its
    // window fills with the live (scaled) stream.
    la::Matrix proba;
    loop.detector().suppress(4);
    for (std::size_t i = 0; i < 4; ++i) {
      const data::Dataset d = stream.batch(1);
      loop.serve(d.x, d.y, proba);
    }

    // One drift -> recover cycle; returns whether the promoted generation
    // kept the previous active generation's reconstructor.
    auto run_cycle = [&](std::size_t cycle, std::size_t domain,
                         const char* tag) -> bool {
      const std::uint64_t before = loop.stats().promotions;
      const core::GenerationPtr previous = pipeline.active_generation();
      std::size_t served = 0;
      while (loop.stats().promotions == before && served < cycle_cap) {
        const data::Dataset d = stream.batch(domain);
        loop.serve(d.x, d.y, proba);
        ++served;
      }
      expect(loop.stats().promotions > before,
             std::string(tag) + " cycle " + std::to_string(cycle) + " (" +
                 (warm ? "warm" : "cold") + ") never promoted");
      bool recon_reused = false;
      if (const auto gen = pipeline.active_generation()) {
        recon_reused = gen != previous && gen->reconstructor != nullptr &&
                       gen->reconstructor == previous->reconstructor;
        std::printf("  %s cycle %zu (%s): promoted in %zu batch(es), "
                    "%zu variant, recon reused=%d\n",
                    tag, cycle, warm ? "warm" : "cold", served,
                    gen->separation.variant.size(), recon_reused);
      }
      // Settle on the new regime: probation passes, the detector
      // rebaselines, and the loop returns to Stable before the next flip.
      for (std::size_t i = 0; i < settle; ++i) {
        const data::Dataset d = stream.batch(domain);
        loop.serve(d.x, d.y, proba);
      }
      return recon_reused;
    };

    // Burn-in: the first recovery after training changes the partition (the
    // trained target's variant set -> the drift regime's), so it refits in
    // both modes by construction.  It runs unrecorded; the measured cycles
    // below are the steady state -- repeat drift on a known feature set --
    // that the fast path targets.
    run_cycle(0, 2, "burn-in");

    recorder.reset();
    recorder.set_enabled(true);
    for (std::size_t cycle = 0; cycle < cycles; ++cycle) {
      const bool recon_reused = run_cycle(cycle, 3 - (cycle % 2), "measured");
      res.recon_reused_seen = res.recon_reused_seen || recon_reused;
    }
    loop.drain();
    recorder.set_enabled(false);

    res.promotions = loop.stats().promotions;
    res.warm_attempts = loop.stats().warm_attempts;
    res.rejections = loop.stats().rejections;
    res.journal = recorder.snapshot();
    res.times = analyze(res.journal);
    return res;
  };

  std::printf("-- cold run --\n");
  ModeResult cold = run_mode(false);
  std::printf("trained in %.2fs; %llu promotion(s), %llu rejection(s)\n",
              cold.train_seconds,
              static_cast<unsigned long long>(cold.promotions),
              static_cast<unsigned long long>(cold.rejections));
  std::printf("-- warm run --\n");
  ModeResult warm = run_mode(true);
  std::printf("trained in %.2fs; %llu promotion(s), %llu rejection(s), "
              "%llu warm attempt(s)\n",
              warm.train_seconds,
              static_cast<unsigned long long>(warm.promotions),
              static_cast<unsigned long long>(warm.rejections),
              static_cast<unsigned long long>(warm.warm_attempts));

  expect(cold.promotions >= cycles, "cold run missed promotions");
  expect(warm.promotions >= cycles, "warm run missed promotions");
  expect(cold.warm_attempts == 0, "cold run took the warm path");
  expect(warm.warm_attempts >= 1, "warm run never engaged the fast path");
  expect(!cold.recon_reused_seen, "cold run reused a reconstructor");
  expect(warm.recon_reused_seen,
         "warm run never reused a reconstructor in steady state");
  expect(cold.times.recover_ms.size() >= cycles,
         "journal missed cold trigger->promote spans");
  expect(warm.times.recover_ms.size() >= cycles,
         "journal missed warm trigger->promote spans");

  const double cold_p50 = p50(cold.times.recover_ms);
  const double warm_p50 = p50(warm.times.recover_ms);
  const double speedup = warm_p50 > 0.0 ? cold_p50 / warm_p50 : 0.0;
  // CI-safe floor -- the measured speedup is far higher (EXPERIMENTS.md);
  // gating at the headline number would make the bench flaky on loaded
  // shared runners.
  expect(speedup >= 5.0, "warm recovery not at least 5x faster than cold");

  auto report = [](const char* label, const ModeResult& r, double p) {
    std::printf(
        "%s: trigger->promote p50 %.1f ms (mean %.1f ms over %zu); stages "
        "stats %.1f search %.1f refit %.1f validate %.1f compile %.1f ms\n",
        label, p, mean(r.times.recover_ms), r.times.recover_ms.size(),
        r.times.stats_ms, r.times.search_ms, r.times.refit_ms,
        r.times.validate_ms, r.times.compile_ms);
  };
  report("cold", cold, cold_p50);
  report("warm", warm, warm_p50);
  std::printf("speedup: %.2fx (warm vs cold, p50)\n", speedup);

  // One merged Perfetto trace covering both runs: the intern table is
  // global and monotonic, so the warm snapshot's name table is a superset
  // of the cold one's and the cold events resolve through it unchanged.
  obs::Journal merged = std::move(cold.journal);
  merged.events.insert(merged.events.end(), warm.journal.events.begin(),
                       warm.journal.events.end());
  merged.names = warm.journal.names;
  merged.dropped_total += warm.journal.dropped_total;
  expect(merged.dropped_total == 0, "journal dropped events");
  const std::string trace_path = bench::out_path("BENCH_readapt_trace.json");
  if (obs::write_perfetto_file(merged, trace_path)) {
    std::printf("perfetto trace (%zu events) written to %s\n",
                merged.events.size(), trace_path.c_str());
  }

  const std::string path = bench::out_path("BENCH_readapt.json");
  std::ofstream out(path);
  if (out) {
    char line[1024];
    std::snprintf(
        line, sizeof(line),
        "{\"bench\":\"readapt\",\"smoke\":%s,\"features\":%zu,"
        "\"cycles\":%zu,\"ok\":%s,\"speedup_p50\":%.2f,"
        "\"cold\":{\"recover_p50_ms\":%.1f,\"recover_mean_ms\":%.1f,"
        "\"stats_ms\":%.1f,\"search_ms\":%.1f,\"refit_ms\":%.1f,"
        "\"validate_ms\":%.1f,\"compile_ms\":%.1f,\"rejections\":%llu},"
        "\"warm\":{\"recover_p50_ms\":%.1f,\"recover_mean_ms\":%.1f,"
        "\"stats_ms\":%.1f,\"search_ms\":%.1f,\"refit_ms\":%.1f,"
        "\"validate_ms\":%.1f,\"compile_ms\":%.1f,\"rejections\":%llu,"
        "\"warm_attempts\":%llu}}\n",
        smoke ? "true" : "false", scm.num_observed(), cycles,
        ok ? "true" : "false", speedup, cold_p50,
        mean(cold.times.recover_ms), cold.times.stats_ms,
        cold.times.search_ms, cold.times.refit_ms, cold.times.validate_ms,
        cold.times.compile_ms,
        static_cast<unsigned long long>(cold.rejections), warm_p50,
        mean(warm.times.recover_ms), warm.times.stats_ms,
        warm.times.search_ms, warm.times.refit_ms, warm.times.validate_ms,
        warm.times.compile_ms,
        static_cast<unsigned long long>(warm.rejections),
        static_cast<unsigned long long>(warm.warm_attempts));
    out << line;
    std::printf("results written to %s\n", path.c_str());
  }

  if (!ok) {
    std::printf("\nFAILED: %s\n", failure.c_str());
    return 1;
  }
  std::printf("\nall re-adaptation expectations held\n");
  return 0;
}
