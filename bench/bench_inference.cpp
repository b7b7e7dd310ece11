// Serving-path benchmark: packed-weight SIMD GEMM + fused epilogues +
// zero-allocation session (core/inference_session.hpp) on the 442-feature
// Gen5GC telemetry shapes.
//
// Reports single-sample HDR latency quantiles (p50/p90/p99/p999) and
// micro-batched samples/sec, and writes one JSON line of results to
// BENCH_inference.json under the bench output directory (CI uploads it as
// an artifact so the perf trajectory is tracked across changes).
//
// Knobs: FSDA_SMOKE=1 shrinks iteration counts for CI smoke runs;
// FSDA_METRICS_OUT / FSDA_TRACE behave as in every other bench.
#include <cstdio>
#include <fstream>
#include <string>

#include "baselines/ours.hpp"
#include "bench_util.hpp"
#include "common/env.hpp"
#include "common/stopwatch.hpp"
#include "data/dataset.hpp"
#include "data/gen5gc.hpp"
#include "la/gemm.hpp"
#include "models/factory.hpp"
#include "serving_bench.hpp"

using namespace fsda;

int main() {
  bench::BenchTelemetry telemetry;
  const bool smoke = common::env_int("FSDA_SMOKE", 0) != 0;
  const auto single_iters =
      static_cast<std::size_t>(common::env_int("FSDA_ITERS", smoke ? 200 : 2000));
  const auto batch_reps =
      static_cast<std::size_t>(common::env_int("FSDA_REPEATS", smoke ? 5 : 20));
  const std::size_t batch_rows = 256;

  // Smoke mode keeps the reduced quick shapes; the full run serves the
  // paper's 442-feature Gen5GC layout but with the quick sample budget
  // (training time is not what this bench measures).
  data::Gen5GCConfig config = data::Gen5GCConfig::quick();
  if (!smoke) {
    config = data::Gen5GCConfig();
    config.source_samples = 960;
    config.target_pool_samples = 320;
    config.target_test_samples = 480;
  }
  const data::DomainSplit split = data::generate_5gc(config);
  const data::Dataset shots = data::sample_few_shot(split.target_pool, 5, 7);
  std::printf("bench_inference: %zu features, %zu classes, %s mode, AVX2 %s\n",
              split.source_train.num_features(), split.source_train.num_classes,
              smoke ? "smoke" : "full",
              la::gemm_avx2_available() ? "on" : "off");

  baselines::FsReconMethod method;  // FS+GAN, quick budget, M = 3
  baselines::DAContext context{split.source_train, shots,
                               models::make_classifier_factory("mlp"), 42};
  common::Stopwatch fit_timer;
  method.fit(context);
  core::FsGanPipeline& pipeline = method.pipeline();
  std::printf("trained in %.1fs: %zu invariant / %zu variant, packed plans %s\n",
              fit_timer.seconds(), method.separation().invariant.size(),
              method.separation().variant.size(),
              pipeline.serving_plans_active() ? "active" : "UNAVAILABLE");

  const bench::ServingBenchResult r = bench::run_serving_bench(
      pipeline, split.target_test.x, single_iters, batch_rows, batch_reps);

  std::printf("\n%10s %10s %10s %10s %14s\n", "p50 (ms)", "p90 (ms)",
              "p99 (ms)", "p999 (ms)", "samples/sec");
  std::printf("%10.4f %10.4f %10.4f %10.4f %14.0f (%zu iters, %zu x "
              "%zu-row batches)\n",
              r.single.p50_ms, r.single.p90_ms, r.single.p99_ms,
              r.single.p999_ms, r.samples_per_sec, r.single_iters,
              r.batch_reps, r.batch_rows);

  const std::string path = bench::out_path("BENCH_inference.json");
  std::ofstream out(path);
  if (out) {
    char line[1536];
    std::snprintf(
        line, sizeof(line),
        "{\"bench\":\"inference\",\"smoke\":%s,\"features\":%zu,"
        "\"classes\":%zu,\"monte_carlo_m\":3,\"avx2\":%s,"
        "\"single_iters\":%zu,\"batch_rows\":%zu,\"batch_reps\":%zu,"
        "\"packed\":{\"p50_ms\":%.6f,\"p90_ms\":%.6f,\"p99_ms\":%.6f,"
        "\"p999_ms\":%.6f,\"samples_per_sec\":%.1f}}\n",
        smoke ? "true" : "false", split.source_train.num_features(),
        split.source_train.num_classes, la::gemm_avx2_available() ? "true"
                                                                  : "false",
        r.single_iters, r.batch_rows, r.batch_reps, r.single.p50_ms,
        r.single.p90_ms, r.single.p99_ms, r.single.p999_ms,
        r.samples_per_sec);
    out << line;
    std::printf("results written to %s\n", path.c_str());
  }
  return 0;
}
