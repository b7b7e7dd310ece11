// Tests for the serving subsystem (src/serve/): wire-format round-trips
// and malformed-stream rejection (including a seeded mutation fuzz), MPMC
// accounting and the depth-ordering regression on the sharded request
// queue, greedy coalescing up to the row cap, daemon admission control
// (typed sheds) and the serving SLO it reads, the end-to-end
// integration run with mid-flight model hot-swaps, serving and validating
// generations whose session stages are all opaque (RF + VAE), and a
// Unix-socket front-end smoke test.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdint>
#include <cstring>
#include <latch>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <unistd.h>
#include <vector>

#include "baselines/ours.hpp"
#include "common/rng.hpp"
#include "core/cgan.hpp"
#include "core/pipeline.hpp"
#include "data/dataset.hpp"
#include "la/matrix.hpp"
#include "models/factory.hpp"
#include "models/neural.hpp"
#include "obs/slo.hpp"
#include "serve/daemon.hpp"
#include "serve/sharded_queue.hpp"
#include "serve/uds.hpp"
#include "serve/wire.hpp"

namespace fsda {
namespace {

using serve::Admission;
using serve::Frame;
using serve::FrameReader;
using serve::FrameType;
using serve::WireError;

// ---------------------------------------------------------------------------
// Wire format
// ---------------------------------------------------------------------------

TEST(WireTest, MatrixFrameRoundTripsThroughBytewiseFeeds) {
  la::Matrix m(3, 4);
  for (std::size_t r = 0; r < 3; ++r) {
    for (std::size_t c = 0; c < 4; ++c) {
      m(r, c) = static_cast<double>(r) * 10.0 + static_cast<double>(c) + 0.25;
    }
  }
  std::vector<std::uint8_t> buf;
  serve::append_matrix_frame(buf, FrameType::Predict, 42, m);

  // Worst-case fragmentation: one byte per feed must still reassemble.
  FrameReader reader;
  Frame frame;
  for (std::size_t i = 0; i + 1 < buf.size(); ++i) {
    reader.feed(&buf[i], 1);
    EXPECT_FALSE(reader.next(frame)) << "frame completed early at byte " << i;
  }
  reader.feed(&buf[buf.size() - 1], 1);
  ASSERT_TRUE(reader.next(frame));
  EXPECT_EQ(frame.type, FrameType::Predict);
  EXPECT_EQ(frame.request_id, 42u);
  EXPECT_FALSE(reader.bad());
  EXPECT_EQ(reader.buffered(), 0u);

  la::Matrix decoded;
  ASSERT_TRUE(serve::decode_matrix_payload(frame, decoded));
  ASSERT_EQ(decoded.rows(), 3u);
  ASSERT_EQ(decoded.cols(), 4u);
  for (std::size_t r = 0; r < 3; ++r) {
    for (std::size_t c = 0; c < 4; ++c) EXPECT_EQ(decoded(r, c), m(r, c));
  }
}

TEST(WireTest, ErrorAndEmptyFramesRoundTrip) {
  std::vector<std::uint8_t> buf;
  serve::append_error_frame(buf, 7, WireError::ShedSlo, "busy");
  serve::append_empty_frame(buf, FrameType::Ping, 8);

  // Two frames in one feed: next() yields both, in order.
  FrameReader reader;
  reader.feed(buf.data(), buf.size());
  Frame frame;
  ASSERT_TRUE(reader.next(frame));
  EXPECT_EQ(frame.type, FrameType::Error);
  EXPECT_EQ(frame.request_id, 7u);
  WireError code = WireError::None;
  std::string message;
  ASSERT_TRUE(serve::decode_error_payload(frame, code, message));
  EXPECT_EQ(code, WireError::ShedSlo);
  EXPECT_EQ(message, "busy");

  ASSERT_TRUE(reader.next(frame));
  EXPECT_EQ(frame.type, FrameType::Ping);
  EXPECT_EQ(frame.request_id, 8u);
  EXPECT_TRUE(frame.payload.empty());
  la::Matrix m;
  EXPECT_FALSE(serve::decode_matrix_payload(frame, m));  // wrong type
  EXPECT_FALSE(reader.next(frame));
  EXPECT_FALSE(reader.bad());
}

TEST(WireTest, TruncatedMatrixPayloadIsRejectedByDecode) {
  // Header claims 2x3 but carries only five doubles: structurally a valid
  // frame, semantically inconsistent -- decode must refuse it.
  std::vector<std::uint8_t> payload;
  const std::uint32_t rows = 2, cols = 3;
  payload.resize(8 + 5 * sizeof(double), 0);
  std::memcpy(payload.data(), &rows, 4);
  std::memcpy(payload.data() + 4, &cols, 4);
  std::vector<std::uint8_t> buf;
  serve::append_frame(buf, FrameType::Proba, 1, payload.data(),
                      payload.size());
  FrameReader reader;
  reader.feed(buf.data(), buf.size());
  Frame frame;
  ASSERT_TRUE(reader.next(frame));
  la::Matrix m;
  EXPECT_FALSE(serve::decode_matrix_payload(frame, m));
}

TEST(WireTest, OversizedAndUndersizedBodiesPoisonTheReader) {
  {
    FrameReader reader;
    const std::uint32_t huge = serve::kMaxFrameBody + 1;
    reader.feed(reinterpret_cast<const std::uint8_t*>(&huge), 4);
    Frame frame;
    EXPECT_FALSE(reader.next(frame));
    EXPECT_TRUE(reader.bad());
    // A poisoned reader never yields again, whatever arrives next.
    std::vector<std::uint8_t> ok;
    serve::append_empty_frame(ok, FrameType::Ping, 1);
    reader.feed(ok.data(), ok.size());
    EXPECT_FALSE(reader.next(frame));
  }
  {
    FrameReader reader;
    const std::uint32_t tiny = 3;  // below type byte + request id
    reader.feed(reinterpret_cast<const std::uint8_t*>(&tiny), 4);
    Frame frame;
    EXPECT_FALSE(reader.next(frame));
    EXPECT_TRUE(reader.bad());
  }
  {
    // Unknown frame type byte.
    std::vector<std::uint8_t> buf;
    serve::append_empty_frame(buf, FrameType::Ping, 1);
    buf[4] = 99;
    FrameReader reader;
    reader.feed(buf.data(), buf.size());
    Frame frame;
    EXPECT_FALSE(reader.next(frame));
    EXPECT_TRUE(reader.bad());
  }
}

TEST(WireTest, MutatedFramesYieldWellFormedFramesOrPoisonTheReader) {
  // Deterministic mutation fuzzing over valid Predict and Ping frames:
  // seeded byte flips, truncations, and false length fields.  Whatever the
  // bytes, the reader either yields structurally valid frames (known type,
  // payload within the cap, every consumed byte accounted for) or poisons
  // itself and stays poisoned.
  la::Matrix m(2, 3);
  for (std::size_t i = 0; i < m.size(); ++i) {
    m.data()[i] = 0.5 * static_cast<double>(i);
  }
  std::vector<std::uint8_t> valid;
  serve::append_matrix_frame(valid, FrameType::Predict, 11, m);
  serve::append_empty_frame(valid, FrameType::Ping, 12);
  serve::append_matrix_frame(valid, FrameType::Predict, 13, m);

  common::Rng rng(0xF022);
  std::size_t poisoned = 0;
  std::size_t yielded = 0;
  for (int iter = 0; iter < 3000; ++iter) {
    std::vector<std::uint8_t> buf = valid;
    switch (iter % 3) {
      case 0: {  // byte flips
        const std::size_t flips = 1 + rng.uniform_index(4);
        for (std::size_t f = 0; f < flips; ++f) {
          buf[rng.uniform_index(buf.size())] ^=
              static_cast<std::uint8_t>(1 + rng.uniform_index(255));
        }
        break;
      }
      case 1:  // truncation
        buf.resize(rng.uniform_index(buf.size()));
        break;
      default: {  // a false length field on one of the three frames
        const std::size_t starts[] = {0, 4 + 9 + 8 + 6 * sizeof(double),
                                      2 * (4 + 9) + 8 + 6 * sizeof(double)};
        const std::uint32_t lies[] = {
            0, 8, 9, 10, static_cast<std::uint32_t>(rng.uniform_index(256)),
            serve::kMaxFrameBody, serve::kMaxFrameBody + 1, 0xFFFFFFFFu};
        const std::uint32_t lie = lies[rng.uniform_index(8)];
        std::memcpy(buf.data() + starts[rng.uniform_index(3)], &lie, 4);
        break;
      }
    }

    FrameReader reader;
    std::size_t consumed = 0;
    std::size_t at = 0;
    Frame frame;
    while (at < buf.size() && !reader.bad()) {
      const std::size_t n =
          std::min(buf.size() - at, 1 + rng.uniform_index(16));
      reader.feed(buf.data() + at, n);
      at += n;
      while (reader.next(frame)) {
        ++yielded;
        const auto type = static_cast<std::uint8_t>(frame.type);
        ASSERT_GE(type, static_cast<std::uint8_t>(FrameType::Predict));
        ASSERT_LE(type, static_cast<std::uint8_t>(FrameType::Shutdown));
        ASSERT_LE(frame.payload.size() + 9, serve::kMaxFrameBody);
        consumed += 4 + 9 + frame.payload.size();
        la::Matrix decoded;
        if (serve::decode_matrix_payload(frame, decoded)) {
          ASSERT_EQ(8 + decoded.size() * sizeof(double),
                    frame.payload.size());
        }
      }
    }
    if (reader.bad()) {
      ++poisoned;
      // A poisoned reader never yields again, whatever arrives next.
      reader.feed(valid.data(), valid.size());
      ASSERT_FALSE(reader.next(frame));
      ASSERT_TRUE(reader.bad());
    } else {
      ASSERT_EQ(consumed + reader.buffered(), buf.size());
    }
  }
  // The corpus reaches both outcomes.
  EXPECT_GT(poisoned, 0u);
  EXPECT_GT(yielded, 0u);
}

// ---------------------------------------------------------------------------
// Sharded queue
// ---------------------------------------------------------------------------

TEST(ShardedQueueTest, DrainsAfterCloseAndRejectsNewPushes) {
  serve::ShardedQueue<int> q(4);
  EXPECT_EQ(q.shard_count(), 4u);
  for (int i = 0; i < 10; ++i) EXPECT_TRUE(q.push(i));
  EXPECT_EQ(q.depth(), 10u);
  q.close();
  EXPECT_TRUE(q.closed());
  EXPECT_FALSE(q.push(11));

  std::vector<int> out;
  std::size_t total = 0;
  while (const std::size_t n = q.pop(out, 3)) total += n;
  EXPECT_EQ(total, 10u);
  EXPECT_EQ(q.depth(), 0u);
  std::set<int> seen(out.begin(), out.end());
  EXPECT_EQ(seen.size(), 10u);  // every item exactly once
}

TEST(ShardedQueueTest, MpmcAccountingLosesAndDuplicatesNothing) {
  constexpr int kProducers = 4;
  constexpr int kConsumers = 4;
  constexpr int kPerProducer = 2000;
  serve::ShardedQueue<int> q(8);

  std::vector<std::atomic<int>> seen(
      static_cast<std::size_t>(kProducers * kPerProducer));
  for (auto& s : seen) s.store(0);

  std::vector<std::thread> consumers;
  for (int c = 0; c < kConsumers; ++c) {
    consumers.emplace_back([&] {
      std::vector<int> got;
      while (true) {
        got.clear();
        if (q.pop(got, 7) == 0) break;
        for (int v : got) seen[static_cast<std::size_t>(v)].fetch_add(1);
      }
    });
  }
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      for (int i = 0; i < kPerProducer; ++i) {
        ASSERT_TRUE(q.push(p * kPerProducer + i));
      }
    });
  }
  for (auto& t : producers) t.join();
  q.close();
  for (auto& t : consumers) t.join();

  for (std::size_t i = 0; i < seen.size(); ++i) {
    ASSERT_EQ(seen[i].load(), 1) << "item " << i << " lost or duplicated";
  }
  EXPECT_EQ(q.depth(), 0u);
}

TEST(ShardedQueueTest, DepthNeverExceedsItemsPushed) {
  // Regression: depth must be counted before an item becomes poppable.
  // Counted after, a consumer could take the item and subtract first, so
  // the unsigned depth wrapped to ~2^64 and admission shed a valid request
  // as queue-full.
  constexpr int kPerProducer = 200000;
  serve::ShardedQueue<int> q(4);
  std::atomic<std::size_t> pushes_started{0};
  std::atomic<int> producers_done{0};
  std::atomic<std::size_t> violations{0};

  std::vector<std::thread> threads;
  for (int p = 0; p < 2; ++p) {
    threads.emplace_back([&] {
      for (int i = 0; i < kPerProducer; ++i) {
        pushes_started.fetch_add(1);
        q.push(i);
      }
      producers_done.fetch_add(1);
    });
  }
  for (int c = 0; c < 2; ++c) {
    threads.emplace_back([&] {
      std::vector<int> got;
      while (producers_done.load() < 2 || q.depth() > 0) {
        got.clear();
        q.try_pop(got, 1);
        // Read depth first: pushes_started only grows, so a correct
        // depth can never exceed the later count.
        const std::size_t depth = q.depth();
        if (depth > pushes_started.load()) violations.fetch_add(1);
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(violations.load(), 0u);
  EXPECT_EQ(q.depth(), 0u);
}

// ---------------------------------------------------------------------------
// Daemon fixture: the small synthetic drift problem from inference_test.
// ---------------------------------------------------------------------------

data::Dataset make_source(std::uint64_t seed) {
  common::Rng rng(seed);
  const std::size_t n = 120, d = 12, k = 3;
  data::Dataset ds;
  ds.x = la::Matrix(n, d);
  ds.y.resize(n);
  ds.num_classes = k;
  for (std::size_t r = 0; r < n; ++r) {
    const auto label = static_cast<std::int64_t>(r % k);
    ds.y[r] = label;
    for (std::size_t c = 0; c < d; ++c) {
      ds.x(r, c) = rng.normal() + 0.8 * static_cast<double>(label) *
                                      (c % 2 == 0 ? 1.0 : -1.0);
    }
  }
  return ds;
}

data::Dataset make_target(std::uint64_t seed) {
  data::Dataset ds = make_source(seed);
  for (std::size_t r = 0; r < ds.size(); ++r) {
    for (std::size_t c = 6; c < ds.num_features(); ++c) {
      ds.x(r, c) = 3.0 * ds.x(r, c) + 2.5;
    }
  }
  return ds;
}

core::FsGanPipeline make_trained_pipeline(std::uint64_t seed) {
  models::NeuralOptions nopt;
  nopt.hidden = {16};
  nopt.epochs = 6;
  core::CganOptions gopt;
  gopt.epochs = 4;
  gopt.hidden = {16};
  core::PipelineOptions popt;
  popt.monte_carlo_m = 2;
  core::FsGanPipeline pipeline(
      [nopt](std::uint64_t s) {
        return std::make_unique<models::MLPClassifier>(s, nopt);
      },
      [gopt](std::size_t inv, std::size_t var, std::uint64_t s) {
        return std::make_unique<core::ConditionalGAN>(inv, var, gopt, s);
      },
      popt, seed);
  pipeline.train(make_source(100 + seed), make_target(200 + seed));
  return pipeline;
}

/// Blocks the caller until one submitted request completes.
struct SyncWaiter {
  std::mutex mu;
  std::condition_variable cv;
  bool done = false;
  serve::ServeResult res;

  std::function<void(serve::ServeResult&&)> callback() {
    return [this](serve::ServeResult&& r) {
      std::lock_guard<std::mutex> lk(mu);
      res = std::move(r);
      done = true;
      cv.notify_one();
    };
  }
  serve::ServeResult wait() {
    std::unique_lock<std::mutex> lk(mu);
    cv.wait(lk, [&] { return done; });
    done = false;
    return std::move(res);
  }
};

bool valid_distribution_rows(const la::Matrix& proba, std::size_t rows,
                             std::size_t classes) {
  if (proba.rows() != rows || proba.cols() != classes) return false;
  for (std::size_t r = 0; r < rows; ++r) {
    double sum = 0.0;
    for (std::size_t c = 0; c < classes; ++c) {
      if (!std::isfinite(proba(r, c)) || proba(r, c) < -1e-9) return false;
      sum += proba(r, c);
    }
    if (std::abs(sum - 1.0) > 1e-6) return false;
  }
  return true;
}

TEST(ServeDaemonTest, ServesSingleAndMultiRowRequests) {
  core::FsGanPipeline pipeline = make_trained_pipeline(1);
  serve::ServeDaemon daemon(pipeline, {});
  daemon.start();

  const la::Matrix test = make_target(301).x;
  SyncWaiter waiter;

  la::Matrix one(1, test.cols());
  for (std::size_t c = 0; c < test.cols(); ++c) one(0, c) = test(0, c);
  ASSERT_EQ(daemon.submit(one, 5, waiter.callback()), Admission::Accepted);
  serve::ServeResult r = waiter.wait();
  EXPECT_EQ(r.request_id, 5u);
  EXPECT_EQ(r.error, WireError::None);
  EXPECT_TRUE(valid_distribution_rows(r.proba, 1, 3));

  la::Matrix many(7, test.cols());
  for (std::size_t i = 0; i < 7; ++i) {
    for (std::size_t c = 0; c < test.cols(); ++c) many(i, c) = test(i, c);
  }
  ASSERT_EQ(daemon.submit(many, 6, waiter.callback()), Admission::Accepted);
  r = waiter.wait();
  EXPECT_EQ(r.error, WireError::None);
  EXPECT_TRUE(valid_distribution_rows(r.proba, 7, 3));

  daemon.stop();
  const serve::ServeDaemon::Stats s = daemon.stats();
  EXPECT_EQ(s.accepted, 2u);
  EXPECT_EQ(s.completed, 2u);
  EXPECT_EQ(s.failed, 0u);
  EXPECT_EQ(s.batched_rows, 8u);

  // Post-stop submits are typed as shutdown sheds and never call back.
  EXPECT_EQ(daemon.submit(one, 7, waiter.callback()),
            Admission::ShuttingDown);
  EXPECT_EQ(serve::to_wire_error(Admission::ShuttingDown),
            WireError::ShuttingDown);
}

/// Runs one worker whose first request's callback parks it (callbacks run
/// on the worker) while `queued` requests of `rows_each` rows pile up
/// behind it, then releases it and returns the daemon's stats after the
/// queue has drained.
serve::ServeDaemon::Stats serve_behind_parked_worker(
    core::FsGanPipeline& pipeline, std::size_t max_batch_rows,
    std::size_t queued, std::size_t rows_each) {
  serve::ServeOptions opt;
  opt.workers = 1;
  opt.max_batch_rows = max_batch_rows;
  opt.shed_burn_rate = 0.0;  // admission must not depend on earlier tests
  serve::ServeDaemon daemon(pipeline, opt);
  daemon.start();

  const la::Matrix test = make_target(306).x;
  const auto rows = [&](std::size_t n) {
    la::Matrix x(n, test.cols());
    for (std::size_t r = 0; r < n; ++r) {
      for (std::size_t c = 0; c < test.cols(); ++c) x(r, c) = test(r, c);
    }
    return x;
  };
  std::latch parked(1);
  std::latch release(1);
  EXPECT_EQ(daemon.submit(rows(1), 0,
                          [&](serve::ServeResult&&) {
                            parked.count_down();
                            release.wait();
                          }),
            Admission::Accepted);
  parked.wait();
  for (std::size_t i = 0; i < queued; ++i) {
    EXPECT_EQ(daemon.submit(rows(rows_each), i + 1, nullptr),
              Admission::Accepted);
  }
  release.count_down();
  daemon.stop();  // serves what is queued, then joins the worker
  return daemon.stats();
}

TEST(ServeDaemonTest, GreedyCoalescingTakesQueuedRequestsUpToTheRowCap) {
  core::FsGanPipeline pipeline = make_trained_pipeline(6);

  // Ten queued 1-row requests fit under the default cap: one batch.
  serve::ServeDaemon::Stats s =
      serve_behind_parked_worker(pipeline, 64, 10, 1);
  EXPECT_EQ(s.completed, 11u);
  EXPECT_EQ(s.batches, 2u);
  EXPECT_EQ(s.batched_rows, 11u);

  // A 1-row cap disables coalescing.
  s = serve_behind_parked_worker(pipeline, 1, 10, 1);
  EXPECT_EQ(s.completed, 11u);
  EXPECT_EQ(s.batches, 11u);
  EXPECT_EQ(s.batched_rows, 11u);

  // A request that fills the cap alone is never merged with the next.
  s = serve_behind_parked_worker(pipeline, 64, 2, 64);
  EXPECT_EQ(s.completed, 3u);
  EXPECT_EQ(s.batches, 3u);
  EXPECT_EQ(s.batched_rows, 129u);
}

TEST(ServeSloTest, OnlyTheServePathFeedsTheAdmissionSlo) {
  core::FsGanPipeline pipeline = make_trained_pipeline(6);
  obs::configure_serving_slo(obs::SloOptions{});  // empty window
  const la::Matrix test = make_target(306).x;
  la::Matrix proba;

  // Offline scoring (evaluation, drift-loop batches) stays out of the
  // signal the daemon sheds on.
  pipeline.predict_proba_into(test, proba);
  pipeline.predict_proba_into(test, proba);
  EXPECT_EQ(obs::serving_slo().window_total(), 0u);

  auto slot = pipeline.create_serve_slot(1);
  pipeline.predict_proba_serve(test, proba, *slot);
  EXPECT_EQ(obs::serving_slo().window_total(), 1u);
  pipeline.predict_proba_serve(test, proba, *slot);
  EXPECT_EQ(obs::serving_slo().window_total(), 2u);
}

TEST(ServeDaemonTest, MalformedRequestsAnswerBadFrameSynchronously) {
  core::FsGanPipeline pipeline = make_trained_pipeline(2);
  serve::ServeDaemon daemon(pipeline, {});
  daemon.start();

  SyncWaiter waiter;
  la::Matrix wrong(1, 5);  // pipeline expects 12 features
  ASSERT_EQ(daemon.submit(wrong, 9, waiter.callback()), Admission::Accepted);
  const serve::ServeResult r = waiter.wait();
  EXPECT_EQ(r.request_id, 9u);
  EXPECT_EQ(r.error, WireError::BadFrame);
  daemon.stop();
  EXPECT_EQ(daemon.stats().failed, 1u);
  EXPECT_EQ(daemon.stats().completed, 0u);
}

TEST(ServeDaemonTest, ShedsTypedQueueFullWithoutInvokingCallback) {
  core::FsGanPipeline pipeline = make_trained_pipeline(3);
  serve::ServeOptions opt;
  opt.max_queue_depth = 0;  // every admission check sees a "full" queue
  serve::ServeDaemon daemon(pipeline, opt);
  daemon.start();

  const la::Matrix test = make_target(303).x;
  la::Matrix one(1, test.cols());
  for (std::size_t c = 0; c < test.cols(); ++c) one(0, c) = test(0, c);
  std::atomic<int> callbacks{0};
  EXPECT_EQ(daemon.submit(one, 1,
                          [&](serve::ServeResult&&) { ++callbacks; }),
            Admission::ShedQueueFull);
  EXPECT_EQ(serve::to_wire_error(Admission::ShedQueueFull),
            WireError::ShedQueueFull);
  daemon.stop();
  EXPECT_EQ(callbacks.load(), 0);
  EXPECT_EQ(daemon.stats().shed_queue_full, 1u);
  EXPECT_EQ(daemon.stats().accepted, 0u);
}

TEST(ServeDaemonTest, ShedsTypedSloWhenBurnRateCrossesThreshold) {
  core::FsGanPipeline pipeline = make_trained_pipeline(4);

  // Poison the process-wide serving SLO: an impossible latency target
  // makes every recorded request "bad", so the burn rate saturates.
  obs::SloOptions slo;
  slo.latency_target_ms = 1e-9;
  obs::configure_serving_slo(slo);
  for (int i = 0; i < 64; ++i) obs::serving_slo().record(10.0);
  ASSERT_GT(obs::serving_slo().error_budget_burn_rate(), 1.0);

  serve::ServeOptions opt;
  opt.shed_burn_rate = 1.0;
  opt.slo_shed_min_depth = 0;  // let the burn rate alone decide
  serve::ServeDaemon daemon(pipeline, opt);
  daemon.start();

  const la::Matrix test = make_target(304).x;
  la::Matrix one(1, test.cols());
  for (std::size_t c = 0; c < test.cols(); ++c) one(0, c) = test(0, c);
  EXPECT_EQ(daemon.submit(one, 1, nullptr), Admission::ShedSlo);
  EXPECT_EQ(serve::to_wire_error(Admission::ShedSlo), WireError::ShedSlo);
  daemon.stop();
  EXPECT_EQ(daemon.stats().shed_slo, 1u);

  obs::configure_serving_slo(obs::SloOptions{});  // restore defaults
}

TEST(ServeDaemonTest, ConcurrentClientsWithMidRunHotSwapSeeNoBadResponse) {
  core::FsGanPipeline pipeline = make_trained_pipeline(5);
  // Two real generations to swap between: train's, then a re-adaptation.
  pipeline.adapt_to_new_target(make_target(405));
  ASSERT_EQ(pipeline.registry().active_id(), 2u);
  ASSERT_TRUE(pipeline.serving_plans_active());
  serve::ServeDaemon daemon(pipeline, {});
  daemon.start();

  const la::Matrix test = make_target(305).x;
  constexpr std::size_t kClients = 4;
  constexpr std::size_t kRequestsPerClient = 120;
  std::atomic<std::uint64_t> sent{0}, ok{0}, bad{0}, shed{0};
  // Clients keep sending until the probe below has seen both generations,
  // so daemon traffic spans the swaps.
  std::atomic<bool> probe_done{false};

  std::vector<std::thread> clients;
  for (std::size_t t = 0; t < kClients; ++t) {
    clients.emplace_back([&, t] {
      SyncWaiter waiter;
      la::Matrix x(1 + t % 3, test.cols());  // mixed request sizes
      for (std::size_t i = 0; i < kRequestsPerClient || !probe_done.load();
           ++i) {
        ++sent;
        for (std::size_t r = 0; r < x.rows(); ++r) {
          const std::size_t src = (t * 37 + i + r) % test.rows();
          for (std::size_t c = 0; c < test.cols(); ++c) {
            x(r, c) = test(src, c);
          }
        }
        const Admission verdict =
            daemon.submit(x, (t << 32) | i, waiter.callback());
        if (verdict != Admission::Accepted) {
          ++shed;
          continue;
        }
        const serve::ServeResult res = waiter.wait();
        const bool good = res.error == WireError::None &&
                          res.request_id == ((t << 32) | i) &&
                          valid_distribution_rows(res.proba, x.rows(), 3);
        if (good) ++ok; else ++bad;
      }
    });
  }

  // Hot-swapper: roll back and forth between the two generations; worker
  // slots must rebind mid-stream with zero invalid responses.  A probe
  // slot serving alongside the daemon records which generation served
  // each of its calls.
  std::atomic<bool> stop_swapper{false};
  std::uint64_t swaps = 0;
  std::thread swapper([&] {
    while (!stop_swapper.load()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
      if (pipeline.registry().rollback()) ++swaps;
    }
  });
  std::set<std::uint64_t> served_ids;
  {
    auto probe = pipeline.create_serve_slot(0xb0beULL);
    la::Matrix x(2, test.cols()), proba;
    for (std::size_t r = 0; r < 2; ++r) {
      for (std::size_t c = 0; c < test.cols(); ++c) x(r, c) = test(r, c);
    }
    for (int i = 0; i < 20000 && served_ids.size() < 2; ++i) {
      pipeline.predict_proba_serve(x, proba, *probe);
      EXPECT_TRUE(valid_distribution_rows(proba, 2, 3));
      served_ids.insert(probe->generation_id());
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  }
  probe_done.store(true);
  for (auto& t : clients) t.join();
  stop_swapper.store(true);
  swapper.join();
  daemon.stop();

  EXPECT_GE(swaps, 1u);
  EXPECT_EQ(served_ids, (std::set<std::uint64_t>{1u, 2u}));
  EXPECT_EQ(bad.load(), 0u);
  EXPECT_EQ(shed.load(), 0u);  // closed loop never fills the default queue
  EXPECT_GE(sent.load(), kClients * kRequestsPerClient);
  EXPECT_EQ(ok.load(), sent.load());
  const serve::ServeDaemon::Stats s = daemon.stats();
  EXPECT_EQ(s.completed, sent.load());
  EXPECT_EQ(s.failed, 0u);
  EXPECT_GE(s.batches, 1u);
  EXPECT_GE(s.batched_rows, s.batches);
}

// ---------------------------------------------------------------------------
// Opaque session stages: models without a compiled plan
// ---------------------------------------------------------------------------

/// Random forest + VAE: neither stage compiles, so every session stage is
/// opaque and serializes on the pipeline's shared mutex.
core::FsGanPipeline make_opaque_pipeline(std::uint64_t seed) {
  core::PipelineOptions popt;
  popt.monte_carlo_m = 2;
  popt.validation_rows = 60;
  core::FsGanPipeline pipeline(
      models::make_classifier_factory("rf"),
      baselines::make_reconstructor_factory(baselines::ReconKind::Vae,
                                            baselines::ReconBudget::Quick),
      popt, seed);
  pipeline.train(make_source(100 + seed), make_target(200 + seed));
  return pipeline;
}

TEST(OpaqueStageTest, DaemonServesRandomForestAndVaeFromFourWorkers) {
  core::FsGanPipeline pipeline = make_opaque_pipeline(7);
  ASSERT_FALSE(pipeline.serving_plans_active());
  ASSERT_NE(pipeline.active_generation()->reconstructor, nullptr);
  serve::ServeOptions opt;
  opt.workers = 4;
  serve::ServeDaemon daemon(pipeline, opt);
  daemon.start();

  const la::Matrix test = make_target(307).x;
  constexpr std::size_t kClients = 4;
  constexpr std::size_t kRequestsPerClient = 60;
  std::atomic<std::uint64_t> ok{0}, bad{0};
  std::vector<std::thread> clients;
  for (std::size_t t = 0; t < kClients; ++t) {
    clients.emplace_back([&, t] {
      SyncWaiter waiter;
      la::Matrix x(1 + t % 3, test.cols());
      for (std::size_t i = 0; i < kRequestsPerClient; ++i) {
        for (std::size_t r = 0; r < x.rows(); ++r) {
          for (std::size_t c = 0; c < test.cols(); ++c) {
            x(r, c) = test((t * 31 + i + r) % test.rows(), c);
          }
        }
        if (daemon.submit(x, i, waiter.callback()) != Admission::Accepted) {
          ++bad;
          continue;
        }
        const serve::ServeResult res = waiter.wait();
        if (res.error == WireError::None &&
            valid_distribution_rows(res.proba, x.rows(), 3)) {
          ++ok;
        } else {
          ++bad;
        }
      }
    });
  }
  for (auto& t : clients) t.join();
  daemon.stop();
  EXPECT_EQ(bad.load(), 0u);
  EXPECT_EQ(ok.load(), kClients * kRequestsPerClient);
  EXPECT_EQ(daemon.stats().failed, 0u);
}

TEST(OpaqueStageTest, ValidatesNonPlanCandidateWhileAnotherThreadServes) {
  core::FsGanPipeline pipeline = make_opaque_pipeline(8);
  const core::CandidateOutcome built = pipeline.build_candidate_generation(
      make_target(408), pipeline.options().fs);
  ASSERT_NE(built.generation, nullptr) << built.reason;
  ASSERT_FALSE(built.generation->session->all_stages_compiled());

  const la::Matrix test = make_target(308).x;
  std::atomic<bool> stop{false};
  std::atomic<std::size_t> invalid{0};
  std::thread server([&] {
    la::Matrix proba;
    while (!stop.load()) {
      pipeline.predict_proba_into(test, proba);
      if (!valid_distribution_rows(proba, test.rows(), 3)) ++invalid;
    }
  });
  for (int i = 0; i < 5; ++i) {
    const core::ValidationVerdict v =
        pipeline.validate_generation(built.generation, {});
    EXPECT_TRUE(v.ok) << v.reason;
    EXPECT_GT(v.accuracy, 0.5);
  }
  stop.store(true);
  server.join();
  EXPECT_EQ(invalid.load(), 0u);
}

// ---------------------------------------------------------------------------
// Unix-socket front-end
// ---------------------------------------------------------------------------

TEST(UdsServerTest, PingPredictErrorAndShutdownOverTheSocket) {
  core::FsGanPipeline pipeline = make_trained_pipeline(6);
  serve::ServeDaemon daemon(pipeline, {});
  daemon.start();
  const std::string path =
      "/tmp/fsda_serve_test_" + std::to_string(::getpid()) + ".sock";
  serve::UdsServer server(daemon, path);
  ASSERT_TRUE(server.start());

  serve::UdsClient client;
  ASSERT_TRUE(client.connect(path));
  EXPECT_TRUE(client.ping());

  const la::Matrix test = make_target(306).x;
  la::Matrix x(2, test.cols());
  for (std::size_t r = 0; r < 2; ++r) {
    for (std::size_t c = 0; c < test.cols(); ++c) x(r, c) = test(r, c);
  }
  la::Matrix proba;
  WireError error = WireError::None;
  ASSERT_TRUE(client.predict(x, proba, error));
  EXPECT_TRUE(valid_distribution_rows(proba, 2, 3));

  // Feature-width mismatch comes back as a typed BadFrame error.
  la::Matrix wrong(1, 3);
  EXPECT_FALSE(client.predict(wrong, proba, error));
  EXPECT_EQ(error, WireError::BadFrame);

  EXPECT_FALSE(server.shutdown_requested());
  client.request_shutdown();
  for (int i = 0; i < 200 && !server.shutdown_requested(); ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_TRUE(server.shutdown_requested());

  client.close();
  server.stop();
  daemon.stop();
  EXPECT_EQ(daemon.stats().completed, 1u);  // the good predict
  EXPECT_EQ(daemon.stats().failed, 1u);     // the feature-width mismatch
}

}  // namespace
}  // namespace fsda
