// perfbench -- the repository benchmark binary (perfbench/NOTES.md).
//
//   perfbench --workload <serve_single|serve_bulk|drift_recover>
//             --seed <n> --seconds <s> --trace <0|1> --socket <path>
//
// Every workload builds its inputs from --seed before timing starts, times
// only public entry points from the outside (serve::UdsServer + the wire
// format over a real Unix socket, ServeDaemon::stats/queue_depth/
// recent_wait_ms, DriftLoop::serve/stats, FsGanPipeline::train), and
// checks every output it receives.  Progress, per-rung tables and the
// per-layer table go to stderr; the last line of stdout is one JSON object
//
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
//
// holding the end-to-end metrics (--trace 0) or the per-layer metrics
// (--trace 1).  The process exits 1 when an output check fails.  Every
// setting of a workload (layout, budgets, rate ladder, limits) is a
// constant below; none is derived at run time.
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/logging.hpp"
#include "common/rng.hpp"
#include "core/cgan.hpp"
#include "core/drift_loop.hpp"
#include "core/pipeline.hpp"
#include "data/gen5gc.hpp"
#include "data/scm.hpp"
#include "models/factory.hpp"
#include "obs/journal.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "serve/daemon.hpp"
#include "serve/uds.hpp"
#include "serve/wire.hpp"

using namespace fsda;

namespace {

// -- Small utilities --------------------------------------------------------

/// Steady nanoseconds on the flight recorder's clock, so the benchmark's
/// own timestamps and journal events share one time base.
std::int64_t now_ns() {
  return static_cast<std::int64_t>(obs::FlightRecorder::global().now_ns());
}

double ms_between(std::int64_t a, std::int64_t b) {
  return static_cast<double>(b - a) / 1e6;
}

/// Nearest-rank quantile; 0 for an empty sample.
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(q * static_cast<double>(v.size()));
  const std::size_t i = rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
  return v[std::min(i, v.size() - 1)];
}

double median(const std::vector<double>& v) { return quantile(v, 0.5); }

double mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double s = 0.0;
  for (const double x : v) s += x;
  return s / static_cast<double>(v.size());
}

/// Mean of the lowest (or highest) `share` of the sample, its size rounded
/// up: the least disturbed part of a set of times (or rates).  Contention
/// from other tenants of the host only adds time, so an episode that
/// leaves `share` of the sample clean does not move it, while a change
/// that slows every part of it does.
double best_share_mean(std::vector<double> v, double share, bool lower) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto k = static_cast<std::ptrdiff_t>(
      std::ceil(share * static_cast<double>(v.size())));
  return lower ? mean(std::vector<double>(v.begin(), v.begin() + k))
               : mean(std::vector<double>(v.end() - k, v.end()));
}

std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t salt) {
  std::uint64_t z = seed + 0x9E3779B97F4A7C15ULL * (salt + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

/// Labels 0..classes-1 repeated to n rows, shuffled.
std::vector<std::int64_t> balanced_labels(std::size_t n, std::size_t classes,
                                          common::Rng& rng) {
  std::vector<std::int64_t> y(n);
  for (std::size_t i = 0; i < n; ++i) {
    y[i] = static_cast<std::int64_t>(i % classes);
  }
  rng.shuffle(y);
  return y;
}

data::Dataset sample_domain(const data::Scm& scm, std::size_t domain,
                            std::vector<std::int64_t> y, common::Rng& rng) {
  data::Dataset d;
  d.num_classes = data::k5gcNumClasses;
  d.y = std::move(y);
  d.x = scm.sample(domain, d.y, rng);
  return d;
}

std::size_t argmax_row(const la::Matrix& p, std::size_t r) {
  std::size_t best = 0;
  for (std::size_t c = 1; c < p.cols(); ++c) {
    if (p(r, c) > p(r, best)) best = c;
  }
  return best;
}

/// Output check shared by every workload: shape, finite values, every row
/// on the probability simplex.
bool proba_valid(const la::Matrix& p, std::size_t rows, std::size_t classes) {
  if (p.rows() != rows || p.cols() != classes) return false;
  for (std::size_t r = 0; r < rows; ++r) {
    double sum = 0.0;
    for (std::size_t c = 0; c < classes; ++c) {
      const double v = p(r, c);
      if (!std::isfinite(v) || v < -1e-9 || v > 1.0 + 1e-9) return false;
      sum += v;
    }
    if (std::abs(sum - 1.0) > 1e-6) return false;
  }
  return true;
}

// -- Metrics output -----------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct Outcome {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::string> check_failures;

  void fail_check(const std::string& what) {
    correct = false;
    check_failures.push_back(what);
  }
  void put(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
};

std::string fmt_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

void print_result(const Outcome& out) {
  std::ostringstream s;
  s << "{\"correct\": " << (out.correct ? "true" : "false")
    << ", \"attempted\": " << out.attempted << ", \"failed\": " << out.failed
    << ", \"metrics\": {";
  for (std::size_t i = 0; i < out.metrics.size(); ++i) {
    const Metric& m = out.metrics[i];
    s << (i ? ", " : "") << obs::json_string(m.name) << ": {\"value\": "
      << fmt_number(m.value) << ", \"unit\": " << obs::json_string(m.unit)
      << "}";
  }
  s << "}}";
  std::fprintf(stdout, "%s\n", s.str().c_str());
  std::fflush(stdout);
}

// -- Settings ---------------------------------------------------------------
//
// Changing any of these moves the load, so they change only in a change
// that redefines the benchmark (perfbench/NOTES.md lists them).

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string socket = ".bench_build/perfbench.sock";
};

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const std::string v = argv[i + 1];
    if (k == "--workload") a.workload = v;
    else if (k == "--seed") a.seed = std::stoull(v);
    else if (k == "--seconds") a.seconds = std::stod(v);
    else if (k == "--trace") a.trace = std::stoi(v) != 0;
    else if (k == "--socket") a.socket = v;
    else throw std::runtime_error("unknown argument " + k);
  }
  if (a.workload.empty()) throw std::runtime_error("--workload is required");
  if (!(a.seconds > 0.0)) throw std::runtime_error("--seconds must be > 0");
  return a;
}

// Every workload: the source fit (MLP classifier, quick preset, on all
// features plus a conditional GAN reconstructor, M = 1; paper §VI), and
// set-up repeated this many times per untraced run (setup_s is the median).
constexpr std::size_t kSourceSamples = 480;
constexpr std::size_t kGanEpochs = 40;
constexpr std::size_t kSetupRepeats = 3;
/// latency_ms is the mean of the lowest kBestShare of a run's sub-window
/// p50s (serving) or recovery times (drift), max_rate the mean of the
/// highest kBestShare of its sub-window or per-cycle throughputs.
constexpr double kBestShare = 0.25;

// Serving workloads.
constexpr std::size_t kShotsPerClass = 5;
constexpr std::size_t kTestRows = 1024;
constexpr std::size_t kConnections = 2;
/// Idle gap after a segment below the top rate.
constexpr double kGapS = 0.01;
/// Idle gap after a top-rate segment; it outlasts the drain of
/// max_inflight frames at capacity.
constexpr double kDrainGapS = 0.05;
/// A frame shed by admission (ShedQueueFull or ShedSlo) is sent again, as
/// a client backing off would, at most this many times, the k-th time no
/// sooner than 2^(k-1) x kShedBackoffNs after the shed (63 ms in all); it
/// fails only when its last try is shed too.
constexpr std::uint8_t kShedRetries = 6;
constexpr std::int64_t kShedBackoffNs = 1'000'000;
/// Each reference and top-rate segment is split into this many equal
/// sub-windows for the latency_ms and max_rate estimates.
constexpr std::size_t kSubWindows = 4;
constexpr double kP99LimitMs = 25.0;     ///< the daemon's default SLO target
constexpr double kLagLimitMs = 5.0;      ///< generator lag p99
constexpr double kMinValidShare = 0.999;
constexpr double kAccuracyFloor = 0.5;

struct ServeWorkload {
  std::size_t rows_per_frame;
  /// Offered rows/s, ascending; the first is the reference rate that
  /// latency_ms is taken at, the last is far beyond capacity and max_rate
  /// is the reply throughput there.
  std::span<const double> ladder;
  /// Rounds per run; each visits every ladder rate once.
  std::size_t rounds;
  /// Shares of the run spent at the reference rate and at the top rate;
  /// the rates between share the rest equally.
  double reference_share;
  double top_share;
  /// A frame that falls due while this many frames are outstanding is
  /// skipped (and its segment fails).  Kept below the daemon's 512-deep
  /// queue so a rate beyond capacity never fills the queue: the client,
  /// not admission, backs off.  The drain of this many frames at capacity
  /// fits in kDrainGapS.
  std::size_t max_inflight;
};

constexpr double kSingleLadder[] = {4000,  8000,  16000, 24000, 32000,
                                    40000, 48000, 56000, 64000, 128000};
constexpr double kBulkLadder[] = {16000, 24000, 32000, 40000, 48000,
                                  56000, 64000, 72000, 128000};
constexpr ServeWorkload kServeSingle{1, kSingleLadder, 12, 0.35, 0.3, 448};
constexpr ServeWorkload kServeBulk{64, kBulkLadder, 12, 0.4, 0.3, 16};

// drift_recover.
constexpr std::size_t kDriftedFeatures = 8;
constexpr double kDriftShift = 5.0;
constexpr std::size_t kBatchRows = 128;
constexpr std::size_t kPoolBatches = 48;
constexpr std::size_t kSettleBatches = 6;   ///< accuracy after a promotion
constexpr std::size_t kCycleCapBatches = 100;
constexpr std::size_t kMinCycles = 20;
constexpr std::size_t kMaxCycles = 80;
constexpr double kAccuracyTolerance = 0.1;  ///< below pre-drift accuracy
/// Warm refits stop after this many epochs without holdout improvement;
/// at 10 they run their whole 10-epoch warm budget, so a refit's length
/// does not depend on when its holdout loss levels off.
constexpr std::size_t kWarmPlateauPatience = 10;

/// The conditional GAN every fit uses (quick preset, kGanEpochs).  The
/// plateau stop applies only to warm refits, i.e. on drift_recover.
core::ReconstructorFactory gan_factory() {
  return [](std::size_t inv, std::size_t var, std::uint64_t seed)
             -> std::unique_ptr<core::Reconstructor> {
    core::CganOptions o = core::CganOptions::quick();
    o.epochs = kGanEpochs;
    o.plateau_patience = kWarmPlateauPatience;
    return std::make_unique<core::ConditionalGAN>(inv, var, o, seed);
  };
}

/// Setup-side numbers every workload reports in its per-layer table.
struct FitReport {
  double generate_s = 0.0;
  double scaler_s = 0.0;
  double fs_s = 0.0;
  double classifier_s = 0.0;
  double gan_s = 0.0;
  double steps_per_s = 0.0;
  double ci_tests = 0.0;
  double mflop_per_row = 0.0;
};

/// Reads the always-on pipeline.* gauges of the fit that just finished.
void read_fit_gauges(FitReport& r, core::FsGanPipeline& p) {
  const auto& g = obs::MetricsRegistry::global();
  r.scaler_s = g.gauge_value("pipeline.scaler_fit_seconds");
  r.fs_s = g.gauge_value("pipeline.feature_separation_seconds");
  r.classifier_s = g.gauge_value("pipeline.classifier_fit_seconds");
  r.gan_s = g.gauge_value("pipeline.reconstructor_fit_seconds");
  r.steps_per_s = g.gauge_value("training.steps_per_second");
  if (const auto gen = p.active_generation()) {
    r.ci_tests = static_cast<double>(gen->separation.ci_tests_performed);
  }
}

/// Multiply-add FLOPs per served row, computed from layer shapes (not
/// measured): generator (inv + noise) -> 96 -> 96 -> var, classifier
/// 442 -> 64 -> 32 -> 16 (quick MLP preset), M = 1 draw.
double mflop_per_row(const core::FsGanPipeline& p, std::size_t features) {
  const auto gen = p.active_generation();
  if (gen == nullptr) return 0.0;
  const double inv = static_cast<double>(gen->separation.invariant.size());
  const double var = static_cast<double>(gen->separation.variant.size());
  const double noise = std::clamp(std::floor(var / 3.0), 4.0, 30.0);
  const double h = 96.0;
  const double g = (inv + noise) * h + h * h + h * var;
  const double c = static_cast<double>(features) * 64.0 + 64.0 * 32.0 +
                   32.0 * static_cast<double>(data::k5gcNumClasses);
  return 2.0 * (g + c) / 1e6;
}

// -- Journal analysis -----------------------------------------------------------

/// Durations (ms) of every Begin/End scope named `name` inside
/// [from_ns, to_ns], paired per thread.
std::vector<double> scope_ms(const obs::Journal& j, const std::string& name,
                             std::int64_t from_ns, std::int64_t to_ns) {
  std::vector<double> out;
  std::map<std::uint32_t, std::int64_t> open;
  for (const obs::Event& e : j.events) {
    if (j.name(e.name_id) != name) continue;
    const auto ts = static_cast<std::int64_t>(e.ts_ns);
    if (e.type == obs::EventType::Begin) {
      open[e.tid] = ts;
    } else if (e.type == obs::EventType::End) {
      const auto it = open.find(e.tid);
      if (it == open.end()) continue;
      if (it->second >= from_ns && ts <= to_ns) {
        out.push_back(ms_between(it->second, ts));
      }
      open.erase(it);
    }
  }
  return out;
}

// -- Serving workloads ------------------------------------------------------------

/// One in-process serving stack: trained pipeline, daemon with default
/// options, UDS listener, and the benchmark's client connections.
struct ServeStack {
  std::unique_ptr<core::FsGanPipeline> pipeline;
  std::unique_ptr<serve::ServeDaemon> daemon;
  std::unique_ptr<serve::UdsServer> server;
  std::vector<int> fds;
  std::vector<serve::FrameReader> readers;

  ServeStack() = default;
  ServeStack(const ServeStack&) = delete;
  ServeStack& operator=(const ServeStack&) = delete;
  ~ServeStack() { shutdown(); }
  void shutdown() {
    for (const int fd : fds) ::close(fd);
    fds.clear();
    readers.clear();
    if (server) server->stop();
    if (daemon) daemon->stop();
    server.reset();
    daemon.reset();
    pipeline.reset();
  }
};

int connect_uds(const std::string& path) {
  const int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return -1;
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.size() + 1 > sizeof(addr.sun_path)) {
    ::close(fd);
    return -1;
  }
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

bool send_all(int fd, const std::uint8_t* data, std::size_t len) {
  std::size_t sent = 0;
  while (sent < len) {
    const ssize_t n = ::send(fd, data + sent, len - sent, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    sent += static_cast<std::size_t>(n);
  }
  return true;
}

/// Blocks until one frame is available on `fd`.
bool read_one(int fd, serve::FrameReader& reader, serve::Frame& frame) {
  std::vector<std::uint8_t> buf(1 << 16);
  while (!reader.next(frame)) {
    if (reader.bad()) return false;
    const ssize_t n = ::recv(fd, buf.data(), buf.size(), 0);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      return false;
    }
    reader.feed(buf.data(), static_cast<std::size_t>(n));
  }
  return true;
}

/// Pre-encoded Predict frames, one per slice of the test pool; the request
/// id (bytes 5..12 of the header) is patched in place per send.
struct FramePool {
  std::vector<std::vector<std::uint8_t>> frames;
  std::vector<std::int64_t> labels;  ///< test labels, row-major by frame
  std::size_t rows_per_frame = 1;

  void build(const data::Dataset& test, std::size_t rpf) {
    rows_per_frame = rpf;
    labels = test.y;
    const std::size_t n = test.x.rows() / rpf;
    frames.resize(n);
    la::Matrix m(rpf, test.x.cols());
    for (std::size_t f = 0; f < n; ++f) {
      for (std::size_t r = 0; r < rpf; ++r) {
        const auto src = test.x.row(f * rpf + r);
        std::copy(src.begin(), src.end(), m.row(r).begin());
      }
      frames[f].clear();
      serve::append_matrix_frame(frames[f], serve::FrameType::Predict, 0, m);
    }
  }
  std::vector<std::uint8_t>& frame_for(std::uint64_t id) {
    std::vector<std::uint8_t>& f = frames[id % frames.size()];
    std::memcpy(f.data() + 5, &id, sizeof(id));
    return f;
  }
};

/// Builds one serving stack from scratch: inputs, source fit, daemon,
/// listener, connections, and a short synchronous warm-up per connection.
void build_serve_stack(const ServeWorkload& w, std::uint64_t seed,
                       const std::string& socket_path, ServeStack& stack,
                       FramePool& frames, FitReport& fit) {
  FSDA_SPAN("perfbench.setup");
  data::Dataset source, shots, test;
  {
    FSDA_SPAN("perfbench.generate");
    const std::int64_t t0 = now_ns();
    const data::Scm scm = data::build_5gc_scm(data::Gen5GCConfig::paper());
    common::Rng rng(mix_seed(seed, 1));
    const std::size_t k = data::k5gcNumClasses;
    source = sample_domain(scm, 0, balanced_labels(kSourceSamples, k, rng), rng);
    shots = sample_domain(scm, 1, balanced_labels(kShotsPerClass * k, k, rng), rng);
    test = sample_domain(scm, 1, balanced_labels(kTestRows, k, rng), rng);
    frames.build(test, w.rows_per_frame);
    fit.generate_s = ms_between(t0, now_ns()) / 1e3;
  }
  core::PipelineOptions po;
  po.use_reconstruction = true;
  po.monte_carlo_m = 1;
  stack.pipeline = std::make_unique<core::FsGanPipeline>(
      models::make_classifier_factory("mlp", models::Preset::Quick),
      gan_factory(), po, mix_seed(seed, 2));
  {
    FSDA_SPAN("perfbench.train");
    stack.pipeline->train(source, shots);
  }
  read_fit_gauges(fit, *stack.pipeline);
  fit.mflop_per_row = mflop_per_row(*stack.pipeline, source.num_features());
  if (!stack.pipeline->serving_plans_active()) {
    throw std::runtime_error("packed serving plans unavailable");
  }

  stack.daemon = std::make_unique<serve::ServeDaemon>(*stack.pipeline,
                                                      serve::ServeOptions{});
  stack.daemon->start();
  stack.server = std::make_unique<serve::UdsServer>(*stack.daemon, socket_path);
  if (!stack.server->start()) {
    throw std::runtime_error("cannot bind " + socket_path);
  }
  stack.readers.assign(kConnections, serve::FrameReader{});
  for (std::size_t c = 0; c < kConnections; ++c) {
    const int fd = connect_uds(socket_path);
    if (fd < 0) throw std::runtime_error("cannot connect " + socket_path);
    stack.fds.push_back(fd);
  }
  // Warm-up: a few synchronous round trips per connection (ids outside the
  // measured range; replies are still checked).
  for (std::size_t c = 0; c < kConnections; ++c) {
    for (std::uint64_t k = 0; k < 8; ++k) {
      const std::uint64_t id = (1ULL << 62) + c * 64 + k;
      std::vector<std::uint8_t>& f = frames.frame_for(id);
      serve::Frame reply;
      la::Matrix proba;
      if (!send_all(stack.fds[c], f.data(), f.size()) ||
          !read_one(stack.fds[c], stack.readers[c], reply)) {
        throw std::runtime_error("warm-up round trip failed: transport " +
                                 std::string(std::strerror(errno)));
      }
      if (reply.request_id != id || reply.type != serve::FrameType::Proba ||
          !serve::decode_matrix_payload(reply, proba) ||
          !proba_valid(proba, w.rows_per_frame, data::k5gcNumClasses)) {
        throw std::runtime_error(
            "warm-up round trip failed: reply type " +
            std::to_string(static_cast<int>(reply.type)) + " id " +
            std::to_string(reply.request_id) + " shape " +
            std::to_string(proba.rows()) + "x" + std::to_string(proba.cols()));
      }
    }
  }
}

/// One offered rate held for a fixed window (a segment), or -- after
/// pool_rates -- all segments of one rate.
struct Rung {
  double rate = 0.0;  ///< rows/s
  double step = 0.0;  ///< rate - the next lower ladder rate (or 0)
  std::size_t round = 0;
  bool reference = false;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;  ///< last due time + 1 period
  std::int64_t gap_ns = 0;  ///< idle time after end_ns
  std::uint64_t frames = 0;
  // Filled by the run.
  std::vector<double> latency_ms;  ///< due -> decoded reply, valid replies
  std::vector<double> lag_ms;      ///< send start - due
  std::vector<double> send_us;     ///< write duration
  std::vector<double> depth;       ///< sampled queue_depth()
  std::vector<double> wait_ms;     ///< sampled recent_wait_ms()
  /// Sheds count every shed reply, retried or not; shed_final the frames
  /// whose last try was shed.
  std::uint64_t ok = 0, shed_queue_full = 0, shed_slo = 0, errors = 0;
  std::uint64_t invalid = 0, spurious = 0, shed_final = 0;
  std::uint64_t batches = 0, batched_rows = 0;  ///< stats() deltas
  /// Frames not sent because max_inflight frames were outstanding.
  std::uint64_t skipped = 0;
  /// Rows of valid replies (to frames of any rung) that arrived in each
  /// sub-window of [start_ns, end_ns): the daemon's throughput while this
  /// rung ran.
  std::array<std::uint64_t, kSubWindows> completed_rows{};
  // Derived.
  double p50 = 0.0, p90 = 0.0, p99 = 0.0, lag_p99 = 0.0, valid_share = 0.0;
  /// Pooled only: the p50 of each segment's sub-windows (its replies in
  /// arrival order, split in kSubWindows), the latency estimate from them,
  /// and how many segments met the serving criteria.
  std::vector<double> window_p50;
  double latency = 0.0;
  std::size_t segments = 0, segments_passed = 0;
};

struct LadderTotals {
  /// Frames sent (first tries only) and shed frames sent again.
  std::uint64_t sent = 0, resent = 0, missing = 0, invalid = 0;
  std::uint64_t duplicate = 0, unknown = 0, shed_queue_full = 0, shed_slo = 0;
  std::uint64_t shed_final = 0, errors = 0, spurious = 0;
  std::uint64_t rows = 0, rows_correct = 0;
};

/// How long before a send is due the dispatcher stops sleeping and spins.
constexpr std::int64_t kSpinNs = 1'000'000;

/// Runs `rungs` open-loop: one dispatcher (this thread) sends frames at
/// their due times round-robin over the connections, one reply thread
/// polls every connection and checks each reply.  A shed frame goes back
/// to the dispatcher, which sends it again (same id and due time) before
/// its next scheduled send.  With `record_reference`, the flight recorder
/// runs over the reference rungs and their gaps and is off elsewhere.
LadderTotals run_ladder(ServeStack& stack, FramePool& frames,
                        std::vector<Rung>& rungs, std::uint64_t& next_id,
                        const ServeWorkload& w, bool record_reference = false) {
  // Fixed schedule, computed before timing starts.
  std::int64_t t = now_ns() + 20'000'000;
  std::vector<std::int64_t> due;
  std::vector<std::uint32_t> rung_of;
  const std::uint64_t base = next_id;
  for (std::size_t r = 0; r < rungs.size(); ++r) {
    Rung& g = rungs[r];
    const double period_ns =
        1e9 * static_cast<double>(w.rows_per_frame) / g.rate;
    g.start_ns = t;
    for (std::uint64_t k = 0; k < g.frames; ++k) {
      due.push_back(t + static_cast<std::int64_t>(period_ns * k));
      rung_of.push_back(static_cast<std::uint32_t>(r));
    }
    next_id += g.frames;
    g.end_ns = t + static_cast<std::int64_t>(period_ns * g.frames);
    t = g.end_ns + g.gap_ns;
    g.latency_ms.reserve(g.frames);
    g.lag_ms.reserve(g.frames);
    g.send_us.reserve(g.frames);
  }
  const std::uint64_t total = next_id - base;
  // Per frame, touched only by the reply thread: whether its final reply
  // (valid, error, or a shed with no try left) arrived, and its tries.
  std::vector<std::uint8_t> replied(total, 0);
  std::vector<std::uint8_t> tries(total, 0);
  std::uint64_t finalized = 0;
  std::mutex retry_mu;
  /// Shed slots awaiting another try, each with the time it is due.
  std::vector<std::pair<std::uint64_t, std::int64_t>> retry;
  std::atomic<std::uint64_t> sent{0};  ///< sends, tries again included
  std::atomic<std::uint64_t> replied_count{0};
  std::atomic<bool> dispatch_done{false};
  LadderTotals tot;
  const std::size_t max_depth = stack.daemon->options().max_queue_depth;
  const std::size_t classes = data::k5gcNumClasses;
  const std::size_t rpf = w.rows_per_frame;

  std::thread reply_thread([&] {
    std::vector<pollfd> pfds;
    for (const int fd : stack.fds) pfds.push_back({fd, POLLIN, 0});
    std::vector<std::uint8_t> buf(1 << 18);
    serve::Frame frame;
    la::Matrix proba;
    std::int64_t drain_deadline = 0;
    std::size_t running = 0;
    while (true) {
      if (dispatch_done.load(std::memory_order_acquire)) {
        if (replied_count.load(std::memory_order_relaxed) >=
            sent.load(std::memory_order_relaxed)) {
          break;
        }
        if (drain_deadline == 0) drain_deadline = now_ns() + 5'000'000'000LL;
        if (now_ns() > drain_deadline) break;
      }
      // Blocks in poll(): a busy-polling reply thread would hold one of the
      // host's few vCPUs that the daemon's readers and workers need.
      const int n = ::poll(pfds.data(), pfds.size(), 1);
      if (n <= 0) continue;
      for (std::size_t c = 0; c < pfds.size(); ++c) {
        if ((pfds[c].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
        const ssize_t got = ::recv(pfds[c].fd, buf.data(), buf.size(), 0);
        if (got <= 0) continue;
        serve::FrameReader& reader = stack.readers[c];
        reader.feed(buf.data(), static_cast<std::size_t>(got));
        while (reader.next(frame)) {
          const std::uint64_t id = frame.request_id;
          if (id < base || id >= base + total) {
            ++tot.unknown;
            continue;
          }
          const std::uint64_t slot = id - base;
          if (replied[slot]) {
            ++tot.duplicate;
            continue;
          }
          const std::uint64_t outstanding =
              sent.load(std::memory_order_relaxed) -
              replied_count.load(std::memory_order_relaxed);
          Rung& g = rungs[rung_of[slot]];
          bool final_reply = true;
          if (frame.type == serve::FrameType::Proba) {
            const bool decoded = serve::decode_matrix_payload(frame, proba);
            const std::int64_t done = now_ns();
            if (!decoded || !proba_valid(proba, rpf, classes)) {
              ++g.invalid;
            } else {
              ++g.ok;
              // Replies arrive in time order, so the rung running now
              // only moves forward.
              while (running + 1 < rungs.size() &&
                     done >= rungs[running + 1].start_ns) {
                ++running;
              }
              Rung& now_running = rungs[running];
              if (done >= now_running.start_ns && done < now_running.end_ns) {
                const auto sub = static_cast<std::size_t>(
                    (done - now_running.start_ns) *
                    static_cast<std::int64_t>(kSubWindows) /
                    (now_running.end_ns - now_running.start_ns));
                now_running.completed_rows[sub] += rpf;
              }
              g.latency_ms.push_back(ms_between(due[slot], done));
              const std::size_t first = (id % frames.frames.size()) * rpf;
              for (std::size_t r = 0; r < rpf; ++r) {
                tot.rows_correct += static_cast<std::int64_t>(argmax_row(
                                        proba, r)) == frames.labels[first + r];
              }
              tot.rows += rpf;
            }
          } else if (frame.type == serve::FrameType::Error) {
            serve::WireError code = serve::WireError::None;
            std::string msg;
            if (!serve::decode_error_payload(frame, code, msg)) {
              ++g.invalid;
            } else if (code == serve::WireError::ShedQueueFull ||
                       code == serve::WireError::ShedSlo) {
              if (code == serve::WireError::ShedSlo) {
                ++g.shed_slo;
              } else {
                ++g.shed_queue_full;
                // The client holds fewer requests than the admission cap,
                // so the daemon's queue cannot have been full.
                if (outstanding < max_depth) ++g.spurious;
              }
              if (tries[slot] < kShedRetries) {
                final_reply = false;
                const std::int64_t due_again =
                    now_ns() + (kShedBackoffNs << tries[slot]++);
                std::lock_guard<std::mutex> lk(retry_mu);
                retry.emplace_back(slot, due_again);
              } else {
                ++g.shed_final;
              }
            } else {
              ++g.errors;
            }
          } else {
            ++g.invalid;
          }
          if (final_reply) {
            replied[slot] = 1;
            ++finalized;
          }
          // After the retry push: the dispatcher drains until every send
          // has its reply and no retry is pending.
          replied_count.fetch_add(1, std::memory_order_release);
        }
        if (reader.bad()) {
          ++tot.invalid;
          pfds[c].fd = -1;
        }
      }
    }
  });

  // Dispatcher: sleeps until kSpinNs before each due time, then spins, so
  // a timer wake-up that arrives late (as it does at the tail on a
  // virtualized host) still sends on time, and long gaps leave the CPU to
  // the daemon.
  // Each rung's stats() window closes when the next rung starts, after
  // the gap (the last rung's after its gap), so late replies stay with
  // their rung.
  // A frame that falls due while max_inflight frames are outstanding is
  // skipped: never sent, so it counts neither as attempted nor as failed.
  // Beyond capacity the client so holds max_inflight frames in flight and
  // the daemon runs flat out; the backlog drains in the gap.
  std::size_t rung_index = 0;
  std::uint64_t send_failures = 0;
  serve::ServeDaemon::Stats window_start = stack.daemon->stats();
  auto close_window = [&](Rung& g) {
    const serve::ServeDaemon::Stats now = stack.daemon->stats();
    g.batches = now.batches - window_start.batches;
    g.batched_rows = now.batched_rows - window_start.batched_rows;
    window_start = now;
  };
  // Sends every shed frame whose next try is due.  One that cannot be sent
  // never gets its final reply and counts as missing.
  std::vector<std::uint64_t> resend;
  auto send_retries = [&] {
    {
      const std::int64_t now = now_ns();
      std::lock_guard<std::mutex> lk(retry_mu);
      std::erase_if(retry, [&](const auto& r) {
        if (r.second > now) return false;
        resend.push_back(r.first);
        return true;
      });
    }
    for (const std::uint64_t slot : resend) {
      const std::uint64_t id = base + slot;
      std::vector<std::uint8_t>& f = frames.frame_for(id);
      if (!send_all(stack.fds[id % stack.fds.size()], f.data(), f.size())) continue;
      sent.fetch_add(1, std::memory_order_relaxed);
      ++tot.resent;
    }
    resend.clear();
  };
  std::uint64_t first_sends = 0;
  obs::FlightRecorder& recorder = obs::FlightRecorder::global();
  if (record_reference) recorder.set_enabled(rungs[0].reference);
  for (std::uint64_t slot = 0; slot < total; ++slot) {
    Rung& g = rungs[rung_of[slot]];
    const std::int64_t d = due[slot];
    auto at_cap = [&] {
      return sent.load(std::memory_order_relaxed) -
                 replied_count.load(std::memory_order_relaxed) >=
             w.max_inflight;
    };
    // At the cap the frame is most likely skipped, so sleep all the way
    // instead of spinning: beyond capacity the daemon needs the CPU.
    const std::int64_t spin_ns = at_cap() ? 0 : kSpinNs;
    std::int64_t now = now_ns();
    if (d - now > spin_ns) {
      std::this_thread::sleep_for(std::chrono::nanoseconds(d - now - spin_ns));
      now = now_ns();
    }
    while (now < d) now = now_ns();
    if (rung_of[slot] != rung_index) {
      close_window(rungs[rung_index]);
      rung_index = rung_of[slot];
      if (record_reference) recorder.set_enabled(g.reference);
    }
    send_retries();
    if (at_cap()) {
      ++g.skipped;
      continue;
    }
    const std::uint64_t id = base + slot;
    std::vector<std::uint8_t>& f = frames.frame_for(id);
    const int fd = stack.fds[id % stack.fds.size()];
    const std::int64_t s0 = now_ns();
    const bool ok = send_all(fd, f.data(), f.size());
    const std::int64_t s1 = now_ns();
    g.lag_ms.push_back(ms_between(d, s0));
    g.send_us.push_back(static_cast<double>(s1 - s0) / 1e3);
    if (!ok) {
      // Only the reply thread writes tot's reply counters until it joins.
      ++send_failures;
      continue;
    }
    ++first_sends;
    sent.fetch_add(1, std::memory_order_relaxed);
    if ((slot & 7) == 0) {
      g.depth.push_back(static_cast<double>(stack.daemon->queue_depth()));
      g.wait_ms.push_back(stack.daemon->recent_wait_ms());
    }
  }
  // Let the last rung's gap elapse before closing its stats window, then
  // keep sending retries until every send has its reply.
  const std::int64_t last_end = rungs.back().end_ns + rungs.back().gap_ns;
  while (now_ns() < last_end) {
    send_retries();
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  close_window(rungs.back());
  const std::int64_t drain_deadline = now_ns() + 5'000'000'000LL;
  while (now_ns() < drain_deadline) {
    send_retries();
    if (replied_count.load(std::memory_order_acquire) >=
        sent.load(std::memory_order_relaxed)) {
      std::lock_guard<std::mutex> lk(retry_mu);
      if (retry.empty()) break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  dispatch_done.store(true, std::memory_order_release);
  reply_thread.join();

  tot.invalid += send_failures;
  tot.sent = first_sends;
  tot.missing = first_sends - std::min(first_sends, finalized);
  for (const Rung& g : rungs) {
    tot.invalid += g.invalid;
    tot.shed_queue_full += g.shed_queue_full;
    tot.shed_slo += g.shed_slo;
    tot.shed_final += g.shed_final;
    tot.errors += g.errors;
    tot.spurious += g.spurious;
  }
  return tot;
}

/// The run's schedule: `rounds` rounds, each visiting every ladder rate in
/// ascending order.  The reference and top rates get their shares of the
/// run; the rates between share the rest equally.  Interleaving the rates
/// spreads each one over the whole run, so a burst of host contention hits
/// a minority of any rate's segments instead of one rate.
/// `reference_only` plans the reference segments and nothing else (the
/// traced run's untraced baseline).
std::vector<Rung> make_plan(const ServeWorkload& w, double seconds,
                            bool reference_only) {
  const double per_round = seconds / static_cast<double>(w.rounds);
  const std::size_t top = w.ladder.size() - 1;
  const double middle_share = (1.0 - w.reference_share - w.top_share) /
                              static_cast<double>(top - 1);
  std::vector<Rung> plan;
  for (std::size_t s = 0; s < w.rounds; ++s) {
    for (std::size_t i = 0; i < (reference_only ? 1 : w.ladder.size()); ++i) {
      Rung g;
      g.rate = w.ladder[i];
      g.step = g.rate - (i == 0 ? 0.0 : w.ladder[i - 1]);
      g.round = s;
      g.reference = i == 0;
      const double gap_s = i == top ? kDrainGapS : kGapS;
      const double share = i == 0     ? w.reference_share
                           : i == top ? w.top_share
                                      : middle_share;
      g.gap_ns = static_cast<std::int64_t>(gap_s * 1e9);
      g.frames = std::max<std::uint64_t>(
          1, static_cast<std::uint64_t>(
                 g.rate * std::max(share * per_round - gap_s, 0.01) /
                 static_cast<double>(w.rows_per_frame)));
      plan.push_back(std::move(g));
    }
  }
  return plan;
}

/// A segment meets the serving criteria: it never reached max_inflight,
/// its p99 is within the latency limit, enough sends got valid replies,
/// and the generator kept to its schedule.
bool segment_passes(const Rung& g) {
  return g.skipped == 0 && g.ok > 0 &&
         quantile(g.latency_ms, 0.99) <= kP99LimitMs &&
         static_cast<double>(g.ok) >=
             kMinValidShare * static_cast<double>(g.frames) &&
         quantile(g.lag_ms, 0.99) <= kLagLimitMs;
}

/// Pools each rate's segments: samples and counts are merged, and segment
/// p50s and the share of passing segments are kept.
std::vector<Rung> pool_rates(const std::vector<Rung>& plan) {
  std::vector<Rung> rates;
  for (const Rung& g : plan) {
    auto it = std::find_if(rates.begin(), rates.end(),
                           [&](const Rung& r) { return r.rate == g.rate; });
    if (it == rates.end()) {
      Rung r;
      r.rate = g.rate;
      r.reference = g.reference;
      rates.push_back(std::move(r));
      it = rates.end() - 1;
    }
    Rung& r = *it;
    ++r.segments;
    r.segments_passed += segment_passes(g);
    const std::size_t n = g.latency_ms.size();
    for (std::size_t sub = 0; sub < kSubWindows; ++sub) {
      const auto a = g.latency_ms.begin() +
                     static_cast<std::ptrdiff_t>(n * sub / kSubWindows);
      const auto b = g.latency_ms.begin() +
                     static_cast<std::ptrdiff_t>(n * (sub + 1) / kSubWindows);
      if (a != b) r.window_p50.push_back(median(std::vector<double>(a, b)));
    }
    r.frames += g.frames;
    r.ok += g.ok;
    r.shed_queue_full += g.shed_queue_full;
    r.shed_slo += g.shed_slo;
    r.errors += g.errors;
    r.invalid += g.invalid;
    r.spurious += g.spurious;
    r.shed_final += g.shed_final;
    r.batches += g.batches;
    r.batched_rows += g.batched_rows;
    r.skipped += g.skipped;
    using Samples = std::vector<double> Rung::*;
    for (const Samples v : {&Rung::latency_ms, &Rung::lag_ms, &Rung::send_us,
                            &Rung::depth, &Rung::wait_ms}) {
      (r.*v).insert((r.*v).end(), (g.*v).begin(), (g.*v).end());
    }
  }
  for (Rung& g : rates) {
    g.latency = best_share_mean(g.window_p50, kBestShare, true);
    g.p50 = quantile(g.latency_ms, 0.5);
    g.p90 = quantile(g.latency_ms, 0.9);
    g.p99 = quantile(g.latency_ms, 0.99);
    g.lag_p99 = quantile(g.lag_ms, 0.99);
    g.valid_share =
        g.frames ? static_cast<double>(g.ok) / static_cast<double>(g.frames)
                 : 0.0;
  }
  return rates;
}

/// The highest rate that meets the serving criteria: each round's is the
/// sum, over the ladder rates whose segment passed in that round, of
/// (rate - the next lower rate) -- when every rate up to some rate passes
/// and none above it, that is the rate -- and the estimate is the mean of
/// the upper half of the rounds' values.
double slo_rate_of(const std::vector<Rung>& plan, std::size_t rounds) {
  std::vector<double> capacity(rounds, 0.0);
  for (const Rung& g : plan) {
    if (segment_passes(g)) capacity[g.round] += g.step;
  }
  return best_share_mean(capacity, 0.5, false);
}

void print_rates(const std::vector<Rung>& rates) {
  std::fprintf(stderr,
               "per rate (latency from due time; rows/batch from stats())\n"
               "  %9s %7s %9s %9s %9s %9s %7s %8s %6s %6s %6s %6s %7s %s\n",
               "rows/s", "frames", "p50_ms", "p90_ms", "p99_ms", "lag99_ms",
               "valid", "rows/bt", "shedQ", "spur", "shedS", "fail", "skipped",
               "segments passed");
  for (const Rung& g : rates) {
    std::fprintf(stderr,
                 "  %9.0f %7llu %9.4f %9.4f %9.4f %9.4f %7.4f %8.2f %6llu "
                 "%6llu %6llu %6llu %7llu %zu/%zu%s\n",
                 g.rate, static_cast<unsigned long long>(g.frames), g.p50,
                 g.p90, g.p99, g.lag_p99, g.valid_share,
                 g.batches ? static_cast<double>(g.batched_rows) /
                                 static_cast<double>(g.batches)
                           : 0.0,
                 static_cast<unsigned long long>(g.shed_queue_full),
                 static_cast<unsigned long long>(g.spurious),
                 static_cast<unsigned long long>(g.shed_slo),
                 static_cast<unsigned long long>(g.errors + g.invalid + g.shed_final),
                 static_cast<unsigned long long>(g.skipped),
                 g.segments_passed, g.segments,
                 g.reference ? " (reference)" : "");
  }
}

/// Checks that hold for every serving run; failures make the run incorrect.
void check_ladder(const LadderTotals& t, Outcome& out) {
  if (t.missing) out.fail_check(std::to_string(t.missing) + " missing replies");
  if (t.invalid) out.fail_check(std::to_string(t.invalid) + " invalid replies");
  if (t.duplicate) out.fail_check(std::to_string(t.duplicate) + " duplicate replies");
  if (t.unknown) out.fail_check(std::to_string(t.unknown) + " replies with unknown ids");
}

/// Frames without a valid reply: sheds with no try left, typed errors,
/// invalid and missing replies.  A shed that a later try got through is
/// not a failure; report_failures lists every shed.
std::uint64_t ladder_failures(const LadderTotals& t) {
  return t.shed_final + t.errors + t.invalid + t.missing + t.duplicate;
}

void report_failures(const LadderTotals& t) {
  const double a = t.sent ? static_cast<double>(t.sent) : 1.0;
  std::fprintf(stderr,
               "sheds over %llu frames sent: shed_queue_full %llu (%.4f%%; of "
               "which spurious %llu = %.4f%%), shed_slo %llu; %llu tries "
               "sent again\n"
               "failed frames: shed on every try %llu, typed errors %llu, "
               "invalid %llu, missing %llu, duplicate %llu\n",
               static_cast<unsigned long long>(t.sent),
               static_cast<unsigned long long>(t.shed_queue_full),
               100.0 * static_cast<double>(t.shed_queue_full) / a,
               static_cast<unsigned long long>(t.spurious),
               100.0 * static_cast<double>(t.spurious) / a,
               static_cast<unsigned long long>(t.shed_slo),
               static_cast<unsigned long long>(t.resent),
               static_cast<unsigned long long>(t.shed_final),
               static_cast<unsigned long long>(t.errors),
               static_cast<unsigned long long>(t.invalid),
               static_cast<unsigned long long>(t.missing),
               static_cast<unsigned long long>(t.duplicate));
}

const Rung& reference_of(const std::vector<Rung>& rates) {
  for (const Rung& g : rates) {
    if (g.reference) return g;
  }
  throw std::runtime_error("no reference rate in the plan");
}

/// True when `ts` falls inside one of the reference segments (plus the gap
/// after it, where its last replies land).
struct Windows {
  std::vector<std::pair<std::int64_t, std::int64_t>> spans;
  [[nodiscard]] bool contains(std::int64_t ts) const {
    for (const auto& [a, b] : spans) {
      if (ts >= a && ts <= b) return true;
    }
    return false;
  }
};

void run_serve(const ServeWorkload& w, const Args& args, Outcome& out) {
  const std::int64_t process_start = now_ns();
  obs::FlightRecorder& recorder = obs::FlightRecorder::global();
  if (args.trace) {
    // Rings register at a thread's first event; size them for a whole
    // traced ladder before any daemon thread exists.
    recorder.set_thread_ring_capacity(1 << 18);
    obs::Tracer::global().set_enabled(true);
  }

  // Set-up, repeated; the last stack is the one measured.
  ServeStack stack;
  FramePool frames;
  FitReport fit;
  std::vector<double> setup_s;
  const std::size_t repeats = args.trace ? 1 : kSetupRepeats;
  for (std::size_t r = 0; r < repeats; ++r) {
    const std::int64_t t0 = r == 0 ? process_start : now_ns();
    stack.shutdown();
    build_serve_stack(w, args.seed, args.socket, stack, frames, fit);
    setup_s.push_back(ms_between(t0, now_ns()) / 1e3);
    std::fprintf(stderr, "setup %zu: %.3f s (generate %.3f, scaler %.3f, fs "
                 "%.3f, classifier %.3f, gan %.3f)\n",
                 r + 1, setup_s.back(), fit.generate_s, fit.scaler_s, fit.fs_s,
                 fit.classifier_s, fit.gan_s);
  }

  std::uint64_t next_id = 1;
  std::vector<Rung> untraced;
  LadderTotals untraced_tot;
  if (args.trace) {
    // Untraced reference pass, the baseline for the tracing overhead.
    obs::Tracer::global().set_enabled(false);
    untraced = make_plan(w, args.seconds, true);
    untraced_tot = run_ladder(stack, frames, untraced, next_id, w);
    check_ladder(untraced_tot, out);
    untraced = pool_rates(untraced);
    recorder.reset();
    obs::Tracer::global().set_enabled(true);
  }
  // The flight recorder runs over the reference segments and their gaps,
  // the only windows the attribution reads, so the rings hold them whole.
  std::vector<Rung> plan = make_plan(w, args.seconds, false);
  const LadderTotals tot =
      run_ladder(stack, frames, plan, next_id, w, args.trace);
  recorder.set_enabled(false);
  std::vector<Rung> rates = pool_rates(plan);
  print_rates(rates);
  report_failures(tot);
  check_ladder(tot, out);

  const Rung& ref = reference_of(rates);
  // The top ladder rate is far beyond capacity, so the client holds
  // max_inflight frames outstanding there, and the rows completed during
  // each sub-window of its segments measure the daemon's throughput.
  const Rung& top = rates.back();
  std::vector<double> throughput;
  for (const Rung& g : plan) {
    if (g.rate != top.rate) continue;
    const double window_s = static_cast<double>(g.end_ns - g.start_ns) / 1e9 /
                            static_cast<double>(kSubWindows);
    for (const std::uint64_t rows : g.completed_rows) {
      throughput.push_back(static_cast<double>(rows) / window_s);
    }
  }
  const double max_rate = best_share_mean(throughput, kBestShare, false);
  const double slo_rate = slo_rate_of(plan, w.rounds);
  const double accuracy =
      tot.rows ? static_cast<double>(tot.rows_correct) /
                     static_cast<double>(tot.rows)
               : 0.0;
  if (ref.ok == 0) out.fail_check("no valid reply at the reference rate");
  if (accuracy < kAccuracyFloor) {
    out.fail_check("serve accuracy " + std::to_string(accuracy) +
                   " below floor " + std::to_string(kAccuracyFloor));
  }
  out.attempted = tot.sent + untraced_tot.sent;
  out.failed = ladder_failures(tot) + ladder_failures(untraced_tot);
  std::fprintf(stderr,
               "reference %.0f rows/s: lowest-quarter mean of %zu "
               "sub-window p50s %.4f ms (lowest %.4f, median %.4f), pooled "
               "p50 %.4f ms, "
               "p90 %.4f ms, p99 %.4f ms over %zu replies; throughput at "
               "%.0f rows/s offered %.0f rows/s; highest rate meeting the "
               "criteria %.0f rows/s; accuracy %.4f over %llu rows\n",
               ref.rate, ref.window_p50.size(), ref.latency,
               quantile(ref.window_p50, 0.0), median(ref.window_p50),
               ref.p50, ref.p90, ref.p99, ref.latency_ms.size(), top.rate,
               max_rate, slo_rate, accuracy,
               static_cast<unsigned long long>(tot.rows));
  std::fprintf(stderr, "sub-window p50s (ms):");
  for (const double v : ref.window_p50) std::fprintf(stderr, " %.4f", v);
  std::fprintf(stderr, "\nthroughput per sub-window (rows/s):");
  for (const double v : throughput) std::fprintf(stderr, " %.0f", v);
  std::fprintf(stderr, "\n");

  if (!args.trace) {
    out.put("setup_s", median(setup_s), "s");
    out.put("latency_ms", ref.latency, "ms");
    out.put("max_rate", max_rate, "rows/s");
    out.put("accuracy", accuracy, "fraction");
    return;
  }

  // -- Per-layer attribution over the reference segments (traced pass) ----
  const obs::Journal journal = recorder.snapshot();
  Windows win;
  for (const Rung& g : plan) {
    if (g.reference) win.spans.emplace_back(g.start_ns, g.end_ns + g.gap_ns);
  }
  std::vector<double> batch_ms, predict_ms, dequeue_wait_ms;
  double predict_total_ms = 0.0, predict_rows = 0.0;
  {
    // Per thread: serve.batch_rows is emitted right before predict.batch
    // opens inside the same serve.batch scope.
    std::map<std::uint32_t, double> rows_of;
    std::map<std::uint32_t, std::int64_t> open_batch, open_predict;
    for (const obs::Event& e : journal.events) {
      const std::string& name = journal.name(e.name_id);
      const auto ts = static_cast<std::int64_t>(e.ts_ns);
      if (name == "serve.batch_rows" && e.type == obs::EventType::Counter) {
        rows_of[e.tid] = e.value;
      } else if (name == "serve.dequeue" && win.contains(ts)) {
        dequeue_wait_ms.push_back(e.value);
      } else if (name == "serve.batch" || name == "predict.batch") {
        auto& open = name == "serve.batch" ? open_batch : open_predict;
        if (e.type == obs::EventType::Begin) {
          open[e.tid] = ts;
          continue;
        }
        const auto it = open.find(e.tid);
        if (e.type != obs::EventType::End || it == open.end()) continue;
        const std::int64_t b = it->second;
        open.erase(it);
        if (!win.contains(b) || !win.contains(ts)) continue;
        if (name == "serve.batch") {
          batch_ms.push_back(ms_between(b, ts));
        } else if (rows_of.count(e.tid)) {
          predict_ms.push_back(ms_between(b, ts));
          predict_total_ms += ms_between(b, ts);
          predict_rows += rows_of[e.tid];
        }
      }
    }
  }
  const double us_per_row =
      predict_rows > 0 ? 1e3 * predict_total_ms / predict_rows : 0.0;
  const serve::ServeDaemon::Stats s = stack.daemon->stats();
  const double wait_p50 = median(dequeue_wait_ms);
  const double batch_p50 = median(batch_ms);
  const double residual = ref.p50 - wait_p50 - batch_p50;
  const Rung& base_ref = reference_of(untraced);

  out.put("serve.slo_rate", slo_rate, "rows/s");
  out.put("client.lag_p99_ms", ref.lag_p99, "ms");
  out.put("client.send_us_p50", median(ref.send_us), "us");
  out.put("serve.latency_p99_ms", ref.p99, "ms");
  out.put("serve.rows_per_batch",
          ref.batches ? static_cast<double>(ref.batched_rows) /
                            static_cast<double>(ref.batches)
                      : 0.0,
          "rows");
  out.put("serve.batches", static_cast<double>(ref.batches), "count");
  out.put("serve.queue_depth_p99", quantile(ref.depth, 0.99), "count");
  out.put("serve.wait_p90_ms", median(ref.wait_ms), "ms");
  out.put("serve.queue_wait_ms_p50", wait_p50, "ms");
  out.put("serve.shed_queue_full", static_cast<double>(s.shed_queue_full), "count");
  out.put("serve.shed_slo", static_cast<double>(s.shed_slo), "count");
  out.put("serve.failed", static_cast<double>(s.failed), "count");
  out.put("serve.spurious_sheds",
          static_cast<double>(tot.spurious + untraced_tot.spurious), "count");
  out.put("serve.batch_ms_p50", batch_p50, "ms");
  out.put("serve.batch_ms_p99", quantile(batch_ms, 0.99), "ms");
  out.put("serve.residual_ms_p50", residual, "ms");
  out.put("core.predict_ms_p50", median(predict_ms), "ms");
  out.put("core.predict_us_per_row", us_per_row, "us");
  out.put("la.mflop_per_row", fit.mflop_per_row, "MFLOP");
  out.put("la.gflops", us_per_row > 0 ? 1e3 * fit.mflop_per_row / us_per_row : 0.0,
          "GFLOP/s");
  out.put("reconcile.residual_pct", ref.p50 > 0 ? 100.0 * residual / ref.p50 : 0.0,
          "%");
  out.put("obs.trace_overhead_pct",
          base_ref.latency > 0
              ? 100.0 * (ref.latency - base_ref.latency) / base_ref.latency
              : 0.0,
          "%");
  out.put("obs.journal_drops", static_cast<double>(journal.dropped_total), "count");
  // Set-up layers.
  out.put("data.generate_s", fit.generate_s, "s");
  out.put("fit.scaler_s", fit.scaler_s, "s");
  out.put("fit.fs_s", fit.fs_s, "s");
  out.put("fit.classifier_s", fit.classifier_s, "s");
  out.put("fit.gan_s", fit.gan_s, "s");
  out.put("causal.ci_tests_setup", fit.ci_tests, "count");
  out.put("nn.train_steps_per_s", fit.steps_per_s, "1/s");
  if (journal.dropped_total != 0) {
    std::fprintf(stderr, "journal dropped %llu events: per-layer numbers are "
                 "incomplete\n",
                 static_cast<unsigned long long>(journal.dropped_total));
  }
  std::fprintf(stderr,
               "reconciliation at %.0f rows/s: e2e p50 %.4f ms = queue wait "
               "p50 %.4f + batch p50 %.4f + residual %.4f (wire, reader "
               "threads, socket, client); latency_ms %.4f ms traced, %.4f ms "
               "untraced\n",
               ref.rate, ref.p50, wait_p50, batch_p50, residual,
               ref.latency, base_ref.latency);
}

// -- Drift recovery workload ------------------------------------------------------

/// Soft interventions with `shift` on `count` observed leaf features that
/// the trained target (domain 1) left alone; called with the same selection
/// for both drift domains so each cycle rediscovers the same partition.
void drift_same_features(data::Scm& scm, std::size_t domain, std::size_t count,
                         double shift) {
  std::vector<char> is_parent(scm.num_nodes(), 0);
  for (std::size_t i = 0; i < scm.num_nodes(); ++i) {
    for (const std::size_t p : scm.node(i).parents) is_parent[p] = 1;
  }
  std::vector<std::size_t> leaves;
  std::vector<std::size_t> leaf_of_feature(scm.num_observed(), SIZE_MAX);
  std::size_t feature = 0;
  for (std::size_t i = 0; i < scm.num_nodes(); ++i) {
    if (!scm.node(i).observed) continue;
    if (!is_parent[i]) {
      leaf_of_feature[feature] = leaves.size();
      leaves.push_back(i);
    }
    ++feature;
  }
  std::vector<char> taken(leaves.size(), 0);
  for (const std::size_t f : scm.intervened_observed_features(1)) {
    if (leaf_of_feature[f] != SIZE_MAX) taken[leaf_of_feature[f]] = 1;
  }
  const std::size_t stride = std::max<std::size_t>(leaves.size() / count, 1);
  std::size_t planted = 0;
  for (std::size_t k = 0; k < leaves.size() && planted < count; ++k) {
    const std::size_t f = (3 + k * stride) % leaves.size();
    if (taken[f]) continue;
    taken[f] = 1;
    data::SoftIntervention iv;
    iv.shift = shift;
    iv.extra_noise = 0.1;
    scm.intervene(domain, leaves[f], iv);
    ++planted;
  }
}

/// Everything one drift run needs, generated before timing starts.
struct DriftInputs {
  data::Dataset source, shots;
  std::vector<data::Dataset> stable;  ///< trained target regime (domain 1)
  std::vector<data::Dataset> plus;    ///< +shift regime (domain 2)
  std::vector<data::Dataset> minus;   ///< -shift regime (domain 3)
};

DriftInputs make_drift_inputs(std::uint64_t seed) {
  data::Scm scm = data::build_5gc_scm(data::Gen5GCConfig::quick());
  drift_same_features(scm, 2, kDriftedFeatures, kDriftShift);
  drift_same_features(scm, 3, kDriftedFeatures, -kDriftShift);
  common::Rng rng(mix_seed(seed, 11));
  const std::size_t k = data::k5gcNumClasses;
  DriftInputs in;
  in.source = sample_domain(scm, 0, balanced_labels(kSourceSamples, k, rng), rng);
  in.shots = sample_domain(scm, 1, balanced_labels(2 * k, k, rng), rng);
  for (std::size_t b = 0; b < 4; ++b) {
    in.stable.push_back(sample_domain(scm, 1, balanced_labels(kBatchRows, k, rng), rng));
  }
  for (std::size_t b = 0; b < kPoolBatches; ++b) {
    in.plus.push_back(sample_domain(scm, 2, balanced_labels(kBatchRows, k, rng), rng));
    in.minus.push_back(sample_domain(scm, 3, balanced_labels(kBatchRows, k, rng), rng));
  }
  return in;
}

core::DriftLoopOptions drift_loop_options(const core::PipelineOptions& po) {
  core::DriftLoopOptions lo;
  lo.detector.window = kBatchRows;
  lo.detector.min_window = kBatchRows / 2;
  lo.detector.patience = 2;
  lo.detector.cooldown = 4;
  lo.detector.psi_trigger = 3.0;
  lo.detector.psi_clear = 1.5;
  lo.detector.ks_trigger = 0.6;
  lo.detector.ks_clear = 0.4;
  lo.buffer_capacity = 2 * kBatchRows;
  lo.min_adaptation_samples = 64;
  lo.fs = po.fs;
  lo.validation.min_accuracy = 0.3;
  lo.validation.max_accuracy_drop = 0.25;
  lo.validation.max_uniform_fraction = 0.5;
  lo.probation_batches = 4;
  lo.background = false;
  lo.warm_readapt = true;
  return lo;
}

/// One measured drift -> recover cycle, timed from outside the loop.
struct Cycle {
  bool promoted = false;
  double recover_ms = 0.0;      ///< start of triggering serve -> end of promoting serve
  std::size_t detect_batches = 0;
  std::uint64_t attempts = 0;   ///< adaptation attempts up to the promotion
  double rows_per_s = 0.0;      ///< rows served / wall time of the whole cycle
  double accuracy = 0.0;        ///< settle batches after the promotion
  double ci_tests = 0.0;        ///< of the promoted generation
  double serve_ms = 0.0;        ///< median serve() without adaptation
  std::int64_t trigger_ns = 0, promote_ns = 0;
};

struct DriftRig {
  std::unique_ptr<core::FsGanPipeline> pipeline;
  std::unique_ptr<core::DriftLoop> loop;
  la::Matrix proba;
  std::vector<double> serve_ms;  ///< serve() calls with no adaptation
  std::uint64_t invalid = 0;
  std::size_t cursor = 0;

  /// Serves one batch, checks its output, returns its accuracy.
  double serve(const data::Dataset& d, std::int64_t& t0, std::int64_t& t1) {
    const core::DriftLoopStats before = loop->stats();
    t0 = now_ns();
    loop->serve(d.x, d.y, proba);
    t1 = now_ns();
    const core::DriftLoopStats& after = loop->stats();
    if (after.attempts == before.attempts && after.triggers == before.triggers) {
      serve_ms.push_back(ms_between(t0, t1));
    }
    if (!proba_valid(proba, d.x.rows(), data::k5gcNumClasses)) {
      ++invalid;
      return 0.0;
    }
    std::size_t hit = 0;
    for (std::size_t r = 0; r < d.x.rows(); ++r) {
      hit += static_cast<std::int64_t>(argmax_row(proba, r)) == d.y[r];
    }
    return static_cast<double>(hit) / static_cast<double>(d.x.rows());
  }

  Cycle run_cycle(const std::vector<data::Dataset>& pool) {
    Cycle c;
    const std::int64_t start = now_ns();
    const std::size_t cursor0 = cursor;
    const std::size_t serve_mark = serve_ms.size();
    const std::uint64_t triggers0 = loop->stats().triggers;
    const std::uint64_t promotions0 = loop->stats().promotions;
    const std::uint64_t attempts0 = loop->stats().attempts;
    std::size_t served = 0;
    std::int64_t t0 = 0, t1 = 0;
    while (loop->stats().promotions == promotions0 && served < kCycleCapBatches) {
      const data::Dataset& d = pool[cursor++ % pool.size()];
      serve(d, t0, t1);
      ++served;
      if (c.trigger_ns == 0 && loop->stats().triggers > triggers0) {
        c.trigger_ns = t0;
        c.detect_batches = served;
      }
    }
    c.promoted = loop->stats().promotions > promotions0;
    c.attempts = loop->stats().attempts - attempts0;
    if (c.promoted) {
      c.promote_ns = t1;
      c.recover_ms = ms_between(c.trigger_ns, c.promote_ns);
      if (const auto gen = pipeline->active_generation()) {
        c.ci_tests = static_cast<double>(gen->separation.ci_tests_performed);
      }
    }
    std::vector<double> acc;
    for (std::size_t i = 0; i < kSettleBatches; ++i) {
      acc.push_back(serve(pool[cursor++ % pool.size()], t0, t1));
    }
    c.rows_per_s = static_cast<double>((cursor - cursor0) * kBatchRows) * 1e3 /
                   ms_between(start, now_ns());
    c.accuracy = mean(acc);
    c.serve_ms = median(std::vector<double>(serve_ms.begin() + serve_mark,
                                            serve_ms.end()));
    return c;
  }
};

void build_drift_rig(std::uint64_t seed, DriftRig& rig,
                     DriftInputs& in, FitReport& fit, double& pre_drift_accuracy) {
  FSDA_SPAN("perfbench.setup");
  {
    FSDA_SPAN("perfbench.generate");
    const std::int64_t t0 = now_ns();
    in = make_drift_inputs(seed);
    fit.generate_s = ms_between(t0, now_ns()) / 1e3;
  }
  core::PipelineOptions po;
  // Strict significance and a bounded search, as in bench_readapt: the
  // planted +-5 shifts have enormous z-scores, and a stable partition is
  // the steady state the warm path targets.
  po.fs.alpha = 1e-6;
  po.fs.max_condition_size = 1;
  po.fs.candidate_pool = 4;
  po.fs.max_subsets_per_level = 8;
  po.fs.deadline_ms = 3000;
  po.use_reconstruction = true;
  po.validation_rows = 64;
  rig.loop.reset();
  rig.pipeline = std::make_unique<core::FsGanPipeline>(
      models::make_classifier_factory("mlp", models::Preset::Quick),
      gan_factory(), po, mix_seed(seed, 12));
  {
    FSDA_SPAN("perfbench.train");
    rig.pipeline->train(in.source, in.shots);
  }
  read_fit_gauges(fit, *rig.pipeline);
  rig.loop = std::make_unique<core::DriftLoop>(
      *rig.pipeline, drift_loop_options(po));
  rig.serve_ms.clear();
  rig.cursor = 0;
  // Warm-up on the trained regime with the detector suppressed; its
  // accuracy is the pre-drift reference for the recovery check.
  rig.loop->detector().suppress(in.stable.size());
  std::vector<double> acc;
  std::int64_t t0 = 0, t1 = 0;
  for (const data::Dataset& d : in.stable) acc.push_back(rig.serve(d, t0, t1));
  pre_drift_accuracy = mean(acc);
  // Burn-in: the first recovery changes the partition, so it is cold.
  const Cycle burn = rig.run_cycle(in.plus);
  if (!burn.promoted) throw std::runtime_error("burn-in cycle never promoted");
  rig.serve_ms.clear();
}

struct CyclesSummary {
  std::vector<Cycle> cycles;
  std::uint64_t attempts = 0, warm_attempts = 0, promotions = 0;
};

CyclesSummary run_cycles(DriftRig& rig, DriftInputs& in, std::size_t min_cycles,
                         std::size_t max_cycles, double seconds,
                         std::size_t& cycle_index) {
  CyclesSummary s;
  const core::DriftLoopStats before = rig.loop->stats();
  const std::int64_t t0 = now_ns();
  while (s.cycles.size() < max_cycles &&
         (s.cycles.size() < min_cycles || ms_between(t0, now_ns()) < seconds * 1e3)) {
    const auto& pool = (cycle_index++ % 2 == 0) ? in.minus : in.plus;
    s.cycles.push_back(rig.run_cycle(pool));
  }
  const core::DriftLoopStats& after = rig.loop->stats();
  s.attempts = after.attempts - before.attempts;
  s.warm_attempts = after.warm_attempts - before.warm_attempts;
  s.promotions = after.promotions - before.promotions;
  return s;
}

std::vector<double> recover_times(const CyclesSummary& s) {
  std::vector<double> v;
  for (const Cycle& c : s.cycles) {
    if (c.promoted) v.push_back(c.recover_ms);
  }
  return v;
}

void check_cycles(const CyclesSummary& s, double floor, Outcome& out) {
  for (std::size_t i = 0; i < s.cycles.size(); ++i) {
    const Cycle& c = s.cycles[i];
    if (!c.promoted) {
      out.fail_check("cycle " + std::to_string(i) + " never promoted");
    } else if (c.accuracy < floor) {
      out.fail_check("cycle " + std::to_string(i) + " recovered accuracy " +
                     std::to_string(c.accuracy) + " below floor " +
                     std::to_string(floor));
    }
  }
}

void run_drift(const Args& args, Outcome& out) {
  const std::int64_t process_start = now_ns();
  obs::FlightRecorder& recorder = obs::FlightRecorder::global();
  if (args.trace) {
    recorder.set_thread_ring_capacity(1 << 18);
    obs::Tracer::global().set_enabled(true);
  }
  DriftRig rig;
  DriftInputs in;
  FitReport fit;
  double pre_drift = 0.0;
  std::vector<double> setup_s;
  const std::size_t repeats = args.trace ? 1 : kSetupRepeats;
  for (std::size_t r = 0; r < repeats; ++r) {
    const std::int64_t t0 = r == 0 ? process_start : now_ns();
    build_drift_rig(args.seed, rig, in, fit, pre_drift);
    setup_s.push_back(ms_between(t0, now_ns()) / 1e3);
    std::fprintf(stderr, "setup %zu: %.3f s (generate %.3f, fs %.3f, "
                 "classifier %.3f, gan %.3f, burn-in included); pre-drift "
                 "accuracy %.4f\n",
                 r + 1, setup_s.back(), fit.generate_s, fit.fs_s,
                 fit.classifier_s, fit.gan_s, pre_drift);
  }
  const double floor = pre_drift - kAccuracyTolerance;
  std::size_t cycle_index = 0;

  CyclesSummary untraced;
  if (args.trace) {
    obs::Tracer::global().set_enabled(false);
    untraced = run_cycles(rig, in, kMinCycles / 2, kMinCycles / 2,
                          0.0, cycle_index);
    check_cycles(untraced, floor, out);
    recorder.reset();
    recorder.set_enabled(true);
    obs::Tracer::global().set_enabled(true);
  }
  rig.serve_ms.clear();
  const std::size_t min_cycles = args.trace ? kMinCycles / 2 : kMinCycles;
  const CyclesSummary s = run_cycles(rig, in, min_cycles, kMaxCycles,
                                     args.trace ? 0.0 : args.seconds, cycle_index);
  recorder.set_enabled(false);
  check_cycles(s, floor, out);
  if (rig.invalid) out.fail_check(std::to_string(rig.invalid) + " invalid outputs");

  const std::vector<double> rec = recover_times(s);
  std::vector<double> acc, detect, ci, rows_per_s;
  for (const Cycle& c : s.cycles) {
    rows_per_s.push_back(c.rows_per_s);
    if (!c.promoted) continue;
    acc.push_back(c.accuracy);
    detect.push_back(static_cast<double>(c.detect_batches));
    ci.push_back(c.ci_tests);
  }
  const double serve_p50 = median(rig.serve_ms);
  if (const auto gen = rig.pipeline->active_generation()) {
    std::fprintf(stderr, "active partition: %zu invariant, %zu variant features\n",
                 gen->separation.invariant.size(), gen->separation.variant.size());
  }
  std::fprintf(stderr, "cycles (recover_ms/serve_ms):");
  for (const Cycle& c : s.cycles) {
    std::fprintf(stderr, " %.2f/%.3f", c.recover_ms, c.serve_ms);
  }
  std::fprintf(stderr, "\n");
  std::fprintf(stderr,
               "%zu cycles: recover lowest-quarter mean %.2f ms, p10 %.2f ms "
               "p50 %.2f ms p90 %.2f ms (min %.2f, max %.2f); detect p50 %.0f "
               "batches; post-promotion accuracy p50 %.4f (floor %.4f); serve "
               "p50 %.3f ms over %zu batches; %llu attempts, %llu warm, %llu "
               "promotions; drifted rows/s per cycle p50 %.0f\n",
               s.cycles.size(), best_share_mean(rec, kBestShare, true), quantile(rec, 0.1),
               median(rec), quantile(rec, 0.9),
               quantile(rec, 0.0), quantile(rec, 1.0), median(detect),
               median(acc), floor, serve_p50, rig.serve_ms.size(),
               static_cast<unsigned long long>(s.attempts),
               static_cast<unsigned long long>(s.warm_attempts),
               static_cast<unsigned long long>(s.promotions), median(rows_per_s));
  out.attempted = s.cycles.size() + untraced.cycles.size();
  // A cycle fails when it never promotes or when a candidate was rejected
  // before the promotion (the loop then falls back to a cold refit).
  std::size_t retried = 0;
  auto count_failures = [&](const CyclesSummary& sum) {
    for (const Cycle& c : sum.cycles) {
      out.failed += !c.promoted || c.attempts > 1;
      retried += c.promoted && c.attempts > 1;
    }
  };
  count_failures(s);
  count_failures(untraced);
  if (retried != 0) {
    std::fprintf(stderr, "%zu cycles promoted only after a rejected candidate\n",
                 retried);
  }

  if (!args.trace) {
    out.put("setup_s", median(setup_s), "s");
    out.put("latency_ms", best_share_mean(rec, kBestShare, true), "ms");
    out.put("max_rate", best_share_mean(rows_per_s, kBestShare, false), "rows/s");
    out.put("accuracy", median(acc), "fraction");
    return;
  }

  // Per-cycle stage totals from the existing readapt.* journal scopes.
  const obs::Journal journal = recorder.snapshot();
  const char* stages[] = {"readapt.stats", "readapt.search", "readapt.refit",
                          "readapt.validate", "readapt.compile"};
  std::map<std::string, std::vector<double>> per_cycle;
  for (const Cycle& c : s.cycles) {
    if (!c.promoted) continue;
    for (const char* st : stages) {
      const std::vector<double> d = scope_ms(journal, st, c.trigger_ns, c.promote_ns);
      double total = 0.0;
      for (const double x : d) total += x;
      per_cycle[st].push_back(total);
    }
  }
  double stage_sum = 0.0;
  for (const char* st : stages) stage_sum += median(per_cycle[st]);
  const double e2e = median(rec);
  const double base = best_share_mean(recover_times(untraced), kBestShare, true);
  out.put("core.drift_serve_ms_p50", serve_p50, "ms");
  out.put("readapt.recover_ms_p50", e2e, "ms");
  out.put("drift.detect_batches", median(detect), "batches");
  out.put("readapt.stats_ms", median(per_cycle["readapt.stats"]), "ms");
  out.put("readapt.search_ms", median(per_cycle["readapt.search"]), "ms");
  out.put("readapt.refit_ms", median(per_cycle["readapt.refit"]), "ms");
  out.put("readapt.validate_ms", median(per_cycle["readapt.validate"]), "ms");
  out.put("readapt.compile_ms", median(per_cycle["readapt.compile"]), "ms");
  out.put("readapt.promote_share",
          s.attempts ? static_cast<double>(s.promotions) / static_cast<double>(s.attempts) : 0.0,
          "fraction");
  out.put("readapt.warm_share",
          s.attempts ? static_cast<double>(s.warm_attempts) / static_cast<double>(s.attempts) : 0.0,
          "fraction");
  out.put("causal.ci_tests_per_cycle", median(ci), "count");
  out.put("reconcile.residual_pct", e2e > 0 ? 100.0 * (e2e - stage_sum) / e2e : 0.0, "%");
  const double traced = best_share_mean(rec, kBestShare, true);
  out.put("obs.trace_overhead_pct", base > 0 ? 100.0 * (traced - base) / base : 0.0,
          "%");
  out.put("obs.journal_drops", static_cast<double>(journal.dropped_total), "count");
  out.put("data.generate_s", fit.generate_s, "s");
  out.put("fit.scaler_s", fit.scaler_s, "s");
  out.put("fit.fs_s", fit.fs_s, "s");
  out.put("fit.classifier_s", fit.classifier_s, "s");
  out.put("fit.gan_s", fit.gan_s, "s");
  out.put("causal.ci_tests_setup", fit.ci_tests, "count");
  // The last fit is now a warm refit, so this is the refit's step rate.
  out.put("nn.train_steps_per_s",
          obs::MetricsRegistry::global().gauge_value("training.steps_per_second"),
          "1/s");
  std::fprintf(stderr,
               "reconciliation: recover p50 %.2f ms = stats %.2f + search %.2f "
               "+ refit %.2f + validate %.2f + compile %.2f + residual %.2f "
               "(detector, snapshot, promote); latency_ms %.2f ms traced, "
               "%.2f ms untraced\n",
               e2e, median(per_cycle["readapt.stats"]),
               median(per_cycle["readapt.search"]), median(per_cycle["readapt.refit"]),
               median(per_cycle["readapt.validate"]),
               median(per_cycle["readapt.compile"]), e2e - stage_sum, traced,
               base);
}

/// The traced run's table on stderr.  Metrics a workload does not
/// exercise are absent here; perfbench/run.py reports them as 0 and checks
/// every name and unit against BENCHMARK.json.
void print_layers(const Outcome& out) {
  std::fprintf(stderr, "per-layer table:\n");
  for (const Metric& m : out.metrics) {
    std::fprintf(stderr, "  %-28s %16.6g %s\n", m.name.c_str(), m.value,
                 m.unit.c_str());
  }
}

}  // namespace

int main(int argc, char** argv) {
  Outcome out;
  Args args;
  try {
    args = parse_args(argc, argv);
    common::set_log_level(common::LogLevel::Warn);
    std::fprintf(stderr, "perfbench %s seed %llu, %.1f s, trace %d\n",
                 args.workload.c_str(), static_cast<unsigned long long>(args.seed),
                 args.seconds, args.trace ? 1 : 0);
    if (args.workload == "serve_single") {
      run_serve(kServeSingle, args, out);
    } else if (args.workload == "serve_bulk") {
      run_serve(kServeBulk, args, out);
    } else if (args.workload == "drift_recover") {
      run_drift(args, out);
    } else {
      throw std::runtime_error("unknown workload " + args.workload);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: error: %s\n", e.what());
    return 2;
  }
  if (args.trace) {
    print_layers(out);
    std::fprintf(stderr, "%s", obs::Tracer::global().to_string().c_str());
  }
  for (const std::string& f : out.check_failures) {
    std::fprintf(stderr, "CHECK FAILED: %s\n", f.c_str());
  }
  print_result(out);
  return out.correct ? 0 : 1;
}
