#include "nn/workspace.hpp"

#include <atomic>
#include <cassert>
#include <chrono>

#include "la/view.hpp"

namespace fsda::nn {

namespace {
std::atomic<std::uint64_t> g_pack_nanos{0};
}  // namespace

double gemm_pack_seconds() {
  return static_cast<double>(g_pack_nanos.load(std::memory_order_relaxed)) *
         1e-9;
}

la::Matrix& Workspace::buffer(const void* owner, int slot, std::size_t rows,
                              std::size_t cols) {
  la::Matrix& m = buffers_[std::make_pair(owner, slot)];
  m.resize(rows, cols);
  return m;
}

const la::PackedB& Workspace::packed(const void* owner, int slot,
                                     const la::Matrix& weights,
                                     std::uint64_t version, bool transposed) {
  PackEntry& entry = packs_[std::make_pair(owner, slot)];
  const std::size_t want_rows = transposed ? weights.cols() : weights.rows();
  const std::size_t want_cols = transposed ? weights.rows() : weights.cols();
  if (entry.version == version && entry.transposed == transposed &&
      entry.pack.rows() == want_rows && entry.pack.cols() == want_cols) {
    return entry.pack;
  }
#ifndef NDEBUG
  // The pack source must be parameter-owned storage, never a workspace
  // buffer: buffer() may resize (and thus move) that storage between the
  // pack and its use, and version tags would not observe the change.
  for (const auto& [key, buf] : buffers_) {
    assert(!la::views_overlap(la::ConstMatrixView(weights),
                              la::ConstMatrixView(buf)) &&
           "Workspace::packed source aliases a workspace buffer");
  }
#endif
  const auto start = std::chrono::steady_clock::now();
  if (transposed) {
    entry.pack.pack_transposed(weights);
  } else {
    entry.pack.pack(weights);
  }
  g_pack_nanos.fetch_add(
      static_cast<std::uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(
              std::chrono::steady_clock::now() - start)
              .count()),
      std::memory_order_relaxed);
  entry.version = version;
  entry.transposed = transposed;
  return entry.pack;
}

std::size_t Workspace::total_elements() const {
  std::size_t total = 0;
  for (const auto& [key, m] : buffers_) total += m.size();
  return total;
}

}  // namespace fsda::nn
