#include "apps/kernels.hpp"

#include <unistd.h>

#include <algorithm>

namespace sigrt::apps::kern {

namespace {

/// Dispatch slots indexed by Isa.  Filled once: each level maps to the best
/// table actually compiled into this binary (AVX2 -> SSE2 -> scalar,
/// NEON -> scalar).  support::simd clamps the *active* level to the
/// hardware, so a compiled-in table is only reached when it can execute.
struct Slots {
  const KernelTable* t[support::simd::kIsaCount];

  Slots() noexcept {
    using support::simd::Isa;
    const KernelTable* scalar = detail::table_scalar();
    const KernelTable* base = detail::table_base();
    const KernelTable* avx2 = detail::table_avx2();

    const KernelTable* sse2 =
        (base != nullptr && base->isa == Isa::SSE2) ? base : scalar;
    const KernelTable* neon =
        (base != nullptr && base->isa == Isa::NEON) ? base : scalar;

    t[static_cast<std::size_t>(Isa::Scalar)] = scalar;
    t[static_cast<std::size_t>(Isa::SSE2)] = sse2;
    t[static_cast<std::size_t>(Isa::AVX2)] = avx2 != nullptr ? avx2 : sse2;
    t[static_cast<std::size_t>(Isa::NEON)] = neon;
  }
};

}  // namespace

const KernelTable& table_for(support::simd::Isa isa) noexcept {
  static const Slots slots;
  return *slots.t[static_cast<std::size_t>(isa)];
}

std::size_t sobel_tile_cols(std::size_t w, std::size_t band_rows) noexcept {
  if (w <= 2) return w;
  // Per-CPU L2 size, read once; 256 KiB when the C library cannot tell.
  static const std::size_t l2 = [] {
    const long bytes = ::sysconf(_SC_LEVEL2_CACHE_SIZE);
    return bytes > 0 ? static_cast<std::size_t>(bytes) : 256 * 1024;
  }();
  // One strip touches (band_rows + 2) input rows and band_rows output rows,
  // each tile_cols bytes wide; budget half the L2 so the rest of the task's
  // working set does not evict the halo.
  const std::size_t rows = band_rows == 0 ? 1 : band_rows;
  const std::size_t cols = (l2 / 2) / (2 * rows + 2);
  return std::clamp<std::size_t>(cols, 64, w);
}

namespace {

template <typename RowFn>
void sobel_band(RowFn row_fn, std::uint8_t* res, const std::uint8_t* img,
                std::size_t w, std::size_t y0, std::size_t y1,
                std::size_t tile_cols) {
  if (w <= 2 || y0 >= y1) return;
  if (tile_cols == 0) tile_cols = sobel_tile_cols(w, y1 - y0);
  for (std::size_t x0 = 1; x0 < w - 1; x0 += tile_cols) {
    const std::size_t x1 = std::min(x0 + tile_cols, w - 1);
    for (std::size_t y = y0; y < y1; ++y) row_fn(res, img, w, y, x0, x1);
  }
}

}  // namespace

void sobel_band_accurate(std::uint8_t* res, const std::uint8_t* img,
                         std::size_t w, std::size_t y0, std::size_t y1,
                         std::size_t tile_cols) {
  sobel_band(table().sobel_row_accurate, res, img, w, y0, y1, tile_cols);
}

void sobel_band_approx(std::uint8_t* res, const std::uint8_t* img,
                       std::size_t w, std::size_t y0, std::size_t y1,
                       std::size_t tile_cols) {
  sobel_band(table().sobel_row_approx, res, img, w, y0, y1, tile_cols);
}

}  // namespace sigrt::apps::kern
