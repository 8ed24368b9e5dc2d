// Minimal grayscale image container with PGM I/O and deterministic synthetic
// generators.  Sobel and DCT (the paper's image benchmarks, §4.1) operate on
// these images; Figures 1 and 3 are regenerated as PGM files.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace sigrt::support {

/// Row-major 8-bit grayscale image.
class Image {
 public:
  Image() = default;
  Image(std::size_t width, std::size_t height, std::uint8_t fill = 0)
      : width_(width), height_(height), pixels_(width * height, fill) {}

  [[nodiscard]] std::size_t width() const noexcept { return width_; }
  [[nodiscard]] std::size_t height() const noexcept { return height_; }
  [[nodiscard]] std::size_t size() const noexcept { return pixels_.size(); }
  [[nodiscard]] bool empty() const noexcept { return pixels_.empty(); }

  [[nodiscard]] std::uint8_t& at(std::size_t x, std::size_t y) noexcept {
    return pixels_[y * width_ + x];
  }
  [[nodiscard]] std::uint8_t at(std::size_t x, std::size_t y) const noexcept {
    return pixels_[y * width_ + x];
  }

  [[nodiscard]] std::uint8_t* data() noexcept { return pixels_.data(); }
  [[nodiscard]] const std::uint8_t* data() const noexcept { return pixels_.data(); }

  [[nodiscard]] std::uint8_t* row(std::size_t y) noexcept {
    return pixels_.data() + y * width_;
  }
  [[nodiscard]] const std::uint8_t* row(std::size_t y) const noexcept {
    return pixels_.data() + y * width_;
  }

  [[nodiscard]] const std::vector<std::uint8_t>& pixels() const noexcept {
    return pixels_;
  }
  [[nodiscard]] std::vector<std::uint8_t>& pixels() noexcept { return pixels_; }

  bool operator==(const Image& other) const = default;

 private:
  std::size_t width_ = 0;
  std::size_t height_ = 0;
  std::vector<std::uint8_t> pixels_;
};

/// Writes a binary (P5) PGM.  Returns false on I/O failure.
bool write_pgm(const Image& img, const std::string& path);

/// Reads a binary (P5) PGM with maxval <= 255.  Returns an empty image on
/// failure.
Image read_pgm(const std::string& path);

/// Deterministic synthetic test image: a mix of smooth gradients, concentric
/// rings and high-frequency texture.  Exercises both the low-frequency bands
/// DCT considers significant and the edges Sobel detects, so the synthetic
/// input is a faithful stand-in for the paper's photographic inputs, which
/// are not distributed with it.
Image synthetic_image(std::size_t width, std::size_t height,
                      std::uint64_t seed = 42);

/// Copies `src` into the quadrant of `dst` selected by (qx, qy) in {0,1}^2.
/// Used to assemble the four-quadrant comparison images of Figures 1 and 3.
void blit_quadrant(Image& dst, const Image& src, int qx, int qy);

}  // namespace sigrt::support
