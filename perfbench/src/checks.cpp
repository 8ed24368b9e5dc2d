#include "checks.hpp"

#include <cmath>
#include <cstring>

namespace pb {

std::uint64_t fnv1a(const void* data, std::size_t bytes, std::uint64_t h) noexcept {
  const auto* p = static_cast<const std::uint8_t*>(data);
  for (std::size_t i = 0; i < bytes; ++i) h = (h ^ p[i]) * 1099511628211ull;
  return h;
}

UnitCheck check_rows(const std::uint8_t* out, const std::uint8_t* acc,
                     const std::uint8_t* app, std::size_t w, std::size_t h) noexcept {
  UnitCheck c;
  for (std::size_t y = 1; y + 1 < h; ++y) {
    const std::size_t off = y * w + 1;
    const std::size_t n = w - 2;
    if (std::memcmp(out + off, acc + off, n) == 0) {
      ++c.accurate;
    } else if (std::memcmp(out + off, app + off, n) == 0) {
      ++c.approx;
    } else {
      ++c.wrong;
    }
  }
  return c;
}

UnitCheck check_leaves(const double* out, const double* acc, const double* app,
                       std::size_t n) noexcept {
  UnitCheck c;
  for (std::size_t i = 0; i < n; ++i) {
    if (out[i] == acc[i]) {
      ++c.accurate;
    } else if (out[i] == app[i]) {
      ++c.approx;
    } else {
      ++c.wrong;
    }
  }
  return c;
}

double relative_error(double x, double ref) noexcept {
  return std::fabs(x - ref) / std::fabs(ref);
}

void encode_tag(std::uint8_t* p, const RequestTag& tag) noexcept {
  std::memset(p, 0, kRequestPrefixBytes);
  std::memcpy(p, &tag.unit, sizeof tag.unit);
  std::memcpy(p + 4, &tag.input, sizeof tag.input);
  p[6] = tag.traced ? 1 : 0;
}

bool decode_tag(const std::uint8_t* p, std::size_t bytes, RequestTag* tag) noexcept {
  if (bytes < kRequestPrefixBytes) return false;
  std::memcpy(&tag->unit, p, sizeof tag->unit);
  std::memcpy(&tag->input, p + 4, sizeof tag->input);
  tag->traced = p[6] != 0;
  return true;
}

void encode_result(std::uint8_t* p, const BodyResult& r) noexcept {
  std::memcpy(p, &r.checksum, 8);
  std::memcpy(p + 8, &r.t0, 8);
  std::memcpy(p + 16, &r.t1, 8);
}

Verdict check_response(sigrt::net::Status status, const std::uint8_t* payload,
                       std::size_t bytes, std::uint64_t accurate_sum,
                       std::uint64_t approx_sum, BodyResult* result) noexcept {
  using sigrt::net::Status;
  if (status == Status::Shed || status == Status::Expired) {
    return bytes == 0 ? Verdict::Refused : Verdict::Wrong;
  }
  if (bytes != kResponsePayloadBytes) return Verdict::Wrong;
  std::memcpy(&result->checksum, payload, 8);
  std::memcpy(&result->t0, payload + 8, 8);
  std::memcpy(&result->t1, payload + 16, 8);
  if (status == Status::Ok && result->checksum == accurate_sum) return Verdict::Accurate;
  if (status == Status::OkApprox && result->checksum == approx_sum) return Verdict::Approx;
  return Verdict::Wrong;
}

}  // namespace pb
