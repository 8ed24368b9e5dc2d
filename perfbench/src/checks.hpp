// Output checks and the benchmark's wire payload format.
//
// Every workload checks what the program produced against answers computed
// before timing starts: listing1 and nested-dc against serial accurate and
// approximate references, unit by unit, and serve-closed against the
// checksum each response carries.  A unit that matches neither variant is a
// failure.
#pragma once

#include <cstddef>
#include <cstdint>

#include "net/protocol.hpp"

namespace pb {

/// FNV-1a, 64 bit.
[[nodiscard]] std::uint64_t fnv1a(const void* data, std::size_t bytes,
                                  std::uint64_t h = 1469598103934665603ull) noexcept;

/// Per-unit outcome counts of one program run.
struct UnitCheck {
  std::size_t accurate = 0;
  std::size_t approx = 0;
  std::size_t wrong = 0;
};

/// Listing 1 output: every interior row [1, h-1) over columns [1, w-1) must
/// equal the accurate or the approximate reference row.
[[nodiscard]] UnitCheck check_rows(const std::uint8_t* out, const std::uint8_t* acc,
                                   const std::uint8_t* app, std::size_t w,
                                   std::size_t h) noexcept;

/// Quadrature leaves: each value must equal the accurate or the approximate
/// reference value exactly (same code, same inputs, same arithmetic).
[[nodiscard]] UnitCheck check_leaves(const double* out, const double* acc,
                                     const double* app, std::size_t n) noexcept;

/// |x - ref| / |ref|.
[[nodiscard]] double relative_error(double x, double ref) noexcept;

// --- wire payloads ---------------------------------------------------------
//
// Request payload prefix (8 B): u32 unit id | u16 input | u8 traced | u8 0.
// Response payload (24 B): u64 checksum of the body's result | i64 body
// start | i64 body end (steady-clock ns; client and server share a process).

inline constexpr std::size_t kRequestPrefixBytes = 8;
inline constexpr std::size_t kResponsePayloadBytes = 24;

struct RequestTag {
  std::uint32_t unit = 0;
  std::uint16_t input = 0;
  bool traced = false;
};

void encode_tag(std::uint8_t* p, const RequestTag& tag) noexcept;
/// False when the payload is too short to carry a tag.
[[nodiscard]] bool decode_tag(const std::uint8_t* p, std::size_t bytes,
                              RequestTag* tag) noexcept;

struct BodyResult {
  std::uint64_t checksum = 0;
  std::int64_t t0 = 0;
  std::int64_t t1 = 0;
};

void encode_result(std::uint8_t* p, const BodyResult& r) noexcept;

enum class Verdict : std::uint8_t {
  Accurate,  ///< Ok, and the checksum is the accurate answer
  Approx,    ///< OkApprox, and the checksum is the approximate answer
  Refused,   ///< Shed or Expired, with no payload
  Wrong,     ///< anything else: wrong status, checksum or payload size
};

/// Checks one response against the precomputed answers for its input.
[[nodiscard]] Verdict check_response(sigrt::net::Status status,
                                     const std::uint8_t* payload, std::size_t bytes,
                                     std::uint64_t accurate_sum,
                                     std::uint64_t approx_sum,
                                     BodyResult* result) noexcept;

}  // namespace pb
