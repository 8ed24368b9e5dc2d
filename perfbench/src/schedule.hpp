// Request sequence of the serve-closed workload.
//
// The client sends requests in this order, cycling through it; each names a
// request class and an input.  The sequence is a pure function of the seed,
// generated whole before timing starts, so the server's speed never changes
// what is asked of it, only how far into the sequence a run gets.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace pb {

struct Pick {
  std::uint8_t kind = 0;    ///< request class, in [0, kinds)
  std::uint16_t input = 0;  ///< input index, in [0, inputs)
};

/// `count` picks, classes and inputs uniform.
[[nodiscard]] std::vector<Pick> make_picks(std::uint64_t seed, std::size_t count,
                                           unsigned kinds, unsigned inputs);

}  // namespace pb
