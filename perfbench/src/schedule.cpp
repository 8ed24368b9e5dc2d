#include "schedule.hpp"

#include "support/rng.hpp"

namespace pb {

std::vector<Pick> make_picks(std::uint64_t seed, std::size_t count, unsigned kinds,
                             unsigned inputs) {
  sigrt::support::Xoshiro256 rng(seed ^ 0x0a11ca7e5c4edull);
  std::vector<Pick> out(count);
  for (Pick& p : out) {
    p.kind = static_cast<std::uint8_t>(rng.next() % kinds);
    p.input = static_cast<std::uint16_t>(rng.next() % inputs);
  }
  return out;
}

}  // namespace pb
