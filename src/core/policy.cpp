#include "core/policy.hpp"

#include "core/policy_agnostic.hpp"
#include "core/policy_gtb.hpp"
#include "core/policy_lqh.hpp"

namespace sigrt {

std::unique_ptr<Policy> make_policy(const RuntimeConfig& config) {
  switch (config.policy) {
    case PolicyKind::Agnostic:
      return std::make_unique<AgnosticPolicy>();
    case PolicyKind::GTB:
      return std::make_unique<GtbPolicy>(config.gtb_buffer);
    case PolicyKind::GTBMaxBuffer:
      return std::make_unique<GtbPolicy>(SIZE_MAX, /*max_buffer=*/true);
    case PolicyKind::LQH:
      return std::make_unique<LqhPolicy>(config.lqh_levels,
                                         std::max(1u, config.workers));
  }
  return std::make_unique<AgnosticPolicy>();
}

}  // namespace sigrt
