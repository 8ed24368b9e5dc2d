#include "apps/common.hpp"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <thread>

#include "energy/meter.hpp"
#include "support/timer.hpp"

namespace sigrt::apps {

namespace {

/// Optional stall watchdog: SIGRT_WATCHDOG=<seconds> dumps the runtime
/// state to stderr and aborts if a measured region makes no progress for
/// that long.  Diagnostic aid for scheduler/dependence bugs.
class StallWatchdog {
 public:
  StallWatchdog(const Runtime& rt) {
    const char* env = std::getenv("SIGRT_WATCHDOG");
    if (env == nullptr) return;
    const int limit = std::atoi(env);
    if (limit <= 0) return;
    thread_ = std::thread([this, &rt, limit] {
      std::uint64_t last = 0;
      int quiet = 0;
      while (!done_.load(std::memory_order_acquire)) {
        std::this_thread::sleep_for(std::chrono::seconds(1));
        const std::uint64_t now =
            rt.stats().accurate + rt.stats().approximate + rt.stats().dropped;
        quiet = now == last ? quiet + 1 : 0;
        last = now;
        if (quiet >= limit && !done_.load(std::memory_order_acquire)) {
          std::fprintf(stderr, "sigrt watchdog: no progress for %ds\n", limit);
          rt.dump_state(stderr);
          std::abort();
        }
      }
    });
  }

  ~StallWatchdog() {
    done_.store(true, std::memory_order_release);
    if (thread_.joinable()) thread_.join();
  }

 private:
  std::atomic<bool> done_{false};
  std::thread thread_;
};

}  // namespace

RuntimeConfig runtime_config_for(const CommonOptions& common) {
  RuntimeConfig rc;
  rc.workers = common.workers;
  rc.policy = policy_for(common.variant);
  rc.gtb_buffer = common.gtb_buffer;
  rc.lqh_levels = common.lqh_levels;
  rc.steal = common.steal;
  rc.unreliable_workers = common.unreliable_workers;
  rc.record_task_log = true;
  return rc;
}

void run_measured(const CommonOptions& common, RunResult& result,
                  const std::function<void(Runtime&)>& work) {
  Runtime rt(runtime_config_for(common));
  const StallWatchdog watchdog(rt);
  result.variant = to_string(common.variant);
  result.degree = to_string(common.degree);

  support::Stopwatch sw;
  const energy::Scope scope(rt.meter());
  sw.start();
  work(rt);
  rt.wait_all();
  sw.stop();

  result.time_s = sw.elapsed_s();
  result.energy_j = scope.joules();

  // Aggregate the accounting over every group that saw tasks.  Ratio diff
  // follows the paper's formula: the mean over groups of
  // |requested_i - provided_i|.
  std::uint64_t groups_used = 0;
  double diff_sum = 0.0;
  double requested_mass = 0.0;
  double inversed_mass = 0.0;
  for (const GroupReport& g : rt.all_group_reports()) {
    const std::uint64_t executed = g.accurate + g.approximate + g.dropped;
    if (executed == 0) continue;
    ++groups_used;
    result.tasks_total += executed;
    result.tasks_accurate += g.accurate;
    result.tasks_approximate += g.approximate;
    result.tasks_dropped += g.dropped;
    diff_sum += g.ratio_diff();
    requested_mass += g.mean_requested_ratio * static_cast<double>(executed);
    inversed_mass += g.inversion_fraction * static_cast<double>(executed);
  }
  if (result.tasks_total > 0) {
    const auto total = static_cast<double>(result.tasks_total);
    result.provided_ratio = static_cast<double>(result.tasks_accurate) / total;
    result.requested_ratio = requested_mass / total;
    result.inversion_fraction = inversed_mass / total;
  }
  if (groups_used > 0) {
    result.ratio_diff = diff_sum / static_cast<double>(groups_used);
  }
  result.steals = rt.stats().steals;
  if (result.time_s > 0.0) {
    result.tasks_per_sec =
        static_cast<double>(result.tasks_total) / result.time_s;
  }
}

}  // namespace sigrt::apps
