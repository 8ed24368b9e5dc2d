// Ablation: NTC (unreliable) cores — the paper's §6 future work realized.
//
// Sobel at several ratios on 4 workers, converting 0/1/2 of them into
// near-threshold-voltage cores that only run approximate tasks.  The model
// charges NTC busy time ~30% of nominal dynamic power, so energy drops as
// more approximate work lands there; with a fault plan armed the quality
// cost of unreliability becomes visible (faulted tasks drop their rows).
// The NTC silent failure is the fault framework's TaskCorrupt site, so
// the fault rows need a build with SIGRT_FAULT_INJECTION on.
#include <cstdio>

#include "apps/sobel.hpp"
#include "fault/fault.hpp"
#include "support/table.hpp"

int main() {
  using namespace sigrt::apps;

  sigrt::support::Table t({"ratio", "ntc_workers", "fault_rate", "time_s",
                           "energy_j", "PSNR_dB", "dropped"});

  for (const double ratio : {0.8, 0.3}) {
    for (const unsigned ntc : {0u, 1u, 2u}) {
      for (const double fault : {0.0, 0.1}) {
        if (ntc == 0 && fault > 0.0) continue;  // faults need NTC workers
        sobel::Options o;
        o.width = 512;
        o.height = 512;
        o.repeats = 1;  // keep each fault visible in the final image
        o.common.variant = Variant::GTBMaxBuffer;
        o.common.workers = 4;
        o.common.unreliable_workers = ntc;
        o.ratio_override = ratio;
        // Armed around the run only: approximate rows executed on an NTC
        // worker drop with probability `fault`.
        sigrt::fault::FaultPlan plan;
        plan.seed = o.common.seed;
        plan.with(sigrt::fault::Site::TaskCorrupt, fault);
        if (fault > 0.0) sigrt::fault::arm(plan);
        const RunResult r = sobel::run(o);
        sigrt::fault::disarm();
        t.row()
            .cell(ratio, 2)
            .cell(static_cast<std::size_t>(ntc))
            .cell(fault, 2)
            .cell(r.time_s, 4)
            .cell(r.energy_j, 2)
            .cell(r.quality_aux, 1)
            .cell(static_cast<std::size_t>(r.tasks_dropped));
      }
    }
  }

  t.print("[ablation:ntc] unreliable-core extension (Sobel, GTB MaxBuffer)");
  std::printf("expected shape: at a fixed ratio, NTC workers cut the *dynamic*\n"
              "energy of approximate rows (~0.3x power) at equal quality, and\n"
              "faults drop rows, trading further energy for PSNR (§6).\n"
              "caveat: on a host with fewer physical cores than workers the\n"
              "threads timeshare one CPU, so the makespan (static-power) term\n"
              "can mask the dynamic saving — compare the dropped/PSNR columns\n"
              "for the significance story, and see ablation_dvfs for the\n"
              "power-model arithmetic in isolation.\n");
  return 0;
}
