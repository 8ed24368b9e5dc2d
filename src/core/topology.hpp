// Cache/package topology discovery (hwloc-style, sysfs-backed) driving
// placement decisions across the runtime:
//
//   * steal order — workers steal nearest-first (SMT sibling, then
//     LLC-sharing cores, then same package, then remote sockets) instead
//     of uniformly at random, so a steal is a cache transfer before it is
//     a memory round trip;
//   * thread placement — the serve tier's dispatcher/poller counts
//     default to values sized from the discovered LLC-group count instead
//     of constants;
//   * kernel tiling — the per-CPU L2 size bounds the column-strip width
//     the Sobel row kernel tiles to (apps/sobel).
//
// The probe reads /sys/devices/system/cpu once and falls back to a flat
// single-socket model (hardware_concurrency CPUs, one LLC group) when
// sysfs is absent or partial — containers and non-Linux builds get sane
// defaults, never an error.  probe(root) takes the sysfs root as a
// parameter so tests can point it at a fabricated tree.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

namespace sigrt::topo {

/// One logical CPU's placement coordinates.  Ids are dense renumberings
/// (0..n-1 per field), not raw sysfs ids.
struct CpuInfo {
  unsigned cpu = 0;      ///< logical cpu number (sysfs cpuN)
  unsigned package = 0;  ///< socket
  unsigned core = 0;     ///< physical core (SMT siblings share one)
  unsigned llc = 0;      ///< last-level-cache sharing group
};

struct Topology {
  std::vector<CpuInfo> cpus;  ///< online CPUs, ascending cpu number
  unsigned packages = 1;
  unsigned cores = 1;
  unsigned llc_groups = 1;
  std::size_t l2_bytes = 0;   ///< per-CPU L2 size (0 = unknown)
  std::size_t llc_bytes = 0;  ///< shared LLC size (0 = unknown)
  bool from_sysfs = false;    ///< false: the flat fallback model

  [[nodiscard]] unsigned cpu_count() const noexcept {
    return static_cast<unsigned>(cpus.size());
  }

  /// Distance tier between two *workers* (0 = SMT siblings, 1 = shared
  /// LLC, 2 = same package, 3 = remote).  Workers are assumed resident on
  /// cpus[w % cpu_count()] — the runtime does not pin, so this is the
  /// scheduler's best placement estimate, and on a flat model every pair
  /// is tier 1.
  [[nodiscard]] unsigned worker_distance(unsigned a, unsigned b) const noexcept;

  /// Victim order for worker `self` out of `workers` total: every other
  /// worker exactly once, grouped by ascending worker_distance (ties in
  /// ring order from self+1, so same-tier victims still spread).
  [[nodiscard]] std::vector<unsigned> steal_order(unsigned self,
                                                  unsigned workers) const;

  /// First victim index in steal_order(self, ·) that is NOT near (tier
  /// >= 2): victims before it share a cache with the thief.  Equals the
  /// order's size when every victim is near.
  [[nodiscard]] std::size_t near_victims(unsigned self,
                                         unsigned workers) const;

  /// Serve-tier dispatcher thread count: one per LLC group, bounded by
  /// half the worker pool (dispatchers only route; workers execute).
  [[nodiscard]] unsigned recommended_dispatchers(
      unsigned workers) const noexcept;

  /// Net-frontend poller thread count: one per LLC group.
  [[nodiscard]] unsigned recommended_pollers() const noexcept;
};

/// Probes `sysfs_root` (e.g. "/sys") for cpu topology; returns the flat
/// fallback when the tree is missing or unparsable.
[[nodiscard]] Topology probe(const std::string& sysfs_root);

/// The flat single-socket model: `ncpu` CPUs, one package, one LLC group,
/// one core per CPU.
[[nodiscard]] Topology fallback(unsigned ncpu);

/// The host's topology, probed once (thread-safe, cached).
[[nodiscard]] const Topology& system_topology();

}  // namespace sigrt::topo
