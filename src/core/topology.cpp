#include "core/topology.hpp"

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <thread>
#include <utility>

namespace sigrt::topo {

namespace {

/// Reads a small sysfs file into `out` (trailing whitespace stripped).
bool read_file(const std::string& path, std::string& out) {
  std::FILE* f = std::fopen(path.c_str(), "r");
  if (f == nullptr) return false;
  char buf[256];
  const std::size_t n = std::fread(buf, 1, sizeof buf - 1, f);
  std::fclose(f);
  buf[n] = '\0';
  out.assign(buf);
  while (!out.empty() &&
         std::isspace(static_cast<unsigned char>(out.back()))) {
    out.pop_back();
  }
  return true;
}

bool read_uint(const std::string& path, unsigned& out) {
  std::string s;
  if (!read_file(path, s) || s.empty()) return false;
  char* end = nullptr;
  const unsigned long v = std::strtoul(s.c_str(), &end, 10);
  if (end == s.c_str()) return false;
  out = static_cast<unsigned>(v);
  return true;
}

/// Parses a sysfs cpulist ("0-3,8,10-11") into cpu numbers.
std::vector<unsigned> parse_cpulist(const std::string& list) {
  std::vector<unsigned> cpus;
  const char* p = list.c_str();
  while (*p != '\0') {
    char* end = nullptr;
    const unsigned long lo = std::strtoul(p, &end, 10);
    if (end == p) break;
    unsigned long hi = lo;
    p = end;
    if (*p == '-') {
      hi = std::strtoul(p + 1, &end, 10);
      if (end == p + 1) break;
      p = end;
    }
    for (unsigned long c = lo; c <= hi && c - lo < 4096; ++c) {
      cpus.push_back(static_cast<unsigned>(c));
    }
    if (*p == ',') ++p;
  }
  return cpus;
}

/// Parses a sysfs cache size ("512K", "8192K", "1M") into bytes.
std::size_t parse_cache_size(const std::string& s) {
  char* end = nullptr;
  const unsigned long long v = std::strtoull(s.c_str(), &end, 10);
  if (end == s.c_str()) return 0;
  std::size_t bytes = static_cast<std::size_t>(v);
  if (*end == 'K' || *end == 'k') bytes <<= 10;
  else if (*end == 'M' || *end == 'm') bytes <<= 20;
  else if (*end == 'G' || *end == 'g') bytes <<= 30;
  return bytes;
}

}  // namespace

Topology fallback(unsigned ncpu) {
  Topology t;
  if (ncpu == 0) ncpu = 1;
  t.cpus.reserve(ncpu);
  for (unsigned c = 0; c < ncpu; ++c) t.cpus.push_back({c, 0, c, 0});
  t.packages = 1;
  t.cores = ncpu;
  t.llc_groups = 1;
  t.from_sysfs = false;
  return t;
}

Topology probe(const std::string& sysfs_root) {
  const std::string base = sysfs_root + "/devices/system/cpu";

  std::string online;
  std::vector<unsigned> cpu_ids;
  if (read_file(base + "/online", online)) {
    cpu_ids = parse_cpulist(online);
  } else {
    // No `online` file: scan cpuN directories by probing a per-cpu file.
    for (unsigned c = 0; c < 4096; ++c) {
      std::string tmp;
      if (!read_file(base + "/cpu" + std::to_string(c) +
                         "/topology/physical_package_id",
                     tmp)) {
        if (c > 0) break;  // dense numbering: first miss ends the scan
        return fallback(std::thread::hardware_concurrency());
      }
      cpu_ids.push_back(c);
    }
  }
  if (cpu_ids.empty()) return fallback(std::thread::hardware_concurrency());

  Topology t;
  t.from_sysfs = true;
  // Dense renumbering maps: raw sysfs id -> small dense id.
  std::map<unsigned, unsigned> package_ids;
  std::map<std::pair<unsigned, unsigned>, unsigned> core_ids;
  std::map<std::string, unsigned> llc_ids;

  for (unsigned c : cpu_ids) {
    const std::string cpu_dir = base + "/cpu" + std::to_string(c);
    unsigned raw_pkg = 0;
    unsigned raw_core = c;
    if (!read_uint(cpu_dir + "/topology/physical_package_id", raw_pkg) ||
        !read_uint(cpu_dir + "/topology/core_id", raw_core)) {
      return fallback(static_cast<unsigned>(cpu_ids.size()));
    }

    // Highest-level unified/data cache this CPU sees = its LLC group; a
    // level-2 entry also yields the per-CPU L2 size for kernel tiling.
    std::string llc_key;
    unsigned best_level = 0;
    for (unsigned idx = 0; idx < 16; ++idx) {
      const std::string cache_dir =
          cpu_dir + "/cache/index" + std::to_string(idx);
      unsigned level = 0;
      if (!read_uint(cache_dir + "/level", level)) break;
      std::string type;
      read_file(cache_dir + "/type", type);
      if (type == "Instruction") continue;
      std::string size_s;
      if (level == 2 && t.l2_bytes == 0 &&
          read_file(cache_dir + "/size", size_s)) {
        t.l2_bytes = parse_cache_size(size_s);
      }
      if (level >= best_level) {
        best_level = level;
        std::string shared;
        if (read_file(cache_dir + "/shared_cpu_list", shared)) {
          llc_key = shared;
        } else {
          llc_key = "cpu" + std::to_string(c);  // private cache
        }
        if (read_file(cache_dir + "/size", size_s)) {
          t.llc_bytes = parse_cache_size(size_s);
        }
      }
    }
    if (llc_key.empty()) {
      // No cache directory at all: group LLC by package.
      llc_key = "pkg" + std::to_string(raw_pkg);
    }

    CpuInfo info;
    info.cpu = c;
    info.package = package_ids.emplace(raw_pkg, (unsigned)package_ids.size())
                       .first->second;
    info.core = core_ids
                    .emplace(std::make_pair(raw_pkg, raw_core),
                             (unsigned)core_ids.size())
                    .first->second;
    info.llc =
        llc_ids.emplace(llc_key, (unsigned)llc_ids.size()).first->second;
    t.cpus.push_back(info);
  }

  std::sort(t.cpus.begin(), t.cpus.end(),
            [](const CpuInfo& a, const CpuInfo& b) { return a.cpu < b.cpu; });
  t.packages = std::max<unsigned>(1, static_cast<unsigned>(package_ids.size()));
  t.cores = std::max<unsigned>(1, static_cast<unsigned>(core_ids.size()));
  t.llc_groups = std::max<unsigned>(1, static_cast<unsigned>(llc_ids.size()));
  return t;
}

const Topology& system_topology() {
  static const Topology t = probe("/sys");
  return t;
}

unsigned Topology::worker_distance(unsigned a, unsigned b) const noexcept {
  const unsigned n = cpu_count();
  if (n == 0) return 1;
  const CpuInfo& x = cpus[a % n];
  const CpuInfo& y = cpus[b % n];
  if (x.cpu == y.cpu) return 0;  // oversubscribed: same assumed CPU
  if (x.package == y.package && x.core == y.core) return 0;  // SMT siblings
  if (x.llc == y.llc) return 1;
  if (x.package == y.package) return 2;
  return 3;
}

std::vector<unsigned> Topology::steal_order(unsigned self,
                                            unsigned workers) const {
  std::vector<unsigned> order;
  if (workers <= 1) return order;
  order.reserve(workers - 1);
  for (unsigned tier = 0; tier <= 3; ++tier) {
    // Ring order from self+1 within each tier keeps same-tier thieves from
    // all converging on the same victim.
    for (unsigned off = 1; off < workers; ++off) {
      const unsigned v = (self + off) % workers;
      if (worker_distance(self, v) == tier) order.push_back(v);
    }
  }
  return order;
}

std::size_t Topology::near_victims(unsigned self, unsigned workers) const {
  const std::vector<unsigned> order = steal_order(self, workers);
  std::size_t near = 0;
  while (near < order.size() && worker_distance(self, order[near]) < 2) {
    ++near;
  }
  return near;
}

unsigned Topology::recommended_dispatchers(unsigned workers) const noexcept {
  if (workers <= 1) return 1;
  return std::clamp(llc_groups, 1u, std::max(1u, workers / 2));
}

unsigned Topology::recommended_pollers() const noexcept {
  return std::max(1u, llc_groups);
}

}  // namespace sigrt::topo
