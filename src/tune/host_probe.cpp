#include "tune/host_probe.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "cpu/simd/isa.hpp"
#include "obs/counters.hpp"
#include "tune/hash.hpp"
#include "util/aligned_buffer.hpp"
#include "util/timer.hpp"

namespace ibchol::tune {

namespace {

// One sysfs read, trimmed; "" when the file is absent (non-Linux, or a
// container that masks /sys).
std::string read_sysfs(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "r");
  if (f == nullptr) return "";
  char buf[128] = {};
  const std::size_t got = std::fread(buf, 1, sizeof(buf) - 1, f);
  std::fclose(f);
  std::string s(buf, got);
  while (!s.empty() && (s.back() == '\n' || s.back() == ' ')) s.pop_back();
  return s;
}

// Cache sizes are reported like "32K" / "8M"; unsuffixed values are bytes
// (same convention as detect_llc_bytes in the chunk pipeline).
std::size_t parse_cache_size(const std::string& s) {
  if (s.empty()) return 0;
  char* end = nullptr;
  const unsigned long long v = std::strtoull(s.c_str(), &end, 10);
  std::size_t bytes = static_cast<std::size_t>(v);
  if (end != nullptr && (*end == 'K' || *end == 'k')) bytes <<= 10;
  if (end != nullptr && (*end == 'M' || *end == 'm')) bytes <<= 20;
  return bytes;
}

void read_cache_hierarchy(HostProfile& p) {
  for (int i = 0; i < 8; ++i) {
    const std::string base =
        "/sys/devices/system/cpu/cpu0/cache/index" + std::to_string(i) + "/";
    const std::string type = read_sysfs(base + "type");
    if (type.empty()) continue;
    const std::size_t bytes = parse_cache_size(read_sysfs(base + "size"));
    if (bytes == 0) continue;
    const int level =
        static_cast<int>(std::strtol(read_sysfs(base + "level").c_str(),
                                     nullptr, 10));
    if (type == "Instruction") continue;
    if (level == 1) p.l1d_bytes = std::max(p.l1d_bytes, bytes);
    if (level == 2) p.l2_bytes = std::max(p.l2_bytes, bytes);
    p.llc_bytes = std::max(p.llc_bytes, bytes);
    const std::string line = read_sysfs(base + "coherency_line_size");
    if (!line.empty()) {
      const int lb = static_cast<int>(std::strtol(line.c_str(), nullptr, 10));
      if (lb > 0) p.line_bytes = lb;
    }
  }
}

std::string read_cpu_name() {
  std::FILE* f = std::fopen("/proc/cpuinfo", "r");
  if (f == nullptr) return "";
  char line[512];
  std::string name;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::strncmp(line, "model name", 10) != 0) continue;
    const char* colon = std::strchr(line, ':');
    if (colon == nullptr) break;
    name = colon + 1;
    while (!name.empty() && (name.front() == ' ' || name.front() == '\t')) {
      name.erase(name.begin());
    }
    while (!name.empty() && (name.back() == '\n' || name.back() == ' ')) {
      name.pop_back();
    }
    break;
  }
  std::fclose(f);
  return name;
}

// Streaming-copy bandwidth: best-of-5 memcpy over buffers several times the
// typical LLC so the probe measures memory, not cache. Counts both the read
// and the write stream (what the pipeline's pack/unpack stages move).
double probe_copy_bandwidth() {
  constexpr std::size_t kElems = (8u << 20) / sizeof(float);  // 8 MiB each
  AlignedBuffer<float> src(kElems);
  AlignedBuffer<float> dst(kElems);
  std::memset(src.data(), 1, kElems * sizeof(float));
  std::memcpy(dst.data(), src.data(), kElems * sizeof(float));  // warm pages
  double best = 1e300;
  for (int rep = 0; rep < 5; ++rep) {
    Timer t;
    std::memcpy(dst.data(), src.data(), kElems * sizeof(float));
    best = std::min(best, t.seconds());
  }
  if (best <= 0.0) return 0.0;
  return 2.0 * static_cast<double>(kElems * sizeof(float)) / best;
}

// Vector FMA throughput, single thread: eight independent accumulators over
// an L1-resident array, autovectorized by the build's own -march flags (the
// same flags the interpreter's lane loops compile under). Counting an
// FMA as two flops.
double probe_fma_throughput() {
  constexpr int kElems = 4096;
  constexpr int kPasses = 2048;
  std::vector<float> x(kElems, 1.0000001f);
  float acc[8] = {1, 1, 1, 1, 1, 1, 1, 1};
  // One untimed pass warms the array and the frequency governor.
  for (int i = 0; i < kElems; i += 8) {
    for (int a = 0; a < 8; ++a) acc[a] = acc[a] * x[i + a] + 0.25f;
  }
  Timer t;
  for (int pass = 0; pass < kPasses; ++pass) {
    for (int i = 0; i < kElems; i += 8) {
      for (int a = 0; a < 8; ++a) acc[a] = acc[a] * x[i + a] + 0.25f;
    }
  }
  const double s = t.seconds();
  // Keep the accumulators observable so the loop cannot be elided.
  double sink = 0.0;
  for (const float a : acc) sink += a;
  if (s <= 0.0 || sink == -1.0) return 0.0;
  const double fmas = static_cast<double>(kPasses) * kElems;
  return 2.0 * fmas / s / 1e9;
}

}  // namespace

std::string HostProfile::fingerprint() const {
  std::string id = cpu_name;
  id += '|' + std::to_string(logical_cores);
  id += '|' + ibchol::to_string(isa);
  id += '|' + std::to_string(l1d_bytes);
  id += '|' + std::to_string(l2_bytes);
  id += '|' + std::to_string(llc_bytes);
  id += '|' + std::to_string(line_bytes);
  return to_hex16(fnv1a64(id));
}

HostProfile detect_host_profile(bool run_microprobes) {
  HostProfile p;
  p.cpu_name = read_cpu_name();
  const unsigned hc = std::thread::hardware_concurrency();
  p.logical_cores = hc == 0 ? 1 : static_cast<int>(hc);
  p.isa = resolve_simd_isa(SimdIsa::kAuto);
  read_cache_hierarchy(p);
  if (run_microprobes) {
    p.copy_bw_bytes = probe_copy_bandwidth();
    p.fma_gflops = probe_fma_throughput();
    IBCHOL_COUNT("tune.host_probe", 1);
  }
  return p;
}

const HostProfile& cached_host_profile() {
  static const HostProfile profile = detect_host_profile(true);
  return profile;
}

GpuSpec cpu_spec_from_profile(const HostProfile& profile) {
  GpuSpec s;
  s.name = "cpu:" + (profile.cpu_name.empty() ? std::string("unknown")
                                              : profile.cpu_name);
  s.sms = std::max(1, profile.logical_cores);
  // "Cores per SM" = fp32 SIMD lanes of the resolved tier: the model's
  // issue-rate terms then scale with vector width exactly as the
  // vectorized executor's throughput does.
  switch (profile.isa) {
    case SimdIsa::kAvx512: s.cores_per_sm = 16; break;
    case SimdIsa::kAvx2: s.cores_per_sm = 8; break;
    default: s.cores_per_sm = 1; break;
  }
  // Clock from the measured FMA rate (per-lane flops = 2·lanes·clock); a
  // failed probe falls back to a nominal 2 GHz server clock.
  s.clock_ghz = profile.fma_gflops > 0.0
                    ? profile.fma_gflops / (2.0 * s.cores_per_sm)
                    : 2.0;
  // Occupancy ceilings generous enough never to bind (see header).
  s.max_threads_per_sm = 2048;
  s.max_blocks_per_sm = 32;
  s.max_warps_per_sm = 64;
  s.regs_per_sm = 65536;
  s.max_regs_per_thread = 255;
  s.smem_per_sm_bytes = 64 * 1024;
  s.dram_bw_bytes = profile.copy_bw_bytes > 0.0 ? profile.copy_bw_bytes : 8e9;
  s.l2_bw_bytes = 4.0 * s.dram_bw_bytes;
  const std::size_t llc =
      profile.llc_bytes > 0 ? profile.llc_bytes : (8u << 20);
  s.l2_bytes = static_cast<int>(
      std::min<std::size_t>(llc, 1u << 30));
  s.line_bytes = profile.line_bytes > 0 ? profile.line_bytes : 64;
  s.sector_bytes = s.line_bytes / 2 > 0 ? s.line_bytes / 2 : 32;
  s.dram_latency_cycles = 300;
  s.icache_bytes = 32 * 1024;
  // Per-call dispatch overhead of the CPU substrate (an OpenMP team or a
  // service submit), far below a CUDA launch.
  s.launch_overhead_s = 5e-7;
  return s;
}

KernelModel calibrated_kernel_model(const HostProfile& profile) {
  return KernelModel(cpu_spec_from_profile(profile), ModelCalibration{});
}

}  // namespace ibchol::tune
