#include "calibrate.hpp"

#include <chrono>
#include <cmath>
#include <numeric>
#include <unordered_map>
#include <utility>

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;

constexpr std::size_t kSlots = std::size_t{1} << 24;  // 64 MiB of uint32
constexpr std::size_t kLoads = std::size_t{1} << 18;
constexpr int kChurnOps = 120000;

// The kernels' times on the reference machine (a 4-vCPU KVM guest, Intel
// Xeon, gcc 12, Release); see README.md.
constexpr double kReferenceLoadNs = 170.0;
constexpr double kReferenceChurnMs = 11.0;

std::uint64_t splitmix(std::uint64_t& x) {
  std::uint64_t z = (x += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

}  // namespace

Calibrator::Calibrator() : next_(kSlots) {
  // One random cycle through every slot (Sattolo's shuffle), so the chase
  // never settles into a short loop that stays in cache.
  std::iota(next_.begin(), next_.end(), 0u);
  std::uint64_t state = 0x5eedu;
  for (std::size_t i = kSlots - 1; i > 0; --i) {
    std::swap(next_[i], next_[splitmix(state) % i]);
  }
}

double Calibrator::chase_ns_per_load() {
  const auto t0 = Clock::now();
  std::uint32_t at = at_;
  for (std::size_t i = 0; i < kLoads; ++i) at = next_[at];
  const auto t1 = Clock::now();
  at_ = at;  // the next chase continues the cycle; also keeps the loads live
  return std::chrono::duration<double, std::nano>(t1 - t0).count() /
         static_cast<double>(kLoads);
}

double Calibrator::churn_ms() {
  // Small buffers keyed into a hash map, reassigned and erased at random:
  // the allocation pattern of per-session endpoint state.
  const auto t0 = Clock::now();
  std::unordered_map<std::uint64_t, std::vector<std::uint8_t>> map;
  std::uint64_t state = 0xc0ffeeu;
  for (int i = 0; i < kChurnOps; ++i) {
    const std::uint64_t x = splitmix(state);
    map[(x >> 20) % 4096].assign(64 + (x >> 50) % 256,
                                 static_cast<std::uint8_t>(i));
    if (i % 3 == 0) map.erase((x >> 30) % 4096);
  }
  sink_ += map.size();
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

double Calibrator::slowdown() {
  return std::sqrt(chase_ns_per_load() / kReferenceLoadNs *
                   (churn_ms() / kReferenceChurnMs));
}

}  // namespace perfbench
