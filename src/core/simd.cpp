// simd.cpp — kernel-table dispatch. Detection runs once per process:
// compile-time opt-out (-DPROFISCHED_NO_SIMD=ON) and the PROFISCHED_SIMD=0
// environment knob both pin the scalar reference paths; otherwise the AVX2
// table is selected after a cpuid check (the AVX2 TU is the only one built
// with -mavx2, so the rest of the library stays baseline-ISA) and NEON is
// the aarch64 baseline. force_scalar() and override_kernels() are
// process-wide overrides the bench harness and equivalence tests flip to
// time/compare every path in one binary.
#include "core/simd.hpp"

#include <atomic>
#include <cstdlib>
#include <cstring>

#include "core/simd_lanes.hpp"

namespace profisched::simd {

const Kernels* avx2_kernels() noexcept;  // simd_avx2.cpp (nullptr off-x86)
const Kernels* neon_kernels() noexcept;  // simd_neon.cpp (nullptr off-aarch64)

namespace {

std::atomic<bool> g_force_scalar{false};
std::atomic<const Kernels*> g_override{nullptr};

bool env_disabled() noexcept {
  const char* v = std::getenv("PROFISCHED_SIMD");
  if (v == nullptr) return false;
  return std::strcmp(v, "0") == 0 || std::strcmp(v, "off") == 0 ||
         std::strcmp(v, "scalar") == 0;
}

const Kernels* detect() noexcept {
#if defined(PROFISCHED_NO_SIMD)
  return nullptr;
#else
  if (env_disabled()) return nullptr;
#if defined(__x86_64__) || defined(__i386__)
  if (__builtin_cpu_supports("avx2")) return avx2_kernels();
  return nullptr;
#else
  return neon_kernels();
#endif
#endif
}

const Kernels* detected() noexcept {
  static const Kernels* table = detect();
  return table;
}

}  // namespace

const Kernels* active() noexcept {
  if (g_force_scalar.load(std::memory_order_relaxed)) return nullptr;
  const Kernels* o = g_override.load(std::memory_order_relaxed);
  return o != nullptr ? o : detected();
}

void force_scalar(bool on) noexcept { g_force_scalar.store(on, std::memory_order_relaxed); }

void override_kernels(const Kernels* table) noexcept {
  g_override.store(table, std::memory_order_relaxed);
}

const char* backend_name() noexcept {
  const Kernels* k = detected();
  return k != nullptr ? k->name : "scalar";
}

const Kernels& scalar_lane_kernels() noexcept {
  static const Kernels table = detail::make_kernels<detail::ScalarBackend>("scalar-lanes");
  return table;
}

}  // namespace profisched::simd
