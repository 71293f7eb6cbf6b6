// Global allocation instrumentation backing the profiler's byte/count
// attribution (thread_alloc_counters, profiler.h).  The replacements are
// malloc/free-backed (every delete form frees what every new form
// allocated, so sanitizers stay coherent) and unconditionally bump the
// thread-local tally: two increments, cheap enough to leave on whenever
// telemetry is compiled in.  A -DGH_TELEMETRY=OFF build keeps the
// toolchain's stock operator new and a tally that stays zero.
//
// The hooks live alone in this file: a translation unit that also
// instantiates containers (say std::map in Profiler::report) lets GCC 12
// inline the replaced operator new against the sized delete and report
// -Wmismatched-new-delete in optimised builds.
#include <cstdint>
#include <cstdlib>
#include <new>

#include "telemetry/profiler.h"

namespace {

// Constant-initialised (no TLS guard) so the hooks below may touch them at
// any point, including during static initialisation.
thread_local std::uint64_t g_alloc_bytes = 0;
thread_local std::uint64_t g_alloc_count = 0;

}  // namespace

namespace greenhetero::telemetry {

ThreadAllocCounters thread_alloc_counters() {
  return ThreadAllocCounters{g_alloc_bytes, g_alloc_count};
}

}  // namespace greenhetero::telemetry

#if GH_TELEMETRY_ENABLED

namespace {

void* gh_counted_alloc(std::size_t size) noexcept {
  g_alloc_bytes += size;
  ++g_alloc_count;
  return std::malloc(size != 0 ? size : 1);
}

void* gh_counted_alloc_aligned(std::size_t size, std::size_t align) noexcept {
  g_alloc_bytes += size;
  ++g_alloc_count;
  // posix_memalign wants a power-of-two multiple of sizeof(void*);
  // operator new alignments are powers of two, so only the floor needs
  // raising.
  if (align < sizeof(void*)) align = sizeof(void*);
  void* p = nullptr;
  if (posix_memalign(&p, align, size != 0 ? size : 1) != 0) return nullptr;
  return p;
}

}  // namespace

void* operator new(std::size_t size) {
  void* p = gh_counted_alloc(size);
  if (p == nullptr) throw std::bad_alloc{};
  return p;
}

void* operator new[](std::size_t size) {
  void* p = gh_counted_alloc(size);
  if (p == nullptr) throw std::bad_alloc{};
  return p;
}

void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return gh_counted_alloc(size);
}

void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return gh_counted_alloc(size);
}

void* operator new(std::size_t size, std::align_val_t align) {
  void* p = gh_counted_alloc_aligned(size, static_cast<std::size_t>(align));
  if (p == nullptr) throw std::bad_alloc{};
  return p;
}

void* operator new[](std::size_t size, std::align_val_t align) {
  void* p = gh_counted_alloc_aligned(size, static_cast<std::size_t>(align));
  if (p == nullptr) throw std::bad_alloc{};
  return p;
}

void* operator new(std::size_t size, std::align_val_t align,
                   const std::nothrow_t&) noexcept {
  return gh_counted_alloc_aligned(size, static_cast<std::size_t>(align));
}

void* operator new[](std::size_t size, std::align_val_t align,
                     const std::nothrow_t&) noexcept {
  return gh_counted_alloc_aligned(size, static_cast<std::size_t>(align));
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete(void* p, std::align_val_t,
                     const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::align_val_t,
                       const std::nothrow_t&) noexcept {
  std::free(p);
}

#endif  // GH_TELEMETRY_ENABLED
