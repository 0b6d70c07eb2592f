#include "alloc_count.hpp"

#include <cstdlib>
#include <new>

namespace perfbench::alloc {
namespace {

Counts g_counts;
Scope g_scope = Scope::kOther;

void* allocate(std::size_t n) {
  const auto s = static_cast<std::size_t>(g_scope);
  ++g_counts.calls[s];
  g_counts.bytes[s] += n;
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}

void* allocate_aligned(std::size_t n, std::align_val_t align) {
  const auto s = static_cast<std::size_t>(g_scope);
  ++g_counts.calls[s];
  g_counts.bytes[s] += n;
  const auto a = static_cast<std::size_t>(align);
  // aligned_alloc needs a size that is a multiple of the alignment.
  const std::size_t rounded = ((n == 0 ? 1 : n) + a - 1) / a * a;
  if (void* p = std::aligned_alloc(a, rounded)) return p;
  throw std::bad_alloc();
}

}  // namespace

const Counts& counts() noexcept { return g_counts; }
Scope current() noexcept { return g_scope; }

ScopeGuard::ScopeGuard(Scope scope) noexcept : saved_(g_scope) { g_scope = scope; }
ScopeGuard::~ScopeGuard() { g_scope = saved_; }

}  // namespace perfbench::alloc

using perfbench::alloc::allocate;
using perfbench::alloc::allocate_aligned;

// The replaceable base forms; the standard library's array and nothrow
// forms call these.
void* operator new(std::size_t n) { return allocate(n); }
void* operator new(std::size_t n, std::align_val_t a) { return allocate_aligned(n, a); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
