#include "fairmove/nn/simd.h"

#include <iterator>

#include "fairmove/common/macros.h"

namespace fairmove::simd {

namespace {

constexpr const KernelTable* kCompiledTables[] = {
    &scalar::kTable,
#if defined(__x86_64__)
    &sse2::kTable,
    &avx2::kTable,
#elif defined(__aarch64__)
    &neon::kTable,
#endif
};

KernelTable WidestSupported() {
  for (size_t i = std::size(kCompiledTables); i-- > 1;) {
    if (HostSupports(*kCompiledTables[i])) return *kCompiledTables[i];
  }
  return scalar::kTable;
}

// A copy of the chosen table, so the test hook can swap it and kIsaName can
// name whichever one is in place.
KernelTable g_active = WidestSupported();

}  // namespace

const char* const& kIsaName = g_active.name;

const KernelTable& Kernels() { return g_active; }

std::span<const KernelTable* const> CompiledTables() {
  return kCompiledTables;
}

bool HostSupports(const KernelTable& table) {
#if defined(__x86_64__)
  if (&table == &avx2::kTable) {
    // Callable before libgcc's own initialiser has run: g_active is set
    // during static initialisation.
    __builtin_cpu_init();
    return __builtin_cpu_supports("avx2");
  }
#endif
  (void)table;
  return true;
}

ScopedKernelTableForTesting::ScopedKernelTableForTesting(
    const KernelTable& table)
    : previous_(g_active) {
  FM_CHECK(HostSupports(table))
      << "this host cannot run the " << table.name << " kernel table";
  g_active = table;
}

ScopedKernelTableForTesting::~ScopedKernelTableForTesting() {
  g_active = previous_;
}

}  // namespace fairmove::simd
