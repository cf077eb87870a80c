// Fixture: enum and name table in sync (kCount excluded), distinct
// non-empty names.
#include <array>

enum class Cnt : unsigned {
    kGemmCalls,
    kLuFactorizations,
    kCount
};

constexpr std::array<const char*, 2> kCounterNames = {
    "linalg.gemm.calls",
    "linalg.lu.factorizations",
};

enum class Hist : unsigned {
    kDesignWall,
    kIrbWall,
    kCount
};

constexpr std::array<const char*, 2> kHistNames = {
    "design.wall",
    "irb.wall",
};
