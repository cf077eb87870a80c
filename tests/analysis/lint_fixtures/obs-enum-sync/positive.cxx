// Fixture: the Cnt enum and its kCounterNames JSONL string table have
// drifted (three emission-relevant enumerators, two strings, one duplicated
// Hist name) -- all must be flagged.
#include <array>

enum class Cnt : unsigned {
    kGemmCalls,
    kLuFactorizations,
    kPropCacheHits,
    kCount
};

constexpr std::array<const char*, 2> kCounterNames = {
    "linalg.gemm.calls",
    "linalg.lu.factorizations",
};  // flagged: 3 enumerators vs 2 strings

enum class Hist : unsigned {
    kDesignWall,
    kIrbWall,
    kCount
};

constexpr std::array<const char*, 2> kHistNames = {
    "design.wall",
    "design.wall",
};  // flagged: duplicate JSONL key
