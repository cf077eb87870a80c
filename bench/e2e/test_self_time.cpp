// Self-time union math of the traced run (self_time.hpp) on synthetic traces.

#include <gtest/gtest.h>

#include "self_time.hpp"

namespace qoc::bench {
namespace {

TEST(SelfTime, LeafSpanIsAllSelf) {
    const auto self = self_times_ns({{1, 0, 100, 50}});
    ASSERT_EQ(self.size(), 1u);
    EXPECT_EQ(self[0], 50u);
}

TEST(SelfTime, OverlappingCrossThreadChildrenCountOnce) {
    // Root [0, 100) on the main thread; three children that pool workers ran
    // concurrently: [10, 40), [20, 50) and [30, 45) overlap into [10, 50);
    // [70, 80) stands alone.  Covered: 40 + 10 = 50, so self = 50 (a sum of
    // child durations, 30 + 30 + 15 + 10 = 85, would give 15).
    const std::vector<SpanRec> spans{
        {1, 0, 0, 100}, {2, 1, 10, 30}, {3, 1, 20, 30}, {4, 1, 30, 15}, {5, 1, 70, 10},
    };
    const auto self = self_times_ns(spans);
    EXPECT_EQ(self[0], 50u);
    EXPECT_EQ(self[1], 30u);
    EXPECT_EQ(self[2], 30u);
}

TEST(SelfTime, ChildrenAreClippedToTheParent) {
    // A task reparented to a span that ended before the task finished: the
    // child [80, 150) covers only [80, 100) of its parent [50, 100).
    const std::vector<SpanRec> spans{{1, 0, 50, 50}, {2, 1, 80, 70}, {3, 1, 0, 60}};
    const auto self = self_times_ns(spans);
    EXPECT_EQ(self[0], 50u - 20u - 10u);
}

TEST(SelfTime, GrandchildrenDoNotReduceTheGrandparent) {
    // Only direct children count: the grandchild is inside the child anyway.
    const std::vector<SpanRec> spans{{1, 0, 0, 100}, {2, 1, 0, 40}, {3, 2, 10, 20}};
    const auto self = self_times_ns(spans);
    EXPECT_EQ(self[0], 60u);
    EXPECT_EQ(self[1], 20u);
    EXPECT_EQ(self[2], 20u);
}

TEST(SelfTime, UnknownParentIsIgnored) {
    // A span whose parent fell out of the trace (ring overwrite) is a root.
    const auto self = self_times_ns({{7, 99, 0, 10}});
    EXPECT_EQ(self[0], 10u);
}

TEST(SelfTime, ClippedUnionMergesTouchingIntervals) {
    std::vector<std::pair<std::uint64_t, std::uint64_t>> iv{{5, 10}, {0, 5}, {10, 12}, {20, 30}};
    EXPECT_EQ(clipped_union_ns(iv, 0, 25), 12u + 5u);
}

}  // namespace
}  // namespace qoc::bench
