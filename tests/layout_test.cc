#include "layout/layout.h"

#include <gtest/gtest.h>

#include <tuple>

#include "layout/invariants.h"

namespace ftms {
namespace {

TEST(ClusteredLayoutTest, Figure3Placement) {
  // Figure 3: D = 10, C = 5, two clusters; object X (id 0) has home
  // cluster 0: X0..X3 on disks 0..3, parity X0p on disk 4; the next group
  // X4..X7 on disks 5..8, X4p on disk 9.
  auto layout = ClusteredLayout::Create(10, 5).value();
  EXPECT_EQ(layout->num_clusters(), 2);
  EXPECT_EQ(layout->DataBlocksPerGroup(), 4);
  for (int t = 0; t < 4; ++t) {
    EXPECT_EQ(layout->DataLocation(0, t).disk, t);
  }
  EXPECT_EQ(layout->ParityLocation(0, 0).disk, 4);
  for (int t = 4; t < 8; ++t) {
    EXPECT_EQ(layout->DataLocation(0, t).disk, 5 + (t - 4));
  }
  EXPECT_EQ(layout->ParityLocation(0, 1).disk, 9);
  // Group 2 wraps back to cluster 0 (round-robin).
  EXPECT_EQ(layout->DataLocation(0, 8).disk, 0);
}

TEST(ClusteredLayoutTest, HomeClusterSpreadsObjects) {
  auto layout = ClusteredLayout::Create(20, 5).value();
  EXPECT_EQ(layout->HomeCluster(0), 0);
  EXPECT_EQ(layout->HomeCluster(1), 1);
  EXPECT_EQ(layout->HomeCluster(4), 0);
  EXPECT_EQ(layout->DataLocation(1, 0).cluster, 1);
}

TEST(ClusteredLayoutTest, RejectsBadGeometry) {
  EXPECT_FALSE(ClusteredLayout::Create(11, 5).ok());
  EXPECT_FALSE(ClusteredLayout::Create(10, 1).ok());
  EXPECT_FALSE(ClusteredLayout::Create(-5, 5).ok());
}

TEST(ImprovedBandwidthLayoutTest, Figure8Placement) {
  // Figure 8: 8 disks, clusters of 4 (C = 5); object X (id 0): X0..X3 on
  // disks 0..3 of cluster 0, parity X0p on a disk of cluster 1.
  auto layout = ImprovedBandwidthLayout::Create(8, 5).value();
  EXPECT_EQ(layout->num_clusters(), 2);
  EXPECT_EQ(layout->disks_per_cluster(), 4);
  for (int t = 0; t < 4; ++t) {
    EXPECT_EQ(layout->DataLocation(0, t).disk, t);
    EXPECT_EQ(layout->DataLocation(0, t).cluster, 0);
  }
  const BlockLocation parity = layout->ParityLocation(0, 0);
  EXPECT_EQ(parity.cluster, 1);
  EXPECT_GE(parity.disk, 4);
  EXPECT_LE(parity.disk, 7);
  EXPECT_TRUE(parity.is_parity);
}

TEST(ImprovedBandwidthLayoutTest, ParityRotatesOverNeighborDisks) {
  auto layout = ImprovedBandwidthLayout::Create(12, 5).value();
  // Successive groups of one object land on successive clusters, and the
  // parity disk index within the neighbor cluster rotates.
  bool saw_different_index = false;
  int first_index = layout->ParityLocation(0, 0).disk % 4;
  for (int64_t g = 1; g < 8; ++g) {
    if (layout->ParityLocation(0, g).disk % 4 != first_index) {
      saw_different_index = true;
    }
  }
  EXPECT_TRUE(saw_different_index);
}

TEST(ImprovedBandwidthLayoutTest, RejectsSingleCluster) {
  EXPECT_FALSE(ImprovedBandwidthLayout::Create(4, 5).ok());
  EXPECT_FALSE(ImprovedBandwidthLayout::Create(10, 5).ok());  // 10 % 4 != 0
}

TEST(LayoutFactoryTest, DispatchesOnScheme) {
  EXPECT_EQ(CreateLayout(Scheme::kStreamingRaid, 20, 5)
                .value()
                ->scheme_family(),
            Scheme::kStreamingRaid);
  EXPECT_EQ(CreateLayout(Scheme::kNonClustered, 20, 5)
                .value()
                ->scheme_family(),
            Scheme::kStreamingRaid);  // shared clustered layout
  EXPECT_EQ(CreateLayout(Scheme::kImprovedBandwidth, 20, 5)
                .value()
                ->scheme_family(),
            Scheme::kImprovedBandwidth);
}


TEST(NonStripedLayoutTest, GroupsStayOnHomeCluster) {
  // The striping-ablation layout: all groups of an object pinned to its
  // home cluster (used by bench_striping to demonstrate why the paper
  // stripes round-robin).
  auto layout = NonStripedLayout::Create(20, 5).value();
  for (int obj : {0, 1, 3}) {
    const int home = layout->HomeCluster(obj);
    for (int64_t g = 0; g < 12; ++g) {
      EXPECT_EQ(layout->GroupCluster(obj, g), home);
      for (const BlockLocation& loc : layout->GroupDataLocations(obj, g)) {
        EXPECT_EQ(loc.cluster, home);
      }
      EXPECT_EQ(layout->ParityLocation(obj, g).cluster, home);
    }
  }
  // Structural invariants still hold (no duplicate disks per group).
  EXPECT_TRUE(CheckNoDuplicateDisksInGroup(*layout, 5, 20).ok());
  EXPECT_TRUE(CheckGroupWithinCluster(*layout, 5, 20).ok());
}

// Property sweep: structural invariants hold for every scheme and a range
// of geometries (Observation 1 et al., see invariants.h).
class LayoutInvariants
    : public ::testing::TestWithParam<std::tuple<Scheme, int, int>> {};

TEST_P(LayoutInvariants, AllStructuralChecksPass) {
  const auto [scheme, c, clusters] = GetParam();
  const int disks = (scheme == Scheme::kImprovedBandwidth ? c - 1 : c) *
                    clusters;
  auto layout = CreateLayout(scheme, disks, c).value();

  constexpr int kObjects = 7;
  constexpr int64_t kGroups = 40;
  EXPECT_TRUE(
      CheckNoDuplicateDisksInGroup(*layout, kObjects, kGroups).ok());
  EXPECT_TRUE(CheckRoundRobinGroups(*layout, kObjects, kGroups).ok());
  if (scheme == Scheme::kImprovedBandwidth) {
    EXPECT_TRUE(CheckParityOnNextCluster(*layout, kObjects, kGroups).ok());
  } else {
    EXPECT_TRUE(CheckGroupWithinCluster(*layout, kObjects, kGroups).ok());
  }
  // Round-robin striping balances data over all data-role disks; over a
  // multiple of num_clusters groups the balance is exact.
  const int64_t balanced_groups = 10 * layout->num_clusters();
  EXPECT_TRUE(
      CheckDataLoadBalance(*layout, /*object_id=*/3, balanced_groups, 0)
          .ok());
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, LayoutInvariants,
    ::testing::Combine(::testing::Values(Scheme::kStreamingRaid,
                                         Scheme::kNonClustered,
                                         Scheme::kImprovedBandwidth),
                       ::testing::Values(2, 3, 5, 7, 10),
                       ::testing::Values(2, 4, 9)));

TEST(DualParityLayoutTest, RejectsClustersWiderThanTheQCode) {
  // C - 2 data disks per group; the Q code covers at most 255 of them.
  for (Scheme scheme : {Scheme::kStreamingRaid2, Scheme::kNonClustered2}) {
    EXPECT_TRUE(CreateLayout(scheme, 257, 257).ok());
    EXPECT_EQ(CreateLayout(scheme, 258, 258).status().code(),
              StatusCode::kInvalidArgument);
  }
}

// Dual-parity geometries (C >= 3): the shared structural checks plus the
// P/Q placement invariant.
class DualParityLayoutInvariants
    : public ::testing::TestWithParam<std::tuple<Scheme, int, int>> {};

TEST_P(DualParityLayoutInvariants, StructureAndParityPlacement) {
  const auto [scheme, c, clusters] = GetParam();
  auto layout = CreateLayout(scheme, c * clusters, c).value();
  ASSERT_EQ(layout->parity_blocks(), 2);
  constexpr int kObjects = 7;
  constexpr int64_t kGroups = 40;
  EXPECT_TRUE(
      CheckNoDuplicateDisksInGroup(*layout, kObjects, kGroups).ok());
  EXPECT_TRUE(CheckRoundRobinGroups(*layout, kObjects, kGroups).ok());
  EXPECT_TRUE(CheckGroupWithinCluster(*layout, kObjects, kGroups).ok());
  EXPECT_TRUE(CheckDualParityDisks(*layout, kObjects, kGroups).ok());
  const int64_t balanced_groups = 10 * layout->num_clusters();
  EXPECT_TRUE(
      CheckDataLoadBalance(*layout, /*object_id=*/3, balanced_groups, 0)
          .ok());
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, DualParityLayoutInvariants,
    ::testing::Combine(::testing::Values(Scheme::kStreamingRaid2,
                                         Scheme::kNonClustered2),
                       ::testing::Values(3, 5, 7, 10),
                       ::testing::Values(2, 4, 9)));

}  // namespace
}  // namespace ftms
