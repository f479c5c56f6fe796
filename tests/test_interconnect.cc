// Interconnect unit tests: routes and closed-form critical-path costs per topology, and
// the StepBandwidths values the partition search feeds into
// PartitionOptions::step_bandwidths.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "tofu/interconnect/interconnect.h"

namespace tofu {
namespace {

constexpr double kB = 1e9;    // 1 GB/s baseline link bandwidth
constexpr double kLat = 1e-6; // 1 us per-hop wire latency
constexpr double kTol = 1e-12;

TrafficMatrix SingleFlow(int n, int src, int dst, double bytes) {
  TrafficMatrix tm(n);
  tm.At(src, dst) = bytes;
  return tm;
}

// ---------------------------------------------------------------------- topologies

TEST(Interconnect, RingRoutesFollowTheDirection) {
  auto net = MakeRing(8, kB, kLat);
  EXPECT_EQ(net->num_workers(), 8);
  EXPECT_EQ(net->name(), "ring");
  EXPECT_EQ(net->Route(0, 1).size(), 1u);
  EXPECT_EQ(net->Route(0, 3).size(), 3u);
  // Unidirectional: going "backwards" wraps the long way around.
  EXPECT_EQ(net->Route(3, 0).size(), 5u);
  EXPECT_EQ(net->Route(7, 0).size(), 1u);
  EXPECT_TRUE(net->Route(4, 4).empty());
}

TEST(Interconnect, RingSingleFlowPaysNarrowestHopPlusLatency) {
  auto net = MakeRing(8, kB, kLat);
  const double b = 1e6;
  // One hop: bytes/bw + 1 hop of latency.
  EXPECT_NEAR(net->TransferSeconds(SingleFlow(8, 0, 1, b)), b / kB + kLat, kTol);
  // Two hops: same serial bytes (store-and-forward pipelines), two hops of latency.
  EXPECT_NEAR(net->TransferSeconds(SingleFlow(8, 0, 2, b)), b / kB + 2 * kLat, kTol);
}

TEST(Interconnect, RingNeighborTrafficIsContentionFree) {
  auto net = MakeRing(8, kB, kLat);
  const double b = 1e6;
  TrafficMatrix tm(8);
  for (int i = 0; i < 8; ++i) {
    tm.At(i, (i + 1) % 8) = b;
  }
  // All eight flows use disjoint links: same cost as a single flow.
  EXPECT_NEAR(net->TransferSeconds(tm), b / kB + kLat, kTol);
}

TEST(Interconnect, RingLongRangeFlowsCongestSharedLinks) {
  auto net = MakeRing(4, kB, kLat);
  const double b = 1e6;
  TrafficMatrix tm(4);
  tm.At(0, 2) = b;  // links 0,1
  tm.At(1, 3) = b;  // links 1,2
  // Link 1 carries both flows: congestion 2b/B beats each flow's b/B + 2 hops.
  EXPECT_NEAR(net->TransferSeconds(tm), 2 * b / kB, kTol);
}

TEST(Interconnect, FullMeshChargesEgressAndIngressPorts) {
  auto net = MakeFullMesh(4, kB, kLat);
  EXPECT_EQ(net->name(), "fullmesh");
  EXPECT_EQ(net->Route(0, 1).size(), 2u);  // egress(0), ingress(1)
  const double b = 1e6;
  EXPECT_NEAR(net->TransferSeconds(SingleFlow(4, 0, 1, b)), b / kB + 2 * kLat, kTol);
  // Disjoint pairs never contend.
  TrafficMatrix disjoint(4);
  disjoint.At(0, 1) = b;
  disjoint.At(2, 3) = b;
  EXPECT_NEAR(net->TransferSeconds(disjoint), b / kB + 2 * kLat, kTol);
  // Two flows out of one worker serialize on its egress port.
  TrafficMatrix fanout(4);
  fanout.At(0, 1) = b;
  fanout.At(0, 2) = b;
  EXPECT_NEAR(net->TransferSeconds(fanout), 2 * b / kB, kTol);
}

TEST(Interconnect, HierarchyCrossGroupFlowsSerializeOnTheUplink) {
  const double leaf = 4e9, uplink = 1e9;
  auto net = MakeHierarchy(2, 2, leaf, uplink, kLat);
  EXPECT_EQ(net->name(), "hierarchy");
  EXPECT_EQ(net->num_workers(), 4);
  EXPECT_EQ(net->Route(0, 1).size(), 2u);  // intra-group: leaf up, leaf down
  EXPECT_EQ(net->Route(0, 2).size(), 4u);  // cross-group adds both uplinks
  const double b = 1e6;
  EXPECT_NEAR(net->TransferSeconds(SingleFlow(4, 0, 1, b)), b / leaf + 2 * kLat, kTol);
  EXPECT_NEAR(net->TransferSeconds(SingleFlow(4, 0, 2, b)), b / uplink + 4 * kLat, kTol);
  // Both cross-group flows of group 0 share uplink-up[0]: 2b serializes on it.
  TrafficMatrix cross(4);
  cross.At(0, 2) = b;
  cross.At(1, 3) = b;
  EXPECT_NEAR(net->TransferSeconds(cross), 2 * b / uplink, kTol);
}

TEST(Interconnect, FingerprintsSeparateTopologiesAndParameters) {
  EXPECT_NE(MakeRing(8, kB)->Fingerprint(), MakeRing(8, 2 * kB)->Fingerprint());
  EXPECT_NE(MakeRing(8, kB)->Fingerprint(), MakeRing(4, kB)->Fingerprint());
  EXPECT_NE(MakeRing(8, kB)->Fingerprint(), MakeFullMesh(8, kB)->Fingerprint());
  EXPECT_NE(MakeHierarchy(2, 4, kB, kB)->Fingerprint(),
            MakeHierarchy(4, 2, kB, kB)->Fingerprint());
  EXPECT_EQ(MakeRing(8, kB, kLat)->Fingerprint(), MakeRing(8, kB, kLat)->Fingerprint());
}

// ------------------------------------------------------------------ step bandwidths

TEST(Interconnect, StepTrafficSumsToTotalBytes) {
  auto net = MakeHierarchy(2, 4, kB, kB / 4, kLat);
  const std::vector<int> factors = {2, 2, 2};
  for (size_t step = 0; step < factors.size(); ++step) {
    EXPECT_NEAR(net->StepTraffic(factors, step, 3e6).Total(), 3e6, 1e-6);
  }
}

TEST(Interconnect, MeshStepBandwidthsAreUniform) {
  // A symmetric port-limited mesh prices every recursive step identically, so the
  // factor-ordering search sees exactly the scalar-bandwidth landscape.
  auto net = MakeFullMesh(8, kB, kLat);
  const std::vector<double> bw = net->StepBandwidths({2, 2, 2});
  ASSERT_EQ(bw.size(), 3u);
  // Worst port per unit of traffic carries 1/8 of the bytes at every step.
  EXPECT_NEAR(bw[0], 8 * kB, 1e-3);
  EXPECT_NEAR(bw[1], 8 * kB, 1e-3);
  EXPECT_NEAR(bw[2], 8 * kB, 1e-3);
}

TEST(Interconnect, HierarchyStepZeroIsUplinkBound) {
  // The first 2-way step splits the machine across the two groups: half of all traffic
  // crosses each uplink, so the effective bandwidth collapses to 2 * uplink. Later
  // steps stay group-local on the leaf links.
  const double leaf = kB, uplink = kB / 4;
  auto net = MakeHierarchy(2, 4, leaf, uplink, kLat);
  const std::vector<double> bw = net->StepBandwidths({2, 2, 2});
  ASSERT_EQ(bw.size(), 3u);
  EXPECT_NEAR(bw[0], 2 * uplink, 1e-3);
  EXPECT_NEAR(bw[1], 8 * leaf, 1e-3);
  EXPECT_NEAR(bw[2], 8 * leaf, 1e-3);
  EXPECT_LT(bw[0], bw[1]);
}

TEST(Interconnect, StepBandwidthsShiftWithFactorPlacement) {
  // 12 workers, hierarchy 3x4: the 3-way factor crossing the groups is uplink-bound
  // wherever it lands, and it lands on different steps in different orderings -- the
  // signal the factor-ordering search in partition/recursive.cc optimizes over.
  auto net = MakeHierarchy(3, 4, kB, kB / 4, kLat);
  const std::vector<double> coarse_first = net->StepBandwidths({3, 2, 2});
  const std::vector<double> coarse_last = net->StepBandwidths({2, 2, 3});
  ASSERT_EQ(coarse_first.size(), 3u);
  ASSERT_EQ(coarse_last.size(), 3u);
  // With the 3-way split first, step 0 is exactly the group boundary (uplink-bound);
  // the later 2-way steps stay on the leaf links and are strictly faster.
  EXPECT_LT(coarse_first[0], coarse_first[1]);
  EXPECT_LT(coarse_first[0], coarse_first[2]);
  // Orderings are genuinely different landscapes, not a permutation-invariant scalar.
  EXPECT_NE(coarse_first, coarse_last);
}

}  // namespace
}  // namespace tofu
