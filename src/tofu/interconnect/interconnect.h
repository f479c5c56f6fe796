// Heterogeneous interconnect cost models (ROADMAP item 2).
//
// DeviceTopology's per-level scalar bandwidths price a transfer as bytes/bandwidth --
// fine for a uniform fabric, wrong for the clusters the paper targets: rings,
// full-meshes, and oversubscribed hierarchies, where *contention on shared links*, not
// summed bytes, decides transfer time ("It's the Critical Path!", PAPERS.md). This
// module prices communication from a traffic matrix over a concrete link graph:
//
//   * every topology reduces to a set of directed links (bandwidth each) plus a fixed
//     route -- an ordered link list -- per (src, dst) worker pair;
//   * the analytic cost of a traffic matrix is the classic congestion/dilation
//     critical-path bound: max over links of (total bytes routed through the link /
//     its bandwidth), joined by max with the slowest single flow (its bytes over the
//     narrowest link on its path, plus per-hop latency). This is a true lower bound on
//     any schedule, and the event simulator's link-level queueing
//     (interconnect/sim_bridge.h) validates it is also *achievable* within a small
//     constant -- the differential harness in tests/test_interconnect_diff.cc.
//
// The search consumes this through StepBandwidths(): the effective bytes/s one
// recursive partition step experiences, computed by pricing the step's group-local
// all-to-all pattern. Feeding those into PartitionOptions::step_bandwidths makes the
// factor-ordering search in partition/recursive.cc optimize real transfer time (within
// one step every transfer crosses the same link, so a scalar bandwidth cannot change the
// DP argmin; the step DP never sees it -- StepFold::Append prices the chosen step -- so
// the per-step DP stays bit-identical, which is what keeps uniform-topology plans
// byte-identical to the pre-interconnect goldens).
#ifndef TOFU_INTERCONNECT_INTERCONNECT_H_
#define TOFU_INTERCONNECT_INTERCONNECT_H_

#include <memory>
#include <string>
#include <vector>

namespace tofu {

// Bytes each worker sends each other worker (row-major src * n + dst; the diagonal is
// ignored). The unit every Interconnect costing entry point takes.
struct TrafficMatrix {
  int num_workers = 0;
  std::vector<double> bytes;

  TrafficMatrix() = default;
  explicit TrafficMatrix(int n)
      : num_workers(n), bytes(static_cast<size_t>(n) * static_cast<size_t>(n), 0.0) {}

  double& At(int src, int dst) {
    return bytes[static_cast<size_t>(src) * static_cast<size_t>(num_workers) +
                 static_cast<size_t>(dst)];
  }
  double At(int src, int dst) const {
    return bytes[static_cast<size_t>(src) * static_cast<size_t>(num_workers) +
                 static_cast<size_t>(dst)];
  }
  // Total off-diagonal bytes.
  double Total() const;
};

// A concrete interconnect: workers, directed links, one fixed route per worker pair.
// Instances are immutable and shared (DeviceTopology holds a shared_ptr); build them
// with the factories below. All costing is data-driven off the link graph, so the
// analytic model and the event-sim lowering can never disagree about the hardware.
class Interconnect {
 public:
  struct Links {
    std::vector<double> bandwidth;   // bytes/s per directed link
    std::vector<std::string> name;   // debugging / reports, parallel to bandwidth
    double hop_latency_s = 0.0;      // wire latency charged once per hop
  };

  int num_workers() const { return num_workers_; }
  const Links& links() const { return links_; }
  // Ordered link ids a byte crosses from src to dst; src == dst is empty.
  const std::vector<int>& Route(int src, int dst) const;
  // Human name ("ring", "fullmesh", "hierarchy") and the deterministic string folded
  // into DeviceTopology::Fingerprint (hence the Session plan-cache key).
  const std::string& name() const { return name_; }
  const std::string& Fingerprint() const { return fingerprint_; }

  // Analytic critical-path estimate for delivering the whole matrix at once:
  //   max( max_l load(l)/bw(l),  max_flow bytes/min-bw-on-path + latency * hops ).
  double TransferSeconds(const TrafficMatrix& traffic) const;
  // Same bound without the latency term: linear in bytes, which makes the implied
  // effective bandwidth (bytes / seconds) payload-independent. What StepBandwidths
  // inverts.
  double BandwidthSeconds(const TrafficMatrix& traffic) const;

  // Effective bytes/s for each recursive partition step of `factors` (canonical order,
  // product == num_workers): step i splits each of the prod(factors[0..i)) contiguous
  // worker groups into factors[i] subgroups, and its traffic is modeled as a uniform
  // all-to-all between same-group workers of different subgroups. The returned value is
  // total-bytes / BandwidthSeconds of that unit pattern -- a contention-aware effective
  // bandwidth the existing `weighted bytes / bandwidth` step costing consumes directly.
  std::vector<double> StepBandwidths(const std::vector<int>& factors) const;

  // The same group-local all-to-all pattern StepBandwidths prices, scaled so its total
  // is `total_bytes`. Shared with the sim bridge so the analytic step estimate and the
  // simulated critical path price the identical traffic.
  TrafficMatrix StepTraffic(const std::vector<int>& factors, size_t step,
                            double total_bytes) const;

  Interconnect(std::string name, std::string fingerprint, int num_workers, Links links,
               std::vector<std::vector<int>> routes);

 private:
  std::string name_;
  std::string fingerprint_;
  int num_workers_ = 0;
  Links links_;
  std::vector<std::vector<int>> routes_;  // routes_[src * n + dst]
};

// Unidirectional ring: link i carries i -> (i+1) % n at `link_bandwidth`; a transfer to
// a worker d hops away crosses d links. Nearest-neighbour traffic (ring allreduce,
// halo exchange) is contention-free; long-range traffic congests every link it crosses.
std::shared_ptr<const Interconnect> MakeRing(int num_workers, double link_bandwidth,
                                             double hop_latency_s = 0.0);

// Full mesh with per-worker port limits: every worker has one egress and one ingress
// link of `port_bandwidth` (an NVLink/PCIe-port-style NIC constraint); a transfer
// crosses exactly [egress(src), ingress(dst)]. Concurrent flows from (or into) one
// worker serialize on its port; disjoint pairs never contend.
std::shared_ptr<const Interconnect> MakeFullMesh(int num_workers, double port_bandwidth,
                                                 double hop_latency_s = 0.0);

// Two-level oversubscribed hierarchy: `groups` switches of `workers_per_group` workers.
// Each worker has a full-duplex leaf link (`leaf_bandwidth`) to its group switch; each
// switch has a full-duplex uplink (`uplink_bandwidth`) to the root. Intra-group
// transfers cross [leaf-up(src), leaf-down(dst)]; cross-group ones add the two uplinks.
// uplink_bandwidth < workers_per_group * leaf_bandwidth models oversubscription: every
// cross-group byte of a group serializes on its shared uplink.
std::shared_ptr<const Interconnect> MakeHierarchy(int groups, int workers_per_group,
                                                  double leaf_bandwidth,
                                                  double uplink_bandwidth,
                                                  double hop_latency_s = 0.0);

}  // namespace tofu

#endif  // TOFU_INTERCONNECT_INTERCONNECT_H_
