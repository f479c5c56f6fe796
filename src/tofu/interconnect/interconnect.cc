#include "tofu/interconnect/interconnect.h"

#include <algorithm>
#include <limits>

#include "tofu/util/logging.h"
#include "tofu/util/strings.h"

namespace tofu {

double TrafficMatrix::Total() const {
  double total = 0.0;
  for (int s = 0; s < num_workers; ++s) {
    for (int d = 0; d < num_workers; ++d) {
      if (s != d) {
        total += At(s, d);
      }
    }
  }
  return total;
}

Interconnect::Interconnect(std::string name, std::string fingerprint, int num_workers,
                           Links links, std::vector<std::vector<int>> routes)
    : name_(std::move(name)),
      fingerprint_(std::move(fingerprint)),
      num_workers_(num_workers),
      links_(std::move(links)),
      routes_(std::move(routes)) {
  TOFU_CHECK_GE(num_workers_, 1);
  TOFU_CHECK_EQ(static_cast<int>(routes_.size()), num_workers_ * num_workers_);
  for (double b : links_.bandwidth) {
    TOFU_CHECK_GT(b, 0.0);
  }
  for (int s = 0; s < num_workers_; ++s) {
    for (int d = 0; d < num_workers_; ++d) {
      const std::vector<int>& route = routes_[static_cast<size_t>(s * num_workers_ + d)];
      TOFU_CHECK(s == d ? route.empty() : !route.empty())
          << "route " << s << "->" << d;
      for (int l : route) {
        TOFU_CHECK_GE(l, 0);
        TOFU_CHECK_LT(static_cast<size_t>(l), links_.bandwidth.size());
      }
    }
  }
}

const std::vector<int>& Interconnect::Route(int src, int dst) const {
  TOFU_CHECK_GE(src, 0);
  TOFU_CHECK_LT(src, num_workers_);
  TOFU_CHECK_GE(dst, 0);
  TOFU_CHECK_LT(dst, num_workers_);
  return routes_[static_cast<size_t>(src * num_workers_ + dst)];
}

namespace {

// The shared congestion/dilation bound. Both are lower bounds on any schedule: a link
// must transmit its whole load serially, and a flow cannot beat its narrowest hop (plus
// wire latency per hop when `with_latency`); the critical path is at least their max.
double CriticalPathSeconds(const Interconnect& net, const TrafficMatrix& traffic,
                           bool with_latency) {
  TOFU_CHECK_EQ(traffic.num_workers, net.num_workers());
  const Interconnect::Links& links = net.links();
  std::vector<double> load(links.bandwidth.size(), 0.0);
  double dilation = 0.0;
  for (int s = 0; s < traffic.num_workers; ++s) {
    for (int d = 0; d < traffic.num_workers; ++d) {
      const double b = s == d ? 0.0 : traffic.At(s, d);
      if (b <= 0.0) {
        continue;
      }
      const std::vector<int>& route = net.Route(s, d);
      double min_bw = std::numeric_limits<double>::infinity();
      for (int l : route) {
        load[static_cast<size_t>(l)] += b;
        min_bw = std::min(min_bw, links.bandwidth[static_cast<size_t>(l)]);
      }
      double flow = b / min_bw;
      if (with_latency) {
        flow += links.hop_latency_s * static_cast<double>(route.size());
      }
      dilation = std::max(dilation, flow);
    }
  }
  double congestion = 0.0;
  for (size_t l = 0; l < load.size(); ++l) {
    congestion = std::max(congestion, load[l] / links.bandwidth[l]);
  }
  return std::max(congestion, dilation);
}

}  // namespace

double Interconnect::TransferSeconds(const TrafficMatrix& traffic) const {
  return CriticalPathSeconds(*this, traffic, /*with_latency=*/true);
}

double Interconnect::BandwidthSeconds(const TrafficMatrix& traffic) const {
  return CriticalPathSeconds(*this, traffic, /*with_latency=*/false);
}

TrafficMatrix Interconnect::StepTraffic(const std::vector<int>& factors, size_t step,
                                        double total_bytes) const {
  const int n = num_workers_;
  TOFU_CHECK_LT(step, factors.size());
  int groups = 1;
  for (size_t i = 0; i < step; ++i) {
    groups *= factors[i];
  }
  const int ways = factors[step];
  TOFU_CHECK_GT(ways, 1);
  TOFU_CHECK_EQ(n % (groups * ways), 0)
      << "factors must divide the worker count level by level";
  const int block = n / groups;     // workers per group at this step
  const int sub = block / ways;     // workers per subgroup after the split
  TrafficMatrix traffic(n);
  // Uniform all-to-all between same-group workers of different subgroups, across every
  // group; pair count is the same in each group, so one global per-pair share.
  const std::int64_t pairs_per_group =
      static_cast<std::int64_t>(block) * (block - sub);
  const double per_pair =
      total_bytes / static_cast<double>(pairs_per_group * groups);
  for (int g = 0; g < groups; ++g) {
    const int base = g * block;
    for (int a = 0; a < block; ++a) {
      for (int b = 0; b < block; ++b) {
        if (a / sub != b / sub) {
          traffic.At(base + a, base + b) = per_pair;
        }
      }
    }
  }
  return traffic;
}

std::vector<double> Interconnect::StepBandwidths(const std::vector<int>& factors) const {
  std::vector<double> bandwidths;
  bandwidths.reserve(factors.size());
  for (size_t i = 0; i < factors.size(); ++i) {
    const double seconds = BandwidthSeconds(StepTraffic(factors, i, 1.0));
    TOFU_CHECK_GT(seconds, 0.0);
    bandwidths.push_back(1.0 / seconds);
  }
  return bandwidths;
}

std::shared_ptr<const Interconnect> MakeRing(int num_workers, double link_bandwidth,
                                             double hop_latency_s) {
  TOFU_CHECK_GE(num_workers, 2);
  const int n = num_workers;
  Interconnect::Links links;
  links.hop_latency_s = hop_latency_s;
  for (int i = 0; i < n; ++i) {
    links.bandwidth.push_back(link_bandwidth);
    links.name.push_back(StrFormat("ring[%d->%d]", i, (i + 1) % n));
  }
  std::vector<std::vector<int>> routes(static_cast<size_t>(n) * n);
  for (int s = 0; s < n; ++s) {
    for (int d = 0; d < n; ++d) {
      if (s == d) {
        continue;
      }
      std::vector<int>& route = routes[static_cast<size_t>(s * n + d)];
      for (int hop = s; hop != d; hop = (hop + 1) % n) {
        route.push_back(hop);
      }
    }
  }
  return std::make_shared<Interconnect>(
      "ring", StrFormat("ring:n=%d,bw=%.17g,lat=%.17g", n, link_bandwidth, hop_latency_s),
      n, std::move(links), std::move(routes));
}

std::shared_ptr<const Interconnect> MakeFullMesh(int num_workers, double port_bandwidth,
                                                 double hop_latency_s) {
  TOFU_CHECK_GE(num_workers, 2);
  const int n = num_workers;
  Interconnect::Links links;
  links.hop_latency_s = hop_latency_s;
  // Link 2i = worker i's egress port, 2i+1 = its ingress port.
  for (int i = 0; i < n; ++i) {
    links.bandwidth.push_back(port_bandwidth);
    links.name.push_back(StrFormat("egress[%d]", i));
    links.bandwidth.push_back(port_bandwidth);
    links.name.push_back(StrFormat("ingress[%d]", i));
  }
  std::vector<std::vector<int>> routes(static_cast<size_t>(n) * n);
  for (int s = 0; s < n; ++s) {
    for (int d = 0; d < n; ++d) {
      if (s != d) {
        routes[static_cast<size_t>(s * n + d)] = {2 * s, 2 * d + 1};
      }
    }
  }
  return std::make_shared<Interconnect>(
      "fullmesh",
      StrFormat("fullmesh:n=%d,bw=%.17g,lat=%.17g", n, port_bandwidth, hop_latency_s), n,
      std::move(links), std::move(routes));
}

std::shared_ptr<const Interconnect> MakeHierarchy(int groups, int workers_per_group,
                                                  double leaf_bandwidth,
                                                  double uplink_bandwidth,
                                                  double hop_latency_s) {
  TOFU_CHECK_GE(groups, 2);
  TOFU_CHECK_GE(workers_per_group, 1);
  const int n = groups * workers_per_group;
  Interconnect::Links links;
  links.hop_latency_s = hop_latency_s;
  // Links 2i/2i+1: worker i's leaf up/down; then per group g: up/down uplinks.
  for (int i = 0; i < n; ++i) {
    links.bandwidth.push_back(leaf_bandwidth);
    links.name.push_back(StrFormat("leaf-up[%d]", i));
    links.bandwidth.push_back(leaf_bandwidth);
    links.name.push_back(StrFormat("leaf-down[%d]", i));
  }
  const int uplink_base = 2 * n;
  for (int g = 0; g < groups; ++g) {
    links.bandwidth.push_back(uplink_bandwidth);
    links.name.push_back(StrFormat("uplink-up[%d]", g));
    links.bandwidth.push_back(uplink_bandwidth);
    links.name.push_back(StrFormat("uplink-down[%d]", g));
  }
  std::vector<std::vector<int>> routes(static_cast<size_t>(n) * n);
  for (int s = 0; s < n; ++s) {
    for (int d = 0; d < n; ++d) {
      if (s == d) {
        continue;
      }
      std::vector<int>& route = routes[static_cast<size_t>(s * n + d)];
      route.push_back(2 * s);  // leaf up
      const int gs = s / workers_per_group;
      const int gd = d / workers_per_group;
      if (gs != gd) {
        route.push_back(uplink_base + 2 * gs);      // source group's uplink, upward
        route.push_back(uplink_base + 2 * gd + 1);  // destination group's, downward
      }
      route.push_back(2 * d + 1);  // leaf down
    }
  }
  return std::make_shared<Interconnect>(
      "hierarchy",
      StrFormat("hierarchy:g=%d,m=%d,leaf=%.17g,up=%.17g,lat=%.17g", groups,
                workers_per_group, leaf_bandwidth, uplink_bandwidth, hop_latency_s),
      n, std::move(links), std::move(routes));
}

}  // namespace tofu
