// Golden digests of the paper planes' routing output.
//
// The thread-count tests and the fuzz audit compare the code with itself: a
// change to the VL placement that still yields *a* valid layering passes
// them.  The committed constants below pin the exact output of every
// PaperSystem plane -- each LFT entry, each VL entry, num_vls_used and
// unreachable_entries -- so a rewrite of the routing internals (the
// Pearce-Kelly DAG behind DFSSSP and PARX in particular) must reproduce
// the tables bit for bit.  A deliberate routing change updates the
// constants in the same commit and says why.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>

#include "core/demand.hpp"
#include "workloads/paper_system.hpp"

namespace hxsim::workloads {
namespace {

/// 64-bit FNV-1a over the raw bytes of each added value.
class Fnv1a {
 public:
  template <typename T>
  void add(const T& value) {
    unsigned char bytes[sizeof(T)];
    std::memcpy(bytes, &value, sizeof(T));
    for (const unsigned char b : bytes) {
      hash_ ^= b;
      hash_ *= 1099511628211ULL;
    }
  }
  [[nodiscard]] std::uint64_t value() const noexcept { return hash_; }

 private:
  std::uint64_t hash_ = 14695981039346656037ULL;
};

std::uint64_t route_digest(const routing::RouteResult& route) {
  Fnv1a d;
  const routing::ForwardingTables& tables = route.tables;
  d.add(tables.num_switches());
  d.add(tables.max_lid());
  for (topo::SwitchId sw = 0; sw < tables.num_switches(); ++sw)
    for (routing::Lid lid = 0; lid <= tables.max_lid(); ++lid) {
      d.add(tables.next(sw, lid));
      d.add(route.vls.vl(sw, lid));
    }
  d.add(route.num_vls_used);
  d.add(route.unreachable_entries);
  return d.value();
}

/// The full-scale dual-plane system, built once per test process.
const PaperSystem& paper_system() {
  static const PaperSystem system;
  return system;
}

TEST(RoutingGolden, FatTreeFtree) {
  EXPECT_EQ(route_digest(paper_system().ft_ftree().route()),
            0x9372cba5b7c2690dULL);
}

TEST(RoutingGolden, FatTreeDfsssp) {
  EXPECT_EQ(route_digest(paper_system().ft_sssp().route()),
            0x490912c6dda97467ULL);
}

TEST(RoutingGolden, HyperXDfsssp) {
  EXPECT_EQ(route_digest(paper_system().hx_dfsssp().route()),
            0xfe7111a5034631a0ULL);
}

TEST(RoutingGolden, HyperXParxNoDemands) {
  EXPECT_EQ(route_digest(paper_system().hx_parx().route()),
            0xe54f0f742d8cea3aULL);
}

TEST(RoutingGolden, HyperXParxReroute) {
  // ablation_parx's synthetic demand: all pairs of a dense 28-node
  // allocation at weight 255, through the SAR re-route interface.
  const PaperSystem& system = paper_system();
  core::DemandMatrix demands(system.num_nodes());
  for (topo::NodeId s = 0; s < 28; ++s)
    for (topo::NodeId d = 0; d < 28; ++d)
      if (s != d) demands.set(s, d, 255);
  const mpi::Cluster rerouted = system.make_parx_cluster(demands);
  EXPECT_EQ(route_digest(rerouted.route()), 0x0da7a82d795faf75ULL);
}

}  // namespace
}  // namespace hxsim::workloads
