// Steady-state allocation audit of the typed packet engine.
//
// The engine's contract: after a first (cold) run sizes the scratch --
// event heap and lanes, packet pool, channel arrays -- a warm run()
// performs ZERO heap allocations per event; the only per-run allocations
// are the returned Result (one completion vector).  Asserted here with a counting
// global operator new: the warm-run allocation delta must be a small
// constant, and -- the per-event part -- must not change when the event
// count quadruples.
//
// This test lives in its own binary because the operator new/delete
// replacement is global to the process.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <vector>

#include "sim/adaptive.hpp"
#include "sim/pktsim.hpp"
#include "topo/hyperx.hpp"
#include "topo/topology.hpp"

namespace {
std::atomic<long long> g_allocs{0};
}

void* operator new(std::size_t n) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) { return operator new(n); }
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(n);
}
void* operator new[](std::size_t n, const std::nothrow_t& t) noexcept {
  return operator new(n, t);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace hxsim::sim {
namespace {

using topo::ChannelId;
using topo::NodeId;
using topo::SwitchId;
using topo::Topology;

/// Allocations performed by `fn` (callable returning void).
template <typename Fn>
long long allocs_during(Fn&& fn) {
  const long long before = g_allocs.load(std::memory_order_relaxed);
  fn();
  return g_allocs.load(std::memory_order_relaxed) - before;
}

/// Streams between the two switches of a dumbbell; `segments` MTU-sized
/// packets per stream scale the event count without changing the message
/// count (and so without changing the per-run Result footprint).
std::vector<PktMessage> dumbbell_streams(const Topology& topo, ChannelId ab,
                                         std::int64_t segments) {
  std::vector<PktMessage> msgs;
  const std::int64_t mtu = PktSimConfig{}.link.mtu;
  for (NodeId i = 0; i < 4; ++i) {
    PktMessage m;
    m.src = i;
    m.dst = 4 + i;
    m.bytes = segments * mtu;
    m.path = {topo.terminal_up(i), ab, topo.terminal_down(4 + i)};
    msgs.push_back(std::move(m));
  }
  return msgs;
}

TEST(PktSimAllocations, WarmStaticRunIsAllocationFreePerEvent) {
  Topology topo("dumbbell");
  const SwitchId a = topo.add_switch();
  const SwitchId b = topo.add_switch();
  const auto [ab, ba] = topo.connect(a, b);
  (void)ba;
  for (int i = 0; i < 4; ++i) topo.add_terminal(a);
  for (int i = 0; i < 4; ++i) topo.add_terminal(b);

  const auto small = dumbbell_streams(topo, ab, 64);
  const auto large = dumbbell_streams(topo, ab, 256);

  PktSim sim(topo, PktSimConfig{});
  // Cold runs size the scratch for the largest workload.
  (void)sim.run(large);
  (void)sim.run(small);

  PktSim::Result r_small;
  PktSim::Result r_large;
  const long long warm_small = allocs_during([&] { r_small = sim.run(small); });
  const long long warm_large = allocs_during([&] { r_large = sim.run(large); });

  // 4x the events...
  ASSERT_GE(r_large.events_executed, 3 * r_small.events_executed);
  ASSERT_EQ(r_small.packets_delivered, r_small.packets_total);
  ASSERT_EQ(r_large.packets_delivered, r_large.packets_total);
  // ...same allocation count: nothing allocates per event.  The small
  // constant is the returned Result (completion vector and friends).
  EXPECT_EQ(warm_small, warm_large);
  EXPECT_LE(warm_small, 8);
}

TEST(PktSimAllocations, WarmHeapOverflowRunIsAllocationFreePerEvent) {
  // Two message sizes that are not MTU multiples: with the full segments
  // they schedule six distinct delays (serialization, and serialization
  // plus hop latency, per segment size), more than the event core has
  // FIFO lanes, so tail events that meet busy lanes overflow onto its
  // heap.  Each source queues four messages, alternating sizes with its
  // neighbour, so both tail sizes are in flight while full segments are.
  Topology topo("dumbbell");
  const SwitchId a = topo.add_switch();
  const SwitchId b = topo.add_switch();
  const auto [ab, ba] = topo.connect(a, b);
  (void)ba;
  for (int i = 0; i < 4; ++i) topo.add_terminal(a);
  for (int i = 0; i < 4; ++i) topo.add_terminal(b);

  const std::int64_t mtu = PktSimConfig{}.link.mtu;
  auto traffic = [&](std::int64_t segments) {
    std::vector<PktMessage> msgs;
    for (NodeId i = 0; i < 4; ++i) {
      for (std::int64_t k = 0; k < 4; ++k) {
        PktMessage m;
        m.src = i;
        m.dst = 4 + i;
        m.bytes = segments * mtu - ((i + k) % 2 == 0 ? 100 : 700);
        m.path = {topo.terminal_up(i), ab, topo.terminal_down(4 + i)};
        msgs.push_back(std::move(m));
      }
    }
    return msgs;
  };
  const auto small = traffic(16);
  const auto large = traffic(64);

  PktSim sim(topo, PktSimConfig{});
  (void)sim.run(large);
  (void)sim.run(small);

  PktSim::Result r_small;
  PktSim::Result r_large;
  const long long warm_small = allocs_during([&] { r_small = sim.run(small); });
  const long long warm_large = allocs_during([&] { r_large = sim.run(large); });

  ASSERT_GE(r_large.events_executed, 3 * r_small.events_executed);
  ASSERT_EQ(r_small.packets_delivered, r_small.packets_total);
  ASSERT_EQ(r_large.packets_delivered, r_large.packets_total);
  EXPECT_EQ(warm_small, warm_large);
  EXPECT_LE(warm_small, 8);
}

TEST(PktSimAllocations, WarmAdaptiveRunIsAllocationFreePerEvent) {
  const topo::HyperX hx(topo::small_hyperx_params());
  const DalRouter dal(hx);
  PktSimConfig cfg;
  cfg.adaptive = &dal;

  const auto n = hx.topo().num_terminals();
  auto traffic = [&](std::int64_t segments) {
    std::vector<PktMessage> msgs;
    const std::int64_t mtu = cfg.link.mtu;
    for (NodeId i = 0; i < 16; ++i) {
      PktMessage m;  // path-less: routed per hop by DAL
      m.src = i % n;
      m.dst = (i * 7 + 3) % n;
      if (m.src == m.dst) m.dst = (m.dst + 1) % n;
      m.bytes = segments * mtu;
      msgs.push_back(std::move(m));
    }
    return msgs;
  };
  const auto small = traffic(16);
  const auto large = traffic(64);

  PktSim sim(hx.topo(), cfg);
  (void)sim.run(large);
  (void)sim.run(small);

  PktSim::Result r_small;
  PktSim::Result r_large;
  const long long warm_small = allocs_during([&] { r_small = sim.run(small); });
  const long long warm_large = allocs_during([&] { r_large = sim.run(large); });

  ASSERT_GE(r_large.events_executed, 3 * r_small.events_executed);
  ASSERT_EQ(r_small.packets_delivered, r_small.packets_total);
  ASSERT_EQ(r_large.packets_delivered, r_large.packets_total);
  EXPECT_EQ(warm_small, warm_large);
  EXPECT_LE(warm_small, 8);
}

}  // namespace
}  // namespace hxsim::sim
