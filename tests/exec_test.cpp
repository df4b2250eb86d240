// Tests for the exec/ execution layer: thread-pool lifecycle, exception
// propagation, nested-region rejection, scratch arenas -- and the
// determinism guarantee the routing engines build on it: RouteResult from
// a 1-thread run must be byte-identical to an N-thread run on the paper
// fabrics.
#include <gtest/gtest.h>

#include <atomic>
#include <stdexcept>
#include <thread>
#include <vector>

#include "exec/exec.hpp"
#include "routing/dfsssp.hpp"
#include "routing/ftree.hpp"
#include "routing/sssp.hpp"
#include "routing/updown.hpp"
#include "sim/flowsim.hpp"
#include "topo/fat_tree.hpp"
#include "topo/hyperx.hpp"

namespace hxsim {
namespace {

using exec::ScratchArena;
using exec::ThreadPool;

// --- ThreadPool basics -------------------------------------------------------

TEST(ThreadPool, RunsEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.num_threads(), 4);
  constexpr std::int64_t kCount = 10'000;
  std::vector<std::atomic<std::int32_t>> hits(kCount);
  pool.parallel_for(kCount, [&](std::int64_t i, std::int32_t worker) {
    ASSERT_GE(worker, 0);
    ASSERT_LT(worker, 4);
    hits[static_cast<std::size_t>(i)].fetch_add(1);
  });
  for (std::int64_t i = 0; i < kCount; ++i)
    EXPECT_EQ(hits[static_cast<std::size_t>(i)].load(), 1) << i;
}

TEST(ThreadPool, SingleThreadRunsInlineOnCaller) {
  ThreadPool pool(1);
  const std::thread::id caller = std::this_thread::get_id();
  std::int64_t sum = 0;  // no atomics needed: everything runs inline
  pool.parallel_for(100, [&](std::int64_t i, std::int32_t worker) {
    EXPECT_EQ(worker, 0);
    EXPECT_EQ(std::this_thread::get_id(), caller);
    sum += i;
  });
  EXPECT_EQ(sum, 99 * 100 / 2);
}

TEST(ThreadPool, ZeroCountIsANoop) {
  ThreadPool pool(2);
  pool.parallel_for(0, [&](std::int64_t, std::int32_t) { FAIL(); });
}

TEST(ThreadPool, ReusableAcrossManyJobs) {
  ThreadPool pool(3);
  std::atomic<std::int64_t> total{0};
  for (int job = 0; job < 50; ++job)
    pool.parallel_for(97, [&](std::int64_t, std::int32_t) { ++total; });
  EXPECT_EQ(total.load(), 50 * 97);
}

TEST(ThreadPool, ShutdownJoinsIdleAndUsedPools) {
  // Destroying a pool that never ran a job must not hang or leak threads;
  // same for one destroyed right after a job.
  for (int i = 0; i < 20; ++i) {
    ThreadPool idle(4);
  }
  for (int i = 0; i < 20; ++i) {
    ThreadPool used(4);
    std::atomic<std::int32_t> n{0};
    used.parallel_for(8, [&](std::int64_t, std::int32_t) { ++n; });
    EXPECT_EQ(n.load(), 8);
  }
}

TEST(ThreadPool, PropagatesBodyException) {
  ThreadPool pool(4);
  EXPECT_THROW(
      pool.parallel_for(1000,
                        [&](std::int64_t i, std::int32_t) {
                          if (i == 137) throw std::runtime_error("boom");
                        }),
      std::runtime_error);
  // The pool survives a failed job.
  std::atomic<std::int32_t> n{0};
  pool.parallel_for(16, [&](std::int64_t, std::int32_t) { ++n; });
  EXPECT_EQ(n.load(), 16);
}

TEST(ThreadPool, ExceptionCancelsRemainingIndices) {
  ThreadPool pool(2);
  std::atomic<std::int64_t> executed{0};
  try {
    pool.parallel_for(1'000'000, [&](std::int64_t i, std::int32_t) {
      ++executed;
      if (i == 0) throw std::runtime_error("early");
    });
    FAIL() << "expected throw";
  } catch (const std::runtime_error&) {
  }
  // Cancellation is cooperative, but the vast majority must be skipped.
  EXPECT_LT(executed.load(), 1'000'000);
}

TEST(ThreadPool, RejectsNestedParallelFor) {
  ThreadPool outer(2);
  EXPECT_THROW(outer.parallel_for(4,
                                  [&](std::int64_t, std::int32_t) {
                                    ThreadPool inner(2);
                                    inner.parallel_for(
                                        4, [](std::int64_t, std::int32_t) {});
                                  }),
               std::logic_error);
}

TEST(ThreadPool, DefaultThreadsRoundTrip) {
  const std::int32_t before = exec::default_threads();
  exec::set_default_threads(3);
  EXPECT_EQ(exec::default_threads(), 3);
  ThreadPool pool(0);
  EXPECT_EQ(pool.num_threads(), 3);
  exec::set_default_threads(0);  // back to hardware default
  EXPECT_EQ(exec::default_threads(), exec::hardware_threads());
  EXPECT_THROW(exec::set_default_threads(-1), std::invalid_argument);
  exec::set_default_threads(before == exec::hardware_threads() ? 0 : before);
}

TEST(ScratchArena, SlotsAreDistinct) {
  ThreadPool pool(4);
  ScratchArena<std::vector<int>> arena(pool);
  EXPECT_EQ(arena.size(), 4);
  for (std::int32_t w = 0; w < 4; ++w) arena.local(w).push_back(w);
  for (std::int32_t w = 0; w < 4; ++w) {
    ASSERT_EQ(arena.local(w).size(), 1u);
    EXPECT_EQ(arena.local(w)[0], w);
  }
}

// --- Determinism: 1-thread vs N-thread engine output -------------------------

TEST(ExecDeterminism, SsspOnPaperHyperX) {
  const topo::HyperX hx(topo::paper_hyperx_params());  // 12x8, 672 nodes
  const auto lids =
      routing::LidSpace::consecutive(hx.topo().num_terminals(), 0);
  routing::SsspEngine serial(1);
  routing::SsspEngine parallel(4);
  EXPECT_TRUE(serial.compute(hx.topo(), lids) ==
              parallel.compute(hx.topo(), lids));
}

TEST(ExecDeterminism, DfssspOnPaperHyperX) {
  const topo::HyperX hx(topo::paper_hyperx_params());
  const auto lids =
      routing::LidSpace::consecutive(hx.topo().num_terminals(), 0);
  routing::DfssspEngine serial(8, 1);
  routing::DfssspEngine parallel(8, 4);
  EXPECT_TRUE(serial.compute(hx.topo(), lids) ==
              parallel.compute(hx.topo(), lids));
}

TEST(ExecDeterminism, FtreeOnPaperFatTree) {
  const topo::FatTree ft(topo::paper_fat_tree_params());  // 3-level tree
  const auto lids =
      routing::LidSpace::consecutive(ft.topo().num_terminals(), 0);
  routing::FtreeEngine serial(ft, 1);
  routing::FtreeEngine parallel(ft, 4);
  EXPECT_TRUE(serial.compute(ft.topo(), lids) ==
              parallel.compute(ft.topo(), lids));
}

TEST(ExecDeterminism, UpDownOnSmallHyperX) {
  const topo::HyperX hx(topo::small_hyperx_params());
  const auto lids =
      routing::LidSpace::consecutive(hx.topo().num_terminals(), 0);
  routing::UpDownEngine serial(-1, 1);
  routing::UpDownEngine parallel(-1, 4);
  EXPECT_TRUE(serial.compute(hx.topo(), lids) ==
              parallel.compute(hx.topo(), lids));
}

TEST(ExecDeterminism, SsspBatchIsThreadInvariantButBatchSensitive) {
  // The guarantee is "same batch size => same result at any thread
  // count"; a different batch size would be a different (documented)
  // algorithm, so the batch is the fixed SsspEngine::kBatch.  3 threads
  // split each batch unevenly.
  static_assert(routing::SsspEngine::kBatch == 8);
  const topo::HyperX hx(topo::small_hyperx_params());
  const auto lids =
      routing::LidSpace::consecutive(hx.topo().num_terminals(), 0);
  routing::SsspEngine t1(1), t3(3), t4(4);
  const auto r1 = t1.compute(hx.topo(), lids);
  EXPECT_TRUE(r1 == t3.compute(hx.topo(), lids));
  EXPECT_TRUE(r1 == t4.compute(hx.topo(), lids));
}

// --- FlowSim batch solver ----------------------------------------------------

TEST(FlowSimBatch, MatchesPerSetFairRates) {
  const topo::HyperX hx(topo::small_hyperx_params());
  const auto lids =
      routing::LidSpace::consecutive(hx.topo().num_terminals(), 0);
  routing::DfssspEngine engine(8);
  const auto route = engine.compute(hx.topo(), lids);
  const std::int32_t nodes = hx.topo().num_terminals();

  std::vector<std::vector<sim::Flow>> sets;
  for (std::int32_t shift = 1; shift <= 5; ++shift) {
    std::vector<sim::Flow> round;
    for (std::int32_t i = 0; i < nodes; ++i) {
      auto path = route.tables.path(hx.topo(), lids, i,
                                    lids.base_lid((i + shift) % nodes));
      ASSERT_TRUE(path.ok);
      round.push_back(sim::Flow{std::move(path.channels), 1 << 20});
    }
    sets.push_back(std::move(round));
  }

  const sim::FlowSim sim(hx.topo());
  const auto batch1 = sim.solve_batch(sets, 1);
  const auto batch4 = sim.solve_batch(sets, 4);
  ASSERT_EQ(batch1.size(), sets.size());
  for (std::size_t s = 0; s < sets.size(); ++s) {
    EXPECT_EQ(batch1[s], sim.fair_rates(sets[s])) << "set " << s;
    EXPECT_EQ(batch1[s], batch4[s]) << "set " << s;
  }
}

}  // namespace
}  // namespace hxsim
