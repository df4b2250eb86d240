// The four workloads.  The run seed drives placements, transport RNGs and
// the eBB/mpiGraph/packet traffic; it never drives the fabric's fault
// sample, which stays PaperSystem's default so every seed runs the
// paper's machine.  Why each workload exists is in README.md.
#include <array>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>

#include "hxbench.hpp"
#include "mpi/profile.hpp"
#include "replay.hpp"
#include "routing/dfsssp.hpp"
#include "sim/adaptive.hpp"
#include "stats/rng.hpp"
#include "workloads/apps.hpp"
#include "workloads/imb.hpp"

namespace hxbench {

namespace {

namespace core = hxsim::core;
namespace mpi = hxsim::mpi;
namespace routing = hxsim::routing;
namespace sim = hxsim::sim;
namespace stats = hxsim::stats;
namespace topo = hxsim::topo;
namespace workloads = hxsim::workloads;

using hxbench::digest_of;

mpi::Placement make_placement(mpi::PlacementKind kind, std::int32_t nranks,
                              std::int32_t machine, std::uint64_t seed) {
  stats::Rng rng(seed);
  return mpi::Placement::make(kind, nranks,
                              mpi::Placement::whole_machine(machine), rng);
}

std::uint64_t digest_of(double value) {
  Digest d;
  d.add(value);
  return d.value();
}

std::uint64_t digest_of(const hxsim::stats::Heatmap& map) {
  Digest d;
  for (std::size_t r = 0; r < map.rows(); ++r)
    for (std::size_t c = 0; c < map.cols(); ++c) d.add(map.at(r, c));
  return d.value();
}

/// Every LFT entry and VL of a routing, so a re-route is checked bit for bit.
std::uint64_t digest_of(const routing::RouteResult& route) {
  Digest d;
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

/// run_workload's arithmetic over replayed round times.
double app_runtime(const workloads::AppWorkload& app,
                   const std::vector<double>& round_times) {
  double comm = 0.0;
  for (const double t : round_times) comm += t;
  return static_cast<double>(app.iterations) *
         (app.compute_per_iteration + comm);
}

/// The three workloads on the dual-plane paper system.  setup() builds the
/// system (a few seconds: four full routings) and the op list.
class PaperWorkload : public Workload {
 public:
  PaperWorkload(std::uint64_t seed, bool smoke) : smoke_(smoke), seed_(seed) {
    options_.small_scale = smoke;
  }

  void setup() final {
    ops_.clear();
    system_.reset();  // one system alive at a time keeps peak RSS honest
    system_ = std::make_unique<workloads::PaperSystem>(options_);
    stats::Rng op_seeds(seed_);  // per-op seeds, drawn in op order
    build_ops(*system_, op_seeds);
  }

  void replay_setup(Tracer& tracer) const final {
    replay_paper_system(*system_, options_.fault_seed, tracer);
  }

 protected:
  virtual void build_ops(const workloads::PaperSystem& system,
                         stats::Rng& op_seeds) = 0;

  bool smoke_;

 private:
  std::uint64_t seed_;
  workloads::SystemOptions options_;
  std::unique_ptr<workloads::PaperSystem> system_;
};

/// IMB collectives through mpi::Transport: 5 configs x the capability node
/// counts x the six Figure-4 operations x {8 B, 128 KiB}.  8 B messages
/// take PARX's minimal-LID classes and 128 KiB its detour classes; above
/// workloads::kAllreduceRingThreshold, Allreduce runs the ring schedule
/// (the Figure-5a pattern), 2(n - 1) rounds of n flows.
class ImbSweep final : public PaperWorkload {
 public:
  using PaperWorkload::PaperWorkload;

 private:
  void build_ops(const workloads::PaperSystem& system,
                 stats::Rng& op_seeds) override {
    static constexpr std::array<std::int64_t, 2> kSizes{8, 128 * 1024};
    static_assert(kSizes[1] > workloads::kAllreduceRingThreshold,
                  "the large arm must reach the ring Allreduce");
    const std::int32_t machine = system.num_nodes();
    const std::vector<std::int32_t> counts =
        workloads::capability_node_counts(false, machine);
    const std::vector<workloads::ImbOp> imb_ops = workloads::imb_figure4_ops();

    // Schedules are pure data, shared by the five configs; the vector is
    // complete before any op points into it.
    schedules_.clear();
    for (const std::int32_t n : counts)
      for (const workloads::ImbOp op : imb_ops)
        for (const std::int64_t bytes : kSizes)
          schedules_.push_back(workloads::imb_schedule(op, n, bytes));

    for (const auto& config : system.configs()) {
      std::size_t schedule = 0;
      for (const std::int32_t n : counts)
        for (const workloads::ImbOp op : imb_ops)
          for (const std::int64_t bytes : kSizes) {
            const mpi::Cluster* cluster = config.cluster;
            const mpi::Schedule* rounds = &schedules_[schedule++];
            const mpi::Placement placement =
                make_placement(config.placement, n, machine, op_seeds.next());
            const std::uint64_t seed = op_seeds.next();
            ops_.push_back(Op{
                config.name + " / " + workloads::to_string(op) + " / " +
                    std::to_string(n) + " nodes / " + std::to_string(bytes) +
                    " B",
                [=](Tracer* tracer) {
                  const std::vector<double> times =
                      entry_point(tracer, {"mpi.execute_s"}, [&] {
                        mpi::Transport transport(*cluster, placement, seed);
                        return transport.execute_rounds(*rounds);
                      });
                  return Outcome{digest_of(times)};
                },
                "mpi.execute_s",
                [=](Tracer& tracer) {
                  return Outcome{digest_of(replay_execute_rounds(
                      *cluster, placement, seed, *rounds, tracer))};
                }});
          }
    }
  }

  std::vector<mpi::Schedule> schedules_;
};

/// The Figure-6 SAR loop: per application, record the communication
/// profile, re-route the PARX plane for it, and run the kernel on all five
/// configs.
class SarApps final : public PaperWorkload {
 public:
  using PaperWorkload::PaperWorkload;

 private:
  void build_ops(const workloads::PaperSystem& system,
                 stats::Rng& op_seeds) override {
    struct AppSize {
      workloads::AppId id;
      std::int32_t nodes;
    };
    const std::array<AppSize, 3> sizes =
        smoke_ ? std::array<AppSize, 3>{{{workloads::AppId::kSwfft, 64},
                                         {workloads::AppId::kMilc, 32},
                                         {workloads::AppId::kGraph500, 32}}}
               : std::array<AppSize, 3>{{{workloads::AppId::kSwfft, 512},
                                         {workloads::AppId::kMilc, 256},
                                         {workloads::AppId::kGraph500, 256}}};
    const std::int32_t machine = system.num_nodes();
    apps_.clear();
    apps_.reserve(sizes.size());  // ops point into apps_
    for (const AppSize& size : sizes) {
      const workloads::AppWorkload* app =
          &apps_.emplace_back(workloads::make_app(size.id, size.nodes));
      for (const auto& config : system.configs()) {
        const mpi::Placement placement = make_placement(
            config.placement, size.nodes, machine, op_seeds.next());
        const std::uint64_t seed = op_seeds.next();
        std::string name = app->name + " / " + std::to_string(size.nodes) +
                           " nodes / " + config.name;
        if (config.cluster != &system.hx_parx()) {
          const mpi::Cluster* cluster = config.cluster;
          ops_.push_back(Op{
              std::move(name),
              [=](Tracer* tracer) {
                return Outcome{digest_of(
                    run_app(tracer, *cluster, placement, seed, *app))};
              },
              "workloads.run_workload_s",
              [=](Tracer& tracer) {
                return Outcome{digest_of(app_runtime(
                    *app, replay_execute_rounds(*cluster, placement, seed,
                                                app->iteration_comm,
                                                tracer)))};
              }});
          continue;
        }
        // make_parx_cluster is one engine compute with no finer public
        // sub-call, so the replay re-executes run_workload on the cluster
        // the production call built; the routing itself is digested.
        const workloads::PaperSystem* sys = &system;
        ops_.push_back(Op{
            std::move(name),
            [=, this](Tracer* tracer) {
              const core::DemandMatrix demands =
                  entry_point(tracer, {"mpi.profile_s"}, [&] {
                    mpi::CommProfile profile(placement.num_ranks());
                    mpi::Transport::accumulate(app->iteration_comm, profile);
                    return profile.to_demands(placement, machine);
                  });
              mpi::Cluster plane = entry_point(
                  tracer, {"core.parx.sar_compute_s"},
                  [&] { return sys->make_parx_cluster(demands); });
              if (tracer != nullptr) tracer->add("core.parx.reroutes", 1.0);
              Digest d;
              d.add(digest_of(plane.route()));
              d.add(run_app(tracer, plane, placement, seed, *app));
              rerouted_.emplace(std::move(plane));
              return Outcome{d.value()};
            },
            "workloads.run_workload_s",
            [=, this](Tracer& tracer) {
              if (!rerouted_)
                throw std::logic_error("sar replay before its production run");
              Digest d;
              d.add(digest_of(rerouted_->route()));
              d.add(app_runtime(
                  *app, replay_execute_rounds(*rerouted_, placement, seed,
                                              app->iteration_comm, tracer)));
              return Outcome{d.value()};
            }});
      }
    }
  }

  /// run_workload is Transport::execute plus one multiply-add, so its time
  /// is also the transport's.
  static double run_app(Tracer* tracer, const mpi::Cluster& cluster,
                        const mpi::Placement& placement, std::uint64_t seed,
                        const workloads::AppWorkload& app) {
    return entry_point(
        tracer, {"workloads.run_workload_s", "mpi.execute_s"}, [&] {
          mpi::Transport transport(cluster, placement, seed);
          return workloads::run_workload(app, transport);
        });
  }

  std::vector<workloads::AppWorkload> apps_;
  /// The last PARX plane a production op built, for its replay.
  std::optional<mpi::Cluster> rerouted_;
};

/// Figure 1 and Figure 5c at full machine size on each config: mpiGraph's
/// 1 MiB shifts and eBB's random bisections, both through solve_batch.
class Bisection final : public PaperWorkload {
 public:
  using PaperWorkload::PaperWorkload;

 private:
  void build_ops(const workloads::PaperSystem& system,
                 stats::Rng& op_seeds) override {
    const std::int32_t machine = system.num_nodes();
    for (const auto& config : system.configs()) {
      const mpi::Cluster* cluster = config.cluster;
      const mpi::Placement placement =
          make_placement(config.placement, machine, machine, op_seeds.next());
      workloads::MpiGraphOptions graph;
      graph.seed = op_seeds.next();
      workloads::EbbOptions ebb;
      ebb.samples = smoke_ ? 64 : 1000;
      ebb.seed = op_seeds.next();
      ops_.push_back(Op{
          "mpiGraph / " + config.name,
          [=](Tracer* tracer) {
            return Outcome{
                digest_of(entry_point(tracer, {"workloads.mpigraph_s"}, [&] {
                  return workloads::mpigraph(*cluster, placement, machine,
                                             graph);
                }))};
          },
          "workloads.mpigraph_s",
          [=](Tracer& tracer) {
            return Outcome{digest_of(
                replay_mpigraph(*cluster, placement, machine, graph, tracer))};
          }});
      ops_.push_back(Op{
          "eBB / " + config.name,
          [=](Tracer* tracer) {
            return Outcome{
                digest_of(entry_point(tracer, {"workloads.ebb_s"}, [&] {
                  return workloads::effective_bisection_bandwidth(
                             *cluster, placement, machine, ebb)
                      .sample_means;
                }))};
          },
          "workloads.ebb_s",
          [=](Tracer& tracer) {
            return Outcome{digest_of(
                replay_ebb(*cluster, placement, machine, ebb, tracer))};
          }});
    }
  }
};

bool any_failed(std::span<const workloads::PktReplicationResult> results) {
  for (const workloads::PktReplicationResult& r : results)
    if (r.deadlock || r.truncated) return true;
  return false;
}

/// A shift that moves every message one switch along dimension 0 and j
/// switches along dimension 1, with j from the seed in [1, S1 - 2]: every
/// message then crosses both dimensions (also where dimension 0 wraps), so
/// the load shape, and with it the work, is the same for every seed.
std::int32_t seeded_shift(const topo::HyperXParams& params,
                          std::uint64_t seed) {
  const std::int32_t s0 = params.dims.at(0);
  const std::int32_t s1 = params.dims.at(1);
  const auto j =
      1 + static_cast<std::int32_t>(seed % static_cast<std::uint64_t>(s1 - 2));
  return params.terminals_per_switch * (1 + s0 * j);
}

/// workloads::run_pkt_sweep on an intact 12x8 HyperX: static DFSSSP and
/// DAL arms x {uniform, shift, hotspot} x 32 seeds of 256 KiB messages.
class PktSweep final : public Workload {
 public:
  PktSweep(std::uint64_t seed, bool smoke)
      : params_(smoke ? topo::small_hyperx_params()
                      : topo::paper_hyperx_params()),
        bytes_(smoke ? 16 * 1024 : 256 * 1024),
        seeds_(smoke ? 4 : 32),
        shift_(seeded_shift(params_, seed)) {}

  void setup() override {
    ops_.clear();
    fabric_.reset();
    fabric_ = std::make_unique<Fabric>(params_);

    std::array<workloads::PktPatternSpec, 3> patterns{};
    patterns[0].pattern = workloads::PktPattern::kUniformRandom;
    patterns[1].pattern = workloads::PktPattern::kShift;
    patterns[1].shift = shift_;
    patterns[2].pattern = workloads::PktPattern::kHotspot;
    workloads::PktSweepOptions options;
    options.seeds = seeds_;

    const topo::Topology* fabric = &fabric_->hx.topo();
    for (const workloads::PktRoutingArm& arm_ref : fabric_->arms)
      for (workloads::PktPatternSpec pattern : patterns) {
        pattern.bytes = bytes_;
        const workloads::PktRoutingArm* arm = &arm_ref;
        ops_.push_back(Op{
            arm->name + " / " + workloads::to_string(pattern.pattern),
            [=](Tracer* tracer) {
              const auto results =
                  entry_point(tracer, {"workloads.run_pkt_sweep_s"}, [&] {
                    return workloads::run_pkt_sweep(
                        *fabric, std::span(arm, 1), std::span(&pattern, 1),
                        options);
                  });
              return Outcome{digest_of(results), any_failed(results)};
            },
            "workloads.run_pkt_sweep_s",
            [=](Tracer& tracer) {
              const auto results =
                  replay_pkt_sweep(*fabric, *arm, pattern, options, tracer);
              return Outcome{digest_of(results), any_failed(results)};
            }});
      }
  }

  void replay_setup(Tracer& tracer) const override {
    replay_intact_hyperx(fabric_->hx, fabric_->route, tracer);
  }

 private:
  /// The intact HyperX, its DFSSSP routing and the two arms over them.
  struct Fabric {
    explicit Fabric(const topo::HyperXParams& params)
        : hx(params),
          lids(routing::LidSpace::consecutive(hx.topo().num_terminals(), 0)),
          route(routing::DfssspEngine(kDfssspVls).compute(hx.topo(), lids)),
          dal(hx),
          arms{{{"dfsssp", &route, &lids, nullptr},
                {"dal", nullptr, nullptr, &dal}}} {}

    topo::HyperX hx;
    routing::LidSpace lids;
    routing::RouteResult route;
    sim::DalRouter dal;
    std::array<workloads::PktRoutingArm, 2> arms;
  };

  topo::HyperXParams params_;
  std::int64_t bytes_;
  std::int32_t seeds_;
  std::int32_t shift_;
  std::unique_ptr<Fabric> fabric_;
};

}  // namespace

const std::vector<std::string_view>& workload_names() {
  static const std::vector<std::string_view> names{"imb_sweep", "sar_apps",
                                                   "bisection", "pkt_sweep"};
  return names;
}

std::unique_ptr<Workload> make_workload(std::string_view name,
                                        std::uint64_t seed, bool smoke) {
  if (name == "imb_sweep") return std::make_unique<ImbSweep>(seed, smoke);
  if (name == "sar_apps") return std::make_unique<SarApps>(seed, smoke);
  if (name == "bisection") return std::make_unique<Bisection>(seed, smoke);
  if (name == "pkt_sweep") return std::make_unique<PktSweep>(seed, smoke);
  throw std::invalid_argument("unknown workload '" + std::string(name) + "'");
}

}  // namespace hxbench
