// Multi-application capacity scheduling on a shared fabric -- a small
// Figure 7: four applications on dedicated allocations of a 12x8 HyperX
// compete for network bandwidth over a simulated hour; the fluid
// co-scheduler counts completed runs per job.
//
// usage: capacity_scheduler [linear|clustered|random] [hours]
#include <cstdio>
#include <string>

#include "bench_common.hpp"
#include "mpi/cluster.hpp"
#include "report/render.hpp"
#include "routing/dfsssp.hpp"
#include "topo/hyperx.hpp"
#include "workloads/capacity.hpp"

int main(int argc, char** argv) {
  using namespace hxsim;
  const auto usage = [&] {
    std::fprintf(stderr, "usage: %s [linear|clustered|random] [hours]\n",
                 argv[0]);
  };
  const std::string place_arg = argc > 1 ? argv[1] : "linear";
  mpi::PlacementKind kind = mpi::PlacementKind::kLinear;
  if (place_arg == "clustered") {
    kind = mpi::PlacementKind::kClustered;
  } else if (place_arg == "random") {
    kind = mpi::PlacementKind::kRandom;
  } else if (place_arg != "linear") {
    std::fprintf(stderr, "unknown placement '%s'\n", place_arg.c_str());
    usage();
    return 2;
  }
  // At most one simulated day: the co-scheduler's cost grows with it.
  const double hours =
      argc > 2 ? bench::parse_flag<double>("hours", argv[2], 0.01, 24.0, usage)
               : 1.0;

  const topo::HyperX hx(topo::paper_hyperx_params());
  routing::LidSpace lids =
      routing::LidSpace::consecutive(hx.topo().num_terminals(), 0);
  routing::DfssspEngine engine(8);
  const mpi::Cluster cluster(hx.topo(), lids,
                             engine.compute(hx.topo(), lids),
                             mpi::make_ob1());

  // Four jobs with contrasting communication characters.
  stats::Rng rng(1);
  const auto pool = mpi::Placement::whole_machine(cluster.num_nodes());
  struct JobSpec {
    workloads::AppId app;
    std::int32_t nodes;
  } specs[] = {
      {workloads::AppId::kComd, 56},     // halo-bound
      {workloads::AppId::kNtchem, 32},   // alltoall-heavy
      {workloads::AppId::kEmDl, 32},     // large ring allreduce
      {workloads::AppId::kGraph500, 56}, // irregular exchanges
  };
  std::vector<workloads::CapacityJob> jobs;
  std::size_t offset = 0;
  for (const JobSpec& spec : specs) {
    const auto slice =
        std::span(pool).subspan(offset, static_cast<std::size_t>(spec.nodes));
    offset += static_cast<std::size_t>(spec.nodes);
    jobs.push_back(workloads::CapacityJob{
        spec.app, mpi::Placement::make(kind, spec.nodes, slice, rng)});
  }

  workloads::CapacityOptions opts;
  opts.duration = hours * 3600.0;
  const workloads::CapacityResult result =
      workloads::run_capacity(cluster, jobs, opts);

  std::printf("capacity window: %.1f h, placement: %s\n\n", hours,
              place_arg.c_str());
  report::ResultTable table{"runs", {"app", "nodes", "runs completed"}, {}};
  for (std::size_t j = 0; j < jobs.size(); ++j)
    table.add_row({result.app_names[j],
                   std::to_string(jobs[j].placement.num_ranks()),
                   std::to_string(result.runs_completed[j])});
  table.add_row({"TOTAL", "176", std::to_string(result.total())});
  std::printf("%s", report::render_text_table(table).c_str());
  return 0;
}
