#include "routing/dfsssp.hpp"

#include <stdexcept>

#include "exec/exec.hpp"
#include "routing/cdg.hpp"

namespace hxsim::routing {

namespace {

/// All (source switch, path) pairs of one destination LID, flattened:
/// path j for source srcs[j] is chans[offs[j]] .. chans[offs[j+1]-1].
struct DlidPaths {
  std::vector<std::int32_t> chans;
  std::vector<std::int32_t> offs{0};
  std::vector<topo::SwitchId> srcs;
};

}  // namespace

void DfssspEngine::assign_vls(const topo::Topology& topo, const LidSpace& lids,
                              const ForwardingTables& tables,
                              std::int32_t max_vls, RouteResult& result,
                              std::int32_t threads,
                              obs::PhaseTimings* timings) {
  result.vls = VlMap(topo.num_switches(), lids.max_lid());
  VlLayering layering(topo.num_channels(), max_vls);
  obs::PhaseClock clock;
  if (timings != nullptr) clock.lap();

  // Phase 1 (parallel): walk every (source switch, destination LID) path
  // once, collecting the channel sequences per destination.  The tables
  // are read-only here and each index writes its own slot.  Terminal
  // channels cannot participate in dependency cycles and are skipped.
  const std::vector<Lid> all = lids.all_lids();
  std::vector<DlidPaths> per_dlid(all.size());

  exec::ThreadPool pool(threads);
  pool.parallel_for(
      static_cast<std::int64_t>(all.size()),
      [&](std::int64_t d, std::int32_t) {
        const Lid dlid = all[static_cast<std::size_t>(d)];
        const LidSpace::Owner owner = lids.owner(dlid);
        const topo::SwitchId dest_sw = topo.attach_switch(owner.node);
        DlidPaths& out = per_dlid[static_cast<std::size_t>(d)];
        for (topo::SwitchId src = 0; src < topo.num_switches(); ++src) {
          if (src == dest_sw) continue;
          const std::size_t mark = out.chans.size();
          topo::SwitchId at = src;
          bool ok = true;
          while (at != dest_sw) {
            const topo::ChannelId ch = tables.next(at, dlid);
            if (ch == topo::kInvalidChannel ||
                static_cast<std::int32_t>(out.chans.size() - mark) >
                    topo.num_switches()) {
              ok = false;
              break;
            }
            const topo::Channel& c = topo.channel(ch);
            if (!c.dst.is_switch()) {
              ok = false;  // reached a terminal that is not the owner's switch
              break;
            }
            out.chans.push_back(ch);
            at = c.dst.index;
          }
          if (!ok || out.chans.size() == mark) {
            out.chans.resize(mark);
            continue;
          }
          out.offs.push_back(static_cast<std::int32_t>(out.chans.size()));
          out.srcs.push_back(src);
        }
      });
  if (timings != nullptr) timings->add("vl_path_extraction", clock.lap());

  // Phase 2 (serial): greedy lane placement in (dlid, source) order --
  // exactly the order the sequential walk used, so the layering (and
  // therefore num_vls_used) is reproduced verbatim.
  for (std::size_t d = 0; d < per_dlid.size(); ++d) {
    const Lid dlid = all[d];
    const DlidPaths& paths = per_dlid[d];
    for (std::size_t j = 0; j < paths.srcs.size(); ++j) {
      const std::span<const std::int32_t> path(
          paths.chans.data() + paths.offs[j],
          static_cast<std::size_t>(paths.offs[j + 1] - paths.offs[j]));
      const std::int32_t vl = layering.place_path(path);
      if (vl < 0)
        throw std::runtime_error(
            "DFSSSP: paths exceed the virtual-lane budget");
      result.vls.set(paths.srcs[j], dlid, static_cast<std::int8_t>(vl));
    }
  }
  result.num_vls_used = layering.layers_used();
  if (timings != nullptr) timings->add("vl_placement", clock.lap());
}

RouteResult DfssspEngine::compute(const topo::Topology& topo,
                                  const LidSpace& lids) {
  SsspEngine base(threads_);
  base.set_timings(timings_);
  RouteResult res = base.compute(topo, lids);
  assign_vls(topo, lids, res.tables, max_vls_, res, threads_, timings_);
  return res;
}

}  // namespace hxsim::routing
