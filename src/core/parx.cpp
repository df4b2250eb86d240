#include "core/parx.hpp"

#include <stdexcept>
#include <utility>

#include "routing/dfsssp.hpp"
#include "routing/spf.hpp"

namespace hxsim::core {

namespace {

/// Destination processing order: demand-listed nodes first (they get the
/// freshest weight landscape), then all remaining nodes (Algorithm 1's
/// "not processed before" loop).  Returns the order and the listed count.
std::pair<std::vector<topo::NodeId>, std::size_t> parx_dest_order(
    const topo::Topology& topo, const DemandMatrix& demands) {
  std::vector<topo::NodeId> order;
  order.reserve(static_cast<std::size_t>(topo.num_terminals()));
  if (!demands.empty()) {
    for (topo::NodeId n = 0; n < topo.num_terminals(); ++n)
      if (demands.is_listed_destination(n)) order.push_back(n);
  }
  const std::size_t listed = order.size();
  for (topo::NodeId n = 0; n < topo.num_terminals(); ++n) {
    if (!demands.empty() && demands.is_listed_destination(n)) continue;
    order.push_back(n);
  }
  return {std::move(order), listed};
}

/// Edge-weight update after routing one (destination, LIDx) column:
/// demand-weighted for listed destinations, +1 per path otherwise.
void add_parx_load(const topo::Topology& topo, const DemandMatrix& demands,
                   const ParxOptions& options, const routing::SpfResult& tree,
                   topo::SwitchId dest_sw, topo::NodeId nd, bool is_listed,
                   std::vector<double>& weight) {
  for (topo::SwitchId s = 0; s < topo.num_switches(); ++s) {
    if (s == dest_sw || !tree.reachable(s)) continue;
    double delta = 0.0;
    for (const topo::NodeId nx : topo.switch_terminals(s)) {
      if (is_listed && options.use_demand_weights) {
        delta += static_cast<double>(demands.at(nx, nd));
      } else {
        delta += 1.0;
      }
    }
    if (delta == 0.0) continue;
    topo::SwitchId at = s;
    while (at != dest_sw) {
      const topo::ChannelId out =
          tree.out_channel[static_cast<std::size_t>(at)];
      weight[static_cast<std::size_t>(out)] += delta;
      at = topo.channel(out).dst.index;
    }
  }
}

}  // namespace

ParxEngine::ParxEngine(const topo::HyperX& hx, DemandMatrix demands,
                       ParxOptions options)
    : hx_(&hx), demands_(std::move(demands)), options_(options) {
  validate_parx_topology(hx);
}

routing::RouteResult ParxEngine::compute(const topo::Topology& topo,
                                         const routing::LidSpace& lids) {
  if (&hx_->topo() != &topo)
    throw std::invalid_argument("ParxEngine: topology is not the HyperX");
  if (lids.lmc() != kParxLmc)
    throw std::invalid_argument("ParxEngine: LID space must have LMC=2");
  if (!demands_.empty() && demands_.num_nodes() != topo.num_terminals())
    throw std::invalid_argument("ParxEngine: demand matrix size mismatch");

  routing::RouteResult res;
  res.tables = routing::ForwardingTables(topo.num_switches(), lids.max_lid());

  const auto [order, listed] = parx_dest_order(topo, demands_);
  const auto lids_per = lids.lids_per_terminal();

  std::vector<double> weight(static_cast<std::size_t>(topo.num_channels()),
                             1.0);
  // The temporary graphs I* of rules R1-R4, one admission mask per LID
  // index; empty masks (no pruning) admit every enabled channel.
  std::vector<std::vector<char>> prune(static_cast<std::size_t>(lids_per));
  if (options_.use_link_pruning)
    for (std::int32_t x = 0; x < lids_per; ++x)
      prune[static_cast<std::size_t>(x)] = parx_prune_mask(*hx_, x);
  routing::SpfScratch scratch;
  routing::SpfResult tree;
  obs::PhaseClock clock;
  double spf_seconds = 0.0;
  double load_seconds = 0.0;

  for (std::size_t rank = 0; rank < order.size(); ++rank) {
    const topo::NodeId nd = order[rank];
    const bool is_listed = rank < listed;
    const topo::SwitchId dest_sw = topo.attach_switch(nd);

    for (std::int32_t x = 0; x < lids_per; ++x) {
      const routing::Lid dlid = lids.lid(nd, x);
      routing::spf_to(topo, dest_sw, weight,
                      prune[static_cast<std::size_t>(x)], scratch, tree);
      res.unreachable_entries +=
          routing::apply_tree_to_tables(topo, tree, nd, dlid, res.tables);
      if (timings_ != nullptr) spf_seconds += clock.lap();

      add_parx_load(topo, demands_, options_, tree, dest_sw, nd, is_listed,
                    weight);
      if (timings_ != nullptr) load_seconds += clock.lap();
    }
  }
  if (timings_ != nullptr) {
    timings_->add("spf_trees", spf_seconds);
    timings_->add("parx_load", load_seconds);
  }

  // Deadlock-free configuration: assign every calculated path (incl. all
  // virtual LIDs) to a virtual lane without creating a CDG cycle.
  routing::DfssspEngine::assign_vls(topo, lids, res.tables, options_.max_vls,
                                    res, /*threads=*/0, timings_);
  return res;
}

}  // namespace hxsim::core
