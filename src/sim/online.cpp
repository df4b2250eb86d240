#include "sim/online.hpp"

#include <cmath>
#include <stdexcept>
#include <string>

namespace hxsim::sim {

std::vector<PktTimedFault> timed_faults(const topo::Topology& topo,
                                        const topo::FaultSchedule& schedule) {
  std::vector<PktTimedFault> feed;
  for (std::int32_t s = 0; s < schedule.num_stages(); ++s) {
    const topo::FaultStage& stage = schedule.stage(s);
    if (stage.at_time < 0.0) continue;  // untimed: between-runs damage
    PktTimedFault fault;
    fault.time = stage.at_time;
    for (const topo::FaultEvent& ev : stage.events)
      for (const topo::ChannelId ch : ev.cables) {
        fault.channels.push_back(ch);
        fault.channels.push_back(topo.channel(ch).reverse);
      }
    if (!fault.channels.empty()) feed.push_back(std::move(fault));
  }
  return feed;
}

namespace {

[[noreturn]] void bad(const std::string& why) {
  throw std::invalid_argument("PktOnlineConfig: " + why);
}

}  // namespace

void validate_online(const topo::Topology& topo, const PktOnlineConfig& online,
                     std::int32_t num_vls) {
  const auto nch = static_cast<std::int64_t>(topo.num_channels());
  for (const PktTimedFault& f : online.faults) {
    if (!std::isfinite(f.time) || f.time < 0.0)
      bad("fault time must be finite and non-negative");
    for (const topo::ChannelId ch : f.channels)
      if (ch < 0 || ch >= nch) bad("fault channel id out of range");
  }
  if (!online.epochs.empty()) {
    if (online.lids == nullptr) bad("epochs require a LidSpace");
    // The engine indexes the LidSpace by destination terminal and every
    // epoch's tables and VL map by (switch, that terminal's LID) unchecked.
    if (online.lids->num_terminals() < topo.num_terminals())
      bad("the LidSpace does not cover every terminal of the fabric");
    const auto nsw = static_cast<std::size_t>(topo.num_switches());
    for (std::size_t e = 0; e < online.epochs.size(); ++e) {
      const PktRoutingEpoch& ep = online.epochs[e];
      if (ep.tables == nullptr)
        bad("epoch " + std::to_string(e) + " has no forwarding tables");
      if (ep.tables->num_switches() != topo.num_switches())
        bad("epoch " + std::to_string(e) +
            " tables do not have one row per switch of the fabric");
      if (ep.tables->max_lid() < online.lids->max_lid())
        bad("epoch " + std::to_string(e) +
            " tables do not reach the LidSpace's largest LID");
      if (ep.vls != nullptr && ep.vls->num_switches() != 0 &&
          (ep.vls->num_switches() != ep.tables->num_switches() ||
           ep.vls->max_lid() != ep.tables->max_lid()))
        bad("epoch " + std::to_string(e) +
            " VL map does not have the shape of its tables");
      if (e == 0 && !ep.install_time.empty())
        bad("epoch 0 must be installed from t = 0 (empty install_time)");
      if (!ep.install_time.empty() && ep.install_time.size() != nsw)
        bad("epoch " + std::to_string(e) +
            " install_time must be empty or one entry per switch");
      for (const double t : ep.install_time)
        if (std::isnan(t)) bad("epoch install time is NaN");
      if (ep.vls != nullptr && ep.vls->max_vl() >= num_vls)
        bad("epoch " + std::to_string(e) +
            " VL map exceeds the configured lane count");
    }
  }
  if (online.ttl_hops < 1) bad("ttl_hops must be >= 1");
  if (online.retry.enabled) {
    const PktRetryConfig& r = online.retry;
    if (!std::isfinite(r.timeout) || r.timeout <= 0.0)
      bad("retry timeout must be finite and positive");
    if (!std::isfinite(r.backoff_base) || r.backoff_base <= 0.0)
      bad("retry backoff_base must be finite and positive");
    if (!std::isfinite(r.jitter) || r.jitter < 0.0)
      bad("retry jitter must be finite and non-negative");
    if (r.max_retries < 0) bad("retry max_retries must be >= 0");
  }
}

}  // namespace hxsim::sim
