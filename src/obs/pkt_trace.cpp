#include "obs/pkt_trace.hpp"

namespace hxsim::obs {

std::string_view to_string(PktDropCause cause) noexcept {
  switch (cause) {
    case PktDropCause::kInFlight: return "in_flight";
    case PktDropCause::kBlackhole: return "blackhole";
    case PktDropCause::kTtl: return "ttl";
    case PktDropCause::kSuperseded: return "superseded";
  }
  return "unknown";
}

void PktTrace::reset(std::int32_t num_channels, std::int32_t num_vls) {
  num_channels_ = num_channels;
  num_vls_ = num_vls;
  const std::size_t n = static_cast<std::size_t>(num_channels) *
                        static_cast<std::size_t>(num_vls);
  counters_.assign(n, ChannelVlCounters{});
  blocked_since_.assign(n, -1.0);
  depth_since_.assign(n, 0.0);
  depth_.assign(n, 0);
}

void PktTrace::finalize(double end_time) {
  for (std::size_t i = 0; i < counters_.size(); ++i) {
    if (blocked_since_[i] >= 0.0) {
      counters_[i].credit_stall_s += end_time - blocked_since_[i];
      blocked_since_[i] = -1.0;
    }
    counters_[i].queue_depth_time += depth_[i] * (end_time - depth_since_[i]);
    depth_since_[i] = end_time;
  }
}

std::int64_t PktTrace::channel_packets(topo::ChannelId ch) const {
  std::int64_t sum = 0;
  for (std::int8_t vl = 0; vl < num_vls_; ++vl) sum += at(ch, vl).packets;
  return sum;
}

double PktTrace::channel_credit_stall(topo::ChannelId ch) const {
  double sum = 0.0;
  for (std::int8_t vl = 0; vl < num_vls_; ++vl)
    sum += at(ch, vl).credit_stall_s;
  return sum;
}

}  // namespace hxsim::obs
