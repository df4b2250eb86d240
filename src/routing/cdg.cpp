#include "routing/cdg.hpp"

#include <algorithm>
#include <numeric>
#include <stdexcept>
#include <string>

namespace hxsim::routing {

IncrementalDag::IncrementalDag(std::int32_t num_nodes)
    : n_(num_nodes),
      out_(static_cast<std::size_t>(num_nodes)),
      in_(static_cast<std::size_t>(num_nodes)),
      ord_(static_cast<std::size_t>(num_nodes)),
      mark_(static_cast<std::size_t>(num_nodes), 0) {
  std::iota(ord_.begin(), ord_.end(), 0);
}

void IncrementalDag::check_nodes(const char* what, std::int32_t u,
                                 std::int32_t v) const {
  if (u < 0 || u >= n_ || v < 0 || v >= n_)
    throw std::out_of_range(std::string("IncrementalDag::") + what +
                            ": node out of range");
}

bool IncrementalDag::has_edge(std::int32_t u, std::int32_t v) const {
  check_nodes("has_edge", u, v);
  const auto& outs = out_[static_cast<std::size_t>(u)];
  return std::find(outs.begin(), outs.end(), v) != outs.end();
}

bool IncrementalDag::dfs_forward(std::int32_t v, std::int32_t ub) {
  // Iterative DFS; nodes beyond position ub cannot participate in a cycle
  // with the new edge.  Reaching position ub itself means reaching u.
  stack_.assign(1, v);
  delta_f_.assign(1, v);
  mark_[static_cast<std::size_t>(v)] = 1;
  while (!stack_.empty()) {
    const std::int32_t w = stack_.back();
    stack_.pop_back();
    for (std::int32_t next : out_[static_cast<std::size_t>(w)]) {
      const std::int32_t pos = ord_[static_cast<std::size_t>(next)];
      if (pos == ub) return true;  // cycle: u reachable from v
      if (pos > ub || mark_[static_cast<std::size_t>(next)]) continue;
      mark_[static_cast<std::size_t>(next)] = 1;
      delta_f_.push_back(next);
      stack_.push_back(next);
    }
  }
  return false;
}

void IncrementalDag::dfs_backward(std::int32_t u, std::int32_t lb) {
  stack_.assign(1, u);
  delta_b_.assign(1, u);
  mark_[static_cast<std::size_t>(u)] = 1;
  while (!stack_.empty()) {
    const std::int32_t w = stack_.back();
    stack_.pop_back();
    for (std::int32_t prev : in_[static_cast<std::size_t>(w)]) {
      const std::int32_t pos = ord_[static_cast<std::size_t>(prev)];
      if (pos < lb || mark_[static_cast<std::size_t>(prev)]) continue;
      mark_[static_cast<std::size_t>(prev)] = 1;
      delta_b_.push_back(prev);
      stack_.push_back(prev);
    }
  }
}

void IncrementalDag::reorder() {
  auto by_position = [this](std::int32_t a, std::int32_t b) {
    return ord_[static_cast<std::size_t>(a)] < ord_[static_cast<std::size_t>(b)];
  };
  std::sort(delta_b_.begin(), delta_b_.end(), by_position);
  std::sort(delta_f_.begin(), delta_f_.end(), by_position);

  pool_.clear();
  for (std::int32_t node : delta_b_)
    pool_.push_back(ord_[static_cast<std::size_t>(node)]);
  for (std::int32_t node : delta_f_)
    pool_.push_back(ord_[static_cast<std::size_t>(node)]);
  std::sort(pool_.begin(), pool_.end());

  std::size_t slot = 0;
  for (std::int32_t node : delta_b_)
    ord_[static_cast<std::size_t>(node)] = pool_[slot++];
  for (std::int32_t node : delta_f_)
    ord_[static_cast<std::size_t>(node)] = pool_[slot++];
}

bool IncrementalDag::add_edge(std::int32_t u, std::int32_t v) {
  check_nodes("add_edge", u, v);
  if (u == v) return false;  // a self-loop is a cycle
  if (has_edge(u, v)) return true;

  const std::int32_t lb = ord_[static_cast<std::size_t>(v)];
  const std::int32_t ub = ord_[static_cast<std::size_t>(u)];
  if (lb < ub) {
    // Pearce-Kelly: discover the affected region [lb, ub].
    if (dfs_forward(v, ub)) {
      for (std::int32_t node : delta_f_)
        mark_[static_cast<std::size_t>(node)] = 0;
      return false;
    }
    dfs_backward(u, lb);
    reorder();
    for (std::int32_t node : delta_f_)
      mark_[static_cast<std::size_t>(node)] = 0;
    for (std::int32_t node : delta_b_)
      mark_[static_cast<std::size_t>(node)] = 0;
  }
  // Otherwise the order is already consistent; plain insertion.
  out_[static_cast<std::size_t>(u)].push_back(v);
  in_[static_cast<std::size_t>(v)].push_back(u);
  return true;
}

void IncrementalDag::remove_edge(std::int32_t u, std::int32_t v) {
  check_nodes("remove_edge", u, v);
  auto& outs = out_[static_cast<std::size_t>(u)];
  const auto it = std::find(outs.begin(), outs.end(), v);
  if (it == outs.end()) return;
  outs.erase(it);
  auto& ins = in_[static_cast<std::size_t>(v)];
  ins.erase(std::find(ins.begin(), ins.end(), u));
}

VlLayering::VlLayering(std::int32_t num_channels, std::int32_t max_layers) {
  if (max_layers < 1)
    throw std::invalid_argument("VlLayering: need at least one layer");
  layers_.reserve(static_cast<std::size_t>(max_layers));
  for (std::int32_t i = 0; i < max_layers; ++i)
    layers_.emplace_back(num_channels);
  refused_.resize(static_cast<std::size_t>(max_layers));
}

std::int32_t VlLayering::place_path(
    std::span<const std::int32_t> channel_path) {
  if (channel_path.size() < 2) {
    // No switch-to-switch dependency; any layer works, use the first.
    layers_used_ = std::max(layers_used_, 1);
    return 0;
  }
  for (std::int32_t layer = 0; layer < max_layers(); ++layer) {
    IncrementalDag& dag = layers_[static_cast<std::size_t>(layer)];
    auto& refused = refused_[static_cast<std::size_t>(layer)];
    added_.clear();
    bool ok = true;
    for (std::size_t i = 0; i + 1 < channel_path.size(); ++i) {
      const std::int32_t a = channel_path[i];
      const std::int32_t b = channel_path[i + 1];
      if (dag.has_edge(a, b)) continue;  // also range-checks a and b
      const std::uint64_t key = static_cast<std::uint64_t>(a) << 32 |
                                static_cast<std::uint32_t>(b);
      if (refused.contains(key)) {
        ok = false;
        break;
      }
      if (!dag.add_edge(a, b)) {
        if (added_.empty()) refused.insert(key);
        ok = false;
        break;
      }
      added_.emplace_back(a, b);
    }
    if (ok) {
      layers_used_ = std::max(layers_used_, layer + 1);
      return layer;
    }
    for (auto [a, b] : added_) dag.remove_edge(a, b);
  }
  return -1;
}

bool acyclic(std::int32_t num_nodes,
             std::span<const std::pair<std::int32_t, std::int32_t>> edges) {
  std::vector<std::vector<std::int32_t>> out(
      static_cast<std::size_t>(num_nodes));
  std::vector<std::int32_t> indegree(static_cast<std::size_t>(num_nodes), 0);
  for (const auto& [u, v] : edges) {
    out[static_cast<std::size_t>(u)].push_back(v);
    ++indegree[static_cast<std::size_t>(v)];
  }
  std::vector<std::int32_t> ready;
  for (std::int32_t i = 0; i < num_nodes; ++i)
    if (indegree[static_cast<std::size_t>(i)] == 0) ready.push_back(i);
  std::int64_t processed = 0;
  while (!ready.empty()) {
    const std::int32_t u = ready.back();
    ready.pop_back();
    ++processed;
    for (std::int32_t v : out[static_cast<std::size_t>(u)])
      if (--indegree[static_cast<std::size_t>(v)] == 0) ready.push_back(v);
  }
  return processed == num_nodes;
}

}  // namespace hxsim::routing
