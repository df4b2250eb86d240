#include "audit/scenario.hpp"

#include <charconv>
#include <cstdint>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "core/parx.hpp"
#include "core/quadrant.hpp"
#include "routing/dfsssp.hpp"
#include "routing/ftree.hpp"
#include "routing/sssp.hpp"
#include "routing/updown.hpp"
#include "stats/rng.hpp"

namespace hxsim::audit {

const char* to_string(TopoKind kind) {
  switch (kind) {
    case TopoKind::kHyperX: return "hyperx";
    case TopoKind::kFatTree: return "fat_tree";
  }
  return "?";
}

namespace {

[[noreturn]] void bad(const std::string& why) {
  throw std::invalid_argument("audit scenario: " + why);
}

/// `value` as a T over the whole token; anything else -- empty, trailing
/// characters, a sign on an unsigned field, out of range -- is an error
/// naming `key`.
template <typename T>
T parse_int(const std::string& key, const std::string& value) {
  T out{};
  const char* end = value.data() + value.size();
  const auto [stop, error] = std::from_chars(value.data(), end, out);
  if (value.empty() || error != std::errc{} || stop != end)
    bad("unparsable value for '" + key + "': '" + value + "'");
  return out;
}

workloads::PktPattern pattern_from(const std::string& s) {
  if (s == "uniform_random") return workloads::PktPattern::kUniformRandom;
  if (s == "shift") return workloads::PktPattern::kShift;
  if (s == "hotspot") return workloads::PktPattern::kHotspot;
  bad("unknown traffic pattern '" + s + "'");
}

TopoKind kind_from(const std::string& s) {
  if (s == "hyperx") return TopoKind::kHyperX;
  if (s == "fat_tree") return TopoKind::kFatTree;
  bad("unknown topology kind '" + s + "'");
}

bool engine_valid_for(const Scenario& s) {
  const bool hx = s.kind == TopoKind::kHyperX;
  if (s.engine == "ftree") return !hx;
  if (s.engine == "updown" || s.engine == "sssp" || s.engine == "dfsssp")
    return true;
  if (s.engine == "parx")
    return hx && s.hyperx.dims.size() == 2 && s.hyperx.dims[0] % 2 == 0 &&
           s.hyperx.dims[1] % 2 == 0;
  return false;
}

}  // namespace

bool operator==(const Scenario& a, const Scenario& b) {
  // The repro text covers every oracle-relevant field, so it doubles as
  // the canonical equality form (params structs carry no operator==).
  return to_repro(a) == to_repro(b);
}

Scenario generate_scenario(std::uint64_t seed, const ScenarioBounds& bounds) {
  stats::Rng rng(seed);
  Scenario s;
  s.kind = rng.next_below(2) == 0 ? TopoKind::kHyperX : TopoKind::kFatTree;

  if (s.kind == TopoKind::kHyperX) {
    static constexpr const char* kEngines[] = {"updown", "sssp", "dfsssp",
                                               "parx"};
    s.engine = kEngines[rng.next_below(4)];
    s.hyperx = topo::random_hyperx_params(rng, bounds.max_switches,
                                          bounds.max_terminals,
                                          /*even_dims=*/s.engine == "parx");
  } else {
    static constexpr const char* kEngines[] = {"ftree", "updown", "sssp",
                                               "dfsssp"};
    s.engine = kEngines[rng.next_below(4)];
    s.fat_tree = topo::random_fat_tree_params(rng, bounds.max_switches,
                                              bounds.max_terminals);
  }

  s.faults.stages = static_cast<std::int32_t>(
      rng.next_below(static_cast<std::uint64_t>(bounds.max_fault_stages + 1)));
  s.faults.links_per_stage = 1 + static_cast<std::int32_t>(rng.next_below(2));
  s.faults.switches_per_stage = static_cast<std::int32_t>(rng.next_below(2));
  s.faults.seed = 1 + rng.next_below(1u << 16);
  s.faults.keep_connected = rng.next_below(5) != 0;  // 80 %
  if (s.faults.stages == 0) {
    s.faults.links_per_stage = 0;
    s.faults.switches_per_stage = 0;
  }

  const std::uint64_t pat = rng.next_below(3);
  s.traffic.pattern = pat == 0   ? workloads::PktPattern::kUniformRandom
                      : pat == 1 ? workloads::PktPattern::kShift
                                 : workloads::PktPattern::kHotspot;
  s.traffic.messages =
      s.traffic.pattern == workloads::PktPattern::kShift
          ? workloads::kAutoMessages
          : 8 + static_cast<std::int32_t>(rng.next_below(
                    static_cast<std::uint64_t>(bounds.max_messages - 7)));
  s.traffic.shift = 1 + static_cast<std::int32_t>(rng.next_below(3));
  s.traffic.bytes = 256LL << rng.next_below(7);  // 256 B .. 16 KiB
  s.traffic_seed = 1 + rng.next_below(1u << 16);
  s.flow_pairs = 4 + static_cast<std::int32_t>(rng.next_below(29));
  return s;
}

void validate_scenario(const Scenario& s) {
  if (s.kind == TopoKind::kHyperX) {
    if (s.hyperx.dims.empty()) bad("hyperx needs at least one dimension");
    std::int64_t switches = 1;
    for (const std::int32_t d : s.hyperx.dims) {
      if (d < 2) bad("hyperx dimension size must be >= 2");
      switches *= d;
    }
    if (s.hyperx.terminals_per_switch < 1)
      bad("hyperx needs at least one terminal per switch");
    if (switches * s.hyperx.terminals_per_switch < 2)
      bad("fabric needs at least two terminals");
  } else {
    const auto& ft = s.fat_tree;
    if (ft.arity < 2) bad("fat-tree arity must be >= 2");
    if (ft.levels < 2 || ft.levels > 3) bad("fat-tree levels must be 2 or 3");
    if (ft.leaf_terminals < 1 || ft.leaf_terminals > ft.arity)
      bad("fat-tree leaf_terminals must be in [1, arity]");
    if (ft.taper < 1 || ft.arity % ft.taper != 0)
      bad("fat-tree taper must divide the arity");
    std::int32_t leaves = 1;
    for (std::int32_t i = 0; i + 1 < ft.levels; ++i) leaves *= ft.arity;
    if (ft.populated_leaves == 0 || ft.populated_leaves > leaves)
      bad("fat-tree populated_leaves must be -1 or in [1, leaves]");
    const std::int32_t populated =
        ft.populated_leaves < 0 ? leaves : ft.populated_leaves;
    if (populated * ft.leaf_terminals < 2)
      bad("fabric needs at least two terminals");
  }
  if (!engine_valid_for(s))
    bad("engine '" + s.engine + "' is not valid for this fabric (ftree is "
        "fat-tree-only; parx needs a 2-D even-dims hyperx)");
  if (s.faults.stages < 0) bad("negative fault stages");
  if (s.faults.links_per_stage < 0 || s.faults.switches_per_stage < 0)
    bad("negative per-stage fault counts");
  if (s.traffic.messages != workloads::kAutoMessages &&
      s.traffic.messages < 1)
    bad("traffic messages must be positive or kAutoMessages");
  if (s.traffic.pattern == workloads::PktPattern::kShift &&
      s.traffic.messages != workloads::kAutoMessages)
    bad("shift traffic must leave messages = kAutoMessages (the pattern "
        "sends one message per terminal)");
  if (s.traffic.shift == 0) bad("shift distance must be nonzero");
  if (s.traffic.bytes < 1) bad("traffic bytes must be positive");
  if (s.flow_pairs < 1) bad("flow_pairs must be positive");
}

Fabric build_fabric(const Scenario& s) {
  validate_scenario(s);
  Fabric f;
  if (s.kind == TopoKind::kHyperX) {
    f.hyperx = std::make_unique<topo::HyperX>(s.hyperx);
  } else {
    f.fat_tree = std::make_unique<topo::FatTree>(s.fat_tree);
  }
  f.lids = s.engine == "parx"
               ? core::make_parx_lid_space(*f.hyperx)
               : routing::LidSpace::consecutive(f.topo().num_terminals(), 0);
  if (s.faults.stages > 0)
    f.faults = topo::FaultSchedule::plan(f.topo(), s.faults);
  return f;
}

std::unique_ptr<routing::RoutingEngine> make_engine(const Scenario& s,
                                                    const Fabric& f) {
  if (s.engine == "ftree")
    return std::make_unique<routing::FtreeEngine>(*f.fat_tree);
  if (s.engine == "updown") return std::make_unique<routing::UpDownEngine>();
  if (s.engine == "sssp") return std::make_unique<routing::SsspEngine>();
  if (s.engine == "dfsssp")
    return std::make_unique<routing::DfssspEngine>(kScenarioMaxVls);
  if (s.engine == "parx")
    return std::make_unique<core::ParxEngine>(
        *f.hyperx, core::DemandMatrix{},
        core::ParxOptions{.max_vls = kScenarioMaxVls});
  bad("unknown engine '" + s.engine + "'");
}

workloads::PktPatternSpec effective_traffic(const Scenario& s,
                                            std::int32_t num_terminals) {
  workloads::PktPatternSpec spec = s.traffic;
  if (spec.pattern == workloads::PktPattern::kShift && num_terminals > 1)
    spec.shift = 1 + (spec.shift - 1) % (num_terminals - 1);
  return spec;
}

std::string to_repro(const Scenario& s) {
  std::ostringstream out;
  out << "hxsim-fuzz-repro v1\n";
  out << "kind " << to_string(s.kind) << "\n";
  if (s.kind == TopoKind::kHyperX) {
    out << "dims ";
    for (std::size_t i = 0; i < s.hyperx.dims.size(); ++i)
      out << (i ? "," : "") << s.hyperx.dims[i];
    out << "\n";
    out << "terminals_per_switch " << s.hyperx.terminals_per_switch << "\n";
  } else {
    out << "arity " << s.fat_tree.arity << "\n";
    out << "levels " << s.fat_tree.levels << "\n";
    out << "leaf_terminals " << s.fat_tree.leaf_terminals << "\n";
    out << "populated_leaves " << s.fat_tree.populated_leaves << "\n";
    out << "taper " << s.fat_tree.taper << "\n";
  }
  out << "engine " << s.engine << "\n";
  out << "fault_stages " << s.faults.stages << "\n";
  out << "links_per_stage " << s.faults.links_per_stage << "\n";
  out << "switches_per_stage " << s.faults.switches_per_stage << "\n";
  out << "fault_seed " << s.faults.seed << "\n";
  out << "keep_connected " << (s.faults.keep_connected ? 1 : 0) << "\n";
  out << "pattern " << to_string(s.traffic.pattern) << "\n";
  out << "messages " << s.traffic.messages << "\n";
  out << "shift " << s.traffic.shift << "\n";
  out << "bytes " << s.traffic.bytes << "\n";
  out << "traffic_seed " << s.traffic_seed << "\n";
  out << "flow_pairs " << s.flow_pairs << "\n";
  return out.str();
}

Scenario parse_repro(const std::string& text) {
  std::istringstream in(text);
  std::string header;
  if (!std::getline(in, header) || header != "hxsim-fuzz-repro v1")
    bad("repro must start with 'hxsim-fuzz-repro v1'");

  Scenario s;
  s.hyperx.dims.clear();
  s.hyperx.name = "fuzz-hyperx";
  s.fat_tree.name = "fuzz-fat-tree";
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream ls(line);
    std::string key, value;
    if (!(ls >> key >> value)) bad("malformed repro line '" + line + "'");
    if (key == "kind") {
      s.kind = kind_from(value);
    } else if (key == "dims") {
      std::istringstream ds(value);
      std::string tok;
      while (std::getline(ds, tok, ','))
        s.hyperx.dims.push_back(parse_int<std::int32_t>(key, tok));
    } else if (key == "terminals_per_switch") {
      s.hyperx.terminals_per_switch = parse_int<std::int32_t>(key, value);
    } else if (key == "arity") {
      s.fat_tree.arity = parse_int<std::int32_t>(key, value);
    } else if (key == "levels") {
      s.fat_tree.levels = parse_int<std::int32_t>(key, value);
    } else if (key == "leaf_terminals") {
      s.fat_tree.leaf_terminals = parse_int<std::int32_t>(key, value);
    } else if (key == "populated_leaves") {
      s.fat_tree.populated_leaves = parse_int<std::int32_t>(key, value);
    } else if (key == "taper") {
      s.fat_tree.taper = parse_int<std::int32_t>(key, value);
    } else if (key == "engine") {
      s.engine = value;
    } else if (key == "fault_stages") {
      s.faults.stages = parse_int<std::int32_t>(key, value);
    } else if (key == "links_per_stage") {
      s.faults.links_per_stage = parse_int<std::int32_t>(key, value);
    } else if (key == "switches_per_stage") {
      s.faults.switches_per_stage = parse_int<std::int32_t>(key, value);
    } else if (key == "fault_seed") {
      s.faults.seed = parse_int<std::uint64_t>(key, value);
    } else if (key == "keep_connected") {
      if (value != "0" && value != "1")
        bad("unparsable value for 'keep_connected': '" + value +
            "' (expected 0 or 1)");
      s.faults.keep_connected = value == "1";
    } else if (key == "pattern") {
      s.traffic.pattern = pattern_from(value);
    } else if (key == "messages") {
      s.traffic.messages = parse_int<std::int32_t>(key, value);
    } else if (key == "shift") {
      s.traffic.shift = parse_int<std::int32_t>(key, value);
    } else if (key == "bytes") {
      s.traffic.bytes = parse_int<std::int64_t>(key, value);
    } else if (key == "traffic_seed") {
      s.traffic_seed = parse_int<std::uint64_t>(key, value);
    } else if (key == "flow_pairs") {
      s.flow_pairs = parse_int<std::int32_t>(key, value);
    } else {
      bad("unknown repro key '" + key + "'");
    }
  }
  if (s.kind == TopoKind::kHyperX && s.hyperx.dims.empty())
    bad("hyperx repro is missing its dims line");
  validate_scenario(s);
  return s;
}

void write_repro(const std::string& path, const Scenario& scenario) {
  std::ofstream out(path);
  if (!out) bad("cannot open repro file '" + path + "' for writing");
  out << to_repro(scenario);
  if (!out.flush()) bad("failed writing repro file '" + path + "'");
}

Scenario read_repro(const std::string& path) {
  std::ifstream in(path);
  if (!in) bad("cannot open repro file '" + path + "'");
  std::ostringstream text;
  text << in.rdbuf();
  return parse_repro(text.str());
}

}  // namespace hxsim::audit
