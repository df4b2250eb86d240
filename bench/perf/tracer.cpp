#include <cmath>
#include <cstdio>
#include <fstream>
#include <stdexcept>
#include <utility>

#include "hxbench.hpp"

namespace hxbench {

std::string json_string(std::string_view text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", static_cast<unsigned>(c));
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string json_number(double value) {
  if (!std::isfinite(value)) return "null";
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", value);
  return buf;
}

void Tracer::add_total(std::string_view metric, double value) {
  auto it = totals_.find(metric);
  if (it == totals_.end())
    it = totals_.emplace(std::string(metric), 0.0).first;
  it->second += value;
}

void Tracer::push_span(std::string_view name, Clock::time_point start,
                       Clock::time_point end,
                       std::vector<std::pair<std::string, double>> children) {
  const auto us = [this](Clock::time_point t) {
    return std::chrono::duration<double, std::micro>(t - epoch_).count();
  };
  spans_.push_back(Span{std::string(name), op_, us(start),
                        us(end) - us(start), std::move(children)});
}

void Tracer::entry_span(std::string_view name, Clock::time_point start,
                        Clock::time_point end,
                        std::initializer_list<std::string_view> metrics) {
  for (const std::string_view metric : metrics)
    add_total(metric, seconds_between(start, end));
  push_span(name, start, end, {});
}

void Tracer::add(std::string_view metric, double value) {
  add_total(metric, value);
  for (auto& [name, sum] : pending_) {
    if (name == metric) {
      sum += value;
      return;
    }
  }
  pending_.emplace_back(std::string(metric), value);
}

void Tracer::replay_span(Clock::time_point start, Clock::time_point end) {
  push_span("replay", start, end, std::exchange(pending_, {}));
}

double Tracer::total(std::string_view metric) const {
  const auto it = totals_.find(metric);
  return it == totals_.end() ? 0.0 : it->second;
}

void Tracer::write_chrome_trace(const std::string& path) const {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write trace file " + path);
  out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    double children_s = 0.0;
    out << (i == 0 ? "\n" : ",\n") << "{\"name\":" << json_string(s.name)
        << ",\"cat\":\"hxbench\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":"
        << json_number(s.start_us) << ",\"dur\":" << json_number(s.dur_us)
        << ",\"args\":{\"op\":" << json_string(s.op);
    for (const auto& [name, value] : s.children) {
      out << "," << json_string(name) << ":" << json_number(value);
      if (name.ends_with("_s")) children_s += value;
    }
    if (!s.children.empty())
      out << ",\"self_s\":" << json_number(s.dur_us * 1e-6 - children_s);
    out << "}}";
  }
  out << "\n]}\n";
  if (!out.flush()) throw std::runtime_error("cannot write trace file " + path);
}

}  // namespace hxbench
