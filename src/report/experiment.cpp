#include "report/experiment.hpp"

#include <stdexcept>

namespace hxsim::report {

void Registry::add(Experiment experiment) {
  if (experiment.id.empty())
    throw std::invalid_argument("experiment with empty id");
  if (!experiment.run)
    throw std::invalid_argument("experiment '" + experiment.id +
                                "' has no run function");
  if (find(experiment.id) != nullptr)
    throw std::invalid_argument("duplicate experiment id '" + experiment.id +
                                "'");
  experiments_.push_back(std::move(experiment));
}

const Experiment* Registry::find(std::string_view id) const {
  for (const auto& e : experiments_)
    if (e.id == id) return &e;
  return nullptr;
}

ResultSet Registry::run(const Experiment& experiment,
                        const Options& options) const {
  ResultSet rs = experiment.run(options);
  for (ResultSet* out : {&rs, options.trace}) {
    if (out == nullptr) continue;
    out->id = experiment.id;
    out->title = experiment.title;
    out->paper_ref = experiment.paper_ref;
  }
  return rs;
}

}  // namespace hxsim::report
