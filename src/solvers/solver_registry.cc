#include "solvers/solver_registry.h"

#include <algorithm>
#include <cctype>
#include <initializer_list>
#include <sstream>

#include "solvers/builtin_solvers.h"

namespace savg {

namespace {

std::string Lowercase(const std::string& s) {
  std::string out = s;
  std::transform(out.begin(), out.end(), out.begin(), [](unsigned char ch) {
    return static_cast<char>(std::tolower(ch));
  });
  return out;
}

}  // namespace

const SolverRegistry& SolverRegistry::Global() {
  static const SolverRegistry* registry = new SolverRegistry();
  return *registry;
}

SolverRegistry::SolverRegistry() {
  const auto add = [this](std::unique_ptr<Solver> solver,
                          std::initializer_list<const char*> aliases) {
    const size_t idx = entries_.size();
    index_[Lowercase(solver->Name())] = idx;
    for (const char* alias : aliases) index_[Lowercase(alias)] = idx;
    entries_.push_back({solver->Name(), std::move(solver)});
  };
  // The paper's default comparison order, then the extras.
  add(NewAvgSolver(/*local_search=*/false), {});
  add(NewAvgSolver(/*local_search=*/true), {"avg-ls", "avg_ls"});
  add(NewAvgShardSolver(), {"avg-shard", "avg_shard", "shard"});
  add(NewAvgDSolver(), {"avgd", "avg_d"});
  add(NewPerSolver(), {});
  add(NewFmgSolver(), {});
  add(NewSdpSolver(), {});
  add(NewGrfSolver(), {});
  add(NewIpSolver(), {"ip-exact"});
  add(NewAvgStSolver(), {"avg_st", "avgst"});
  add(NewBruteForceSolver(), {"bf", "brute-force"});
  add(NewIndependentRoundingSolver(), {"independent", "independent-rounding"});
}

Result<const Solver*> SolverRegistry::Find(const std::string& name) const {
  auto it = index_.find(Lowercase(name));
  if (it == index_.end()) {
    std::ostringstream msg;
    msg << "unknown solver \"" << name << "\"; known solvers:";
    for (const Entry& entry : entries_) msg << " " << entry.canonical_name;
    return Status::NotFound(msg.str());
  }
  return entries_[it->second].solver.get();
}

std::vector<std::string> SolverRegistry::Names() const {
  std::vector<std::string> names;
  names.reserve(entries_.size());
  for (const Entry& entry : entries_) names.push_back(entry.canonical_name);
  return names;
}

}  // namespace savg
