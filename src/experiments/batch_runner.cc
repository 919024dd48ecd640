#include "experiments/batch_runner.h"

#include <algorithm>
#include <cctype>

#include "solvers/solver_registry.h"
#include "util/random.h"
#include "util/thread_pool.h"

namespace savg {

namespace {

/// One splitmix64 step from state `x`: the standard 64-bit avalanche mix.
uint64_t Mix64(uint64_t x) { return SplitMix64(&x); }

uint64_t HashName(const std::string& name) {
  // FNV-1a over the lowercased name, so aliases/case differences do not
  // change the seed stream of a solver.
  uint64_t h = 0xCBF29CE484222325ULL;
  for (char ch : name) {
    h ^= static_cast<uint64_t>(
        std::tolower(static_cast<unsigned char>(ch)));
    h *= 0x100000001B3ULL;
  }
  return h;
}

}  // namespace

uint64_t BatchTaskSeed(uint64_t base_seed, int instance_index,
                       const std::string& solver_name, int repeat) {
  uint64_t seed = Mix64(base_seed);
  seed = Mix64(seed ^ (static_cast<uint64_t>(instance_index) + 1));
  seed = Mix64(seed ^ HashName(solver_name));
  seed = Mix64(seed ^ (static_cast<uint64_t>(repeat) + 1));
  return seed != 0 ? seed : 1;  // 0 means "use option seeds" downstream
}

RelaxationCache::RelaxationCache(int num_instances, RelaxationOptions options,
                                 const std::vector<LpBasis>* warm_starts)
    : options_(options), warm_starts_(warm_starts) {
  entries_.reserve(std::max(0, num_instances));
  for (int i = 0; i < num_instances; ++i) {
    entries_.push_back(std::make_unique<Entry>());
  }
}

Result<const FractionalSolution*> RelaxationCache::Get(
    int index, const SvgicInstance& instance) {
  if (index < 0 || index >= static_cast<int>(entries_.size())) {
    return Status::OutOfRange("relaxation cache index out of range");
  }
  Entry& entry = *entries_[index];
  bool solved_here = false;
  std::call_once(entry.once, [&] {
    solved_here = true;
    misses_.fetch_add(1);
    const LpBasis* warm = nullptr;
    if (warm_starts_ != nullptr &&
        index < static_cast<int>(warm_starts_->size()) &&
        !(*warm_starts_)[index].Empty()) {
      warm = &(*warm_starts_)[index];
    }
    auto solved = SolveRelaxation(instance, options_, warm);
    if (solved.ok()) {
      entry.frac = std::move(solved).value();
      entry.solved = true;
    } else {
      entry.status = solved.status();
    }
  });
  if (!solved_here) hits_.fetch_add(1);
  if (!entry.status.ok()) return entry.status;
  return static_cast<const FractionalSolution*>(&entry.frac);
}

std::vector<LpBasis> RelaxationCache::ExportBases() const {
  std::vector<LpBasis> bases(entries_.size());
  for (size_t i = 0; i < entries_.size(); ++i) {
    if (entries_[i]->solved) bases[i] = entries_[i]->frac.lp_basis;
  }
  return bases;
}

std::vector<double> RelaxationCache::ExportObjectives() const {
  std::vector<double> objectives(entries_.size(), 0.0);
  for (size_t i = 0; i < entries_.size(); ++i) {
    if (entries_[i]->solved) objectives[i] = entries_[i]->frac.lp_objective;
  }
  return objectives;
}

int64_t RelaxationCache::TotalSimplexIterations() const {
  int64_t total = 0;
  for (const auto& entry : entries_) {
    if (entry->solved) total += entry->frac.simplex_iterations;
  }
  return total;
}

int64_t RelaxationCache::WarmStartedSolves() const {
  int64_t total = 0;
  for (const auto& entry : entries_) {
    if (entry->solved && entry->frac.warm_started) ++total;
  }
  return total;
}

LpStats RelaxationCache::TotalLpStats() const {
  LpStats total;
  for (const auto& entry : entries_) {
    if (entry->solved) total += entry->frac.lp_stats;
  }
  return total;
}

Status BatchReport::FirstError() const {
  for (const BatchTaskResult& task : tasks) {
    if (!task.status.ok()) return task.status;
  }
  return Status::OK();
}

BatchRunner::BatchRunner(BatchOptions options)
    : options_(std::move(options)) {}

Result<BatchReport> BatchRunner::Run(
    const std::vector<const SvgicInstance*>& instances,
    const std::vector<const Solver*>& solvers) const {
  if (instances.empty()) {
    return Status::InvalidArgument("batch has no instances");
  }
  if (solvers.empty()) return Status::InvalidArgument("batch has no solvers");
  for (const SvgicInstance* instance : instances) {
    if (instance == nullptr) {
      return Status::InvalidArgument("batch instance is null");
    }
  }
  for (const Solver* solver : solvers) {
    if (solver == nullptr) {
      return Status::InvalidArgument("batch solver is null");
    }
  }
  const int num_instances = static_cast<int>(instances.size());
  const int num_solvers = static_cast<int>(solvers.size());
  const int repeats = std::max(1, options_.repeats);

  BatchReport report;
  report.num_instances = num_instances;
  report.num_solvers = num_solvers;
  report.repeats = repeats;
  report.tasks.resize(static_cast<size_t>(num_instances) * num_solvers *
                      repeats);

  RelaxationCache cache(num_instances, options_.solver.relaxation,
                        options_.relaxation_warm_starts);
  {
    ThreadPool pool(options_.num_workers);
    for (int i = 0; i < num_instances; ++i) {
      for (int s = 0; s < num_solvers; ++s) {
        for (int r = 0; r < repeats; ++r) {
          const size_t slot =
              (static_cast<size_t>(i) * num_solvers + s) * repeats + r;
          const SvgicInstance* instance = instances[i];
          const Solver* solver = solvers[s];
          BatchTaskResult* out = &report.tasks[slot];
          pool.Submit([this, i, r, instance, solver, out, &cache] {
            out->instance_index = i;
            out->repeat = r;
            SolverContext context;
            context.options = &options_.solver;
            context.seed =
                BatchTaskSeed(options_.base_seed, i, solver->Name(), r);
            if (solver->NeedsRelaxation(context)) {
              auto frac = cache.Get(i, *instance);
              if (!frac.ok()) {
                out->status = frac.status();
                return;
              }
              context.shared_relaxation = *frac;
            }
            auto run = solver->Solve(*instance, context);
            if (run.ok()) {
              out->run = std::move(run).value();
            } else {
              out->status = run.status();
            }
          });
        }
      }
    }
    pool.Wait();
  }
  report.lp_cache_hits = cache.hits();
  report.lp_cache_misses = cache.misses();
  report.lp_simplex_iterations = cache.TotalSimplexIterations();
  report.lp_warm_started_solves = cache.WarmStartedSolves();
  report.lp_stats = cache.TotalLpStats();
  report.relaxation_bases = cache.ExportBases();
  report.relaxation_objectives = cache.ExportObjectives();
  return report;
}

Result<BatchReport> BatchRunner::Run(
    const std::vector<const SvgicInstance*>& instances,
    const std::vector<std::string>& solver_names) const {
  std::vector<const Solver*> solvers;
  solvers.reserve(solver_names.size());
  for (const std::string& name : solver_names) {
    SAVG_ASSIGN_OR_RETURN(const Solver* solver,
                          SolverRegistry::Global().Find(name));
    solvers.push_back(solver);
  }
  return Run(instances, solvers);
}

}  // namespace savg
