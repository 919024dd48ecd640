// The fixed name -> Solver table of the built-in algorithms.
//
// The table maps case-insensitive names (plus aliases: "avg-ls" for
// "AVG+LS", "bf" for "BRUTE", ...) to one shared instance per solver, so
// no call site enumerates algorithms. It is built once, on the first
// Global() call, and never changes afterwards; lookups take no lock.

#pragma once

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "solvers/solver.h"
#include "util/status.h"

namespace savg {

class SolverRegistry {
 public:
  /// The process-wide table of every built-in solver.
  static const SolverRegistry& Global();

  /// Resolves a name or alias to the solver's shared, process-owned
  /// instance. Unknown names fail with kNotFound and a message listing the
  /// known names.
  Result<const Solver*> Find(const std::string& name) const;

  /// Canonical names in table order (aliases excluded).
  std::vector<std::string> Names() const;

 private:
  SolverRegistry();

  struct Entry {
    std::string canonical_name;
    std::unique_ptr<const Solver> solver;
  };

  std::vector<Entry> entries_;
  /// Lowercased name/alias -> index into entries_.
  std::map<std::string, size_t> index_;
};

}  // namespace savg
