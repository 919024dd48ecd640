// The fixed name -> Solver table of the built-in algorithms.
//
// Each row is one Solver (solver.h): a canonical name, whether it rounds
// the compact relaxation, and the algorithm's own function. The table maps
// case-insensitive names (plus aliases: "avg-ls" for "AVG+LS", "bf" for
// "BRUTE", ...) to one shared instance per solver, so no call site
// enumerates algorithms. It is built once, on the first Global() call, and
// never changes afterwards; lookups take no lock.

#pragma once

#include <map>
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

  /// Table order; never resized after construction, so Find's pointers
  /// stay valid.
  std::vector<Solver> solvers_;
  /// Lowercased name/alias -> index into solvers_.
  std::map<std::string, size_t> index_;
};

}  // namespace savg
