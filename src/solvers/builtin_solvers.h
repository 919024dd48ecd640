// Constructors of the built-in algorithm adapters (internal).
//
// Each adapter translation unit defines one; the SolverRegistry
// constructor (solvers/solver_registry.cc) calls them all to build its
// fixed table.

#pragma once

#include <memory>

#include "solvers/solver.h"

namespace savg {

std::unique_ptr<Solver> NewAvgSolver(bool local_search);  // AVG / AVG+LS
std::unique_ptr<Solver> NewAvgShardSolver();               // AVG-SHARD
std::unique_ptr<Solver> NewAvgDSolver();                   // AVG-D
std::unique_ptr<Solver> NewAvgStSolver();                  // AVG-ST
std::unique_ptr<Solver> NewIndependentRoundingSolver();    // IR
std::unique_ptr<Solver> NewPerSolver();                    // PER
std::unique_ptr<Solver> NewFmgSolver();                    // FMG
std::unique_ptr<Solver> NewSdpSolver();                    // SDP
std::unique_ptr<Solver> NewGrfSolver();                    // GRF
std::unique_ptr<Solver> NewIpSolver();                     // IP
std::unique_ptr<Solver> NewBruteForceSolver();             // BRUTE

}  // namespace savg
