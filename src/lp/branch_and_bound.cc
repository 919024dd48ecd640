#include "lp/branch_and_bound.h"

#include <algorithm>
#include <cmath>
#include <queue>

#include "util/logging.h"

namespace savg {

namespace {

/// |x - round(x)| at or below this counts as integral.
constexpr double kIntegralityTolerance = 1e-6;

struct Node {
  /// Bound overrides for integer variables, parallel to `integer_vars`.
  std::vector<double> lb;
  std::vector<double> ub;
  double parent_bound = 0.0;  ///< LP bound inherited from the parent
  int depth = 0;
  /// Optimal basis of the parent's LP relaxation; warm-starts this node.
  LpBasis parent_basis;
};

/// Ordering for the best-bound priority queue (maximization: larger bound
/// first).
struct NodeOrder {
  bool maximize;
  bool operator()(const std::pair<double, size_t>& a,
                  const std::pair<double, size_t>& b) const {
    return maximize ? a.first < b.first : a.first > b.first;
  }
};

bool IsIntegral(double v) {
  return std::abs(v - std::round(v)) <= kIntegralityTolerance;
}

}  // namespace

Result<MipSolution> SolveMip(const LpModel& model,
                             const std::vector<int>& integer_vars,
                             const MipOptions& options) {
  Timer timer;
  const bool maximize = model.maximize();
  const double sense = maximize ? 1.0 : -1.0;

  // Working model whose integer-variable bounds are rewritten per node.
  LpModel work = model;

  MipSolution result;
  bool have_incumbent = false;
  double incumbent_obj = maximize ? -1e300 : 1e300;
  std::vector<double> incumbent_x;

  auto try_incumbent = [&](const std::vector<double>& x, double obj) {
    if (model.MaxViolation(x) > 1e-6) return;
    for (int iv : integer_vars) {
      if (!IsIntegral(x[iv])) return;
    }
    if (sense * obj > sense * incumbent_obj + 1e-12) {
      incumbent_obj = obj;
      incumbent_x = x;
      have_incumbent = true;
    }
  };

  // Node storage: explicit arena; open nodes referenced by index.
  std::vector<Node> arena;
  std::vector<size_t> stack;  // depth-first
  std::priority_queue<std::pair<double, size_t>,
                      std::vector<std::pair<double, size_t>>, NodeOrder>
      heap(NodeOrder{maximize});

  Node root;
  root.lb.resize(integer_vars.size());
  root.ub.resize(integer_vars.size());
  for (size_t i = 0; i < integer_vars.size(); ++i) {
    root.lb[i] = model.lower(integer_vars[i]);
    root.ub[i] = model.upper(integer_vars[i]);
  }
  root.parent_bound = maximize ? 1e300 : -1e300;
  if (options.root_warm_start != nullptr) {
    root.parent_basis = *options.root_warm_start;
  }
  arena.push_back(std::move(root));
  stack.push_back(0);

  bool use_depth_first =
      options.node_selection != NodeSelection::kBestBound;

  double global_bound = maximize ? -1e300 : 1e300;  // best open bound seen
  int64_t nodes = 0;
  Status exhaust_status = Status::OK();

  auto pop_node = [&]() -> std::optional<size_t> {
    if (use_depth_first) {
      if (stack.empty()) {
        // Hybrid switchover may have parked nodes in the heap.
        if (heap.empty()) return std::nullopt;
        size_t idx = heap.top().second;
        heap.pop();
        return idx;
      }
      size_t idx = stack.back();
      stack.pop_back();
      return idx;
    }
    if (heap.empty()) {
      if (stack.empty()) return std::nullopt;
      size_t idx = stack.back();
      stack.pop_back();
      return idx;
    }
    size_t idx = heap.top().second;
    heap.pop();
    return idx;
  };

  auto push_node = [&](Node&& node) {
    arena.push_back(std::move(node));
    const size_t idx = arena.size() - 1;
    if (use_depth_first) {
      stack.push_back(idx);
    } else {
      heap.emplace(arena[idx].parent_bound, idx);
    }
  };

  while (true) {
    if (nodes >= options.max_nodes ||
        timer.ElapsedSeconds() > options.time_limit_seconds) {
      exhaust_status = Status::ResourceExhausted("MIP node/time limit");
      break;
    }
    auto idx = pop_node();
    if (!idx.has_value()) break;
    // Copy out node data: arena may reallocate when children are pushed.
    const Node node = arena[*idx];
    ++nodes;

    // Bound-based pruning against the incumbent.
    if (have_incumbent &&
        sense * node.parent_bound <= sense * incumbent_obj + 1e-12) {
      continue;
    }

    for (size_t i = 0; i < integer_vars.size(); ++i) {
      work.SetBounds(integer_vars[i], node.lb[i], node.ub[i]);
    }
    SimplexOptions lp_opt = options.lp_options;
    const double elapsed = timer.ElapsedSeconds();
    lp_opt.time_limit_seconds = std::min(
        lp_opt.time_limit_seconds, options.time_limit_seconds - elapsed);
    const bool is_root = nodes == 1;
    // The root honors an explicit root_warm_start even when per-node warm
    // starts are disabled (the point of wiring a caller basis through).
    const bool want_warm =
        options.warm_start_nodes ||
        (is_root && options.root_warm_start != nullptr);
    const LpBasis* warm =
        want_warm && !node.parent_basis.Empty() ? &node.parent_basis
                                                : nullptr;
    auto lp = SolveLp(work, lp_opt, warm);
    if (lp.ok()) {
      result.simplex_iterations += lp->iterations;
      result.lp_stats += lp->stats;
      if (is_root) {
        result.root_simplex_iterations = lp->iterations;
        result.root_warm_started = lp->warm_started;
        result.root_basis = lp->basis;
      }
    }
    if (!lp.ok()) {
      if (lp.status().code() == StatusCode::kInfeasible) continue;
      if (lp.status().code() == StatusCode::kResourceExhausted) {
        exhaust_status = lp.status();
        break;
      }
      return lp.status();
    }
    const double bound = lp->objective;
    global_bound = maximize ? std::max(global_bound, bound)
                            : std::min(global_bound, bound);
    if (have_incumbent && sense * bound <= sense * incumbent_obj + 1e-12) {
      continue;  // pruned by bound
    }

    // Integral already?
    int branch_var = -1;
    double branch_frac = -1.0;
    for (size_t i = 0; i < integer_vars.size(); ++i) {
      const double v = lp->x[integer_vars[i]];
      if (!IsIntegral(v)) {
        const double frac = std::abs(v - std::round(v));
        const double dist_half = std::abs(frac - 0.5);
        if (branch_var < 0 || dist_half < branch_frac) {
          branch_frac = dist_half;
          branch_var = static_cast<int>(i);
        }
      }
    }
    if (branch_var < 0) {
      try_incumbent(lp->x, lp->objective);
      if (options.node_selection == NodeSelection::kHybrid &&
          use_depth_first && have_incumbent) {
        // Switch to best-bound: migrate the stack into the heap.
        for (size_t s : stack) heap.emplace(arena[s].parent_bound, s);
        stack.clear();
        use_depth_first = false;
      }
      continue;
    }

    // Optional primal heuristic to seed/improve the incumbent.
    if (options.heuristic) {
      auto hx = options.heuristic(lp->x);
      if (hx.has_value()) {
        try_incumbent(*hx, model.ObjectiveValue(*hx));
      }
    }

    const int var = integer_vars[branch_var];
    const double v = lp->x[var];
    // Down child: x <= floor(v); up child: x >= ceil(v). Both children
    // inherit this node's optimal basis as their warm start.
    Node down = node;
    down.ub[branch_var] = std::floor(v);
    down.parent_bound = bound;
    down.depth = node.depth + 1;
    down.parent_basis = lp->basis;
    Node up = node;
    up.lb[branch_var] = std::ceil(v);
    up.parent_bound = bound;
    up.depth = node.depth + 1;
    up.parent_basis = std::move(lp->basis);
    // Push the more promising child last for depth-first (explored first):
    // prefer the branch whose bound direction matches rounding of v.
    if (v - std::floor(v) > 0.5) {
      push_node(std::move(down));
      push_node(std::move(up));
    } else {
      push_node(std::move(up));
      push_node(std::move(down));
    }
  }

  result.nodes_explored = nodes;
  result.solve_seconds = timer.ElapsedSeconds();
  if (!have_incumbent) {
    if (!exhaust_status.ok()) return exhaust_status;
    return Status::Infeasible("no integral solution exists");
  }
  result.x = std::move(incumbent_x);
  result.objective = incumbent_obj;
  const bool finished = exhaust_status.ok() && stack.empty() && heap.empty();
  result.best_bound = finished ? incumbent_obj : global_bound;
  result.proven_optimal = finished;
  return result;
}

}  // namespace savg
