// Directed social network used by SVGIC.
//
// The paper models the shopping group as a directed graph G = (V, E): an
// edge (u, v) means v's presence can yield social utility tau(u, v, c) for
// u. Friendships are usually symmetric, so generators add both directions
// by default, but the structure itself is directed (tau(u,v,c) may differ
// from tau(v,u,c)).
//
// Vertices are dense integer ids [0, n). Edges carry a dense edge id so
// per-edge data (e.g. tau values) can live in flat arrays.

#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "util/status.h"

namespace savg {

using UserId = int32_t;
using EdgeId = int32_t;

/// A directed edge u -> v with its dense id.
struct Edge {
  UserId u = -1;
  UserId v = -1;
  EdgeId id = -1;
};

/// Directed graph with adjacency lists and O(1) edge-id lookup per
/// (source, target) via sorted adjacency.
class SocialGraph {
 public:
  SocialGraph() = default;
  explicit SocialGraph(int num_vertices);

  int num_vertices() const { return num_vertices_; }
  int num_edges() const { return static_cast<int>(edges_.size()); }

  /// Appends a new isolated vertex (online serving: a user joining a live
  /// session) and returns its id. Existing ids stay valid.
  UserId AddVertex();

  /// Adds the directed edge u -> v; returns its id, or an error for
  /// out-of-range endpoints, self-loops, or duplicates.
  Result<EdgeId> AddEdge(UserId u, UserId v);

  /// Adds both u -> v and v -> u; returns the first id (second is +1 only
  /// if both are new). Ignores directions that already exist.
  Status AddUndirectedEdge(UserId u, UserId v);

  bool HasEdge(UserId u, UserId v) const;
  /// Edge id of u -> v, or -1.
  EdgeId FindEdge(UserId u, UserId v) const;

  const Edge& edge(EdgeId id) const { return edges_[id]; }
  const std::vector<Edge>& edges() const { return edges_; }

  /// Out-neighbors of u (targets of edges u -> *).
  const std::vector<UserId>& OutNeighbors(UserId u) const {
    return out_adj_[u];
  }
  /// Ids of outgoing edges of u, parallel to OutNeighbors(u).
  const std::vector<EdgeId>& OutEdgeIds(UserId u) const {
    return out_edge_ids_[u];
  }
  /// In-neighbors of u (sources of edges * -> u).
  const std::vector<UserId>& InNeighbors(UserId u) const { return in_adj_[u]; }

  int OutDegree(UserId u) const {
    return static_cast<int>(out_adj_[u].size());
  }

  /// Number of unordered vertex pairs {u, v} connected in at least one
  /// direction. For symmetric graphs this equals num_edges()/2.
  int NumUndirectedPairs() const;

  /// Density of the undirected support: pairs / (n choose 2). 0 for n < 2.
  double UndirectedDensity() const;

  /// Induced subgraph on `vertices`; `old_to_new` (optional out-param)
  /// receives the vertex relabeling (-1 for dropped vertices).
  SocialGraph InducedSubgraph(const std::vector<UserId>& vertices,
                              std::vector<UserId>* old_to_new = nullptr) const;

  /// Vertices within `hops` of `center` (including it) by undirected BFS.
  std::vector<UserId> EgoNetwork(UserId center, int hops) const;

  /// Number of undirected edges with both endpoints inside `vertices`.
  int CountInducedPairs(const std::vector<UserId>& vertices) const;

  std::string DebugString() const;

 private:
  int num_vertices_ = 0;
  std::vector<Edge> edges_;
  std::vector<std::vector<UserId>> out_adj_;
  std::vector<std::vector<EdgeId>> out_edge_ids_;
  std::vector<std::vector<UserId>> in_adj_;
};

}  // namespace savg
