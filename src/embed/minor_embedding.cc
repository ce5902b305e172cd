#include "embed/minor_embedding.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <queue>
#include <set>

#include "common/rng.h"

namespace qplex {
namespace {

constexpr double kInfinity = std::numeric_limits<double>::infinity();

/// Initial multiplicative node-cost penalty per existing occupant; drives the
/// router around contended qubits (the alpha of Cai–Macready–Roy).
constexpr double kUsagePenalty = 8.0;

/// Router state shared by the construction and refinement phases.
struct RouterState {
  const Graph* hardware = nullptr;
  /// Number of chains currently occupying each hardware node.
  std::vector<int> usage;
  double usage_penalty = kUsagePenalty;
  /// Per-node multiplicative cost noise, refreshed before every chain
  /// construction. Equal-cost configurations then wander pass to pass, which
  /// is what lets the rip-up loop escape "door contention" deadlocks (two
  /// variables forced through the single free qubit next to a third chain).
  std::vector<double> jitter;

  /// Cached per-node entering cost, rebuilt once per chain construction
  /// (a pow() per edge relaxation would dominate the router's runtime).
  std::vector<double> cost;

  double NodeCost(int node) const { return cost[node]; }

  void RefreshCosts(Rng& rng) {
    cost.resize(usage.size());
    for (std::size_t node = 0; node < usage.size(); ++node) {
      // Free nodes cost ~1; each occupant multiplies the cost, steering the
      // router around contention without forbidding it outright. Jitter
      // breaks ties so stalled configurations wander between passes.
      jitter[node] = 1.0 + 0.25 * rng.UniformDouble();
      cost[node] =
          std::pow(usage_penalty, static_cast<double>(usage[node])) *
          jitter[node];
    }
  }
};

/// Multi-source Dijkstra from every node of `sources` (cost 0 to stand on a
/// source). Fills dist/parent over hardware nodes where the cost of entering
/// node w is NodeCost(w).
void Route(const RouterState& state, const std::vector<int>& sources,
           std::vector<double>* dist, std::vector<int>* parent) {
  const int n = state.hardware->num_vertices();
  dist->assign(n, kInfinity);
  parent->assign(n, -1);
  using Item = std::pair<double, int>;
  std::priority_queue<Item, std::vector<Item>, std::greater<Item>> queue;
  for (int s : sources) {
    (*dist)[s] = 0;
    queue.push({0, s});
  }
  while (!queue.empty()) {
    const auto [d, node] = queue.top();
    queue.pop();
    if (d > (*dist)[node]) {
      continue;
    }
    for (Vertex next : state.hardware->Neighbors(node)) {
      const double nd = d + state.NodeCost(next);
      if (nd < (*dist)[next]) {
        (*dist)[next] = nd;
        (*parent)[next] = node;
        queue.push({nd, next});
      }
    }
  }
}

/// Result of growing one chain: the variable's own nodes plus, for each
/// neighbour chain, the routed connector nodes DONATED to that neighbour.
/// Donating connectors (instead of absorbing them) is the Cai-Macready-Roy
/// move that resolves door contention: once the connector joins the
/// neighbour's chain, later routers stop in front of it instead of fighting
/// over it.
struct GrownChain {
  bool ok = false;
  std::vector<int> own;
  /// Parallel to the neighbor_chains input: nodes to append to that chain.
  std::vector<std::vector<int>> donations;
};

/// Builds a chain for logical variable `v` given the chains of its already-
/// embedded logical neighbours.
GrownChain GrowChain(const RouterState& state,
                     const std::vector<std::vector<int>>& neighbor_chains,
                     Rng& rng) {
  const int n = state.hardware->num_vertices();
  GrownChain grown;
  grown.donations.resize(neighbor_chains.size());
  if (neighbor_chains.empty()) {
    // Seed anywhere: cheapest node, ties broken randomly.
    int best = -1;
    double best_cost = kInfinity;
    int ties = 0;
    for (int node = 0; node < n; ++node) {
      const double cost = state.NodeCost(node);
      if (cost < best_cost) {
        best = node;
        best_cost = cost;
        ties = 1;
      } else if (cost == best_cost && rng.UniformInt(++ties) == 0) {
        best = node;
      }
    }
    if (best >= 0) {
      grown.ok = true;
      grown.own.push_back(best);
    }
    return grown;
  }

  // One Dijkstra per neighbour chain.
  std::vector<std::vector<double>> dists(neighbor_chains.size());
  std::vector<std::vector<int>> parents(neighbor_chains.size());
  for (std::size_t i = 0; i < neighbor_chains.size(); ++i) {
    Route(state, neighbor_chains[i], &dists[i], &parents[i]);
  }

  // Root = node minimizing its own cost plus the distances to every chain.
  int root = -1;
  double root_cost = kInfinity;
  for (int node = 0; node < n; ++node) {
    double total = state.NodeCost(node);
    for (const auto& dist : dists) {
      if (dist[node] == kInfinity) {
        total = kInfinity;
        break;
      }
      total += dist[node];
    }
    if (total < root_cost) {
      root_cost = total;
      root = node;
    }
  }
  if (root < 0) {
    return grown;
  }

  // Reconstruct the routed path per neighbour (root -> ... -> last node
  // before the neighbour chain).
  std::vector<std::vector<int>> paths(neighbor_chains.size());
  std::map<int, int> occurrences;  // node -> number of paths through it
  for (std::size_t i = 0; i < neighbor_chains.size(); ++i) {
    const std::set<int> targets(neighbor_chains[i].begin(),
                                neighbor_chains[i].end());
    if (targets.count(root) > 0) {
      continue;  // root already touches this chain
    }
    int node = root;
    while (parents[i][node] >= 0) {
      node = parents[i][node];
      if (targets.count(node) > 0) {
        break;  // reached the neighbour chain
      }
      paths[i].push_back(node);
    }
    for (int node_on_path : paths[i]) {
      ++occurrences[node_on_path];
    }
  }

  // The variable keeps the root and every node shared by two or more paths
  // (Steiner branch points, plus everything rootward of them); each path's
  // unshared suffix is DONATED to the neighbour chain it connects. Donating
  // connectors resolves door contention: once a connector joins the
  // neighbour's chain, later routers stop in front of it instead of fighting
  // over it. Edge coverage holds at the keep/donate split point.
  grown.ok = true;
  std::set<int> own{root};
  for (std::size_t i = 0; i < neighbor_chains.size(); ++i) {
    std::size_t last_shared = 0;  // paths[i][j] kept for j < last_shared
    for (std::size_t j = 0; j < paths[i].size(); ++j) {
      if (occurrences[paths[i][j]] > 1) {
        last_shared = j + 1;
      }
    }
    for (std::size_t j = 0; j < paths[i].size(); ++j) {
      if (j < last_shared) {
        own.insert(paths[i][j]);
      } else {
        grown.donations[i].push_back(paths[i][j]);
      }
    }
  }
  grown.own.assign(own.begin(), own.end());
  return grown;
}

}  // namespace

EmbeddingStats ComputeEmbeddingStats(const Embedding& embedding) {
  EmbeddingStats stats;
  stats.num_variables = static_cast<int>(embedding.chains.size());
  for (const auto& chain : embedding.chains) {
    stats.num_physical_qubits += static_cast<int>(chain.size());
    stats.max_chain = std::max(stats.max_chain, static_cast<int>(chain.size()));
  }
  stats.average_chain =
      stats.num_variables == 0
          ? 0
          : static_cast<double>(stats.num_physical_qubits) /
                stats.num_variables;
  return stats;
}

Status ValidateEmbedding(const Graph& logical, const Graph& hardware,
                         const Embedding& embedding) {
  const int n = logical.num_vertices();
  if (static_cast<int>(embedding.chains.size()) != n) {
    return Status::InvalidArgument("one chain per logical variable required");
  }
  std::vector<int> owner(hardware.num_vertices(), -1);
  for (int v = 0; v < n; ++v) {
    const auto& chain = embedding.chains[v];
    if (chain.empty()) {
      return Status::InvalidArgument("empty chain for variable " +
                                     std::to_string(v));
    }
    for (int node : chain) {
      if (node < 0 || node >= hardware.num_vertices()) {
        return Status::InvalidArgument("chain node outside hardware");
      }
      if (owner[node] != -1) {
        return Status::InvalidArgument(
            "hardware qubit " + std::to_string(node) + " shared by chains " +
            std::to_string(owner[node]) + " and " + std::to_string(v));
      }
      owner[node] = v;
    }
    // Connectivity: BFS within the chain.
    std::set<int> members(chain.begin(), chain.end());
    std::vector<int> stack{chain[0]};
    std::set<int> seen{chain[0]};
    while (!stack.empty()) {
      const int node = stack.back();
      stack.pop_back();
      for (Vertex next : hardware.Neighbors(node)) {
        if (members.count(next) > 0 && seen.insert(next).second) {
          stack.push_back(next);
        }
      }
    }
    if (seen.size() != members.size()) {
      return Status::InvalidArgument("chain for variable " +
                                     std::to_string(v) + " is disconnected");
    }
  }
  // Edge coverage.
  for (const auto& [u, v] : logical.Edges()) {
    bool covered = false;
    for (int a : embedding.chains[u]) {
      for (Vertex b : hardware.Neighbors(a)) {
        if (owner[b] == v) {
          covered = true;
          break;
        }
      }
      if (covered) {
        break;
      }
    }
    if (!covered) {
      return Status::InvalidArgument("logical edge (" + std::to_string(u) +
                                     ", " + std::to_string(v) +
                                     ") not realised by any coupler");
    }
  }
  return Status::Ok();
}

Result<Embedding> MinorEmbedder::Embed(const Graph& logical,
                                       const Graph& hardware) const {
  const int n = logical.num_vertices();
  if (n == 0) {
    return Embedding{};
  }
  if (hardware.num_vertices() == 0) {
    return Status::InvalidArgument("empty hardware graph");
  }

  Rng rng(options_.seed);
  RouterState state;
  state.hardware = &hardware;
  state.usage.assign(hardware.num_vertices(), 0);
  state.jitter.assign(hardware.num_vertices(), 1.0);

  // Embed in descending-degree order (hardest first).
  std::vector<Vertex> order(n);
  for (int v = 0; v < n; ++v) {
    order[v] = v;
  }
  std::stable_sort(order.begin(), order.end(), [&](Vertex a, Vertex b) {
    return logical.Degree(a) > logical.Degree(b);
  });

  Embedding embedding;
  embedding.chains.assign(n, {});
  std::vector<bool> placed(n, false);

  auto embed_one = [&](Vertex v) -> bool {
    state.RefreshCosts(rng);
    std::vector<std::vector<int>> neighbor_chains;
    std::vector<Vertex> neighbor_ids;
    for (Vertex u : logical.Neighbors(v)) {
      if (placed[u]) {
        neighbor_chains.push_back(embedding.chains[u]);
        neighbor_ids.push_back(u);
      }
    }
    const GrownChain grown = GrowChain(state, neighbor_chains, rng);
    if (!grown.ok) {
      return false;
    }
    embedding.chains[v] = grown.own;
    for (int node : grown.own) {
      ++state.usage[node];
    }
    for (std::size_t i = 0; i < neighbor_ids.size(); ++i) {
      for (int node : grown.donations[i]) {
        embedding.chains[neighbor_ids[i]].push_back(node);
        ++state.usage[node];
      }
    }
    placed[v] = true;
    return true;
  };

  for (Vertex v : order) {
    if (!embed_one(v)) {
      return Status::ResourceExhausted("hardware too small for variable " +
                                       std::to_string(v));
    }
  }

  auto has_overlap = [&]() {
    for (int node = 0; node < hardware.num_vertices(); ++node) {
      if (state.usage[node] > 1) {
        return true;
      }
    }
    return false;
  };

  // Rip-up and re-route until overlap-free or out of passes. Each pass
  // shuffles the variable order and raises the contention penalty — the
  // escalation schedule of Cai-Macready-Roy.
  auto overlap_count = [&]() {
    int overlapped = 0;
    for (int node = 0; node < hardware.num_vertices(); ++node) {
      overlapped += state.usage[node] > 1;
    }
    return overlapped;
  };
  int best_overlap = overlap_count();
  int stalled_passes = 0;
  for (int pass = 0; pass < options_.max_passes && has_overlap(); ++pass) {
    // Restart from scratch in a fresh random order only when refinement has
    // stalled: rip-up of one chain at a time cannot escape some contention
    // deadlocks, but a reshuffled rebuild usually does — while restarting
    // too eagerly throws away convergence progress on large instances.
    if (stalled_passes >= 4) {
      std::fill(state.usage.begin(), state.usage.end(), 0);
      std::fill(placed.begin(), placed.end(), false);
      for (auto& chain : embedding.chains) {
        chain.clear();
      }
      state.usage_penalty = kUsagePenalty;
      best_overlap = hardware.num_vertices();
      stalled_passes = 0;
    }
    for (std::size_t i = order.size(); i > 1; --i) {
      std::swap(order[i - 1], order[rng.UniformInt(i)]);
    }
    for (Vertex v : order) {
      for (int node : embedding.chains[v]) {
        --state.usage[node];
      }
      placed[v] = false;
      embedding.chains[v].clear();
      if (!embed_one(v)) {
        return Status::ResourceExhausted("re-route failed for variable " +
                                         std::to_string(v));
      }
    }
    state.usage_penalty *= 2.0;
    const int overlapped = overlap_count();
    if (overlapped < best_overlap) {
      best_overlap = overlapped;
      stalled_passes = 0;
    } else {
      ++stalled_passes;
    }
  }
  if (has_overlap()) {
    return Status::ResourceExhausted(
        "no overlap-free embedding within the pass budget");
  }
  QPLEX_RETURN_IF_ERROR(ValidateEmbedding(logical, hardware, embedding));
  return embedding;
}

}  // namespace qplex
