#include "loadgen/workload.h"

#include <openssl/evp.h>

#include <algorithm>
#include <atomic>
#include <charconv>
#include <thread>

#include "classical/bs_solver.h"
#include "classical/exact.h"
#include "graph/generators.h"
#include "graph/kplex.h"

namespace qplex::bench {
namespace {

/// G(n, m) at plex parameter k.
struct GraphConfig {
  int n = 0;
  int m = 0;
  int k = 0;
  /// When positive, only graphs whose maximum k-plex has this many vertices.
  int optimum = 0;
};

// Every workload keeps its latency distribution in one cluster, so that p50
// and p90 fall where samples are dense, not in a gap between two kinds of
// request whose share in a run decides which side a percentile lands on.
//
// qMKP at the Table III density (m ~ 2.3n, k = 2) on n = 10. Its binary
// search over the threshold probes T = 5, 8, 6 when the optimum is 5 (87% of
// these graphs) and four times otherwise, and each probe's literal-circuit
// oracle walks all 2^n masks, so the two kinds cost ~50 and ~70 ms. The pool
// keeps the optimum-5 graphs only.
const std::vector<GraphConfig> kQmkpConfigs = {{10, 23, 2, 5}};
// Enumeration on G(22, 88), 2^22 masks whatever the graph (~75 ms), in turn
// with BS on G(90, 1300) on the wide BitGraph path (~55-90 ms; under a tenth
// of these graphs reduce to the answer in ~2 ms).
const std::vector<GraphConfig> kExactConfigs = {{22, 88, 2}, {90, 1300, 2}};
// flood_small: the shape of bench/service_throughput's batch (three graphs
// x backends x k in {2, 3}, a third of the jobs verbatim repeats of 12
// earlier ones), on graphs small enough that a solve takes microseconds:
// n = 8, 10, 12 at the Table III density m ~ 2.3n. Of that batch's
// backends, sa is left out: it takes ~1.2 ms per solve even here, the others
// 40-300 us. Nothing here models real traffic; the sizes are picked so
// per-request overhead dominates.
const std::vector<GraphConfig> kFloodConfigs = {
    {8, 18, 2}, {8, 18, 3}, {10, 23, 2}, {10, 23, 3}, {12, 28, 2}, {12, 28, 3}};
constexpr int kFloodRepeats = 12;
constexpr std::uint64_t kFloodRepeatSeed = 5;

// Graphs per configuration: enough that a seed's pool costs about what
// another seed's does.
constexpr int kClosedPool = 64;
constexpr std::uint64_t kUniqueSeedBase = 1'000'000;
// Lockstep connections of the single-backend closed loops: three jobs at a
// time on a 4-vCPU host, one vCPU left to the server's front-end and the load
// generator. On a shared host each vCPU slows down on its own (a spin loop on
// four pinned vCPUs: 5 s-window medians correlate by -0.1 to 0.5), so
// concurrent jobs average those slowdowns. Over 8 seeds, IQR / median of
// qmkp_circuit's p50 was 9.4% with two connections, 3.5% with three and 6.6%
// with four, whose fourth job competes with the front-end.
constexpr int kClosedConnections = 3;

std::uint64_t MixSeed(std::uint64_t seed, std::uint64_t stream) {
  return seed * 0x9e3779b97f4a7c15ULL ^ (stream + 1) * 0xbf58476d1ce4e5b9ULL;
}

std::string RenderInstance(const Graph& graph, int k) {
  std::string json = "\"k\":" + std::to_string(k) + ",\"graph\":{\"n\":" +
                     std::to_string(graph.num_vertices()) + ",\"edges\":[";
  bool first = true;
  for (const auto& [u, v] : graph.Edges()) {
    json += first ? "[" : ",[";
    json += std::to_string(u) + "," + std::to_string(v) + "]";
    first = false;
  }
  return json + "]}";
}

Result<Instance> MakeInstance(const GraphConfig& config, std::uint64_t seed) {
  Instance instance;
  QPLEX_ASSIGN_OR_RETURN(instance.graph, RandomGnm(config.n, config.m, seed));
  instance.k = config.k;
  instance.json = RenderInstance(instance.graph, config.k);
  return instance;
}

/// Reference optimum: exhaustive enumeration where it is affordable,
/// branch-and-search above that.
Result<int> ReferenceOptimum(const Instance& instance) {
  if (instance.graph.num_vertices() <= 24) {
    QPLEX_ASSIGN_OR_RETURN(MkpSolution solution,
                           SolveMkpByEnumeration(instance.graph, instance.k));
    return solution.size;
  }
  BsSolver solver;
  QPLEX_ASSIGN_OR_RETURN(MkpSolution solution,
                         solver.Solve(instance.graph, instance.k));
  return solution.size;
}

/// Computes every reference optimum not yet known on up to four threads.
Status FillOptima(std::vector<Instance>* instances) {
  std::atomic<std::size_t> next{0};
  std::vector<Status> failures(instances->size());
  auto work = [&] {
    for (std::size_t i = next++; i < instances->size(); i = next++) {
      if ((*instances)[i].optimum > 0) {
        continue;
      }
      Result<int> optimum = ReferenceOptimum((*instances)[i]);
      if (optimum.ok()) {
        (*instances)[i].optimum = optimum.value();
      } else {
        failures[i] = optimum.status();
      }
    }
  };
  const unsigned count =
      std::clamp(std::thread::hardware_concurrency(), 1u, 4u);
  std::vector<std::thread> threads;
  for (unsigned t = 0; t < count; ++t) {
    threads.emplace_back(work);
  }
  for (std::thread& thread : threads) {
    thread.join();
  }
  for (const Status& status : failures) {
    QPLEX_RETURN_IF_ERROR(status);
  }
  return Status::Ok();
}

Result<std::vector<Instance>> CyclePool(
    const std::vector<GraphConfig>& configs, std::uint64_t seed) {
  // Index layout matches Workload::SlotAt: config fastest, pool graph next.
  std::vector<Instance> instances;
  for (int g = 0; g < kClosedPool; ++g) {
    for (std::size_t c = 0; c < configs.size(); ++c) {
      const std::uint64_t stream = MixSeed(seed, g * configs.size() + c);
      for (std::uint64_t draw = 0;; ++draw) {
        QPLEX_ASSIGN_OR_RETURN(
            Instance instance, MakeInstance(configs[c], MixSeed(stream, draw)));
        if (configs[c].optimum > 0) {
          // Only small graphs are conditioned: enumeration is cheap there.
          QPLEX_ASSIGN_OR_RETURN(instance.optimum, ReferenceOptimum(instance));
          if (instance.optimum != configs[c].optimum) {
            continue;
          }
        }
        instances.push_back(std::move(instance));
        break;
      }
    }
  }
  return instances;
}

std::string HexDigest(const unsigned char* bytes, unsigned length) {
  static constexpr char kHex[] = "0123456789abcdef";
  std::string hex;
  for (unsigned i = 0; i < length; ++i) {
    hex += kHex[bytes[i] >> 4];
    hex += kHex[bytes[i] & 15];
  }
  return hex;
}

}  // namespace

Result<Workload> Workload::Make(std::string_view name, std::uint64_t seed) {
  Workload w;
  w.name_ = std::string(name);
  w.seed_ = seed;
  if (name == "qmkp_circuit") {
    w.connections_ = kClosedConnections;
    w.backends_ = {
        {"\"backend\":\"qmkp\",\"options\":{\"oracle\":\"circuit\"}", false}};
    QPLEX_ASSIGN_OR_RETURN(w.instances_, CyclePool(kQmkpConfigs, seed));
    w.configs_ = static_cast<int>(kQmkpConfigs.size());
  } else if (name == "exact_classical" || name == "portfolio_race") {
    // exact_classical alternates enum and bs. The portfolio races on its bs
    // configuration.
    std::vector<GraphConfig> configs;
    if (name == "exact_classical") {
      w.connections_ = kClosedConnections;
      configs = kExactConfigs;
      w.backends_ = {{"\"backend\":\"enum\"", true},
                     {"\"backend\":\"bs\"", true}};
    } else {
      // On four shared vCPUs, concurrent racers slow each other by an amount
      // that follows the host's load. With one race at a time, whether a
      // race ran slowed varied with that load, and p50 jumped between a fast
      // and a slow mode from run to run; with two lockstep connections every
      // race runs contended. A third racer (grasp) added contention and no
      // overrun: it stops about 1 ms after bs proves the optimum.
      w.connections_ = 2;
      w.trace_requests_ = 20;
      configs = {kExactConfigs[1]};
      w.backends_ = {
          {"\"backends\":[\"bs\",\"sa\"],\"options\":{\"shots\":\"4000\"}",
           true}};
    }
    QPLEX_ASSIGN_OR_RETURN(w.instances_, CyclePool(configs, seed));
    w.configs_ = static_cast<int>(configs.size());
  } else if (name == "flood_small") {
    w.loop_ = LoopKind::kFlood;
    w.trace_requests_ = 120;  // 40 repeats, so the trace sees cache hits
    w.backends_ = {{"\"backend\":\"bs\"", true},
                   {"\"backend\":\"enum\"", true},
                   {"\"backend\":\"grasp\"", false}};
    QPLEX_ASSIGN_OR_RETURN(w.instances_, CyclePool(kFloodConfigs, seed));
    w.configs_ = static_cast<int>(kFloodConfigs.size());
  } else {
    return Status::InvalidArgument("unknown workload '" + std::string(name) +
                                   "'");
  }
  w.pool_ = static_cast<int>(w.instances_.size()) / w.configs_;
  QPLEX_RETURN_IF_ERROR(FillOptima(&w.instances_));
  return w;
}

Slot Workload::SlotAt(std::uint64_t index) const {
  Slot slot;
  if (loop_ == LoopKind::kClosed) {
    const auto config = static_cast<int>(index % configs_);
    slot.instance =
        config + configs_ * static_cast<int>(index / configs_ % pool_);
    slot.backend = config % static_cast<int>(backends_.size());
    slot.seed = kUniqueSeedBase * seed_ + index;
    return slot;
  }
  // flood_small: every third request repeats one of kFloodRepeats fixed
  // requests verbatim (a cache hit once the first copy is answered); the
  // others walk all backend x configuration x pool-graph combinations,
  // unique by seed.
  const int backends = static_cast<int>(backends_.size());
  if (index % 3 == 2) {
    const auto repeat = static_cast<int>(index / 3 % kFloodRepeats);
    slot.backend = repeat % backends;
    slot.instance = repeat / backends;
    slot.seed = kFloodRepeatSeed;
    return slot;
  }
  const std::uint64_t unique = index / 3 * 2 + index % 3;
  const auto combo = static_cast<int>(unique / backends % (configs_ * pool_));
  slot.backend = static_cast<int>(unique % backends);
  slot.instance = combo;  // config fastest, then pool graph: CyclePool order
  slot.seed = kUniqueSeedBase * seed_ + index;
  return slot;
}

std::string Workload::Line(std::uint64_t index) const {
  const Slot slot = SlotAt(index);
  return "{\"id\":\"r" + std::to_string(index) +
         "\",\"seed\":" + std::to_string(slot.seed) + "," +
         backends_[slot.backend].json + "," +
         instances_[slot.instance].json + "}";
}

std::string Workload::Digest() const {
  EVP_MD_CTX* context = EVP_MD_CTX_new();
  EVP_DigestInit_ex(context, EVP_sha256(), nullptr);
  for (std::uint64_t i = 0; i < kDigestLines; ++i) {
    const std::string line = Line(i) + "\n";
    EVP_DigestUpdate(context, line.data(), line.size());
  }
  unsigned char digest[EVP_MAX_MD_SIZE];
  unsigned length = 0;
  EVP_DigestFinal_ex(context, digest, &length);
  EVP_MD_CTX_free(context);
  return HexDigest(digest, length);
}

Check Workload::Verify(std::uint64_t index,
                       const obs::JsonValue& response) const {
  Check check;
  const Slot slot = SlotAt(index);
  const Instance& instance = instances_[slot.instance];
  const obs::JsonValue* status = response.Find("status");
  if (status == nullptr || !status->is_string()) {
    check.error = "response without status";
    return check;
  }
  if (status->AsString() != "OK") {
    const obs::JsonValue* error = response.Find("error");
    check.verdict = Verdict::kRefused;
    check.error = status->AsString();
    if (error != nullptr && error->is_string()) {
      check.error += ": " + error->AsString();
    }
    return check;
  }
  const obs::JsonValue* size = response.Find("size");
  const obs::JsonValue* members = response.Find("members");
  if (size == nullptr || !size->is_int() || members == nullptr ||
      !members->is_string()) {
    check.error = "response without size/members";
    return check;
  }
  check.size = static_cast<int>(size->AsInt());
  const int n = instance.graph.num_vertices();
  VertexBitset set(n);
  int count = 0;
  const std::string& text = members->AsString();
  for (std::size_t pos = 0; pos < text.size();) {
    const std::size_t end = std::min(text.find(' ', pos), text.size());
    int v = -1;
    const auto [ptr, ec] =
        std::from_chars(text.data() + pos, text.data() + end, v);
    if (ec != std::errc{} || ptr != text.data() + end || v < 0 || v >= n ||
        set.Test(v)) {
      check.error = "bad member list '" + text + "'";
      return check;
    }
    set.Set(v);
    ++count;
    pos = end + 1;
  }
  const std::string optimum = std::to_string(instance.optimum);
  if (count != check.size) {
    check.error = "size " + std::to_string(check.size) + " != |members| " +
                  std::to_string(count);
    return check;
  }
  if (!IsKPlex(instance.graph, set, instance.k)) {
    check.error = "members are not a " + std::to_string(instance.k) + "-plex";
    return check;
  }
  if (check.size > instance.optimum) {
    check.error = "size " + std::to_string(check.size) +
                  " above the reference optimum " + optimum;
    return check;
  }
  if (check.size == instance.optimum) {
    check.verdict = Verdict::kOptimal;
    return check;
  }
  const obs::JsonValue* proven = response.Find("provably_optimal");
  if (backends_[slot.backend].proving ||
      (proven != nullptr && proven->is_bool() && proven->AsBool())) {
    check.error = "exact answer " + std::to_string(check.size) +
                  " below the reference optimum " + optimum;
    return check;
  }
  check.verdict = Verdict::kSuboptimal;
  return check;
}

bool ParseLabel(std::string_view label, std::uint64_t* index) {
  if (label.size() < 2 || label[0] != 'r') {
    return false;
  }
  const auto [ptr, ec] =
      std::from_chars(label.data() + 1, label.data() + label.size(), *index);
  return ec == std::errc{} && ptr == label.data() + label.size();
}

}  // namespace qplex::bench
