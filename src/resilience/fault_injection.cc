#include "resilience/fault_injection.h"

#include <cstdlib>
#include <iostream>

#include "common/parse.h"
#include "obs/metrics.h"

namespace qplex::resilience {
namespace {

constexpr std::string_view kSiteNames[kNumFaultSites] = {
    "alloc",      "solver_throw", "solver_slow",
    "io_read",    "cache_insert", "solver_stall"};

/// SplitMix64 finalizer: maps (seed, call index) to a uniform 64-bit hash so
/// probability triggers are deterministic per call index, independent of how
/// calls interleave across threads in between.
std::uint64_t Mix(std::uint64_t seed, std::uint64_t call) {
  std::uint64_t z = seed + call * 0x9e3779b97f4a7c15ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

double HashToUnitDouble(std::uint64_t seed, std::uint64_t call) {
  return static_cast<double>(Mix(seed, call) >> 11) * 0x1.0p-53;
}

Result<FaultRule> ParseRule(std::string_view rate, std::string_view seed_text,
                            std::string_view clause) {
  FaultRule rule;
  if (rate.find_first_of(".eE") != std::string_view::npos) {
    const Result<double> probability =
        ParseNumber<double>("fault-spec probability", rate);
    if (!probability.ok() || probability.value() <= 0 ||
        probability.value() > 1) {
      return Status::InvalidArgument(
          "fault-spec probability must be in (0, 1]: " + std::string(clause));
    }
    rule.probability = probability.value();
  } else {
    const Result<std::int64_t> every_n =
        ParseNumber<std::int64_t>("fault-spec every-N", rate);
    if (!every_n.ok() || every_n.value() <= 0) {
      return Status::InvalidArgument(
          "fault-spec every-N must be a positive integer: " +
          std::string(clause));
    }
    rule.every_n = every_n.value();
  }
  if (!seed_text.empty()) {
    const Result<std::uint64_t> seed =
        ParseNumber<std::uint64_t>("fault-spec seed", seed_text);
    if (!seed.ok()) {
      return Status::InvalidArgument(
          "fault-spec seed must be a non-negative integer: " +
          std::string(clause));
    }
    rule.seed = seed.value();
  }
  return rule;
}

}  // namespace

std::string_view FaultSiteName(FaultSite site) {
  return kSiteNames[static_cast<int>(site)];
}

Result<FaultSite> ParseFaultSite(std::string_view name) {
  for (int i = 0; i < kNumFaultSites; ++i) {
    if (kSiteNames[i] == name) {
      return static_cast<FaultSite>(i);
    }
  }
  std::string valid;
  for (const std::string_view site : kSiteNames) {
    if (!valid.empty()) {
      valid += ", ";
    }
    valid += site;
  }
  return Status::InvalidArgument("unknown fault site '" + std::string(name) +
                                 "' (valid: " + valid + ")");
}

Result<std::vector<std::pair<FaultSite, FaultRule>>> ParseFaultSpec(
    std::string_view spec) {
  std::vector<std::pair<FaultSite, FaultRule>> rules;
  std::size_t start = 0;
  while (start <= spec.size()) {
    std::size_t end = spec.find(',', start);
    if (end == std::string_view::npos) {
      end = spec.size();
    }
    const std::string_view clause = spec.substr(start, end - start);
    start = end + 1;
    if (clause.empty()) {
      continue;  // tolerate trailing/duplicated commas from flag joining
    }
    const std::size_t first = clause.find(':');
    if (first == std::string_view::npos) {
      return Status::InvalidArgument(
          "fault-spec clause needs site:rate[:seed]: " + std::string(clause));
    }
    const std::size_t second = clause.find(':', first + 1);
    const std::string_view site_name = clause.substr(0, first);
    const std::string_view rate =
        second == std::string_view::npos
            ? clause.substr(first + 1)
            : clause.substr(first + 1, second - first - 1);
    const std::string_view seed_text =
        second == std::string_view::npos ? std::string_view{}
                                         : clause.substr(second + 1);
    QPLEX_ASSIGN_OR_RETURN(const FaultSite site, ParseFaultSite(site_name));
    QPLEX_ASSIGN_OR_RETURN(const FaultRule rule,
                           ParseRule(rate, seed_text, clause));
    rules.emplace_back(site, rule);
  }
  return rules;
}

FaultInjector& FaultInjector::Global() {
  static FaultInjector* injector = [] {
    auto* created = new FaultInjector();
    if (const char* spec = std::getenv("QPLEX_FAULT_SPEC");
        spec != nullptr && *spec != '\0') {
      const Status status = created->Configure(spec);
      if (!status.ok()) {
        std::cerr << "QPLEX_FAULT_SPEC ignored: " << status.ToString() << "\n";
      }
    }
    return created;
  }();
  return *injector;
}

Status FaultInjector::Configure(std::string_view spec) {
  QPLEX_ASSIGN_OR_RETURN(const auto rules, ParseFaultSpec(spec));
  Reset();
  for (const auto& [site, rule] : rules) {
    Arm(site, rule);
  }
  return Status::Ok();
}

void FaultInjector::Arm(FaultSite site, FaultRule rule) {
  std::lock_guard<std::mutex> lock(config_mutex_);
  SiteState& state = sites_[static_cast<int>(site)];
  if (!state.active.load(std::memory_order_relaxed)) {
    armed_sites_.fetch_add(1, std::memory_order_relaxed);
  }
  state.rule = rule;
  state.calls.store(0, std::memory_order_relaxed);
  state.injected.store(0, std::memory_order_relaxed);
  state.active.store(true, std::memory_order_release);
}

void FaultInjector::Reset() {
  std::lock_guard<std::mutex> lock(config_mutex_);
  for (SiteState& state : sites_) {
    state.active.store(false, std::memory_order_relaxed);
    state.calls.store(0, std::memory_order_relaxed);
    state.injected.store(0, std::memory_order_relaxed);
    state.rule = FaultRule{};
  }
  armed_sites_.store(0, std::memory_order_relaxed);
}

bool FaultInjector::ShouldFire(FaultSite site) {
  SiteState& state = sites_[static_cast<int>(site)];
  if (!state.active.load(std::memory_order_acquire)) {
    return false;
  }
  const std::int64_t call =
      state.calls.fetch_add(1, std::memory_order_relaxed) + 1;
  bool fire;
  if (state.rule.every_n > 0) {
    fire = call % state.rule.every_n == 0;
  } else {
    fire = HashToUnitDouble(state.rule.seed,
                            static_cast<std::uint64_t>(call)) <
           state.rule.probability;
  }
  if (fire) {
    state.injected.fetch_add(1, std::memory_order_relaxed);
    obs::MetricsRegistry::Global()
        .GetCounter("resilience.fault." + std::string(FaultSiteName(site)) +
                    ".injected")
        .Increment();
  }
  return fire;
}

std::int64_t FaultInjector::calls(FaultSite site) const {
  return sites_[static_cast<int>(site)].calls.load(std::memory_order_relaxed);
}

std::int64_t FaultInjector::injected(FaultSite site) const {
  return sites_[static_cast<int>(site)].injected.load(
      std::memory_order_relaxed);
}

}  // namespace qplex::resilience
