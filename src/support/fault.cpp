#include "support/fault.hpp"

#include <cstdio>
#include <cstdlib>

#include "support/rng.hpp"
#include "support/string_util.hpp"

namespace gmm::support {

namespace {

/// Closed table of instrumented fault points.  A spec naming anything
/// outside this table is a typo and rejects at parse time.
struct KnownSite {
  const char* site;
  const char* actions[4];  // nullptr-terminated
};

constexpr KnownSite kKnownSites[] = {
    {"lu.refactor", {"singular", nullptr}},
    {"lp.basis_load", {"corrupt", nullptr}},
    {"ilp.node", {"stall", nullptr}},
    {"ilp.alloc", {"fail", nullptr}},
    {"service.json", {"fail", nullptr}},
    {"service.admission", {"reject", nullptr}},
    {"cache.verify", {"corrupt", nullptr}},
    {"mapping.certify", {"corrupt", nullptr}},
    {"socket.accept", {"fail", nullptr}},
    {"socket.read", {"short", "eintr", "econnreset", nullptr}},
    {"socket.write", {"partial", "eintr", "econnreset", nullptr}},
};

/// FNV-1a, to give every (site, action) pair its own stable stream id.
std::uint64_t fnv1a(const std::string& text) {
  std::uint64_t hash = 14695981039346656037ULL;
  for (const char c : text) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 1099511628211ULL;
  }
  return hash;
}

/// Shortest exact formatting is not portable pre-C++17 to_chars-for-double
/// everywhere we build, so print 17 significant digits: enough that
/// strtod(print(p)) == p for every double, which is what the round-trip
/// property needs.
std::string probability_to_string(double p) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.17g", p);
  return buffer;
}

bool parse_u64(const std::string& text, std::uint64_t& out) {
  if (text.empty()) return false;
  char* end = nullptr;
  errno = 0;
  const unsigned long long value = std::strtoull(text.c_str(), &end, 10);
  if (errno != 0 || end != text.c_str() + text.size()) return false;
  out = static_cast<std::uint64_t>(value);
  return true;
}

/// Parse one trigger token ("0.05", "3", "once", "always").
bool parse_trigger(const std::string& text, FaultClause& clause,
                   std::string& error) {
  if (text == "once") {
    clause.trigger = FaultTrigger::kOnce;
    return true;
  }
  if (text == "always") {
    clause.trigger = FaultTrigger::kAlways;
    return true;
  }
  if (text.find('.') != std::string::npos) {
    char* end = nullptr;
    errno = 0;
    const double p = std::strtod(text.c_str(), &end);
    if (errno != 0 || end != text.c_str() + text.size() || !(p > 0.0) ||
        !(p < 1.0)) {
      error = "probability trigger '" + text + "' must be in (0, 1)";
      return false;
    }
    clause.trigger = FaultTrigger::kProbability;
    clause.probability = p;
    return true;
  }
  std::uint64_t nth = 0;
  if (!parse_u64(text, nth) || nth < 1 ||
      nth > static_cast<std::uint64_t>(INT64_MAX)) {
    error = "trigger '" + text +
            "' must be a probability in (0, 1), a positive "
            "evaluation index, 'once', or 'always'";
    return false;
  }
  clause.trigger = FaultTrigger::kNth;
  clause.nth = static_cast<std::int64_t>(nth);
  return true;
}

}  // namespace

bool fault_site_known(const std::string& site, const std::string& action) {
  for (const KnownSite& known : kKnownSites) {
    if (site != known.site) continue;
    for (const char* const* a = known.actions; *a != nullptr; ++a) {
      if (action == *a) return true;
    }
    return false;
  }
  return false;
}

std::vector<std::string> known_fault_points() {
  std::vector<std::string> points;
  for (const KnownSite& known : kKnownSites) {
    for (const char* const* a = known.actions; *a != nullptr; ++a) {
      points.push_back(std::string(known.site) + ":" + *a);
    }
  }
  return points;
}

FaultSpec parse_fault_spec(const std::string& text) {
  FaultSpec spec;
  spec.ok = true;
  const std::vector<std::string> tokens = split(text, ',');
  bool seen_clause = false;
  for (const std::string& raw : tokens) {
    const std::string token(trim(raw));
    if (token.empty()) {
      if (tokens.size() == 1) break;  // empty spec: disarmed, ok
      spec.ok = false;
      spec.error = "empty clause in fault spec";
      return spec;
    }
    if (token.rfind("seed=", 0) == 0) {
      if (seen_clause) {
        spec.ok = false;
        spec.error = "'seed=' must be the first clause";
        return spec;
      }
      if (!parse_u64(token.substr(5), spec.seed)) {
        spec.ok = false;
        spec.error = "malformed seed '" + token + "'";
        return spec;
      }
      seen_clause = true;
      continue;
    }
    const std::size_t colon = token.find(':');
    if (colon == std::string::npos || colon == 0) {
      spec.ok = false;
      spec.error = "clause '" + token + "' is not of the form site:action";
      return spec;
    }
    FaultClause clause;
    clause.site = token.substr(0, colon);
    const std::size_t at = token.find('@', colon + 1);
    if (at == std::string::npos) {
      clause.action = token.substr(colon + 1);
    } else {
      clause.action = token.substr(colon + 1, at - colon - 1);
      std::string error;
      if (!parse_trigger(token.substr(at + 1), clause, error)) {
        spec.ok = false;
        spec.error = error;
        return spec;
      }
    }
    if (clause.action.empty()) {
      spec.ok = false;
      spec.error = "clause '" + token + "' has an empty action";
      return spec;
    }
    if (!fault_site_known(clause.site, clause.action)) {
      spec.ok = false;
      spec.error = "unknown fault point '" + clause.site + ":" +
                   clause.action + "'";
      return spec;
    }
    spec.clauses.push_back(std::move(clause));
    seen_clause = true;
  }
  return spec;
}

std::string fault_spec_to_string(const FaultSpec& spec) {
  std::string out = "seed=" + std::to_string(spec.seed);
  for (const FaultClause& clause : spec.clauses) {
    out += "," + clause.site + ":" + clause.action + "@";
    switch (clause.trigger) {
      case FaultTrigger::kAlways:
        out += "always";
        break;
      case FaultTrigger::kOnce:
        out += "once";
        break;
      case FaultTrigger::kNth:
        out += std::to_string(clause.nth);
        break;
      case FaultTrigger::kProbability:
        out += probability_to_string(clause.probability);
        break;
    }
  }
  return out;
}

struct FaultInjector::ArmedClause {
  FaultClause clause;
  Rng rng{0};
  std::int64_t evaluations = 0;
  std::int64_t fires = 0;
};

FaultInjector::FaultInjector() = default;
FaultInjector::~FaultInjector() = default;

bool FaultInjector::arm(const std::string& spec_text, std::string& error) {
  FaultSpec spec = parse_fault_spec(spec_text);
  if (!spec.ok) {
    error = spec.error;
    return false;
  }
  std::lock_guard<std::mutex> lock(mutex_);
  seed_ = spec.seed;
  clauses_.clear();
  clauses_.reserve(spec.clauses.size());
  std::size_t index = 0;
  for (FaultClause& clause : spec.clauses) {
    ArmedClause armed;
    // Every clause gets its own stream keyed by (seed, point, position):
    // one site's evaluation count never perturbs another site's schedule,
    // and duplicate clauses for the same point stay independent.
    armed.rng.reseed(spec.seed ^ fnv1a(clause.site + ":" + clause.action) ^
                     (0x9e3779b97f4a7c15ULL * (index + 1)));
    armed.clause = std::move(clause);
    clauses_.push_back(std::move(armed));
    ++index;
  }
  armed_.store(!clauses_.empty(), std::memory_order_relaxed);
  return true;
}

void FaultInjector::disarm() {
  std::lock_guard<std::mutex> lock(mutex_);
  armed_.store(false, std::memory_order_relaxed);
  clauses_.clear();
  seed_ = 0;
}

bool FaultInjector::fire(const char* site, const char* action) {
  std::lock_guard<std::mutex> lock(mutex_);
  bool fired = false;
  for (ArmedClause& armed : clauses_) {
    if (armed.clause.site != site || armed.clause.action != action) continue;
    ++armed.evaluations;
    bool hit = false;
    switch (armed.clause.trigger) {
      case FaultTrigger::kAlways:
        hit = true;
        break;
      case FaultTrigger::kOnce:
        hit = armed.evaluations == 1;
        break;
      case FaultTrigger::kNth:
        hit = armed.evaluations == armed.clause.nth;
        break;
      case FaultTrigger::kProbability:
        // One draw per evaluation, hit or not, so the schedule is a pure
        // function of (seed, point, evaluation index).
        hit = armed.rng.bernoulli(armed.clause.probability);
        break;
    }
    if (hit) {
      ++armed.fires;
      fired = true;
    }
  }
  return fired;
}

std::int64_t FaultInjector::total_fires() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::int64_t total = 0;
  for (const ArmedClause& armed : clauses_) total += armed.fires;
  return total;
}

std::vector<FaultCount> FaultInjector::counts() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<FaultCount> out;
  out.reserve(clauses_.size());
  for (const ArmedClause& armed : clauses_) {
    FaultCount count;
    count.site = armed.clause.site;
    count.action = armed.clause.action;
    count.evaluations = armed.evaluations;
    count.fires = armed.fires;
    out.push_back(std::move(count));
  }
  return out;
}

std::string FaultInjector::spec_string() const {
  std::lock_guard<std::mutex> lock(mutex_);
  if (clauses_.empty()) return "";
  FaultSpec spec;
  spec.ok = true;
  spec.seed = seed_;
  for (const ArmedClause& armed : clauses_) spec.clauses.push_back(armed.clause);
  return fault_spec_to_string(spec);
}

FaultInjector& global_faults() {
  static FaultInjector injector;
  return injector;
}

}  // namespace gmm::support
