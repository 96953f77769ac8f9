#include "robust/fault.hpp"

#include <atomic>
#include <cstdlib>
#include <map>
#include <mutex>

namespace streak::robust {

namespace {

// Armed flag outside the mutex so the disarmed STREAK_FAULT_POINT fast
// path is a single relaxed load.
std::atomic<bool> gArmed{false};

struct FaultState {
    std::mutex mutex;
    std::string armedSite;
    long armedHit = 0;
    // Per-site execution counts; meaningful only while armed.
    std::map<std::string, long, std::less<>> hits;
};

FaultState& state() {
    static FaultState s;
    return s;
}

}  // namespace

const std::vector<std::string>& faultSiteCatalog() {
    // Keep sorted; every STREAK_FAULT_POINT in src/ must appear here
    // (robust_test cross-checks observed sites against this list).
    static const std::vector<std::string> kSites = {
        "bnb/node",          // ilp/branch_and_bound.cpp node loop
        "build/candidates",  // core/problem.cpp per-object expansion task
        "build/pairs",       // core/problem.cpp per-group pair blocks
        "distance/analyze",  // core/distance.cpp analysis entry
        "eco/read",          // eco/checkpoint.cpp + eco/delta.cpp parsers
        "ilp/solve",         // core/ilp_router.cpp per-component solve
        "io/read",           // io/design_io.cpp parse entry
        "lp/solve",          // ilp/lp.cpp simplex solve entry
        "maze/search",       // route/maze.cpp search entry
        "pd/iteration",      // core/pd_solver.cpp commit loop
        "post/cluster",      // post/clustering.cpp entry
        "post/refine",       // post/refine.cpp wave loop
    };
    return kSites;
}

void armFault(std::string_view site, long hitIndex) {
    FaultState& s = state();
    const std::lock_guard<std::mutex> lock(s.mutex);
    s.armedSite.assign(site);
    s.armedHit = hitIndex < 0 ? 0 : hitIndex;
    s.hits.clear();
    gArmed.store(true, std::memory_order_relaxed);
}

long armFaultFromSeed(std::string_view site, unsigned long seed,
                      long maxHit) {
    if (maxHit < 1) maxHit = 1;
    // FNV-1a over the seed bytes then the site name: deterministic
    // across platforms and standard libraries (std::hash is not).
    unsigned long long h = 14695981039346656037ULL;
    auto mix = [&h](unsigned char byte) {
        h ^= byte;
        h *= 1099511628211ULL;
    };
    for (int i = 0; i < 8; ++i) {
        mix(static_cast<unsigned char>((seed >> (8 * i)) & 0xffU));
    }
    for (const char c : site) mix(static_cast<unsigned char>(c));
    const long hit = static_cast<long>(h % static_cast<unsigned long long>(maxHit));
    armFault(site, hit);
    return hit;
}

void disarmFaults() {
    FaultState& s = state();
    const std::lock_guard<std::mutex> lock(s.mutex);
    s.armedSite.clear();
    s.armedHit = 0;
    s.hits.clear();
    gArmed.store(false, std::memory_order_relaxed);
}

bool armFaultFromEnv() {
    const char* env = std::getenv("STREAK_FAULT");
    if (env == nullptr || *env == '\0') return false;
    std::string spec(env);
    long hit = 0;
    const size_t colon = spec.rfind(':');
    if (colon != std::string::npos) {
        char* end = nullptr;
        const long parsed = std::strtol(spec.c_str() + colon + 1, &end, 10);
        if (end != nullptr && *end == '\0') {
            hit = parsed;
            spec.resize(colon);
        }
    }
    if (spec.empty()) return false;
    armFault(spec, hit);
    return true;
}

long faultHits(std::string_view site) {
    FaultState& s = state();
    const std::lock_guard<std::mutex> lock(s.mutex);
    const auto it = s.hits.find(site);
    return it == s.hits.end() ? 0 : it->second;
}

std::vector<std::string> faultSitesSeen() {
    FaultState& s = state();
    const std::lock_guard<std::mutex> lock(s.mutex);
    std::vector<std::string> seen;
    seen.reserve(s.hits.size());
    for (const auto& [site, count] : s.hits) {
        if (count > 0) seen.push_back(site);
    }
    return seen;
}

namespace detail {

bool faultsArmed() { return gArmed.load(std::memory_order_relaxed); }

void hitFaultPoint(const char* site) {
    FaultState& s = state();
    long hitIndex = -1;
    bool fire = false;
    {
        const std::lock_guard<std::mutex> lock(s.mutex);
        long& count = s.hits[std::string(site)];
        hitIndex = count++;
        fire = s.armedSite == site && hitIndex == s.armedHit;
    }
    if (!fire) return;
    StreakError err;
    err.kind = ErrorKind::FaultInjected;
    err.site = site;
    err.message = "injected fault (hit " + std::to_string(hitIndex) + ")";
    // The ladder decides per stage whether a fallback exists; sites
    // without one surface as a structured error, never a crash.
    err.recoverable = true;
    raise(std::move(err));
}

}  // namespace detail

}  // namespace streak::robust
