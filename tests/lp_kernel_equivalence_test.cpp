// The sparse LP engine (ilp::Relaxation / ilp::solveLp) against the dense
// tableau it replaced (lp_dense.cpp, kept verbatim), bit for bit: the
// same status, the same pivot and bound-flip counts, the same objective
// bits, and values equal under == (only the sign of an exact zero may
// differ). Inputs: lp_test's random models, the same with duplicate
// columns, router-shaped selection models under random node fixings, and
// one Relaxation re-solved across interleaved fixings — state that leaks
// from one node's solve into the next shows only on reuse.
#include <gtest/gtest.h>

#include <bit>
#include <cstddef>
#include <cstdint>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "ilp/lp.hpp"
#include "lp_dense.hpp"
#include "obs/session.hpp"

namespace streak::ilp {
namespace {

/// The model a branch-and-bound node solves: integer fixings as tight
/// bounds (the copy the search made per node before the relaxation was
/// prepared once).
Model applyFixings(const Model& base, const std::vector<std::int8_t>& fixed) {
    Model m;
    for (int v = 0; v < base.numVariables(); ++v) {
        double lo = base.lower(v);
        double hi = base.upper(v);
        const auto f = fixed.empty() ? -1 : fixed[static_cast<size_t>(v)];
        if (base.isInteger(v) && f >= 0) lo = hi = static_cast<double>(f);
        m.addVariable(base.objectiveCoeff(v), base.isInteger(v), lo, hi);
    }
    for (const Row& r : base.rows()) m.addRow(r);
    m.objectiveConstant = base.objectiveConstant;
    return m;
}

/// Tallies of every comparison, so a test can require that the inputs
/// reached the paths they are meant to cover.
struct Coverage {
    int optimal = 0;
    int infeasible = 0;
    int unbounded = 0;
    long pivots = 0;
    long boundFlips = 0;
};

/// Solves on the sparse engine with the LP counters recorded into a
/// session of this object's own, so each solve's pivots and bound flips
/// can be read back as counter deltas.
class Counted {
public:
    Counted() { session_.setDetailEnabled(true); }

    Solution solve(Relaxation& relaxation,
                   const std::vector<std::int8_t>& fixed) {
        const obs::Snapshot before = session_.snapshotMetrics();
        Solution s = relaxation.solve(fixed);
        const obs::Snapshot moved = session_.snapshotMetrics().minus(before);
        EXPECT_EQ(value(moved, "ilp/lp.solves"), 1);
        lastPivots = value(moved, "ilp/lp.pivots");
        lastFlips = value(moved, "ilp/lp.bound_flips");
        return s;
    }

    long long lastPivots = 0;
    long long lastFlips = 0;

private:
    static long long value(const obs::Snapshot& snap, const char* name) {
        const auto it = snap.counters.find(name);
        return it == snap.counters.end() ? 0 : it->second;
    }

    obs::Session session_;
    obs::SessionBind bind_{session_};
};

/// Objective and values of `got` are bit-for-bit those of `want` (values
/// under ==, so the sign of a zero may differ).
void expectSameOptimum(const Solution& got, const Solution& want,
                       const std::string& what) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(got.objective),
              std::bit_cast<std::uint64_t>(want.objective))
        << what << ": objective " << got.objective << " vs "
        << want.objective;
    ASSERT_EQ(got.values.size(), want.values.size()) << what;
    for (size_t v = 0; v < want.values.size(); ++v) {
        EXPECT_EQ(got.values[v], want.values[v]) << what << ": variable " << v;
    }
}

/// Solve `fixed` on `relaxation` and on the dense oracle (over the fixed
/// model copy); every difference is a test failure naming `what`.
void expectSameSolve(Counted* counted, Relaxation& relaxation,
                     const Model& model, const std::vector<std::int8_t>& fixed,
                     const std::string& what, Coverage* cov) {
    const Solution got = counted->solve(relaxation, fixed);
    DenseLpStats stats;
    const Solution want = solveLpDense(applyFixings(model, fixed), &stats);
    ASSERT_EQ(got.status, want.status) << what;
    EXPECT_EQ(counted->lastPivots, stats.pivots) << what;
    EXPECT_EQ(counted->lastFlips, stats.boundFlips) << what;
    cov->pivots += stats.pivots;
    cov->boundFlips += stats.boundFlips;
    if (want.status == SolveStatus::Infeasible) ++cov->infeasible;
    if (want.status == SolveStatus::Unbounded) ++cov->unbounded;
    if (want.status != SolveStatus::Optimal) return;
    ++cov->optimal;
    expectSameOptimum(got, want, what);
}

/// lp_test's random small models (LpEquivalence): mostly-finite upper
/// bounds, some shifted lower bounds, mixed senses. With `duplicates`,
/// some rows also list one variable three times, so the merge's
/// summation order shows in the coefficient bits.
Model randomModel(std::mt19937* rng, bool duplicates) {
    std::uniform_int_distribution<int> varCount(2, 6);
    std::uniform_int_distribution<int> rowCount(1, 5);
    std::uniform_real_distribution<double> coeff(-3.0, 3.0);
    std::uniform_real_distribution<double> unit(0.0, 1.0);
    Model m;
    const int n = varCount(*rng);
    for (int v = 0; v < n; ++v) {
        const double lo = unit(*rng) < 0.3 ? coeff(*rng) : 0.0;
        const double span = 0.5 + 4.0 * unit(*rng);
        const double hi = unit(*rng) < 0.85 ? lo + span : kInfinity;
        m.addVariable(coeff(*rng), false, lo, hi);
    }
    const int rows = rowCount(*rng);
    for (int r = 0; r < rows; ++r) {
        Row row;
        for (int v = 0; v < n; ++v) {
            if (unit(*rng) < 0.7) row.coeffs.emplace_back(v, coeff(*rng));
        }
        if (row.coeffs.empty()) row.coeffs.emplace_back(0, 1.0);
        if (duplicates && unit(*rng) < 0.6) {
            // Three more terms on one variable, listed out of column
            // order between the others.
            std::uniform_int_distribution<int> pick(0, n - 1);
            const int v = pick(*rng);
            for (int k = 0; k < 3; ++k) {
                std::uniform_int_distribution<size_t> at(0, row.coeffs.size());
                row.coeffs.insert(row.coeffs.begin() +
                                      static_cast<std::ptrdiff_t>(at(*rng)),
                                  {v, coeff(*rng) / 7.0});
            }
        }
        const double pick = unit(*rng);
        row.sense = pick < 0.5 ? Sense::LessEqual
                               : (pick < 0.8 ? Sense::GreaterEqual : Sense::Equal);
        row.rhs = 4.0 * coeff(*rng) / 3.0;
        m.addRow(std::move(row));
    }
    return m;
}

/// A router-shaped component model (formulation (3)): binary candidates
/// per object with an unrouted slack s_i at cost M, assignment
/// equalities sum_j x_ij + s_i = 1, `<=` capacity rows over shared
/// candidates, and product rows y - x_ij - x_pq >= -1 for pair costs.
/// With `unbounded`, one extra continuous variable with negative cost
/// appears only in a `>=` row, so the relaxation is unbounded.
Model routerModel(std::mt19937* rng, bool unbounded) {
    std::uniform_int_distribution<int> objectCount(2, 6);
    std::uniform_int_distribution<int> candCount(1, 4);
    std::uniform_real_distribution<double> unit(0.0, 1.0);
    Model m;
    std::vector<std::vector<int>> x;
    const int objects = objectCount(*rng);
    for (int i = 0; i < objects; ++i) {
        std::vector<int> cands;
        const int k = candCount(*rng);
        for (int j = 0; j < k; ++j) {
            cands.push_back(m.addVariable(1.0 + 20.0 * unit(*rng), true));
        }
        const int s = m.addVariable(100.0, false);
        std::vector<std::pair<int, double>> row;
        for (const int v : cands) row.emplace_back(v, 1.0);
        row.emplace_back(s, 1.0);
        m.addRow(std::move(row), Sense::Equal, 1.0);
        x.push_back(std::move(cands));
    }
    std::uniform_int_distribution<int> capRows(1, 4);
    const int caps = capRows(*rng);
    for (int c = 0; c < caps; ++c) {
        std::vector<std::pair<int, double>> row;
        for (const std::vector<int>& cands : x) {
            for (const int v : cands) {
                if (unit(*rng) < 0.35) {
                    row.emplace_back(v, unit(*rng) < 0.8 ? 1.0 : 2.0);
                }
            }
        }
        if (row.empty()) continue;
        m.addRow(std::move(row), Sense::LessEqual,
                 static_cast<double>(1 + static_cast<int>(3.0 * unit(*rng))));
    }
    for (size_t a = 0; a < x.size(); ++a) {
        for (size_t b = a + 1; b < x.size(); ++b) {
            if (unit(*rng) < 0.5) continue;
            for (const int va : x[a]) {
                for (const int vb : x[b]) {
                    if (unit(*rng) < 0.4) continue;
                    const int y = m.addVariable(0.5 + 10.0 * unit(*rng), false);
                    m.addRow({{y, 1.0}, {va, -1.0}, {vb, -1.0}},
                             Sense::GreaterEqual, -1.0);
                }
            }
        }
    }
    if (unbounded) {
        const int z = m.addVariable(-1.0, false);
        m.addRow({{z, 1.0}, {x[0][0], 1.0}}, Sense::GreaterEqual, 0.5);
    }
    return m;
}

/// Random node fixings: each binary fixed with probability `density`,
/// to 1 with probability `ones`. Fixing two candidates of one object to
/// 1 makes its assignment row infeasible.
std::vector<std::int8_t> randomFixings(const Model& m, std::mt19937* rng,
                                       double density, double ones) {
    std::uniform_real_distribution<double> unit(0.0, 1.0);
    std::vector<std::int8_t> fixed(static_cast<size_t>(m.numVariables()), -1);
    for (int v = 0; v < m.numVariables(); ++v) {
        if (!m.isInteger(v) || unit(*rng) >= density) continue;
        fixed[static_cast<size_t>(v)] = unit(*rng) < ones ? 1 : 0;
    }
    return fixed;
}

TEST(LpKernelEquivalence, RandomModelsMatchDenseEngine) {
    Counted counted;
    Coverage cov;
    for (const bool duplicates : {false, true}) {
        std::mt19937 rng(duplicates ? 4401u : 20260806u);
        for (int trial = 0; trial < 400; ++trial) {
            const Model m = randomModel(&rng, duplicates);
            Relaxation relaxation(m);
            const std::string what = "random model " + std::to_string(trial) +
                                     (duplicates ? " (duplicates)" : "");
            expectSameSolve(&counted, relaxation, m, {}, what, &cov);
            // solveLp is the same path with no fixings.
            const Solution viaSolveLp = solveLp(m);
            DenseLpStats stats;
            const Solution want = solveLpDense(m, &stats);
            ASSERT_EQ(viaSolveLp.status, want.status) << what;
            if (want.status == SolveStatus::Optimal) {
                expectSameOptimum(viaSolveLp, want, what + " via solveLp");
            }
        }
    }
    EXPECT_GE(cov.optimal, 150);
    EXPECT_GE(cov.infeasible, 50);
    EXPECT_GE(cov.unbounded, 5);
    EXPECT_GT(cov.boundFlips, 0);
}

TEST(LpKernelEquivalence, RouterModelsUnderNodeFixingsMatchDenseEngine) {
    Counted counted;
    Coverage cov;
    std::mt19937 rng(1817);
    for (int trial = 0; trial < 150; ++trial) {
        const Model m = routerModel(&rng, /*unbounded=*/trial % 10 == 9);
        for (int node = 0; node < 8; ++node) {
            // A fresh relaxation per node: the prepared rows alone.
            Relaxation relaxation(m);
            const std::vector<std::int8_t> fixed =
                node == 0 ? std::vector<std::int8_t>{}
                          : randomFixings(m, &rng, 0.1 * node, 0.3);
            expectSameSolve(&counted, relaxation, m, fixed,
                            "router model " + std::to_string(trial) +
                                " node " + std::to_string(node),
                            &cov);
        }
    }
    EXPECT_GE(cov.optimal, 400);
    EXPECT_GE(cov.infeasible, 50);
    EXPECT_GE(cov.unbounded, 10);
    EXPECT_GT(cov.pivots, 1000);
}

TEST(LpKernelEquivalence, ReusedRelaxationMatchesAFreshOracleAtEveryNode) {
    Counted counted;
    Coverage cov;
    std::mt19937 rng(2718);
    for (int trial = 0; trial < 40; ++trial) {
        const Model m = routerModel(&rng, /*unbounded=*/trial % 8 == 7);
        Relaxation relaxation(m);
        // Interleave deep, shallow, infeasible-prone and empty fixings
        // on the one relaxation, the way best-bound search jumps between
        // branches of the tree.
        for (int node = 0; node < 24; ++node) {
            std::vector<std::int8_t> fixed;
            switch (node % 4) {
                case 0: fixed = randomFixings(m, &rng, 0.8, 0.2); break;
                case 1: break;  // the root again
                case 2: fixed = randomFixings(m, &rng, 0.3, 0.9); break;
                default: fixed = randomFixings(m, &rng, 0.5, 0.5); break;
            }
            expectSameSolve(&counted, relaxation, m, fixed,
                            "reused relaxation " + std::to_string(trial) +
                                " node " + std::to_string(node),
                            &cov);
        }
    }
    EXPECT_GE(cov.optimal, 200);
    EXPECT_GE(cov.infeasible, 100);
    EXPECT_GE(cov.unbounded, 24);
}

}  // namespace
}  // namespace streak::ilp
