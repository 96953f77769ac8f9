#include "check/ilp_audit.hpp"

#include <cmath>
#include <limits>

namespace streak::check {

namespace {

constexpr double kFeasEps = 1e-6;

/// Row-relative tolerance: absolute for small magnitudes, relative above 1.
double tol(double reference) {
    const double mag = std::abs(reference);
    return kFeasEps * (mag > 1.0 ? mag : 1.0);
}

}  // namespace

AuditResult auditIlpModel(const ilp::Model& model) {
    AuditResult r;
    r.subject = "ilp model";
    const int n = model.numVariables();
    for (int v = 0; v < n && !r.full(); ++v) {
        if (!std::isfinite(model.objectiveCoeff(v))) {
            r.addf("variable {}: objective coefficient {} not finite", v,
                   model.objectiveCoeff(v));
        }
        const double lo = model.lower(v);
        const double hi = model.upper(v);
        if (std::isnan(lo) || std::isnan(hi) || lo > hi) {
            r.addf("variable {}: bounds [{}, {}] inconsistent", v, lo, hi);
        }
        if (model.isInteger(v) && (lo < -kFeasEps || hi > 1.0 + kFeasEps)) {
            r.addf("variable {}: integer but bounds [{}, {}] not binary", v,
                   lo, hi);
        }
    }
    if (!std::isfinite(model.objectiveConstant)) {
        r.addf("objective constant {} not finite", model.objectiveConstant);
    }
    const auto& rows = model.rows();
    for (size_t i = 0; i < rows.size() && !r.full(); ++i) {
        const ilp::Row& row = rows[i];
        if (!std::isfinite(row.rhs)) {
            r.addf("row {}: rhs {} not finite", i, row.rhs);
        }
        if (row.coeffs.empty()) {
            const bool impossible =
                (row.sense == ilp::Sense::LessEqual && row.rhs < 0.0) ||
                (row.sense == ilp::Sense::GreaterEqual && row.rhs > 0.0) ||
                (row.sense == ilp::Sense::Equal &&
                 row.rhs != 0.0);  // analyze-ok: float-equality (exact emptiness test)
            if (impossible) {
                r.addf("row {}: empty but unsatisfiable (rhs {})", i, row.rhs);
            }
            continue;
        }
        for (const auto& [var, coeff] : row.coeffs) {
            if (var < 0 || var >= n) {
                r.addf("row {}: references variable {} outside [0,{})", i,
                       var, n);
            }
            if (!std::isfinite(coeff)) {
                r.addf("row {}: coefficient {} on variable {} not finite", i,
                       coeff, var);
            }
        }
    }
    return r;
}

AuditResult auditLp(const ilp::Model& model, const ilp::Solution& solution,
                    bool requireIntegral) {
    AuditResult r;
    r.subject = "lp solution";
    if (!solution.hasSolution()) return r;  // nothing claimed, nothing owed

    const int n = model.numVariables();
    if (static_cast<int>(solution.values.size()) != n) {
        r.addf("value vector has {} entries for {} variables",
               solution.values.size(), n);
        return r;
    }

    double objective = model.objectiveConstant;
    for (int v = 0; v < n && !r.full(); ++v) {
        const double x = solution.values[static_cast<size_t>(v)];
        if (!std::isfinite(x)) {
            r.addf("variable {}: value {} not finite", v, x);
            continue;
        }
        const double lo = model.lower(v);
        const double hi = model.upper(v);
        if (x < lo - tol(lo)) {
            r.addf("variable {}: value {} below lower bound {}", v, x, lo);
        }
        if (hi < ilp::kInfinity && x > hi + tol(hi)) {
            r.addf("variable {}: value {} above upper bound {}", v, x, hi);
        }
        if (requireIntegral && model.isInteger(v) &&
            std::abs(x - std::round(x)) > kFeasEps) {
            r.addf("variable {}: value {} not integral", v, x);
        }
        objective += model.objectiveCoeff(v) * x;
    }

    const auto& rows = model.rows();
    for (size_t i = 0; i < rows.size() && !r.full(); ++i) {
        const ilp::Row& row = rows[i];
        double lhs = 0.0;
        for (const auto& [var, coeff] : row.coeffs) {
            if (var < 0 || var >= n) {
                lhs = std::numeric_limits<double>::quiet_NaN();
                break;
            }
            lhs += coeff * solution.values[static_cast<size_t>(var)];
        }
        if (std::isnan(lhs)) {
            r.addf("row {}: references an out-of-range variable", i);
            continue;
        }
        const double slack = row.rhs - lhs;
        const bool violated =
            (row.sense == ilp::Sense::LessEqual && slack < -tol(row.rhs)) ||
            (row.sense == ilp::Sense::GreaterEqual && slack > tol(row.rhs)) ||
            (row.sense == ilp::Sense::Equal &&
             std::abs(slack) > tol(row.rhs));
        if (violated) {
            r.addf("row {}: lhs {} violates rhs {} (sense {})", i, lhs,
                   row.rhs,
                   row.sense == ilp::Sense::LessEqual      ? "<="
                   : row.sense == ilp::Sense::GreaterEqual ? ">="
                                                           : "==");
        }
    }

    if (!approxEqual(solution.objective, objective, kFeasEps)) {
        r.addf("reported objective {} != recomputed c^T x + constant = {}",
               solution.objective, objective);
    }
    return r;
}

}  // namespace streak::check
