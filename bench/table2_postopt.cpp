// Table II reproduction: effect of post optimization (layer prediction +
// bottom-up clustering + distance refinement) applied to both ILP and
// primal-dual solutions.
//
// Shape expectations vs the paper:
//   - Vio(dst) drops by roughly two thirds after refinement.
//   - Routability rises (clustering recovers leftover bits).
//   - Wire-length grows slightly (detours), Avg(Reg) dips slightly
//     (extra per-bit routing styles).
#include <iostream>

#include "bench_util.hpp"
#include "io/table.hpp"
#include "obs/trace.hpp"

namespace {

struct Totals {
    long vioBefore = 0;
    long vioAfter = 0;
    double route = 0.0;
    long wl = 0;
    double reg = 0.0;
    int n = 0;
};

void runSide(const streak::Design& d, streak::SolverKind solver,
             streak::io::Table* table, Totals* totals,
             streak::bench::JsonLog* log) {
    using namespace streak;
    StreakOptions opts = bench::baseOptions();
    opts.solver = solver;
    opts.postOptimize = true;
    const StreakResult r = runStreak(d, opts).value();
    log->add(d, solver == SolverKind::Ilp ? "ilp+post" : "pd+post", r);
    table->addRow({d.name,
                   std::to_string(r.distanceViolationsBefore),
                   std::to_string(r.distanceViolationsAfter),
                   io::Table::percent(r.metrics.routability),
                   std::to_string(r.metrics.wirelength),
                   io::Table::percent(r.metrics.avgRegularity),
                   bench::cpuCell(r.solveSeconds() + r.postSeconds(),
                                  r.hitTimeLimit)});
    totals->vioBefore += r.distanceViolationsBefore;
    totals->vioAfter += r.distanceViolationsAfter;
    totals->route += r.metrics.routability;
    totals->wl += r.metrics.wirelength;
    totals->reg += r.metrics.avgRegularity;
    ++totals->n;
}

void addAverage(streak::io::Table* table, const Totals& t) {
    using streak::io::Table;
    table->addRow({"average", Table::fixed(double(t.vioBefore) / t.n, 1),
                   Table::fixed(double(t.vioAfter) / t.n, 1),
                   Table::percent(t.route / t.n), std::to_string(t.wl / t.n),
                   Table::percent(t.reg / t.n), "-"});
}

}  // namespace

int main() {
    using namespace streak;
    io::Table ilpTable({"Bench", "Vio(dst)", "Vio(dst)'", "Route", "WL",
                        "Avg(Reg)", "CPU(s)"});
    io::Table pdTable({"Bench", "Vio(dst)", "Vio(dst)'", "Route", "WL",
                       "Avg(Reg)", "CPU(s)"});
    obs::setDetailEnabled(true);  // the JSON log carries the counters
    bench::JsonLog log("table2_postopt");
    Totals ilpTotals, pdTotals;
    for (int i = 1; i <= 7; ++i) {
        const Design d = gen::makeSynth(i);
        runSide(d, SolverKind::Ilp, &ilpTable, &ilpTotals, &log);
        runSide(d, SolverKind::PrimalDual, &pdTable, &pdTotals, &log);
    }
    addAverage(&ilpTable, ilpTotals);
    addAverage(&pdTable, pdTotals);
    std::cout << "== Table II (left): ILP + post optimization ==\n";
    ilpTable.print(std::cout);
    std::cout << "\n== Table II (right): primal-dual + post optimization ==\n";
    pdTable.print(std::cout);
    // The paper's Ratio row: PD-vs-ILP after post optimization.
    std::cout << "\nPD/ILP ratios: Route "
              << io::Table::fixed(pdTotals.route / ilpTotals.route, 4)
              << ", WL "
              << io::Table::fixed(double(pdTotals.wl) / ilpTotals.wl, 4)
              << ", Avg(Reg) "
              << io::Table::fixed(pdTotals.reg / ilpTotals.reg, 4) << '\n';
    log.write();
    return 0;
}
