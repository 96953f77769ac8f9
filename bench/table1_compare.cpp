// Table I reproduction: Manual (sequential baseline) vs ILP vs Primal-Dual
// on the seven synthetic suites — routability, wire-length, average group
// regularity (Eq. 9) and CPU time.
//
// Shape expectations vs the paper (absolute numbers differ; the suites are
// scaled synthetic substitutes for the proprietary 10 nm benchmarks):
//   - Manual routes everything with the lowest wire-length.
//   - ILP and primal-dual reach > 95% routability with a few percent WL
//     overhead and high Avg(Reg); the two are nearly identical in quality.
//   - Primal-dual runs orders of magnitude faster; ILP hits its time cap
//     on the congested multipin suites (the paper's "> 3600 s" rows).
#include <iostream>

#include "bench_util.hpp"
#include "io/table.hpp"

int main() {
    using namespace streak;
    io::Table table({"Bench", "#SG", "#Net", "Np", "Wmax",
                     "Man:Route", "Man:WL",
                     "ILP:Route", "ILP:WL", "ILP:Reg", "ILP:CPU(s)",
                     "PD:Route", "PD:WL", "PD:Reg", "PD:CPU(s)"});

    double manR = 0, ilpR = 0, pdR = 0, ilpReg = 0, pdReg = 0;
    long manWl = 0, ilpWl = 0, pdWl = 0;
    for (int i = 1; i <= 7; ++i) {
        const Design d = gen::makeSynth(i);
        const route::SequentialResult man = route::routeSequential(d);

        StreakOptions opts = bench::baseOptions();
        opts.solver = SolverKind::Ilp;
        const StreakResult ilp = runStreak(d, opts).value();
        opts.solver = SolverKind::PrimalDual;
        const StreakResult pd = runStreak(d, opts).value();

        table.addRow({d.name, std::to_string(d.numGroups()),
                      std::to_string(d.numNets()), std::to_string(d.maxPins()),
                      std::to_string(d.maxWidth()),
                      io::Table::percent(man.routability()),
                      std::to_string(man.wirelength),
                      io::Table::percent(ilp.metrics.routability),
                      std::to_string(ilp.metrics.wirelength),
                      io::Table::percent(ilp.metrics.avgRegularity),
                      bench::cpuCell(ilp.solveSeconds(), ilp.hitTimeLimit),
                      io::Table::percent(pd.metrics.routability),
                      std::to_string(pd.metrics.wirelength),
                      io::Table::percent(pd.metrics.avgRegularity),
                      bench::cpuCell(pd.solveSeconds(), false)});

        manR += man.routability();
        manWl += man.wirelength;
        ilpR += ilp.metrics.routability;
        ilpWl += ilp.metrics.wirelength;
        ilpReg += ilp.metrics.avgRegularity;
        pdR += pd.metrics.routability;
        pdWl += pd.metrics.wirelength;
        pdReg += pd.metrics.avgRegularity;
    }
    table.addRow({"average", "-", "-", "-", "-",
                  io::Table::percent(manR / 7), std::to_string(manWl / 7),
                  io::Table::percent(ilpR / 7), std::to_string(ilpWl / 7),
                  io::Table::percent(ilpReg / 7), "-",
                  io::Table::percent(pdR / 7), std::to_string(pdWl / 7),
                  io::Table::percent(pdReg / 7), "-"});
    table.addRow({"ratio", "-", "-", "-", "-",
                  io::Table::fixed(1.0), io::Table::fixed(1.0, 3),
                  io::Table::fixed(ilpR / manR, 4),
                  io::Table::fixed(static_cast<double>(ilpWl) / manWl, 3),
                  "-", "-",
                  io::Table::fixed(pdR / manR, 4),
                  io::Table::fixed(static_cast<double>(pdWl) / manWl, 3),
                  "-", "-"});

    std::cout << "== Table I: manual vs ILP vs primal-dual ==\n";
    table.print(std::cout);
    return 0;
}
