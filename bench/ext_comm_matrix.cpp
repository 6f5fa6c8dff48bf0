/**
 * @file
 * Extension experiment: communication-pattern analysis.  Records the
 * per-rank-pair message matrix of one iteration of NAS CG, NAS FT,
 * and POP on Longs (8 tasks, one per socket) and projects it onto
 * the HT-hop histogram -- quantifying the topology pressure the
 * paper reads off its Ring/PingPong and PTRANS results.
 */

#include <cstdio>
#include <memory>

#include "apps/pop/pop.hh"
#include "bench_util.hh"
#include "core/registry.hh"
#include "simmpi/comm_matrix.hh"

using namespace mcscope;
using namespace mcscope::bench;

namespace {

/** Print one code's matrix; returns its byte share per hop distance. */
std::vector<double>
analyze(const char *name)
{
    MachineConfig cfg = longsConfig();
    const int ranks = 8;
    Machine machine(cfg);
    auto placement = Placement::create(
        cfg, machine.topology(), table5Options()[1], ranks);
    MpiRuntime rt(machine, *placement);
    CommMatrix matrix(ranks);
    rt.setCommMatrix(&matrix);

    auto workload = makeWorkload(name);
    workload->buildTasks(machine, rt);

    std::printf("%s (one iteration, 8 tasks one-per-socket):\n", name);
    std::printf("  messages: %llu, volume: %s\n",
                static_cast<unsigned long long>(
                    matrix.totalMessages()),
                formatBytes(matrix.totalBytes()).c_str());
    std::vector<double> share = matrix.bytesByHops(rt);
    const double total = matrix.totalBytes();
    for (double &s : share)
        s = total > 0.0 ? s / total : 0.0;
    std::printf("  bytes by HT hop distance:");
    for (size_t h = 0; h < share.size(); ++h)
        std::printf("  %zu:%4.1f%%", h, share[h] * 100.0);
    std::printf("\n\n");
    return share;
}

} // namespace

int
main()
{
    banner("Extension (communication matrices)",
           "Per-pair traffic of CG / FT / POP projected onto the HT "
           "ladder's hop distances",
           "the paper prints no traffic matrix; it reads ladder "
           "pressure off PTRANS (Figure 12) and Ring vs PingPong "
           "(Figure 13)");

    const std::vector<double> cg = analyze("nas-cg-b");
    const std::vector<double> ft = analyze("nas-ft-b");
    const std::vector<double> pop = analyze("pop-x1");

    auto meanHops = [](const std::vector<double> &share) {
        double mean = 0.0;
        for (size_t h = 0; h < share.size(); ++h)
            mean += h * share[h];
        return formatFixed(mean, 2);
    };
    auto beyondOneHop = [](const std::vector<double> &share) {
        double sum = 0.0;
        for (size_t h = 2; h < share.size(); ++h)
            sum += share[h];
        return formatFixed(sum * 100.0, 1) + "%";
    };
    observe("mean HT hops per byte", "CG " + meanHops(cg) + "  FT " +
                                         meanHops(ft) + "  POP " +
                                         meanHops(pop));
    observe("bytes beyond one hop", "CG " + beyondOneHop(cg) + "  FT " +
                                        beyondOneHop(ft) + "  POP " +
                                        beyondOneHop(pop));
    return 0;
}
