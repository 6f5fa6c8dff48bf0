/**
 * @file
 * Figure 16: OpenMPI PingPong on DMZ under scheduler-affinity
 * configurations: two processes bound to one dual-core processor
 * (socket 0 or 1), unbound, and unbound with two parked processes.
 * Confining communication within one multi-core processor buys
 * ~10-13% bandwidth and lower latency.
 */

#include <cstdio>
#include <memory>

#include "bench_util.hh"
#include "sim/task.hh"
#include "simmpi/comm.hh"
#include "util/str.hh"

using namespace mcscope;
using namespace mcscope::bench;

namespace {

struct Config
{
    const char *label;
    TaskScheme scheme;
    bool pinned_same_die;
    double noise;
};

std::pair<double, double>
pingPong(const Config &c, double bytes, int iters)
{
    MachineConfig cfg = dmzConfig();
    Machine machine(cfg);
    NumactlOption opt;
    if (c.pinned_same_die) {
        opt = {"bound", TaskScheme::Packed, MemPolicy::LocalAlloc};
    } else {
        opt = {"unbound", TaskScheme::OsDefault, MemPolicy::Default};
    }
    auto placement =
        Placement::create(cfg, machine.topology(), opt, 2);
    MpiRuntime rt(machine, *placement, MpiImpl::OpenMpi,
                  SubLayer::USysV);
    rt.setLatencyNoiseFactor(c.noise);

    std::vector<Prim> p0, p1;
    rt.appendSend(p0, 0, 1, bytes, 0x1000ULL);
    rt.appendRecv(p0, 0, 1, bytes, 0x2000ULL);
    rt.appendRecv(p1, 1, 0, bytes, 0x1000ULL);
    rt.appendSend(p1, 1, 0, bytes, 0x2000ULL);
    machine.engine().addTask(TaskProgram(
        "pp0", std::vector<Prim>{}, p0, iters));
    machine.engine().addTask(TaskProgram(
        "pp1", std::vector<Prim>{}, p1, iters));
    machine.engine().run();
    double one_way = machine.engine().makespan() / iters / 2.0;
    return {one_way, bytes / one_way};
}

} // namespace

int
main()
{
    banner("Figure 16 (OpenMPI PingPong with scheduler affinity)",
           "PingPong on DMZ: 2 procs bound to one dual-core socket vs "
           "unbound vs unbound + 2 parked",
           "bound-to-one-socket wins ~10-13% bandwidth and small-"
           "message latency; parked processes add jitter");

    const Config configs[] = {
        {"2 procs, bound 0", TaskScheme::Packed, true, 1.0},
        {"2 procs, bound 1", TaskScheme::Packed, true, 1.0},
        {"2 procs, unbound", TaskScheme::OsDefault, false, 1.15},
        {"2 procs, unbound, 2 parked", TaskScheme::OsDefault, false,
         1.30},
    };

    std::printf("%-28s", "size");
    for (const Config &c : configs)
        std::printf("  %-14s", c.label);
    std::printf("\n");
    for (double bytes = 64.0; bytes <= 4.0 * 1024 * 1024;
         bytes *= 16.0) {
        std::printf("%-28s", formatBytes(bytes).c_str());
        for (const Config &c : configs) {
            auto [lat, bw] = pingPong(c, bytes, 50);
            std::printf("  %-14.1f", bw / 1e6);
        }
        std::printf("   [MB/s]\n");
    }

    auto [lat_b, bw_b] = pingPong(configs[0], 1 << 20, 50);
    auto [lat_u, bw_u] = pingPong(configs[2], 1 << 20, 50);
    auto [slat_b, sbw_b] = pingPong(configs[0], 64.0, 50);
    auto [slat_u, sbw_u] = pingPong(configs[2], 64.0, 50);
    (void)sbw_b;
    (void)sbw_u;
    std::printf("\n");
    observe("bound vs unbound bandwidth gain at 1MB (paper: "
            "10-13%)",
            formatFixed((bw_b / bw_u - 1.0) * 100.0, 1) + "%");
    observe("bound vs unbound 64B latency",
            formatFixed(slat_b * 1e6, 2) + "us vs " +
                formatFixed(slat_u * 1e6, 2) + "us");
    return 0;
}
