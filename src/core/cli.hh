/**
 * @file
 * Command-line front end for the characterization suite, as a
 * testable library function.  The `mcscope` tool wraps runCli().
 *
 * Commands:
 *   list                          workloads, machines, options
 *   calibration                   print the calibrated-constant table
 *   run <workload> [flags]        one experiment (+ bottleneck view)
 *   sweep <workload> [flags]      Table 5 option x rank-count sweep
 *   scaling <workload> [flags]    strong-scaling series
 *   batch <spec.json> [flags]     execute a sweep-plan spec file;
 *                                 --shards/--journal/--resume add
 *                                 multi-process fault tolerance
 *   worker --framed               shard worker (internal protocol)
 *   worker --connect HOST:PORT    join a serve daemon's worker pool
 *
 * Flags:
 *   --machine tiger|dmz|longs     (default longs)
 *   --ranks N[,N...]              (default machine-dependent)
 *   --option INDEX|label-substr   (default 0 = Default)
 *   --impl mpich2|lam|openmpi     (default openmpi)
 *   --sublayer sysv|usysv         (default usysv)
 *   --detail                      include the bottleneck report (run)
 *   --csv                         machine-readable output (sweep)
 *   --audit                       simulation invariant auditor (run)
 */

#ifndef MCSCOPE_CORE_CLI_HH
#define MCSCOPE_CORE_CLI_HH

#include <ostream>
#include <string>
#include <vector>

namespace mcscope {

/**
 * Execute a CLI invocation.
 *
 * @param args argv-style arguments, program name excluded.
 * @param out  stream receiving all output (errors included).
 * @return process exit code (0 on success, 2 on usage errors).
 */
int runCli(const std::vector<std::string> &args, std::ostream &out);

/** Parse "2,4,8" into rank counts; returns empty on malformed input. */
std::vector<int> parseRankList(const std::string &arg);

} // namespace mcscope

#endif // MCSCOPE_CORE_CLI_HH
