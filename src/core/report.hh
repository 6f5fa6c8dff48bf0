/**
 * @file
 * Paper-style report rendering: turns sweep results into the row/
 * column layouts of the paper's tables so the bench binaries print
 * directly comparable artifacts.
 */

#ifndef MCSCOPE_CORE_REPORT_HH
#define MCSCOPE_CORE_REPORT_HH

#include <iosfwd>
#include <string>
#include <vector>

#include "core/experiment.hh"
#include "core/runner.hh"
#include "util/table.hh"

namespace mcscope {

/**
 * Append an option sweep's rows to an existing table (for the
 * two-kernel Tables 2-3 where CG and FT interleave).
 */
void appendOptionSweepRows(TextTable &table, const OptionSweepResult &sweep,
                           const std::string &row_label,
                           int precision = 2);

/** Header row matching the Table 5 option order. */
std::vector<std::string> optionSweepHeader(const std::string &row_label);

/**
 * Render an executed batch plan the way `mcscope batch` prints it:
 * the machine banner + per-(workload, impl, sublayer) option-sweep
 * table, or (csv) one flat CSV with a column per numactl option.
 * With a spec "phase" every cell is that phase's time, not the
 * makespan, and the CSV gains a `phase` column.
 * Shared by `mcscope batch` and `mcscope submit`, which must stay
 * byte-identical (tests/integration/serve_test.cpp holds them to it).
 */
void renderBatchResults(const SweepPlan &plan,
                        const PlanResults &results, bool csv,
                        std::ostream &out);

} // namespace mcscope

#endif // MCSCOPE_CORE_REPORT_HH
