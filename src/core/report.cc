#include "core/report.hh"

#include <cmath>
#include <ostream>

#include "util/csv.hh"
#include "util/logging.hh"
#include "util/str.hh"

namespace mcscope {

std::string
implToken(MpiImpl impl)
{
    switch (impl) {
      case MpiImpl::Mpich2: return "mpich2";
      case MpiImpl::Lam: return "lam";
      case MpiImpl::OpenMpi: return "openmpi";
    }
    return "?";
}

void
renderBatchResults(const SweepPlan &plan, const PlanResults &results,
                   bool csv, std::ostream &out)
{
    const SweepAxes &axes = plan.axes();
    const MachineConfig machine = axes.resolvedMachine();
    const size_t variants = axes.machineVariants();
    // One row label per (workload, impl, sublayer) combo; the
    // impl/sublayer suffix appears only when that axis actually
    // varies, so the common one-impl case reads like Table 2.  A
    // directory-size sweep tags every row with its variant's entry
    // count.
    const bool tag_impl = axes.impls.size() > 1;
    const bool tag_sublayer = axes.sublayers.size() > 1;
    const bool tag_variant = !axes.directoryEntries.empty();
    const bool tag_machine = !axes.machines.empty();
    const bool tag_phase = !axes.phase.empty();
    const int tag = axes.phaseTag();
    auto variantTag = [&](size_t m) {
        return "dir=" + formatFixed(axes.directoryEntries[m], 0);
    };
    auto rowLabel = [&](size_t w, size_t i, size_t s, size_t m) {
        std::string label = axes.workloads[w];
        if (tag_phase)
            label += " [" + axes.phase + "]";
        if (tag_impl)
            label += " [" + implToken(axes.impls[i]) + "]";
        if (tag_sublayer)
            label += " [" +
                     std::string(axes.sublayers[s] == SubLayer::SysV
                                     ? "sysv"
                                     : "usysv") +
                     "]";
        if (tag_variant)
            label += " [" + variantTag(m) + "]";
        if (tag_machine)
            label += " [" + axes.variantMachine(m).name + "]";
        return label;
    };

    if (csv) {
        CsvWriter writer(out);
        std::vector<std::string> header = {"machine", "workload",
                                           "impl", "sublayer",
                                           "ranks"};
        if (tag_phase)
            header.insert(header.begin() + 2, "phase");
        if (tag_variant)
            header.insert(header.begin() + 1, "directory_entries");
        for (const NumactlOption &o : axes.options)
            header.push_back(o.label);
        writer.writeRow(header);
        for (size_t m = 0; m < variants; ++m) {
          for (size_t w = 0; w < axes.workloads.size(); ++w) {
            for (size_t i = 0; i < axes.impls.size(); ++i) {
                for (size_t s = 0; s < axes.sublayers.size(); ++s) {
                    OptionSweepResult slice =
                        optionSweepSlice(plan, results, w, i, s, tag, m);
                    // Per-variant machine name: a zoo sweep carries
                    // its machine in the first column.
                    const std::string machine_name =
                        tag_machine ? axes.variantMachine(m).name
                                    : machine.name;
                    for (size_t r = 0; r < slice.rankCounts.size();
                         ++r) {
                        std::vector<std::string> row = {
                            machine_name, axes.workloads[w],
                            implToken(axes.impls[i]),
                            axes.sublayers[s] == SubLayer::SysV
                                ? "sysv"
                                : "usysv",
                            std::to_string(slice.rankCounts[r])};
                        if (tag_phase)
                            row.insert(row.begin() + 2, axes.phase);
                        if (tag_variant) {
                            row.insert(
                                row.begin() + 1,
                                formatFixed(axes.directoryEntries[m],
                                            0));
                        }
                        for (double v : slice.seconds[r])
                            row.push_back(std::isnan(v)
                                              ? ""
                                              : formatFixed(v, 6));
                        writer.writeRow(row);
                    }
                }
            }
          }
        }
    } else {
        if (tag_machine) {
            out << "machines:";
            for (const auto &[token, cfg] : axes.machines)
                out << " " << cfg.name;
            out << "\n";
        } else {
            out << "machine: " << machine.name << " ("
                << machine.sockets << " sockets x "
                << machine.coresPerSocket << " cores)\n";
        }
        TextTable t(optionSweepHeader("Workload"));
        bool first = true;
        for (size_t m = 0; m < variants; ++m) {
          for (size_t w = 0; w < axes.workloads.size(); ++w) {
            for (size_t i = 0; i < axes.impls.size(); ++i) {
                for (size_t s = 0; s < axes.sublayers.size(); ++s) {
                    if (!first)
                        t.addSeparator();
                    first = false;
                    appendOptionSweepRows(
                        t,
                        optionSweepSlice(plan, results, w, i, s, tag, m),
                        rowLabel(w, i, s, m));
                }
            }
          }
        }
        t.print(out);
    }
}

std::vector<std::string>
optionSweepHeader(const std::string &row_label)
{
    std::vector<std::string> header = {"MPI tasks", row_label};
    for (const NumactlOption &opt : table5Options())
        header.push_back(opt.label);
    return header;
}

void
appendOptionSweepRows(TextTable &table, const OptionSweepResult &sweep,
                      const std::string &row_label, int precision)
{
    for (size_t i = 0; i < sweep.rankCounts.size(); ++i) {
        std::vector<std::string> row = {
            std::to_string(sweep.rankCounts[i]), row_label};
        for (double v : sweep.seconds[i])
            row.push_back(cell(v, precision));
        table.addRow(std::move(row));
    }
}

TextTable
optionSweepTable(const OptionSweepResult &sweep, const std::string &row_label,
                 int precision)
{
    TextTable table(optionSweepHeader("Label"));
    appendOptionSweepRows(table, sweep, row_label, precision);
    return table;
}

TextTable
speedupTable(const std::vector<int> &rank_counts,
             const std::vector<std::string> &series_names,
             const std::vector<std::vector<double>> &speedup_rows,
             int precision)
{
    MCSCOPE_ASSERT(speedup_rows.size() == rank_counts.size(),
                   "speedup table shape mismatch");
    std::vector<std::string> header = {"Number of cores"};
    for (const std::string &s : series_names)
        header.push_back(s);
    TextTable table(header);
    for (size_t i = 0; i < rank_counts.size(); ++i) {
        MCSCOPE_ASSERT(speedup_rows[i].size() == series_names.size(),
                       "speedup row width mismatch");
        std::vector<std::string> row = {std::to_string(rank_counts[i])};
        for (double v : speedup_rows[i])
            row.push_back(cell(v, precision));
        table.addRow(std::move(row));
    }
    return table;
}

} // namespace mcscope
