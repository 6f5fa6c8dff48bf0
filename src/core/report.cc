#include "core/report.hh"

#include <cmath>
#include <ostream>

#include "core/scenario.hh"
#include "util/csv.hh"
#include "util/str.hh"

namespace mcscope {

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
            label += " [" + mpiImplToken(axes.impls[i]) + "]";
        if (tag_sublayer)
            label += " [" + subLayerToken(axes.sublayers[s]) + "]";
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
                            mpiImplToken(axes.impls[i]),
                            subLayerToken(axes.sublayers[s]),
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

} // namespace mcscope
