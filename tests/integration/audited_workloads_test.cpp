/**
 * @file
 * Property test: every registered workload runs cleanly under the
 * simulation invariant auditor, audited replays are digest-identical
 * (determinism), and auditing leaves results bit-identical.  This is
 * the machine-checked backstop behind every paper figure: if an
 * allocator or event-loop bug breaks fairness, conservation, pairing,
 * or bit-agreement with the reference solver anywhere in the workload
 * space, one of these runs panics.
 */

#include <gtest/gtest.h>

#include <string>

#include "core/experiment.hh"
#include "core/registry.hh"
#include "machine/config.hh"
#include "machine/machine.hh"

namespace mcscope {
namespace {

class AuditedWorkloads : public ::testing::TestWithParam<std::string>
{
};

TEST_P(AuditedWorkloads, PassesAuditAndReplaysDeterministically)
{
    auto workload = makeWorkload(GetParam());
    ASSERT_NE(workload, nullptr);

    ExperimentConfig cfg;
    cfg.machine = dmzConfig();
    cfg.option = table5Options().front(); // Default
    cfg.ranks = 4;
    cfg.audit = true;

    RunResult first = runExperiment(cfg, *workload);
    ASSERT_TRUE(first.valid);
    EXPECT_TRUE(first.audited);
    EXPECT_GT(first.auditChecks, 0u);
    EXPECT_GT(first.seconds, 0.0);

    RunResult replay = runExperiment(cfg, *workload);
    ASSERT_TRUE(replay.valid);
    EXPECT_EQ(first.auditDigest, replay.auditDigest)
        << "non-deterministic audited replay for " << GetParam();
}

TEST_P(AuditedWorkloads, PassesAuditUnderLocalAllocOnLongs)
{
    auto workload = makeWorkload(GetParam());
    ASSERT_NE(workload, nullptr);

    ExperimentConfig cfg;
    cfg.machine = longsConfig();
    cfg.option = table5Options()[1]; // One MPI + Local Alloc
    cfg.ranks = 8;
    cfg.audit = true;

    RunResult res = runExperiment(cfg, *workload);
    ASSERT_TRUE(res.valid);
    EXPECT_TRUE(res.audited);
    EXPECT_GT(res.auditChecks, 0u);
}

TEST_P(AuditedWorkloads, OptimizedHotPathKeepsDigestBitForBit)
{
    // An audited run checks every allocation against the whole-set
    // reference solve, bit for bit.  That vouches for the results the
    // tools cache and report only if the unaudited hot path -- no
    // auditor, no trace events -- reproduces the audited run exactly.
    auto workload = makeWorkload(GetParam());
    ASSERT_NE(workload, nullptr);

    ExperimentConfig cfg;
    cfg.machine = dmzConfig();
    cfg.option = table5Options().front(); // Default
    cfg.ranks = 4;
    cfg.audit = true;
    RunResult audited = runExperiment(cfg, *workload);
    ASSERT_TRUE(audited.valid);
    ASSERT_TRUE(audited.audited);
    EXPECT_EQ(audited.auditChecks, audited.incrementalSolves);

    cfg.audit = false;
    RunResult plain = runExperiment(cfg, *workload);
    ASSERT_TRUE(plain.valid);

    EXPECT_EQ(plain.seconds, audited.seconds)
        << "auditing changed the simulated time of " << GetParam();
    EXPECT_EQ(plain.taggedSeconds, audited.taggedSeconds);
    EXPECT_EQ(plain.events, audited.events);
    EXPECT_EQ(plain.incrementalSolves, audited.incrementalSolves);
    EXPECT_EQ(plain.memoHits, audited.memoHits);
}

INSTANTIATE_TEST_SUITE_P(
    AllRegistered, AuditedWorkloads,
    ::testing::ValuesIn(registeredWorkloads()),
    [](const ::testing::TestParamInfo<std::string> &info) {
        std::string name = info.param;
        for (char &c : name) {
            if (c == '-' || c == '_')
                c = '_';
        }
        return name;
    });

} // namespace
} // namespace mcscope
