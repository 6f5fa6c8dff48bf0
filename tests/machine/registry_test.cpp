/**
 * @file
 * Machine-registry tests: the digest-preservation contract for the
 * 2006 presets (pinned digests + a randomized preset-vs-inline
 * differential), the JSON definition loader (round-trips and every
 * class of malformed file), and the registry name table the CLI and
 * spec parsers resolve through.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include <stdlib.h>
#include <unistd.h>

#include "affinity/placement.hh"
#include "core/plan.hh"
#include "core/scenario.hh"
#include "machine/registry.hh"
#include "machine/serialize.hh"
#include "util/json.hh"
#include "util/rng.hh"

namespace mcscope {
namespace {

ScenarioSpec
presetSpec(const std::string &preset, const std::string &workload,
           size_t option, int ranks)
{
    ScenarioSpec s;
    s.workload = workload;
    s.machinePreset = preset;
    s.machine = configByName(preset);
    s.option = table5Options()[option];
    s.ranks = ranks;
    return s;
}

// ---------------------------------------------------------------------
// Digest preservation: the registry refactor moved machine JSON
// serialization into src/machine and rerouted every name lookup, and
// the topology generalizations (SMT contexts, cluster fabric) touched
// the resource construction and placement math.  None of that may move
// a 2006-preset digest: these 24 values were minted by the pre-registry
// tree and every cached result ever written depends on them.
// ---------------------------------------------------------------------

struct PinnedDigest
{
    const char *preset;
    const char *workload;
    size_t option;
    int ranks;
    uint64_t digest;
};

const PinnedDigest kPinned[] = {
    {"tiger", "stream", 0, 2, 0xc3f540cf765401caULL},
    {"tiger", "stream", 0, 4, 0x4b3810ab7c263b84ULL},
    {"tiger", "stream", 5, 2, 0x857db7202e1bd6c8ULL},
    {"tiger", "stream", 5, 4, 0x1e4ed86c45679526ULL},
    {"tiger", "nas-cg-b", 0, 2, 0x366d00b82d2c77cbULL},
    {"tiger", "nas-cg-b", 0, 4, 0x68cae29ba22176a9ULL},
    {"tiger", "nas-cg-b", 5, 2, 0xccf5e11efb7ed1cdULL},
    {"tiger", "nas-cg-b", 5, 4, 0x7a8e468b2dd32ef7ULL},
    {"dmz", "stream", 0, 2, 0xb0dfc5056de93607ULL},
    {"dmz", "stream", 0, 4, 0xb5db22de9390f3b9ULL},
    {"dmz", "stream", 5, 2, 0x629ebd393c110ba1ULL},
    {"dmz", "stream", 5, 4, 0xfec5e81adfe9cf4fULL},
    {"dmz", "nas-cg-b", 0, 2, 0x4e4a1a4f03849bc0ULL},
    {"dmz", "nas-cg-b", 0, 4, 0xca997ed86951de96ULL},
    {"dmz", "nas-cg-b", 5, 2, 0x7593af15128245ceULL},
    {"dmz", "nas-cg-b", 5, 4, 0xc08fd597eec62ad8ULL},
    {"longs", "stream", 0, 2, 0xf9a5a2551c8ded1bULL},
    {"longs", "stream", 0, 4, 0x35f3e2920040e225ULL},
    {"longs", "stream", 5, 2, 0x5f00070fdabb49b5ULL},
    {"longs", "stream", 5, 4, 0xbc3277d07f82be6bULL},
    {"longs", "nas-cg-b", 0, 2, 0x0faa223239472784ULL},
    {"longs", "nas-cg-b", 0, 4, 0x2b15e8d8c2515e72ULL},
    {"longs", "nas-cg-b", 5, 2, 0x8ab30f8e1fed1e02ULL},
    {"longs", "nas-cg-b", 5, 4, 0x9db238c693e90394ULL},
};

TEST(DigestPreservation, PinnedPresetDigests)
{
    for (const PinnedDigest &p : kPinned) {
        ScenarioSpec s =
            presetSpec(p.preset, p.workload, p.option, p.ranks);
        EXPECT_EQ(s.digest(), p.digest)
            << p.preset << "/" << p.workload << " option " << p.option
            << " ranks " << p.ranks;
    }
}

// Preset-vs-inline differential: a spec naming a preset and a spec
// carrying the preset's full config inline are the same experiment and
// must mint the same digest, across a randomized scatter of the other
// axes.  This is what lets zoo machines ship inline without forking
// the content-address space.
TEST(DigestPreservation, RandomizedPresetVsInlineDifferential)
{
    const std::vector<std::string> presets = presetNames();
    const std::vector<std::string> workloads = {
        "stream", "daxpy-acml", "nas-cg-b", "nas-ft-b", "lammps-lj",
        "hpcc-fft", "randomaccess", "hpl"};
    const auto options = table5Options();
    Rng rng(0x500C1ED5);
    for (int i = 0; i < 128; ++i) {
        const std::string preset =
            presets[rng.below(presets.size())];
        ScenarioSpec s;
        s.workload = workloads[rng.below(workloads.size())];
        s.machinePreset = preset;
        s.machine = configByName(preset);
        s.option = options[rng.below(options.size())];
        s.ranks = 1 << rng.below(5);
        s.impl = rng.below(2) ? MpiImpl::OpenMpi : MpiImpl::Mpich2;
        s.sublayer = rng.below(2) ? SubLayer::USysV : SubLayer::SysV;

        // The inline twin: same config, no preset name.  canonicalize
        // must collapse it back onto the preset.
        ScenarioSpec inl = s;
        inl.machinePreset.clear();
        EXPECT_EQ(s.digest(), inl.digest()) << "iteration " << i;
        EXPECT_EQ(s.canonicalText(), inl.canonicalText());

        // And through JSON: preset-string spelling vs the machine
        // object spelled out field by field.
        JsonValue doc = s.toJson();
        doc.set("machine", machineConfigToJson(s.machine));
        std::string error;
        auto back = parseScenarioSpec(doc, &error);
        ASSERT_TRUE(back) << error;
        EXPECT_EQ(s.digest(), back->digest()) << "iteration " << i;
    }
}

// ---------------------------------------------------------------------
// Definition serialization round-trips.
// ---------------------------------------------------------------------

TEST(MachineSerialize, BuiltinRoundTrip)
{
    for (const std::string &name : presetNames()) {
        MachineConfig c = configByName(name);
        std::string error;
        auto back = parseMachineConfig(machineConfigToJson(c), &error);
        ASSERT_TRUE(back) << name << ": " << error;
        EXPECT_EQ(machineConfigToJson(c).dump(),
                  machineConfigToJson(*back).dump())
            << name;
    }
}

TEST(MachineSerialize, ModernTopologyRoundTrip)
{
    MachineConfig c;
    c.name = "smt-cluster";
    c.sockets = 8;
    c.coresPerSocket = 4;
    c.threadsPerCore = 8;
    c.smtThreadThroughput = 0.25;
    c.nodes = 4;
    c.fabricBandwidth = 1.25e9;
    c.fabricLinkLatency = 2.5e-6;
    c.htLinks = {{0, 1}};
    std::string error;
    auto back = parseMachineConfig(machineConfigToJson(c), &error);
    ASSERT_TRUE(back) << error;
    EXPECT_EQ(back->threadsPerCore, 8);
    EXPECT_EQ(back->smtThreadThroughput, 0.25);
    EXPECT_EQ(back->nodes, 4);
    EXPECT_EQ(back->fabricBandwidth, 1.25e9);
    EXPECT_EQ(back->fabricLinkLatency, 2.5e-6);
    EXPECT_EQ(machineConfigToJson(c).dump(),
              machineConfigToJson(*back).dump());
}

// The new keys are emitted only away from their defaults, so the
// canonical text of every pre-registry machine is byte-stable.
TEST(MachineSerialize, DefaultTopologyKeysStayUnwritten)
{
    for (const std::string &name : presetNames()) {
        std::string text =
            machineConfigToJson(configByName(name)).dump();
        EXPECT_EQ(text.find("threads_per_core"), std::string::npos);
        EXPECT_EQ(text.find("smt_thread_throughput"),
                  std::string::npos);
        EXPECT_EQ(text.find("nodes"), std::string::npos);
        EXPECT_EQ(text.find("fabric_bandwidth"), std::string::npos);
        EXPECT_EQ(text.find("fabric_link_latency"), std::string::npos);
    }
}

// ---------------------------------------------------------------------
// Malformed definitions: every rejection class the loader promises.
// ---------------------------------------------------------------------

std::optional<MachineConfig>
parseText(const std::string &text, std::string *error)
{
    auto doc = parseJson(text, error);
    if (!doc)
        return std::nullopt;
    return parseMachineConfig(*doc, error);
}

TEST(MachineSerialize, RejectsBadSmtWidths)
{
    std::string error;
    EXPECT_FALSE(parseText(
        R"({"name":"x","sockets":2,"cores_per_socket":2,)"
        R"("threads_per_core":0,"ht_links":[[0,1]]})",
        &error));
    EXPECT_FALSE(error.empty());
    EXPECT_FALSE(parseText(
        R"({"name":"x","sockets":2,"cores_per_socket":2,)"
        R"("threads_per_core":2.5,"ht_links":[[0,1]]})",
        &error));
    EXPECT_NE(error.find("integer"), std::string::npos) << error;
    // An SMT width needs a sub-unity single-thread throughput to be
    // meaningful, but throughput bounds are the hard contract.
    EXPECT_FALSE(parseText(
        R"({"name":"x","sockets":2,"cores_per_socket":2,)"
        R"("threads_per_core":4,"smt_thread_throughput":1.5,)"
        R"("ht_links":[[0,1]]})",
        &error));
    EXPECT_FALSE(parseText(
        R"({"name":"x","sockets":2,"cores_per_socket":2,)"
        R"("threads_per_core":4,"smt_thread_throughput":0.0,)"
        R"("ht_links":[[0,1]]})",
        &error));
}

TEST(MachineSerialize, RejectsOutOfRangeHtLinkSockets)
{
    // Casting a double outside int's range is undefined behaviour;
    // such a link is not a socket pair at all.
    for (const char *link : {"[1e300,0]", "[0,-1e300]", "[1e300,1e300]"}) {
        std::string error;
        EXPECT_FALSE(parseText(
            std::string(R"({"name":"x","sockets":2,"cores_per_socket":2,)"
                        R"("ht_links":[)") +
                link + "]}",
            &error))
            << link;
        EXPECT_NE(error.find("[socket, socket] pairs"), std::string::npos)
            << link << ": " << error;
    }
}

TEST(MachineSerialize, RejectsOrphanFabricAndBadNodeCounts)
{
    std::string error;
    // Fabric parameters without nodes > 1: orphan fabric.
    EXPECT_FALSE(parseText(
        R"({"name":"x","sockets":2,"cores_per_socket":2,)"
        R"("fabric_bandwidth":1e9,"ht_links":[[0,1]]})",
        &error));
    EXPECT_NE(error.find("orphan fabric"), std::string::npos) << error;
    // nodes > 1 without fabric bandwidth.
    EXPECT_FALSE(parseText(
        R"({"name":"x","sockets":4,"cores_per_socket":2,)"
        R"("nodes":2,"ht_links":[[0,1]]})",
        &error));
    // nodes must divide sockets.
    EXPECT_FALSE(parseText(
        R"({"name":"x","sockets":5,"cores_per_socket":2,"nodes":2,)"
        R"("fabric_bandwidth":1e9,"ht_links":[[0,1]]})",
        &error));
    EXPECT_NE(error.find("divide"), std::string::npos) << error;
}

TEST(MachineSerialize, RejectsBadLinks)
{
    std::string error;
    EXPECT_FALSE(parseText(
        R"({"name":"x","sockets":2,"cores_per_socket":1,)"
        R"("ht_links":[[0,0]]})",
        &error));
    EXPECT_NE(error.find("self-link"), std::string::npos) << error;
    EXPECT_FALSE(parseText(
        R"({"name":"x","sockets":2,"cores_per_socket":1,)"
        R"("ht_links":[[0,1],[1,0]]})",
        &error));
    EXPECT_NE(error.find("duplicate"), std::string::npos) << error;
    // Disconnected: two sockets, no link.
    EXPECT_FALSE(parseText(
        R"({"name":"x","sockets":2,"cores_per_socket":1,)"
        R"("ht_links":[]})",
        &error));
    // Cluster links are node-local: endpoint 2 is outside a
    // 2-sockets-per-node group.
    EXPECT_FALSE(parseText(
        R"({"name":"x","sockets":4,"cores_per_socket":1,"nodes":2,)"
        R"("fabric_bandwidth":1e9,"ht_links":[[0,2]]})",
        &error));
    EXPECT_NE(error.find("node-local"), std::string::npos) << error;
}

// ---------------------------------------------------------------------
// The registry itself.
// ---------------------------------------------------------------------

MachineConfig
zooConfig(const std::string &name)
{
    MachineConfig c = configByName("dmz");
    c.name = name;
    return c;
}

TEST(MachineRegistry, BuiltinsAreRegisteredAndOrdered)
{
    MachineRegistry &reg = MachineRegistry::instance();
    EXPECT_EQ(reg.builtinNames(), presetNames());
    for (const std::string &name : presetNames()) {
        ASSERT_NE(reg.find(name), nullptr) << name;
        EXPECT_TRUE(reg.isBuiltin(name));
        // Case-insensitive lookup.
        ASSERT_NE(reg.find("TIGER"), nullptr);
    }
    EXPECT_EQ(reg.find("no-such-machine"), nullptr);
}

TEST(MachineRegistry, RejectsDuplicatesIncludingBuiltinCollisions)
{
    MachineRegistry &reg = MachineRegistry::instance();
    std::string problem = reg.registerMachine(zooConfig("Tiger"));
    EXPECT_NE(problem.find("duplicate"), std::string::npos) << problem;
    EXPECT_NE(problem.find("builtin"), std::string::npos) << problem;

    ASSERT_EQ(reg.registerMachine(zooConfig("dup-probe")), "");
    problem = reg.registerMachine(zooConfig("DUP-Probe"));
    EXPECT_NE(problem.find("duplicate"), std::string::npos) << problem;

    MachineConfig nameless = zooConfig("");
    EXPECT_FALSE(reg.registerMachine(nameless).empty());
}

TEST(MachineRegistry, SuggestsNearestName)
{
    MachineRegistry &reg = MachineRegistry::instance();
    EXPECT_EQ(reg.suggest("tigr"), "Tiger");
    EXPECT_EQ(reg.suggest("longss"), "Longs");
}

TEST(MachineRegistry, LoadDirectoryRoundTrip)
{
    char tmpl[] = "/tmp/mcscope_registry_XXXXXX";
    ASSERT_NE(mkdtemp(tmpl), nullptr);
    std::string dir = tmpl;
    {
        std::ofstream f(dir + "/boxa.json");
        f << R"({"name":"boxa","sockets":2,"cores_per_socket":4,)"
          << R"("threads_per_core":2,"smt_thread_throughput":0.6,)"
          << R"("core_ghz":2.6,"ht_links":[[0,1]]})";
    }
    {
        std::ofstream f(dir + "/not-a-machine.txt");
        f << "ignored";
    }
    MachineRegistry &reg = MachineRegistry::instance();
    ASSERT_EQ(reg.loadDirectory(dir), "");
    const MachineConfig *c = reg.find("boxa");
    ASSERT_NE(c, nullptr);
    EXPECT_EQ(c->sockets, 2);
    EXPECT_EQ(c->threadsPerCore, 2);
    EXPECT_EQ(c->smtThreadThroughput, 0.6);
    EXPECT_FALSE(reg.isBuiltin("boxa"));

    // A second load of the same directory is a duplicate-name error
    // that names the offending file.
    std::string problem = reg.loadDirectory(dir);
    EXPECT_NE(problem.find("boxa.json"), std::string::npos) << problem;
    EXPECT_NE(problem.find("duplicate"), std::string::npos) << problem;

    // A malformed file is reported by path, not silently skipped.
    char tmpl2[] = "/tmp/mcscope_registry_XXXXXX";
    ASSERT_NE(mkdtemp(tmpl2), nullptr);
    std::string dir2 = tmpl2;
    {
        std::ofstream f(dir2 + "/bad.json");
        f << R"({"name":"bad","sockets":2,"cores_per_socket":1,)"
          << R"("fabric_bandwidth":1e9,"ht_links":[[0,1]]})";
    }
    problem = reg.loadDirectory(dir2);
    EXPECT_NE(problem.find("bad.json"), std::string::npos) << problem;
    EXPECT_NE(problem.find("orphan fabric"), std::string::npos)
        << problem;
}

// ---------------------------------------------------------------------
// Name resolution through the spec and plan parsers.
// ---------------------------------------------------------------------

TEST(MachineRegistry, SpecResolvesZooMachinesInline)
{
    MachineRegistry &reg = MachineRegistry::instance();
    if (reg.find("spec-zoo") == nullptr) {
        ASSERT_EQ(reg.registerMachine(zooConfig("spec-zoo")), "");
    }
    std::string error;
    auto doc = parseJson(
        R"({"workload":"stream","machine":"spec-zoo","ranks":2})",
        &error);
    ASSERT_TRUE(doc) << error;
    auto spec = parseScenarioSpec(*doc, &error);
    ASSERT_TRUE(spec) << error;
    // Zoo machines travel inline: the spec is self-contained.
    EXPECT_TRUE(spec->machinePreset.empty());
    EXPECT_EQ(spec->machine.name, "spec-zoo");
    EXPECT_NE(spec->canonicalText().find("spec-zoo"),
              std::string::npos);

    // Unknown names error with a nearest-name hint.
    doc = parseJson(R"({"workload":"stream","machine":"spec-zo"})",
                    &error);
    ASSERT_TRUE(doc);
    EXPECT_FALSE(parseScenarioSpec(*doc, &error));
    EXPECT_NE(error.find("spec-zoo"), std::string::npos) << error;
}

TEST(MachineRegistry, PlanMachinesAxisExpandsOutermost)
{
    MachineRegistry &reg = MachineRegistry::instance();
    if (reg.find("plan-zoo") == nullptr) {
        ASSERT_EQ(reg.registerMachine(zooConfig("plan-zoo")), "");
    }
    std::string error;
    auto doc = parseJson(
        R"({"machines":["tiger","plan-zoo"],)"
        R"("workloads":["stream"],"ranks":[2],"options":[0]})",
        &error);
    ASSERT_TRUE(doc) << error;
    auto plan = SweepPlan::fromJson(*doc, &error);
    ASSERT_TRUE(plan) << error;
    ASSERT_EQ(plan->axes().machineVariants(), 2u);
    EXPECT_EQ(plan->axes().variantPreset(0), "tiger");
    EXPECT_EQ(plan->axes().variantPreset(1), "");
    EXPECT_EQ(plan->axes().variantMachine(1).name, "plan-zoo");
    ASSERT_EQ(plan->pointCount(), 2u);
    // Builtin entries keep the digest-preserving preset collapse.
    EXPECT_EQ(plan->pointSpec(plan->pointIndex(0, 0, 0, 0, 0, 0))
                  .machinePreset,
              "tiger");
    EXPECT_TRUE(plan->pointSpec(plan->pointIndex(0, 0, 0, 0, 0, 1))
                    .machinePreset.empty());

    // Mutual exclusions.
    doc = parseJson(
        R"({"machine":"tiger","machines":["dmz"],)"
        R"("workloads":["stream"]})",
        &error);
    ASSERT_TRUE(doc);
    EXPECT_FALSE(SweepPlan::fromJson(*doc, &error));
    EXPECT_NE(error.find("mutually exclusive"), std::string::npos)
        << error;
    doc = parseJson(
        R"({"machines":["dmz"],"directory_entries":[1024],)"
        R"("workloads":["stream"]})",
        &error);
    ASSERT_TRUE(doc);
    EXPECT_FALSE(SweepPlan::fromJson(*doc, &error));
    EXPECT_NE(error.find("mutually exclusive"), std::string::npos)
        << error;

    // Unknown machine in the axis: error with suggestion.
    doc = parseJson(
        R"({"machines":["tigr"],"workloads":["stream"]})", &error);
    ASSERT_TRUE(doc);
    EXPECT_FALSE(SweepPlan::fromJson(*doc, &error));
    EXPECT_NE(error.find("tiger"), std::string::npos) << error;
}

} // namespace
} // namespace mcscope
