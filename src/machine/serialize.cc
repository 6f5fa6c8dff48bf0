#include "machine/serialize.hh"

#include <cmath>

namespace mcscope {

namespace {

/** Set `*err` (if non-null) and return false for chaining. */
bool
setError(std::string *err, const std::string &msg)
{
    if (err)
        *err = msg;
    return false;
}

/** Parse a machine.coherence block; false + *error on bad input. */
bool
parseCoherenceConfig(const JsonValue &doc, CoherenceConfig *out,
                     std::string *error)
{
    if (!doc.isObject())
        return setError(error, "machine.coherence must be an object");
    for (const auto &[key, v] : doc.members()) {
        auto positive = [&](double &field, double min) {
            if (!v.isNumber() || v.asNumber() < min) {
                setError(error, "machine.coherence." + key +
                                    " must be a number >= " +
                                    JsonValue::number(min).dump());
                return false;
            }
            field = v.asNumber();
            return true;
        };
        bool ok = true;
        if (key == "mode") {
            if (!v.isString() ||
                !parseCoherenceMode(v.asString(), &out->mode)) {
                return setError(
                    error,
                    "machine.coherence.mode must be one of "
                    "legacy-alpha, snoopy, directory");
            }
        } else if (key == "probe_bytes") {
            ok = positive(out->probeBytes, 0.0);
        } else if (key == "line_bytes") {
            ok = positive(out->lineBytes, 1.0);
        } else if (key == "directory_entries") {
            ok = positive(out->directoryEntries, 1.0);
        } else if (key == "directory_ways") {
            ok = positive(out->directoryWays, 1.0);
        } else {
            return setError(error,
                            "unknown machine.coherence key '" + key +
                                "'");
        }
        if (!ok)
            return false;
    }
    return true;
}

} // namespace

JsonValue
machineConfigToJson(const MachineConfig &config)
{
    // Simulation-relevant fields only: the Table 1 metadata strings
    // (Opteron model, memory type, OS name) document the real
    // hardware and cannot change a simulated number, so they stay out
    // of the serialization and therefore out of the digest.
    JsonValue m = JsonValue::object();
    m.set("name", JsonValue::str(config.name));
    m.set("sockets", JsonValue::number(config.sockets));
    m.set("cores_per_socket", JsonValue::number(config.coresPerSocket));
    // The post-2006 topology axes (SMT, clustering) are emitted only
    // away from their defaults: every scenario digest minted before
    // these fields existed must keep its exact canonical text.
    if (config.threadsPerCore != 1) {
        m.set("threads_per_core",
              JsonValue::number(config.threadsPerCore));
    }
    if (config.smtThreadThroughput != 1.0) {
        m.set("smt_thread_throughput",
              JsonValue::number(config.smtThreadThroughput));
    }
    if (config.nodes != 1)
        m.set("nodes", JsonValue::number(config.nodes));
    if (config.fabricBandwidth != 0.0) {
        m.set("fabric_bandwidth",
              JsonValue::number(config.fabricBandwidth));
    }
    if (config.fabricLinkLatency != 0.0) {
        m.set("fabric_link_latency",
              JsonValue::number(config.fabricLinkLatency));
    }
    m.set("core_ghz", JsonValue::number(config.coreGHz));
    m.set("flops_per_cycle", JsonValue::number(config.flopsPerCycle));
    m.set("l1_bytes", JsonValue::number(config.l1Bytes));
    m.set("l2_bytes", JsonValue::number(config.l2Bytes));
    m.set("mem_bandwidth_per_socket",
          JsonValue::number(config.memBandwidthPerSocket));
    m.set("mem_latency", JsonValue::number(config.memLatency));
    m.set("ht_link_bandwidth",
          JsonValue::number(config.htLinkBandwidth));
    m.set("ht_hop_latency", JsonValue::number(config.htHopLatency));
    m.set("coherence_alpha", JsonValue::number(config.coherenceAlpha));
    JsonValue coh = JsonValue::object();
    coh.set("mode",
            JsonValue::str(coherenceModeName(config.coherence.mode)));
    coh.set("probe_bytes",
            JsonValue::number(config.coherence.probeBytes));
    coh.set("line_bytes", JsonValue::number(config.coherence.lineBytes));
    coh.set("directory_entries",
            JsonValue::number(config.coherence.directoryEntries));
    coh.set("directory_ways",
            JsonValue::number(config.coherence.directoryWays));
    m.set("coherence", std::move(coh));
    m.set("stream_concurrency_bytes",
          JsonValue::number(config.streamConcurrencyBytes));
    m.set("same_die_bandwidth_boost",
          JsonValue::number(config.sameDieBandwidthBoost));
    m.set("same_die_latency_factor",
          JsonValue::number(config.sameDieLatencyFactor));
    JsonValue links = JsonValue::array();
    for (const auto &[a, b] : config.htLinks) {
        JsonValue link = JsonValue::array();
        link.append(JsonValue::number(a));
        link.append(JsonValue::number(b));
        links.append(std::move(link));
    }
    m.set("ht_links", std::move(links));
    return m;
}

std::optional<MachineConfig>
parseMachineConfig(const JsonValue &doc, std::string *error)
{
    if (!doc.isObject()) {
        setError(error, "machine must be a preset name or an object");
        return std::nullopt;
    }
    MachineConfig c;
    c.name = "custom";
    for (const auto &[key, v] : doc.members()) {
        auto num = [&](double &field) {
            if (!v.isNumber()) {
                setError(error, "machine." + key + " must be a number");
                return false;
            }
            field = v.asNumber();
            return true;
        };
        auto integer = [&](int &field) {
            if (!v.isNumber()) {
                setError(error, "machine." + key + " must be a number");
                return false;
            }
            double d = v.asNumber();
            // Truncating here would silently simulate a different
            // machine than the one the user wrote (and digest it).
            if (d != std::floor(d) || d < -1.0e9 || d > 1.0e9) {
                setError(error, "machine." + key +
                                    " must be an integer, got " +
                                    JsonValue::number(d).dump());
                return false;
            }
            field = static_cast<int>(d);
            return true;
        };
        bool ok = true;
        if (key == "name") {
            if (!v.isString()) {
                setError(error, "machine.name must be a string");
                return std::nullopt;
            }
            c.name = v.asString();
        } else if (key == "sockets") {
            ok = integer(c.sockets);
        } else if (key == "cores_per_socket") {
            ok = integer(c.coresPerSocket);
        } else if (key == "threads_per_core") {
            ok = integer(c.threadsPerCore);
        } else if (key == "smt_thread_throughput") {
            ok = num(c.smtThreadThroughput);
        } else if (key == "nodes") {
            ok = integer(c.nodes);
        } else if (key == "fabric_bandwidth") {
            ok = num(c.fabricBandwidth);
        } else if (key == "fabric_link_latency") {
            ok = num(c.fabricLinkLatency);
        } else if (key == "core_ghz") {
            ok = num(c.coreGHz);
        } else if (key == "flops_per_cycle") {
            ok = num(c.flopsPerCycle);
        } else if (key == "l1_bytes") {
            ok = num(c.l1Bytes);
        } else if (key == "l2_bytes") {
            ok = num(c.l2Bytes);
        } else if (key == "mem_bandwidth_per_socket") {
            ok = num(c.memBandwidthPerSocket);
        } else if (key == "mem_latency") {
            ok = num(c.memLatency);
        } else if (key == "ht_link_bandwidth") {
            ok = num(c.htLinkBandwidth);
        } else if (key == "ht_hop_latency") {
            ok = num(c.htHopLatency);
        } else if (key == "coherence_alpha") {
            ok = num(c.coherenceAlpha);
        } else if (key == "stream_concurrency_bytes") {
            ok = num(c.streamConcurrencyBytes);
        } else if (key == "same_die_bandwidth_boost") {
            ok = num(c.sameDieBandwidthBoost);
        } else if (key == "same_die_latency_factor") {
            ok = num(c.sameDieLatencyFactor);
        } else if (key == "ht_links") {
            if (!v.isArray()) {
                setError(error, "machine.ht_links must be an array");
                return std::nullopt;
            }
            for (const JsonValue &link : v.items()) {
                std::optional<int> first, second;
                if (link.isArray() && link.items().size() == 2) {
                    first = jsonInteger<int>(link.items()[0]);
                    second = jsonInteger<int>(link.items()[1]);
                }
                if (!first || !second) {
                    setError(error,
                             "machine.ht_links entries must be "
                             "[socket, socket] pairs");
                    return std::nullopt;
                }
                const int a = *first, b = *second;
                if (a == b) {
                    setError(error,
                             "machine.ht_links has self-link " +
                                 std::to_string(a) + "-" +
                                 std::to_string(b));
                    return std::nullopt;
                }
                for (const auto &[pa, pb] : c.htLinks) {
                    if ((pa == a && pb == b) ||
                        (pa == b && pb == a)) {
                        setError(error,
                                 "machine.ht_links has duplicate "
                                 "link " +
                                     std::to_string(a) + "-" +
                                     std::to_string(b));
                        return std::nullopt;
                    }
                }
                c.htLinks.emplace_back(a, b);
            }
        } else if (key == "coherence") {
            if (!parseCoherenceConfig(v, &c.coherence, error))
                return std::nullopt;
        } else {
            setError(error, "unknown machine key '" + key + "'");
            return std::nullopt;
        }
        if (!ok)
            return std::nullopt;
    }
    // Full structural validation (SMT widths, fabric orphans, link
    // connectivity) shares one code path with the registry loader so
    // a definition rejected there is rejected identically here.
    std::string problem = c.check();
    if (!problem.empty()) {
        setError(error, problem);
        return std::nullopt;
    }
    return c;
}

} // namespace mcscope
