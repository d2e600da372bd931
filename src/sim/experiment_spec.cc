#include "sim/experiment_spec.hh"

#include <algorithm>
#include <map>

#include "common/file_util.hh"
#include "common/logging.hh"
#include "registry/attack_registry.hh"
#include "registry/scheme_registry.hh"
#include "registry/source_registry.hh"
#include "registry/workload_registry.hh"

namespace mithril::sim
{

namespace
{

using registry::ParamDesc;
using registry::SpecError;

/** The spec-owned keys with their legal ranges. */
const std::vector<ParamDesc> &
coreParams()
{
    static const std::vector<ParamDesc> descs = {
        {"scheme", ParamDesc::Type::String, "mithril", 0, 0,
         "protection scheme registry name"},
        {"workload", ParamDesc::Type::String, "mix-high", 0, 0,
         "workload registry name"},
        {"attack", ParamDesc::Type::String, "none", 0, 0,
         "attack registry name"},
        {"flip", ParamDesc::Type::Uint, "6250", 1, 1e7,
         "RH threshold (FlipTH)"},
        {"rfm", ParamDesc::Type::Uint, "0", 0, 1e5,
         "RFM threshold (0 = scheme default)"},
        {"ad", ParamDesc::Type::Uint, "200", 0, 1e6,
         "Mithril adaptive refresh threshold"},
        {"blast-radius", ParamDesc::Type::Uint, "1", 1, 4,
         "non-adjacent RH radius"},
        {"scheme-seed", ParamDesc::Type::Uint, "7", 0, 1.8e19,
         "scheme-internal RNG seed"},
        {"cores", ParamDesc::Type::Uint, "16", 1, 1024,
         "total cores (one becomes the attacker when attacking)"},
        {"instr", ParamDesc::Type::Uint, "200000", 1, 1e12,
         "instruction budget per benign core"},
        {"seed", ParamDesc::Type::Uint, "42", 0, 1.8e19,
         "workload RNG seed"},
        {"warmup", ParamDesc::Type::Uint, "0", 0, 1e12,
         "tracker warm-up activations before the measured run"},
        {"warmup-from-workload", ParamDesc::Type::Bool, "0", 0, 0,
         "warm the tracker from the benign streams"},
        {"source", ParamDesc::Type::String, "none", 0, 0,
         "engine ActSource registry name (none = full-System run)"},
        {"record", ParamDesc::Type::String, "", 0, 0,
         "capture the run's ACT stream to this path "
         "(mithril.acttrace.v1; replay with source=act-trace)"},
        {"trace-pipeline", ParamDesc::Type::String, "", 0, 0,
         "compose the replay corpus first: trace-op pipeline "
         "(--list trace-ops) materialized to the trace= path, then "
         "replayed via source=act-trace"},
        {"telemetry", ParamDesc::Type::Bool, "0", 0, 0,
         "collect the telemetry metric sheet + ACT heatmap "
         "(observation only; never affects outcomes)"},
        {"trace-events", ParamDesc::Type::String, "", 0, 0,
         "write the mitigation-event trace to this path as Chrome "
         "trace-event JSON (Perfetto-loadable)"},
        {"heatmap-regions", ParamDesc::Type::Uint, "64", 1, 65536,
         "ACT heatmap region budget per bank (power-of-two "
         "coarsening at budget)"},
        {"trace-capacity", ParamDesc::Type::Uint, "4096", 1, 1e8,
         "mitigation-event ring capacity per bank (newest retained)"},
        {"acts", ParamDesc::Type::Uint, "1000000", 1, 1e12,
         "ACT budget of an engine (source=) run"},
        {"shards", ParamDesc::Type::Uint, "0", 0, 65536,
         "engine bank shards (0 = one per channel); never affects "
         "results, only parallelism"},
        {"threads", ParamDesc::Type::Uint, "0", 0, 1024,
         "worker threads for a standalone engine run (0 = ambient "
         "pool / inline)"},
        {"channels", ParamDesc::Type::Uint, "0", 0, 64,
         "DRAM channels (0 = geometry preset; must be a power of "
         "two); System runs build one frontend lane per channel"},
    };
    return descs;
}

const ParamDesc *
findDesc(const std::vector<ParamDesc> &descs, const std::string &key)
{
    for (const ParamDesc &desc : descs) {
        if (desc.key == key)
            return &desc;
    }
    return nullptr;
}

/** The desc of an entry-declared key across the spec's selected
 *  entries (source_entry null when source=none), with a printable
 *  owner; nullptr when none declares it. */
const ParamDesc *
findEntryParam(const registry::SchemeRegistry::Entry &scheme_entry,
               const registry::WorkloadRegistry::Entry &workload_entry,
               const registry::AttackRegistry::Entry &attack_entry,
               const registry::SourceRegistry::Entry *source_entry,
               const std::string &key, std::string *owner)
{
    if (const ParamDesc *d = findDesc(scheme_entry.params, key)) {
        *owner = "scheme '" + scheme_entry.name + "'";
        return d;
    }
    if (const ParamDesc *d = findDesc(workload_entry.params, key)) {
        *owner = "workload '" + workload_entry.name + "'";
        return d;
    }
    if (const ParamDesc *d = findDesc(attack_entry.params, key)) {
        *owner = "attack '" + attack_entry.name + "'";
        return d;
    }
    if (source_entry) {
        if (const ParamDesc *d =
                findDesc(source_entry->params, key)) {
            *owner = "source '" + source_entry->name + "'";
            return d;
        }
    }
    return nullptr;
}

} // namespace

void
ExperimentSpec::checkRange(const std::string &key, std::uint64_t value)
{
    const ParamDesc *desc = findDesc(coreParams(), key);
    MITHRIL_ASSERT(desc != nullptr);
    const auto min = static_cast<std::uint64_t>(desc->min);
    const auto max = static_cast<std::uint64_t>(desc->max);
    if (value < min || value > max) {
        throw SpecError(key + "=" + std::to_string(value) +
                        " is out of range [" + std::to_string(min) +
                        ", " + std::to_string(max) + "]");
    }
    if (key == "channels" && (value & (value - 1)) != 0) {
        throw SpecError("channels=" + std::to_string(value) +
                        " must be a power of two (the address map "
                        "interleaves by channel bits)");
    }
}

ExperimentSpec
ExperimentSpec::parse(const ParamSet &params,
                      const std::vector<std::string> &ignore_keys)
{
    ExperimentSpec spec;
    spec.scheme = params.getString("scheme", spec.scheme);
    spec.workload = params.getString("workload", spec.workload);
    spec.attack = params.getString("attack", spec.attack);
    spec.source = params.getString("source", spec.source);

    // Resolve the selected entries first so every later error can cite
    // them — and so aliases canonicalize before anything is stored.
    const auto &scheme_entry =
        registry::schemeRegistry().at(spec.scheme);
    const auto &workload_entry =
        registry::workloadRegistry().at(spec.workload);
    const auto &attack_entry =
        registry::attackRegistry().at(spec.attack);
    const registry::SourceRegistry::Entry *source_entry = nullptr;
    if (spec.source != "none") {
        source_entry = &registry::sourceRegistry().at(spec.source);
        spec.source = source_entry->name;
    }
    spec.scheme = scheme_entry.name;
    spec.workload = workload_entry.name;
    spec.attack = attack_entry.name;

    // Reject unknown keys before reading anything: a typo'd knob must
    // not silently run the default configuration. Value range checks
    // happen in the validate() call below.
    for (const std::string &key : params.keys()) {
        if (findDesc(coreParams(), key))
            continue;
        if (std::find(ignore_keys.begin(), ignore_keys.end(), key) !=
            ignore_keys.end())
            continue;
        std::string owner;
        if (!findEntryParam(scheme_entry, workload_entry,
                            attack_entry, source_entry, key,
                            &owner)) {
            std::vector<std::string> known;
            for (const ParamDesc &d : coreParams())
                known.push_back(d.key);
            for (const auto *entry_params :
                 {&scheme_entry.params, &workload_entry.params,
                  &attack_entry.params}) {
                for (const ParamDesc &d : *entry_params)
                    known.push_back(d.key);
            }
            if (source_entry) {
                for (const ParamDesc &d : source_entry->params)
                    known.push_back(d.key);
            }
            throw SpecError("unknown experiment parameter '" + key +
                            "'; accepted parameters: " +
                            registry::joinSorted(known));
        }
        spec.extras.set(key, params.getString(key));
    }

    // strtoull-level format errors in the numeric knobs below stay
    // fatal() (ParamSet semantics); range errors throw SpecError via
    // validate().
    spec.flipTh = params.getUint32("flip", spec.flipTh);
    spec.rfmTh = params.getUint32("rfm", spec.rfmTh);
    spec.adTh = params.getUint32("ad", spec.adTh);
    spec.blastRadius =
        params.getUint32("blast-radius", spec.blastRadius);
    spec.schemeSeed = params.getUint("scheme-seed", spec.schemeSeed);
    spec.cores = params.getUint32("cores", spec.cores);
    spec.instrPerCore = params.getUint("instr", spec.instrPerCore);
    spec.seed = params.getUint("seed", spec.seed);
    spec.trackerWarmupActs =
        params.getUint("warmup", spec.trackerWarmupActs);
    spec.warmupFromWorkload = params.getBool(
        "warmup-from-workload", spec.warmupFromWorkload);
    spec.record = params.getString("record", spec.record);
    spec.tracePipeline =
        params.getString("trace-pipeline", spec.tracePipeline);
    spec.telemetry = params.getBool("telemetry", spec.telemetry);
    spec.traceEvents =
        params.getString("trace-events", spec.traceEvents);
    spec.heatmapRegions =
        params.getUint32("heatmap-regions", spec.heatmapRegions);
    spec.traceCapacity =
        params.getUint32("trace-capacity", spec.traceCapacity);
    spec.engineActs = params.getUint("acts", spec.engineActs);
    spec.shards = params.getUint32("shards", spec.shards);
    spec.threads = params.getUint32("threads", spec.threads);
    spec.channels = params.getUint32("channels", spec.channels);
    spec.validate();
    return spec;
}

ExperimentSpec
ExperimentSpec::fromParams(const ParamSet &params,
                           const std::vector<std::string> &ignore_keys)
{
    // A bare token (e.g. `--help`) is never a knob: running the
    // default experiment anyway would hide the typo.
    if (!params.positional().empty())
        fatal("unexpected argument '%s': all knobs are key=value",
              params.positional().front().c_str());
    try {
        return parse(params, ignore_keys);
    } catch (const SpecError &err) {
        fatal("%s", err.what());
    }
    return {};
}

void
ExperimentSpec::validate() const
{
    const auto &scheme_entry = registry::schemeRegistry().at(scheme);
    const auto &workload_entry =
        registry::workloadRegistry().at(workload);
    const auto &attack_entry = registry::attackRegistry().at(attack);
    const registry::SourceRegistry::Entry *source_entry =
        source != "none" ? &registry::sourceRegistry().at(source)
                         : nullptr;

    checkRange("flip", flipTh);
    checkRange("rfm", rfmTh);
    checkRange("ad", adTh);
    checkRange("blast-radius", blastRadius);
    checkRange("cores", cores);
    checkRange("instr", instrPerCore);
    checkRange("warmup", trackerWarmupActs);
    checkRange("acts", engineActs);
    checkRange("shards", shards);
    checkRange("threads", threads);
    checkRange("heatmap-regions", heatmapRegions);
    checkRange("trace-capacity", traceCapacity);
    checkRange("channels", channels);
    if (!record.empty() && !traceEvents.empty() &&
        sameFile(record, traceEvents)) {
        // The event trace is written last and would replace the
        // capture, leaving a "successful" run with no ACT trace.
        throw SpecError("record= and trace-events= name the same file '" +
                        record + "'; each output needs its own path");
    }
    if (attacking() && !engineRun() && cores < 2) {
        throw SpecError("attack '" + attack +
                        "' needs cores >= 2 (one core becomes the "
                        "attacker)");
    }
    if (!tracePipeline.empty()) {
        // The pipeline writes the corpus the replay source reads, so
        // both ends must be declared. (source_entry->name resolves
        // aliases.)
        if (!source_entry || source_entry->name != "act-trace" ||
            !extras.has("trace")) {
            throw SpecError(
                "trace-pipeline= needs source=act-trace and "
                "trace=<path> (the pipeline materializes to the "
                "trace= path, which the run then replays)");
        }
    }

    for (const std::string &key : extras.keys()) {
        std::string owner;
        const ParamDesc *desc =
            findEntryParam(scheme_entry, workload_entry,
                           attack_entry, source_entry, key, &owner);
        if (!desc) {
            throw SpecError(
                "parameter '" + key + "' is not declared by scheme '" +
                scheme + "', workload '" + workload + "', attack '" +
                attack + "', or source '" + source + "'");
        }
        registry::checkParam(owner, *desc, extras);
    }
}

ParamSet
ExperimentSpec::toParams() const
{
    ParamSet params;
    params.set("scheme", scheme);
    params.set("workload", workload);
    params.set("attack", attack);
    params.set("flip", std::to_string(flipTh));
    params.set("rfm", std::to_string(rfmTh));
    params.set("ad", std::to_string(adTh));
    params.set("blast-radius", std::to_string(blastRadius));
    params.set("scheme-seed", std::to_string(schemeSeed));
    params.set("cores", std::to_string(cores));
    params.set("instr", std::to_string(instrPerCore));
    params.set("seed", std::to_string(seed));
    params.set("warmup", std::to_string(trackerWarmupActs));
    params.set("warmup-from-workload",
               warmupFromWorkload ? "1" : "0");
    // The capture path is off by default; like the extras it only
    // appears when set, so existing describe() goldens are stable.
    if (!record.empty())
        params.set("record", record);
    if (!tracePipeline.empty())
        params.set("trace-pipeline", tracePipeline);
    // Telemetry knobs follow the same non-default-only discipline.
    if (telemetry)
        params.set("telemetry", "1");
    if (!traceEvents.empty())
        params.set("trace-events", traceEvents);
    if (heatmapRegions != 64)
        params.set("heatmap-regions", std::to_string(heatmapRegions));
    if (traceCapacity != 4096)
        params.set("trace-capacity", std::to_string(traceCapacity));
    if (channels != 0)
        params.set("channels", std::to_string(channels));
    params.set("source", source);
    params.set("acts", std::to_string(engineActs));
    params.set("shards", std::to_string(shards));
    params.set("threads", std::to_string(threads));
    for (const std::string &key : extras.keys())
        params.set(key, extras.getString(key));
    return params;
}

std::string
ExperimentSpec::describe() const
{
    const ParamSet params = toParams();
    std::string out;
    for (const std::string &key : params.keys()) {
        if (!out.empty())
            out += " ";
        out += key + "=" + params.getString(key);
    }
    return out;
}

} // namespace mithril::sim
