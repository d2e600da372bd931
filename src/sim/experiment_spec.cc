#include "sim/experiment_spec.hh"

#include <algorithm>
#include <type_traits>
#include <variant>

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

/** One spec-owned knob. Its default is the member initializer. */
struct Knob
{
    const char *key;
    std::variant<std::string ExperimentSpec::*,
                 std::uint32_t ExperimentSpec::*,
                 std::uint64_t ExperimentSpec::*,
                 bool ExperimentSpec::*>
        member;
    /** Legal range of a numeric knob. */
    std::uint64_t min;
    std::uint64_t max;
    /** kPrintDefault, kSweepScalar and kPowerOfTwo, or'ed. */
    unsigned flags;
};

/** toParams() prints the knob at its default value too. The knobs
 *  without it (the optional outputs, the telemetry knobs, channels)
 *  print only when set, so describe() lines written before they
 *  existed stay byte-identical. */
constexpr unsigned kPrintDefault = 1;
/** A sweep takes the knob as one scalar for every job. */
constexpr unsigned kSweepScalar = 2;
constexpr unsigned kBoth = kPrintDefault | kSweepScalar;
/** The value must be 0 or a power of two: the address map
 *  interleaves by channel bits. */
constexpr unsigned kPowerOfTwo = 4;

/** Seeds use all 64 bits: per-job seeds are splitmix64 outputs. */
constexpr std::uint64_t kUnbounded = ~std::uint64_t{0};

using S = ExperimentSpec;

/** Every spec-owned knob, in the order validate() range-checks them; a
 *  new knob is one row here plus its member. */
const Knob kKnobs[] = {
    {"scheme", &S::scheme, 0, 0, kPrintDefault},
    {"workload", &S::workload, 0, 0, kPrintDefault},
    {"attack", &S::attack, 0, 0, kPrintDefault},
    {"source", &S::source, 0, 0, kPrintDefault},
    {"flip", &S::flipTh, 1, 10000000, kPrintDefault},
    {"rfm", &S::rfmTh, 0, 100000, kPrintDefault},
    {"ad", &S::adTh, 0, 1000000, kBoth},
    {"blast-radius", &S::blastRadius, 1, 4, kBoth},
    {"scheme-seed", &S::schemeSeed, 0, kUnbounded, kPrintDefault},
    {"cores", &S::cores, 1, 1024, kBoth},
    {"instr", &S::instrPerCore, 1, 1000000000000, kBoth},
    {"seed", &S::seed, 0, kUnbounded, kBoth},
    {"warmup", &S::trackerWarmupActs, 0, 1000000000000, kBoth},
    {"warmup-from-workload", &S::warmupFromWorkload, 0, 0,
     kPrintDefault},
    {"acts", &S::engineActs, 1, 1000000000000, kBoth},
    {"shards", &S::shards, 0, 65536, kPrintDefault},
    {"threads", &S::threads, 0, 1024, kPrintDefault},
    {"record", &S::record, 0, 0, kSweepScalar},
    {"trace-pipeline", &S::tracePipeline, 0, 0, kSweepScalar},
    {"telemetry", &S::telemetry, 0, 0, kSweepScalar},
    {"trace-events", &S::traceEvents, 0, 0, kSweepScalar},
    {"heatmap-regions", &S::heatmapRegions, 1, 65536, kSweepScalar},
    {"trace-capacity", &S::traceCapacity, 1, 100000000, kSweepScalar},
    {"channels", &S::channels, 0, 64, kSweepScalar | kPowerOfTwo},
};

bool
inScope(const Knob &knob, KnobScope scope)
{
    return scope == KnobScope::All || (knob.flags & kSweepScalar) != 0;
}

/** A knob value as it appears in a ParamSet. */
template <typename T>
std::string
knobText(const T &value)
{
    if constexpr (std::is_same_v<T, std::string>)
        return value;
    else if constexpr (std::is_same_v<T, bool>)
        return value ? "1" : "0";
    else
        return std::to_string(value);
}

/** The declaration of `key` by the registered entry `name`. */
template <typename Reg>
const ParamDesc *
declaredIn(const Reg &registry, const std::string &name,
           const std::string &key, std::string *owner)
{
    const auto *entry = registry.find(name);
    if (!entry)
        return nullptr;
    for (const ParamDesc &desc : entry->params) {
        if (desc.key == key) {
            if (owner)
                *owner = std::string(Reg::kCategory) + " '" +
                         entry->name + "'";
            return &desc;
        }
    }
    return nullptr;
}

} // namespace

bool
ExperimentSpec::ownsKnob(const std::string &key, KnobScope scope)
{
    for (const Knob &knob : kKnobs) {
        if (key == knob.key)
            return inScope(knob, scope);
    }
    return false;
}

void
ExperimentSpec::readKnobs(const ParamSet &params, KnobScope scope)
{
    for (const Knob &knob : kKnobs) {
        if (!inScope(knob, scope) || !params.has(knob.key))
            continue;
        std::visit(
            [&](auto member) {
                auto &value = this->*member;
                using T = std::decay_t<decltype(value)>;
                if constexpr (std::is_same_v<T, std::string>)
                    value = params.getString(knob.key);
                else if constexpr (std::is_same_v<T, bool>)
                    value = params.getBool(knob.key);
                else if constexpr (std::is_same_v<T, std::uint32_t>)
                    value = params.getUint32(knob.key);
                else
                    value = params.getUint(knob.key);
            },
            knob.member);
    }
}

const ParamDesc *
ExperimentSpec::declaredParam(const std::string &key,
                              std::string *owner) const
{
    const ParamDesc *desc =
        declaredIn(registry::schemeRegistry(), scheme, key, owner);
    if (!desc)
        desc = declaredIn(registry::workloadRegistry(), workload, key,
                          owner);
    if (!desc)
        desc = declaredIn(registry::attackRegistry(), attack, key, owner);
    if (!desc && engineRun())
        desc = declaredIn(registry::sourceRegistry(), source, key, owner);
    return desc;
}

ExperimentSpec
ExperimentSpec::parse(const ParamSet &params,
                      const std::vector<std::string> &ignore_keys)
{
    ExperimentSpec spec;
    spec.readKnobs(params, KnobScope::All);

    // Resolve the selected entries before the unknown-key scan so its
    // error can list what they declare, and canonicalize aliases.
    const auto &scheme_entry =
        registry::schemeRegistry().at(spec.scheme);
    const auto &workload_entry =
        registry::workloadRegistry().at(spec.workload);
    const auto &attack_entry =
        registry::attackRegistry().at(spec.attack);
    std::vector<const std::vector<ParamDesc> *> entry_params = {
        &scheme_entry.params, &workload_entry.params,
        &attack_entry.params};
    if (spec.engineRun()) {
        const auto &source_entry =
            registry::sourceRegistry().at(spec.source);
        spec.source = source_entry.name;
        entry_params.push_back(&source_entry.params);
    }
    spec.scheme = scheme_entry.name;
    spec.workload = workload_entry.name;
    spec.attack = attack_entry.name;

    // A typo'd knob must not silently run the default configuration.
    for (const std::string &key : params.keys()) {
        if (ownsKnob(key) ||
            std::find(ignore_keys.begin(), ignore_keys.end(), key) !=
                ignore_keys.end())
            continue;
        if (!spec.declaredParam(key)) {
            std::vector<std::string> known;
            for (const Knob &knob : kKnobs)
                known.push_back(knob.key);
            for (const auto *declared : entry_params) {
                for (const ParamDesc &d : *declared)
                    known.push_back(d.key);
            }
            throw SpecError("unknown experiment parameter '" + key +
                            "'; accepted parameters: " +
                            registry::joinSorted(known));
        }
        spec.extras.set(key, params.getString(key));
    }
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
    registry::schemeRegistry().at(scheme);
    registry::workloadRegistry().at(workload);
    registry::attackRegistry().at(attack);
    if (engineRun())
        registry::sourceRegistry().at(source);

    for (const Knob &knob : kKnobs) {
        std::visit(
            [&](auto member) {
                using T = std::decay_t<decltype(this->*member)>;
                if constexpr (std::is_same_v<T, std::uint32_t> ||
                              std::is_same_v<T, std::uint64_t>) {
                    const std::uint64_t value = this->*member;
                    if (value < knob.min || value > knob.max) {
                        throw SpecError(
                            std::string(knob.key) + "=" +
                            std::to_string(value) +
                            " is out of range [" +
                            std::to_string(knob.min) + ", " +
                            std::to_string(knob.max) + "]");
                    }
                    if ((knob.flags & kPowerOfTwo) != 0 &&
                        (value & (value - 1)) != 0) {
                        throw SpecError(
                            std::string(knob.key) + "=" +
                            std::to_string(value) +
                            " must be a power of two (the address map "
                            "interleaves by channel bits)");
                    }
                }
            },
            knob.member);
    }
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
    if (trackerWarmupActs > 0 && !engineRun() && !attacking() &&
        !warmupFromWorkload) {
        // Without an attacker, System warm-up draws only from the
        // benign workload, and only when asked to.
        throw SpecError("warmup=" + std::to_string(trackerWarmupActs) +
                        " on a System run without an attack warms no "
                        "tracker; add warmup-from-workload=1 to warm "
                        "from the workload, or drop warmup=");
    }
    if (!attacking() && engineRun() &&
        registry::sourceRegistry().at(source).name == "attack") {
        throw SpecError("source 'attack' needs a real attack entry "
                        "(attack=none produces no stream)");
    }
    if (!tracePipeline.empty()) {
        // The pipeline writes the corpus the replay source reads, so
        // both ends must be declared (the lookup resolves aliases).
        if (!engineRun() ||
            registry::sourceRegistry().at(source).name != "act-trace" ||
            !extras.has("trace")) {
            throw SpecError(
                "trace-pipeline= needs source=act-trace and "
                "trace=<path> (the pipeline materializes to the "
                "trace= path, which the run then replays)");
        }
    }

    for (const std::string &key : extras.keys()) {
        std::string owner;
        const ParamDesc *desc = declaredParam(key, &owner);
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
    static const ExperimentSpec kDefaults;
    ParamSet params;
    for (const Knob &knob : kKnobs) {
        std::visit(
            [&](auto member) {
                if ((knob.flags & kPrintDefault) != 0 ||
                    this->*member != kDefaults.*member)
                    params.set(knob.key, knobText(this->*member));
            },
            knob.member);
    }
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
