#include "sources.hh"

#include <utility>

#include "common/logging.hh"
#include "mc/request.hh"
#include "registry/attack_registry.hh"
#include "registry/source_registry.hh"
#include "workload/trace_file.hh"

namespace mithril::engine
{

// ------------------------------------------------- TraceActSource

TraceActSource::TraceActSource(
    std::unique_ptr<workload::TraceGenerator> generator,
    const dram::Geometry &geometry)
    : map_(geometry), generator_(std::move(generator))
{
    MITHRIL_ASSERT(generator_ != nullptr);
}

std::string
TraceActSource::name() const
{
    return "trace:" + generator_->name();
}

std::size_t
TraceActSource::fill(ActBatch &batch, std::size_t limit)
{
    std::size_t appended = 0;
    mc::Request req;
    while (appended < limit && !batch.full()) {
        auto rec = generator_->next();
        if (!rec)
            break;
        req.addr = rec->addr;
        map_.decode(req);
        batch.push(req.bank, req.row,
                   static_cast<Tick>(produced_));
        ++produced_;
        ++appended;
    }
    return appended;
}

// ------------------------------------------------- MultiBankSource

MultiBankSource::MultiBankSource(std::string name,
                                 const dram::Geometry &geometry)
    : name_(std::move(name)), map_(geometry)
{
}

void
MultiBankSource::addGenerator(
    std::unique_ptr<workload::TraceGenerator> gen)
{
    MITHRIL_ASSERT(gen != nullptr);
    generators_.push_back(std::move(gen));
}

std::size_t
MultiBankSource::fill(ActBatch &batch, std::size_t limit)
{
    std::size_t appended = 0;
    mc::Request req;
    while (appended < limit && !generators_.empty() &&
           !batch.full()) {
        if (cursor_ >= generators_.size())
            cursor_ = 0;
        auto rec = generators_[cursor_]->next();
        if (!rec) {
            generators_.erase(generators_.begin() +
                              static_cast<std::ptrdiff_t>(cursor_));
            continue;
        }
        req.addr = rec->addr;
        map_.decode(req);
        batch.push(req.bank, req.row);
        ++cursor_;
        ++appended;
    }
    return appended;
}

// ---------------------------------------------------- registration
//
// The engine-drivable workloads: trace files and the attack
// registry's patterns replicated across banks.

namespace
{

const registry::Registrar<registry::SourceTraits> kRegisterTraceFile{{
    /*name=*/"trace-file",
    /*display=*/"trace-file",
    /*description=*/
    "replay an instruction-level trace file (Ramulator-style gap/addr "
    "records decoded through the MC map); raw captured ACT streams "
    "replay via act-trace and compose via the trace-ops pipeline",
    /*aliases=*/{"trace_file"},
    /*uses=*/"",
    /*params=*/
    {{"trace-file", registry::ParamDesc::Type::String, "", 0, 0,
      "path of the trace to replay (required)"},
     {"trace-loop", registry::ParamDesc::Type::Bool, "0", 0, 1,
      "loop the trace forever (bound the run with an ACT budget)"}},
    /*make=*/
    [](const ParamSet &params, const registry::SourceContext &ctx)
        -> std::unique_ptr<ActSource> {
        const std::string path = params.getString("trace-file", "");
        if (path.empty()) {
            throw registry::SpecError(
                "source 'trace-file' needs trace-file=<path>");
        }
        return std::make_unique<TraceActSource>(
            workload::loadTraceFile(path,
                                    params.getBool("trace-loop",
                                                   false)),
            ctx.geometry);
    },
}};

const registry::Registrar<registry::SourceTraits> kRegisterAttack{{
    /*name=*/"attack",
    /*display=*/"attack",
    /*description=*/
    "a registered attack pattern replicated on N banks, every bank "
    "hammering at full rate",
    /*aliases=*/{},
    /*uses=*/"attack (the pattern to replicate), flip (attack sizing), "
             "plus the chosen attack's params",
    /*params=*/
    {{"source-banks", registry::ParamDesc::Type::Uint, "0", 0, 65536,
      "banks to attack concurrently (0 = every bank of channel 0, "
      "rank 0)"}},
    /*make=*/
    [](const ParamSet &params, const registry::SourceContext &ctx)
        -> std::unique_ptr<ActSource> {
        // ExperimentSpec::validate() rejects attack=none first; this
        // check covers callers that build the source directly.
        const std::string attack = params.getString("attack", "none");
        if (attack == "none") {
            throw registry::SpecError(
                "source 'attack' needs a real attack entry "
                "(attack=none produces no stream)");
        }
        if (params.has("attack-bank")) {
            throw registry::SpecError(
                "source 'attack' assigns attack-bank itself (one "
                "generator per replicated bank); drop attack-bank= "
                "and choose the width with source-banks=");
        }
        // The attack factories aim inside channel 0 / rank 0, so the
        // replication width is capped at banksPerRank.
        std::uint32_t banks =
            params.getUint32("source-banks", 0);
        if (banks == 0)
            banks = ctx.geometry.banksPerRank;
        if (banks > ctx.geometry.banksPerRank) {
            throw registry::SpecError(
                "source-banks=" + std::to_string(banks) +
                " exceeds banksPerRank=" +
                std::to_string(ctx.geometry.banksPerRank));
        }
        auto source = std::make_unique<MultiBankSource>(
            "attack:" + attack + "x" + std::to_string(banks),
            ctx.geometry);
        for (std::uint32_t b = 0; b < banks; ++b) {
            ParamSet per_bank = params;
            per_bank.set("attack-bank", std::to_string(b));
            const registry::AttackContext attack_ctx{
                source->map(), ctx.flipTh, /*benignCores=*/0,
                ctx.seed, /*benignThread=*/{}};
            source->addGenerator(registry::makeAttack(
                attack, per_bank, attack_ctx));
        }
        return source;
    },
}};

} // namespace

} // namespace mithril::engine
