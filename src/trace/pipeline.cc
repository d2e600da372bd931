#include "trace/pipeline.hh"

#include "common/file_util.hh"

namespace mithril::trace
{

const char kPipelineMetaPrefix[] = "trace-pipeline: ";

namespace
{

std::vector<std::string>
split(const std::string &text, char sep)
{
    std::vector<std::string> out;
    std::size_t start = 0;
    while (true) {
        const std::size_t pos = text.find(sep, start);
        if (pos == std::string::npos) {
            out.push_back(text.substr(start));
            return out;
        }
        out.push_back(text.substr(start, pos - start));
        start = pos + 1;
    }
}

PipelineStage
parseStage(const std::string &text)
{
    if (text.empty())
        throw registry::SpecError(
            "trace pipeline has an empty stage (doubled '|'?)");
    PipelineStage stage;
    const std::size_t colon = text.find(':');
    stage.op = text.substr(0, colon);
    // at() resolves aliases and throws listing every registered op.
    const TraceOpRegistry::Entry &entry =
        traceOpRegistry().at(stage.op);
    stage.op = entry.name;
    if (colon != std::string::npos) {
        for (const std::string &arg :
             split(text.substr(colon + 1), ',')) {
            if (arg.empty())
                throw registry::SpecError(
                    "trace-op '" + stage.op +
                    "': empty argument (doubled ','?)");
            const std::size_t eq = arg.find('=');
            if (eq == std::string::npos) {
                stage.inputs.push_back(arg);
                continue;
            }
            const std::string key = arg.substr(0, eq);
            bool declared = false;
            for (const registry::ParamDesc &desc : entry.params)
                declared = declared || desc.key == key;
            if (!declared) {
                std::vector<std::string> keys;
                for (const registry::ParamDesc &desc : entry.params)
                    keys.push_back(desc.key);
                throw registry::SpecError(
                    "trace-op '" + stage.op +
                    "' does not take parameter '" + key +
                    "'; declared: " +
                    (keys.empty() ? std::string("(none)")
                                  : registry::joinSorted(keys)));
            }
            if (stage.params.has(key))
                throw registry::SpecError("trace-op '" + stage.op +
                                          "': duplicate parameter '" +
                                          key + "'");
            stage.params.set(key, arg.substr(eq + 1));
        }
    }
    for (const registry::ParamDesc &desc : entry.params)
        registry::checkParam("trace-op '" + stage.op + "'", desc,
                             stage.params);
    return stage;
}

/** Wire parsed stages into one composed stream. */
std::unique_ptr<RecordStream>
buildStages(const std::vector<PipelineStage> &stages,
            std::uint64_t seed)
{
    std::unique_ptr<RecordStream> stream;
    for (const PipelineStage &stage : stages) {
        TraceOpContext ctx;
        ctx.inputs = stage.inputs;
        ctx.upstream = std::move(stream);
        ctx.seed = seed;
        stream = makeTraceOp(stage.op, stage.params, ctx);
    }
    return stream;
}

} // namespace

std::vector<PipelineStage>
parsePipeline(const std::string &spec)
{
    if (spec.empty())
        throw registry::SpecError("empty trace pipeline");
    std::vector<PipelineStage> stages;
    for (const std::string &stage : split(spec, '|'))
        stages.push_back(parseStage(stage));
    return stages;
}

std::unique_ptr<RecordStream>
buildPipeline(const std::string &spec, std::uint64_t seed)
{
    return buildStages(parsePipeline(spec), seed);
}

engine::ActTraceInfo
materializePipeline(const std::string &spec,
                    const std::string &out_path, std::uint64_t seed)
{
    if (out_path.empty())
        throw registry::SpecError(
            "trace pipeline needs an output path");
    const std::vector<PipelineStage> stages = parsePipeline(spec);
    for (const PipelineStage &stage : stages) {
        std::vector<std::string> reads = stage.inputs;
        // splice's second trace arrives as a param, not a positional.
        const std::string with = stage.params.getString("with", "");
        if (!with.empty())
            reads.push_back(with);
        for (const std::string &input : reads) {
            if (sameFile(input, out_path))
                throw registry::SpecError(
                    "trace pipeline output '" + out_path +
                    "' is also an input of stage '" + stage.op +
                    "'");
        }
    }
    std::unique_ptr<RecordStream> stream = buildStages(stages, seed);
    engine::ActTraceWriter writer(out_path, stream->geometry(), seed,
                                  kPipelineMetaPrefix + spec);
    TraceRecord record;
    while (stream->next(record))
        writer.append(record.bank, record.row, record.tick);
    writer.finalize();
    return engine::actTraceInfo(out_path);
}

} // namespace mithril::trace
