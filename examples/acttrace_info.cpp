/**
 * @file
 * Inspect a captured mithril.acttrace.v1 file: validate header,
 * index, and footer, print the deterministic describe() dump
 * (geometry, seed, record totals, per-bank counts, meta line), then
 * the per-bank tick spans — decoded from the block index alone (two
 * block decodes per touched bank), never a full-stream scan. For
 * traces materialized by a trace-op pipeline the meta line is parsed
 * back into a stage/input summary.
 *
 *   acttrace_info trace.acttrace
 *
 * Exits non-zero (with the SpecError message) on anything that is
 * not a structurally valid v1 trace — which makes it a cheap CI
 * check for freshly captured artifacts.
 */

#include <cstdio>
#include <cstring>

#include "common/logging.hh"
#include "engine/act_trace.hh"
#include "registry/registry.hh"
#include "trace/pipeline.hh"

using namespace mithril;

namespace
{

void
printBankSpans(engine::ActTraceSource &source)
{
    const std::vector<engine::ActTraceBankSpan> spans =
        source.bankSpans();
    Tick lo = 0, hi = 0;
    bool any = false;
    for (std::size_t b = 0; b < spans.size(); ++b) {
        if (spans[b].count == 0)
            continue;
        if (!any || spans[b].first < lo)
            lo = spans[b].first;
        if (!any || spans[b].last > hi)
            hi = spans[b].last;
        any = true;
        std::printf("bank %zu span: ticks [%lld, %lld]\n", b,
                    static_cast<long long>(spans[b].first),
                    static_cast<long long>(spans[b].last));
    }
    if (any)
        std::printf("tick span: [%lld, %lld]\n",
                    static_cast<long long>(lo),
                    static_cast<long long>(hi));
}

/** For pipeline-built traces: fold the recorded spec back into a
 *  stage/input summary (merge inputs = tenant count). */
void
printPipelineSummary(const std::string &meta)
{
    const std::size_t prefix_len =
        std::strlen(trace::kPipelineMetaPrefix);
    if (meta.compare(0, prefix_len, trace::kPipelineMetaPrefix) != 0)
        return;
    const std::string spec = meta.substr(prefix_len);
    try {
        const std::vector<trace::PipelineStage> stages =
            trace::parsePipeline(spec);
        std::printf("composed by: %zu-stage pipeline\n",
                    stages.size());
        for (const trace::PipelineStage &stage : stages) {
            std::printf("  %s: %zu inputs", stage.op.c_str(),
                        stage.inputs.size());
            for (const std::string &key : stage.params.keys())
                std::printf(" %s=%s", key.c_str(),
                            stage.params.getString(key).c_str());
            std::printf("\n");
        }
    } catch (const registry::SpecError &) {
        // An op renamed since the capture: the raw meta line above
        // already shows the spec, so stay silent rather than fail
        // the inspection.
    }
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc != 2)
        fatal("usage: acttrace_info <trace file>");
    try {
        engine::ActTraceSource source(argv[1]);
        const engine::ActTraceInfo &info = source.info();
        std::printf("%s", info.describe().c_str());
        printBankSpans(source);
        printPipelineSummary(info.meta);
    } catch (const registry::SpecError &err) {
        fatal("%s", err.what());
    } catch (const std::exception &err) {
        // Same one-line contract for non-SpecError failures
        // (allocation) — never a raw terminate().
        fatal("%s", err.what());
    }
    return 0;
}
