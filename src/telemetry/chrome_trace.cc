#include "telemetry/chrome_trace.hh"

#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <ostream>

#include "registry/registry.hh"

namespace mithril::telemetry
{

namespace
{

/** Ticks (ps) to the microsecond timestamps Chrome traces use, with
 *  fixed formatting so output bytes are platform-invariant. */
std::string
tsUs(Tick tick)
{
    char buf[48];
    std::snprintf(buf, sizeof(buf), "%.6f",
                  static_cast<double>(tick) / 1e6);
    return buf;
}

} // namespace

void
writeChromeTrace(std::ostream &os,
                 const std::vector<TraceEvent> &events,
                 const std::string &process_name,
                 std::uint32_t num_banks)
{
    os << "{\"traceEvents\":[\n";
    os << "{\"ph\":\"M\",\"pid\":0,\"name\":\"process_name\","
          "\"args\":{\"name\":\""
       << process_name << "\"}}";
    for (std::uint32_t b = 0; b < num_banks; ++b) {
        os << ",\n{\"ph\":\"M\",\"pid\":0,\"tid\":" << b
           << ",\"name\":\"thread_name\",\"args\":{\"name\":\"bank "
           << b << "\"}}";
    }
    for (const TraceEvent &ev : events) {
        os << ",\n{\"name\":\"" << eventKindName(ev.kind)
           << "\",\"cat\":\"mitigation\",\"pid\":0,\"tid\":"
           << ev.bank << ",\"ts\":" << tsUs(ev.tick);
        if (ev.dur > 0) {
            os << ",\"ph\":\"X\",\"dur\":" << tsUs(ev.dur);
        } else {
            os << ",\"ph\":\"i\",\"s\":\"t\"";
        }
        os << ",\"args\":{\"row\":" << ev.row << ",\"arg\":" << ev.arg
           << "}}";
    }
    os << "\n]}\n";
}

void
writeChromeTraceFile(const std::string &path,
                     const std::vector<TraceEvent> &events,
                     const std::string &process_name,
                     std::uint32_t num_banks)
{
    std::ofstream os(path, std::ios::binary);
    if (!os) {
        throw registry::SpecError("cannot open trace-events path '" +
                                  path + "'");
    }
    writeChromeTrace(os, events, process_name, num_banks);
    if (!os) {
        throw registry::SpecError("failed writing trace-events path '" +
                                  path + "'");
    }
}

} // namespace mithril::telemetry
