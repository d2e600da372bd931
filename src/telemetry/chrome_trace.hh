/**
 * @file
 * Chrome trace-event JSON export of a merged mitigation-event stream,
 * loadable in Perfetto (ui.perfetto.dev) or chrome://tracing.
 *
 * Layout: one process (pid 0) named after the run, one track (tid)
 * per bank. Point events (RFM, ARR, flips, ...) export as instants
 * (ph "i", thread scope); throttle windows export as duration slices
 * (ph "X"). Timestamps are microseconds with fixed 6-digit precision
 * (1 ps resolution — ticks are picoseconds), so the serialized bytes
 * are deterministic across platforms and shard counts.
 */

#ifndef MITHRIL_TELEMETRY_CHROME_TRACE_HH
#define MITHRIL_TELEMETRY_CHROME_TRACE_HH

#include <iosfwd>
#include <string>
#include <vector>

#include "telemetry/event_trace.hh"

namespace mithril::telemetry
{

/** Serialize a tick-ordered event stream as Chrome trace-event JSON.
 *  `process_name` labels the single pid-0 process (scheme / run id);
 *  `num_banks` emits a thread_name metadata record per bank track. */
void writeChromeTrace(std::ostream &os,
                      const std::vector<TraceEvent> &events,
                      const std::string &process_name,
                      std::uint32_t num_banks);

/** writeChromeTrace() to a file; throws registry::SpecError naming
 *  the path when it cannot be opened or written (a sweep reports that
 *  job as FAILED, like a bad record= path). */
void writeChromeTraceFile(const std::string &path,
                          const std::vector<TraceEvent> &events,
                          const std::string &process_name,
                          std::uint32_t num_banks);

} // namespace mithril::telemetry

#endif // MITHRIL_TELEMETRY_CHROME_TRACE_HH
