#include "core.hh"

#include <algorithm>

#include "common/logging.hh"
#include "telemetry/metric_sheet.hh"

namespace mithril::cpu
{

Core::Core(std::uint32_t id, const CoreParams &params,
           workload::TraceGenerator *trace)
    : id_(id), params_(params), trace_(trace)
{
    MITHRIL_ASSERT(params_.width > 0);
    MITHRIL_ASSERT(params_.maxOutstanding > 0);
    MITHRIL_ASSERT(trace_ != nullptr);
    cycleTick_ = nsToTick(1.0 / params_.freqGhz);
}

Tick
Core::tryProgress(Tick now)
{
    MITHRIL_ASSERT(access_ != nullptr);
    while (!done_) {
        if (blockedOnWindow_)
            return kTickMax;  // Woken by onCompletion().

        if (!havePending_) {
            if (retired_ >= params_.instrBudget) {
                done_ = true;
                endTick_ = std::max(readyTick_, now);
                return kTickMax;
            }
            auto rec = trace_->next();
            if (!rec) {
                done_ = true;
                endTick_ = std::max(readyTick_, now);
                return kTickMax;
            }
            pending_ = *rec;
            havePending_ = true;
            // The gap instructions retire at the peak width.
            retired_ += pending_.gap;
            readyTick_ +=
                static_cast<Tick>((pending_.gap + params_.width - 1) /
                                  params_.width) *
                cycleTick_;
        }

        if (now < readyTick_)
            return readyTick_;

        AccessOutcome outcome = access_(id_, pending_, now);
        if (!outcome.accepted) {
            ++queueFullRetries_;
            return now + params_.retryInterval;
        }

        if (outcome.missOutstanding) {
            ++outstanding_;
            ++retired_;  // The memory instruction itself.
            havePending_ = false;
            if (outstanding_ >= params_.maxOutstanding) {
                blockedOnWindow_ = true;
                return kTickMax;
            }
        } else {
            // LLC hit (or posted write): charge the hit latency to the
            // dependent instruction stream.
            if (!pending_.write)
                readyTick_ += params_.llcHitLatency;
            ++retired_;
            havePending_ = false;
        }
    }
    return kTickMax;
}

void
Core::onCompletion(Tick now)
{
    MITHRIL_ASSERT(outstanding_ > 0);
    --outstanding_;
    if (blockedOnWindow_) {
        blockedOnWindow_ = false;
        // The stalled stream resumes once the window has space.
        readyTick_ = std::max(readyTick_, now);
    }
}

double
Core::elapsedCycles() const
{
    const Tick end = done_ ? endTick_ : readyTick_;
    return static_cast<double>(end) / static_cast<double>(cycleTick_);
}

double
Core::ipc() const
{
    const double cycles = elapsedCycles();
    return cycles > 0.0 ? static_cast<double>(retired_) / cycles : 0.0;
}

void
Core::exportMetrics(telemetry::MetricSheet &sheet) const
{
    const std::string prefix = "core" + std::to_string(id_);
    sheet.setCounter(prefix + ".instructions", retired_);
    sheet.setCounter(prefix + ".queue_full_retries", queueFullRetries_);
    sheet.setGauge(prefix + ".ipc", ipc());
}

} // namespace mithril::cpu
