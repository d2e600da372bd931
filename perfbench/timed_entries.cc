#include "timed_entries.hh"

#include <algorithm>
#include <chrono>
#include <memory>
#include <optional>

#include "engine/act_source.hh"
#include "registry/attack_registry.hh"
#include "registry/scheme_registry.hh"
#include "registry/source_registry.hh"
#include "registry/workload_registry.hh"

namespace perfbench
{

using namespace mithril;

namespace
{

using Clock = std::chrono::steady_clock;

constexpr const char kPrefix[] = "timed-";

std::uint64_t
nanosSince(Clock::time_point t0)
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            Clock::now() - t0)
            .count());
}

/** Median cost of an empty steady_clock lap, measured once. */
double
clockCostNs()
{
    static const double cost = [] {
        std::vector<std::uint64_t> laps(2001);
        for (std::uint64_t &lap : laps) {
            const auto t0 = Clock::now();
            lap = nanosSince(t0);
        }
        std::nth_element(laps.begin(), laps.begin() + laps.size() / 2,
                         laps.end());
        return static_cast<double>(laps[laps.size() / 2]);
    }();
    return cost;
}

/**
 * One wrapper's call counter and sampled timer. Call i is timed when
 * the fractional part of i times the golden ratio is at most 1/oneIn:
 * about one call in oneIn, and no periodic call pattern lines up with
 * the choice.
 */
class Sampler
{
  public:
    explicit Sampler(unsigned one_in)
        : threshold_(~std::uint64_t{0} / one_in)
    {
    }

    /** Times the enclosing call when it is a sampled one. */
    class Scope
    {
      public:
        explicit Scope(Sampler &sampler)
            : sampler_(sampler),
              timed_(sampler.calls_++ * kGolden <= sampler.threshold_)
        {
            if (timed_)
                t0_ = Clock::now();
        }

        ~Scope()
        {
            if (timed_) {
                sampler_.ns_ += nanosSince(t0_);
                ++sampler_.sampled_;
            }
        }

        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;

      private:
        Sampler &sampler_;
        bool timed_;
        Clock::time_point t0_{};
    };

    void
    addTo(LayerClock &clock, std::uint64_t items) const
    {
        clock.calls += calls_;
        clock.sampledCalls += sampled_;
        clock.sampledNs += ns_;
        clock.items += items;
    }

  private:
    /** 2^64 divided by the golden ratio. */
    static constexpr std::uint64_t kGolden = 0x9e3779b97f4a7c15ull;

    std::uint64_t threshold_;
    std::uint64_t calls_ = 0;
    std::uint64_t sampled_ = 0;
    std::uint64_t ns_ = 0;
};

/**
 * Forwards every RhProtection virtual to the real tracker, timing the
 * per-ACT hooks. setEventRecorder() is not virtual, so mitigation-event
 * tracing would reach this wrapper rather than the real tracker; the
 * benchmark never turns it on.
 */
class TimedTracker final : public trackers::RhProtection
{
  public:
    explicit TimedTracker(std::unique_ptr<trackers::RhProtection> inner)
        : inner_(std::move(inner))
    {
        mirrorOps();
    }

    ~TimedTracker() override
    {
        sampler_.addTo(layerClocks().trackers, inner_->logicOps());
    }

    TimedTracker(const TimedTracker &) = delete;
    TimedTracker &operator=(const TimedTracker &) = delete;

    std::string name() const override { return inner_->name(); }

    trackers::Location
    location() const override
    {
        return inner_->location();
    }

    bool usesRfm() const override { return inner_->usesRfm(); }

    std::uint32_t rfmTh() const override { return inner_->rfmTh(); }

    void
    onActivate(BankId bank, RowId row, Tick now,
               std::vector<RowId> &arr_aggressors) override
    {
        {
            const Sampler::Scope scope(sampler_);
            inner_->onActivate(bank, row, now, arr_aggressors);
        }
        mirrorOps();
    }

    std::size_t
    onActivateBatch(const trackers::ActSpan &span,
                    std::vector<RowId> &arr_aggressors) override
    {
        std::size_t consumed = 0;
        {
            const Sampler::Scope scope(sampler_);
            consumed = inner_->onActivateBatch(span, arr_aggressors);
        }
        mirrorOps();
        return consumed;
    }

    void
    onRfm(BankId bank, Tick now, std::vector<RowId> &aggressors) override
    {
        {
            const Sampler::Scope scope(sampler_);
            inner_->onRfm(bank, now, aggressors);
        }
        mirrorOps();
    }

    bool
    rfmPending(BankId bank) const override
    {
        const Sampler::Scope scope(sampler_);
        return inner_->rfmPending(bank);
    }

    Tick
    throttleAct(BankId bank, RowId row, Tick now) override
    {
        Tick earliest = now;
        {
            const Sampler::Scope scope(sampler_);
            earliest = inner_->throttleAct(bank, row, now);
        }
        mirrorOps();
        return earliest;
    }

    void
    onRefresh(BankId bank, Tick now) override
    {
        {
            const Sampler::Scope scope(sampler_);
            inner_->onRefresh(bank, now);
        }
        mirrorOps();
    }

    double
    tableBytesPerBank() const override
    {
        return inner_->tableBytesPerBank();
    }

    void
    mergeStatsFrom(const trackers::RhProtection &other) override
    {
        // Trackers dynamic_cast what they merge to their own type, so
        // the real tracker must get the other wrapper's real tracker.
        // mirrorOps() then picks up the merged logic-op count, which
        // is what the base-class fold would have added.
        inner_->mergeStatsFrom(
            *dynamic_cast<const TimedTracker &>(other).inner_);
        mirrorOps();
    }

    void
    exportMetrics(telemetry::MetricSheet &sheet) const override
    {
        inner_->exportMetrics(sheet);
    }

  private:
    /** RhProtection::logicOps() is not virtual and the System's energy
     *  model reads it, so this wrapper's count follows the real one. */
    void
    mirrorOps()
    {
        const std::uint64_t ops = inner_->logicOps();
        if (ops > logicOps())
            countOp(ops - logicOps());
    }

    std::unique_ptr<trackers::RhProtection> inner_;
    mutable Sampler sampler_{kSampleOneIn};
};

/** Forwards a workload or attacker generator, timing next(). */
class TimedGenerator final : public workload::TraceGenerator
{
  public:
    explicit TimedGenerator(
        std::unique_ptr<workload::TraceGenerator> inner)
        : inner_(std::move(inner))
    {
    }

    ~TimedGenerator() override
    {
        sampler_.addTo(layerClocks().generators, records_);
    }

    TimedGenerator(const TimedGenerator &) = delete;
    TimedGenerator &operator=(const TimedGenerator &) = delete;

    std::optional<workload::TraceRecord>
    next() override
    {
        std::optional<workload::TraceRecord> record;
        {
            const Sampler::Scope scope(sampler_);
            record = inner_->next();
        }
        records_ += record ? 1 : 0;
        return record;
    }

    std::string name() const override { return inner_->name(); }

  private:
    std::unique_ptr<workload::TraceGenerator> inner_;
    Sampler sampler_{kSampleOneIn};
    std::uint64_t records_ = 0;
};

/** Forwards an engine source, timing every fill(). Slices come back
 *  wrapped, so sharded runs keep seeking natively and stay timed. */
class TimedSource final : public engine::ActSource
{
  public:
    explicit TimedSource(std::unique_ptr<engine::ActSource> inner)
        : inner_(std::move(inner))
    {
    }

    ~TimedSource() override
    {
        sampler_.addTo(layerClocks().sources, records_);
    }

    TimedSource(const TimedSource &) = delete;
    TimedSource &operator=(const TimedSource &) = delete;

    std::string name() const override { return inner_->name(); }

    std::size_t
    fill(engine::ActBatch &batch, std::size_t limit) override
    {
        std::size_t appended = 0;
        {
            const Sampler::Scope scope(sampler_);
            appended = inner_->fill(batch, limit);
        }
        records_ += appended;
        return appended;
    }

    std::unique_ptr<engine::ActSource>
    shardSlice(BankId lo, BankId hi, std::uint64_t budget) override
    {
        std::unique_ptr<engine::ActSource> slice =
            inner_->shardSlice(lo, hi, budget);
        if (!slice)
            return nullptr;
        return std::make_unique<TimedSource>(std::move(slice));
    }

  private:
    std::unique_ptr<engine::ActSource> inner_;
    Sampler sampler_{1};
    std::uint64_t records_ = 0;
};

/** Add a "timed-<name>" twin of every entry of `reg`: the same
 *  parameters, the real factory, and its product passed to `wrap`. */
template <typename Traits, typename Wrap>
void
decorate(registry::Registry<Traits> &reg, Wrap wrap)
{
    using Entry = typename registry::Registry<Traits>::Entry;
    std::vector<Entry> twins;
    for (const auto &[name, entry] : reg.entries()) {
        if (timedName(name) == name || name.rfind(kPrefix, 0) == 0 ||
            reg.has(timedName(name)))
            continue;
        Entry twin = entry;
        twin.name = timedName(name);
        twin.aliases.clear();
        twin.description = "timing decorator of '" + name + "'";
        twin.make = [make = entry.make, wrap](
                        const ParamSet &params,
                        const typename Traits::Context &ctx)
            -> std::unique_ptr<typename Traits::Product> {
            auto product = make(params, ctx);
            if (!product)
                return nullptr;
            return wrap(std::move(product));
        };
        twins.push_back(std::move(twin));
    }
    for (Entry &twin : twins)
        reg.add(std::move(twin));
}

} // namespace

void
LayerClock::reset()
{
    calls = 0;
    sampledCalls = 0;
    sampledNs = 0;
    items = 0;
}

double
LayerClock::seconds() const
{
    const std::uint64_t sampled = sampledCalls.load();
    if (sampled == 0)
        return 0.0;
    const double mean_ns =
        std::max(0.0, static_cast<double>(sampledNs.load()) /
                              static_cast<double>(sampled) -
                          clockCostNs());
    return mean_ns * static_cast<double>(calls.load()) * 1e-9;
}

void
LayerClocks::reset()
{
    trackers.reset();
    generators.reset();
    sources.reset();
}

LayerClocks &
layerClocks()
{
    static LayerClocks clocks;
    return clocks;
}

std::string
timedName(const std::string &name)
{
    return name == "none" ? name : kPrefix + name;
}

std::vector<std::string>
realSchemes()
{
    std::vector<std::string> names;
    for (const std::string &name : registry::schemeRegistry().names()) {
        if (name.rfind(kPrefix, 0) != 0)
            names.push_back(name);
    }
    return names;
}

void
registerTimedEntries()
{
    decorate(registry::schemeRegistry(),
             [](std::unique_ptr<trackers::RhProtection> tracker)
                 -> std::unique_ptr<trackers::RhProtection> {
                 return std::make_unique<TimedTracker>(
                     std::move(tracker));
             });
    const auto generator =
        [](std::unique_ptr<workload::TraceGenerator> gen)
        -> std::unique_ptr<workload::TraceGenerator> {
        return std::make_unique<TimedGenerator>(std::move(gen));
    };
    decorate(registry::workloadRegistry(), generator);
    decorate(registry::attackRegistry(), generator);
    decorate(registry::sourceRegistry(),
             [](std::unique_ptr<engine::ActSource> source)
                 -> std::unique_ptr<engine::ActSource> {
                 return std::make_unique<TimedSource>(std::move(source));
             });
}

} // namespace perfbench
