// Base class for Active Runtime Resource Monitors (paper §V, second
// characteristic). A monitor watches one resource, generates
// fine-grained events, and delivers them to the System Security
// Manager's event sink. Monitors can be disabled (for overhead
// ablations) and count their own emissions.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <utility>

#include "core/event.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"

namespace cres::core {

class Monitor {
public:
    Monitor(std::string name, EventSink& sink)
        : name_(std::move(name)), sink_(sink) {}
    virtual ~Monitor() = default;

    Monitor(const Monitor&) = delete;
    Monitor& operator=(const Monitor&) = delete;

    [[nodiscard]] const std::string& name() const noexcept { return name_; }

    void set_enabled(bool enabled) noexcept { enabled_ = enabled; }
    [[nodiscard]] bool enabled() const noexcept { return enabled_; }

    [[nodiscard]] std::uint64_t events_emitted() const noexcept {
        return emitted_;
    }

    /// Registers this monitor's per-instance series (poll count, event
    /// and alert counts, inter-poll gap histogram) under a
    /// `monitor="<name>"` label. Unbound monitors skip all metric work
    /// (the compiled-in-but-unqueried zero-cost mode).
    void bind_metrics(obs::MetricsRegistry& registry) {
        const std::string label = "{monitor=\"" + name_ + "\"}";
        polls_ = &registry.counter("cres_monitor_polls_total" + label);
        events_ = &registry.counter("cres_monitor_events_total" + label);
        alerts_ = &registry.counter("cres_monitor_alerts_total" + label);
        poll_gap_ =
            &registry.histogram("cres_monitor_poll_gap_cycles" + label);
    }

    /// Binds the device flight recorder: every emitted event also lands
    /// in the bounded black-box ring, stamped with this monitor's
    /// interned source id and its category as the record kind. The
    /// interning here is the cold path; emit() stays allocation-free.
    /// Unbound monitors (the default) pay one null check per emit.
    void bind_recorder(obs::FlightRecorder& recorder) {
        recorder_ = &recorder;
        recorder_source_ = recorder.intern(name_);
        for (std::size_t i = 0; i < kEventCategoryCount; ++i) {
            recorder_kinds_[i] =
                recorder.intern(category_name(static_cast<EventCategory>(i)));
        }
    }

    /// One-line description of what this monitor watches (used by the
    /// capability registry that regenerates Table I).
    [[nodiscard]] virtual std::string description() const = 0;

protected:
    /// Records one observation pass over the watched resource: a
    /// periodic scan, one watched transaction / frame / edge, one
    /// heartbeat (timing monitor) or one audit that compares (config
    /// monitor). No monitor makes a pass that could observe nothing
    /// new. Cycle-accurate: the gap histogram is fed from simulated
    /// time only.
    ///
    /// The first poll never contributes a gap sample: last_poll_at_
    /// starts at the kNoPoll sentinel, not at cycle 0, so a monitor
    /// whose first pass happens late cannot smear a bogus 0..first-poll
    /// "gap" into cres_monitor_poll_gap_cycles. Pinned bucket-by-bucket
    /// by Monitor.FirstPollContributesNoGapSample in tests/obs_test.cpp.
    void note_poll(sim::Cycle now) {
        if (polls_ == nullptr || !enabled_) return;
        polls_->inc();
        if (last_poll_at_ != kNoPoll) {
            poll_gap_->record(now - last_poll_at_);
        }
        last_poll_at_ = now;
    }

    /// Delivers an event to the SSM (no-op while disabled). `trace`
    /// attaches the causal context of the frame that triggered the
    /// observation, when there is one; it rides the event into the SSM
    /// and out over the SIEM export so FleetMonitor can reconstruct
    /// cross-device provenance.
    void emit(sim::Cycle at, EventCategory category, EventSeverity severity,
              std::string resource, std::string detail, std::uint64_t a = 0,
              std::uint64_t b = 0,
              std::optional<net::TraceContext> trace = std::nullopt) {
        if (!enabled_) return;
        ++emitted_;
        if (events_ != nullptr) {
            events_->inc();
            if (severity >= EventSeverity::kAlert) alerts_->inc();
        }
        if (recorder_ != nullptr) {
            recorder_->record(at, recorder_source_,
                              recorder_kinds_[static_cast<std::size_t>(
                                  category)],
                              static_cast<std::uint8_t>(severity),
                              obs::FlightRecordType::kInstant, a, b, detail);
        }
        sink_.submit(MonitorEvent{at, name_, category, severity,
                                  std::move(resource), std::move(detail), a,
                                  b, trace});
    }

private:
    static constexpr sim::Cycle kNoPoll = ~sim::Cycle{0};

    std::string name_;
    EventSink& sink_;
    bool enabled_ = true;
    std::uint64_t emitted_ = 0;
    obs::Counter* polls_ = nullptr;
    obs::Counter* events_ = nullptr;
    obs::Counter* alerts_ = nullptr;
    obs::Histogram* poll_gap_ = nullptr;
    sim::Cycle last_poll_at_ = kNoPoll;
    obs::FlightRecorder* recorder_ = nullptr;
    std::uint16_t recorder_source_ = 0;
    std::array<std::uint16_t, kEventCategoryCount> recorder_kinds_{};
};

}  // namespace cres::core
