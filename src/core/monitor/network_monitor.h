// Network monitor: watches a SecureChannel's authentication outcomes
// and traffic volume. Detects forgery/tamper streaks (MITM), replay
// bursts and frame floods.
#pragma once

#include "core/monitor/monitor.h"
#include "core/window.h"
#include "net/channel.h"

namespace cres::core {

class NetworkMonitor : public Monitor {
public:
    NetworkMonitor(EventSink& sink, const sim::Simulator& sim);

    std::string description() const override {
        return "M2M channel screening: authentication-failure streaks, "
               "replay detection, flood detection";
    }

    /// Feed: the platform reports every received-frame outcome here.
    /// `sequence` is the frame's claimed sequence number (channel-layer
    /// metadata); it rides on the emitted event's `a` scalar so the
    /// fleet correlation tier can fingerprint replays and trace forged-
    /// frame origins. 0 when the caller has no sequence to report.
    /// `trace` is the frame's claimed causal context, when it carried
    /// one — attached to the emitted events so the fleet tier can
    /// reconstruct exact infection provenance (patient zero, hop depth)
    /// rather than an anonymous component.
    void note_rx(net::RecvStatus status, std::size_t frame_bytes,
                 std::uint64_t sequence = 0,
                 const std::optional<net::TraceContext>& trace = std::nullopt);

    /// Consecutive failures before an alert (default 3).
    void set_failure_streak_threshold(std::uint32_t threshold) noexcept {
        streak_threshold_ = threshold;
    }
    /// Frames within `window` cycles before a flood alert.
    void set_flood_threshold(std::uint32_t frames, sim::Cycle window);

    [[nodiscard]] std::uint64_t auth_failures() const noexcept {
        return auth_failures_;
    }

private:
    const sim::Simulator& sim_;
    std::uint32_t streak_ = 0;
    std::uint32_t streak_threshold_ = 3;
    std::uint64_t auth_failures_ = 0;
    SlidingWindow arrivals_;
    std::uint32_t flood_frames_ = 100;
    sim::Cycle flood_window_ = 10000;
    /// Replays within `kReplayWindow` cycles before the advisory per
    /// replay escalates to an alert.
    static constexpr std::uint32_t kReplayBurst = 3;
    static constexpr sim::Cycle kReplayWindow = 20000;
    SlidingWindow replays_;
};

}  // namespace cres::core
