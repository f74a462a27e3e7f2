#include "core/monitor/network_monitor.h"

namespace cres::core {

NetworkMonitor::NetworkMonitor(EventSink& sink, const sim::Simulator& sim)
    : Monitor("network-monitor", sink), sim_(sim) {}

void NetworkMonitor::set_flood_threshold(std::uint32_t frames,
                                         sim::Cycle window) {
    flood_frames_ = frames;
    flood_window_ = window;
}

void NetworkMonitor::note_rx(net::RecvStatus status, std::size_t frame_bytes,
                             std::uint64_t sequence,
                             const std::optional<net::TraceContext>& trace) {
    const sim::Cycle now = sim_.now();
    note_poll(now);

    const std::uint64_t frames = arrivals_.add(now, flood_window_);
    if (frames >= flood_frames_) {
        emit(now, EventCategory::kNetwork, EventSeverity::kAlert, "link",
             "frame flood: " + std::to_string(frames) + " frames in window",
             frames, frame_bytes);
        arrivals_.clear();
    }

    switch (status) {
        case net::RecvStatus::kOk:
            streak_ = 0;
            break;
        case net::RecvStatus::kReplay: {
            ++auth_failures_;
            // One stale frame is advisory-grade (retransmission, path
            // hiccup); a burst of distinct replays inside the window is
            // an active replay attack. `a` carries the replayed
            // sequence number — the fleet tier fingerprints coordinated
            // replay across devices with it.
            const std::uint64_t replays = replays_.add(now, kReplayWindow);
            if (replays >= kReplayBurst) {
                emit(now, EventCategory::kNetwork, EventSeverity::kAlert,
                     "link",
                     "replay burst: " + std::to_string(replays) +
                         " replayed frames in window",
                     sequence, frame_bytes);
                replays_.clear();
            } else {
                emit(now, EventCategory::kNetwork, EventSeverity::kAdvisory,
                     "link", "replayed frame detected", sequence, frame_bytes,
                     trace);
            }
            break;
        }
        case net::RecvStatus::kBadTag:
        case net::RecvStatus::kMalformed: {
            ++auth_failures_;
            ++streak_;
            if (streak_ >= streak_threshold_) {
                emit(now, EventCategory::kNetwork, EventSeverity::kCritical,
                     "link",
                     "authentication-failure streak (" +
                         std::to_string(streak_) + ") — active MITM suspected",
                     streak_, frame_bytes, trace);
                streak_ = 0;
            } else {
                // `a` carries the forged frame's claimed sequence — the
                // fleet tier reads it as channel-peer metadata when
                // reconstructing a worm's infection graph. The claimed
                // trace context (if any) rides along for the exact-DAG
                // reconstruction path.
                emit(now, EventCategory::kNetwork, EventSeverity::kAdvisory,
                     "link", "frame failed authentication", sequence,
                     frame_bytes, trace);
            }
            break;
        }
    }
}

}  // namespace cres::core
