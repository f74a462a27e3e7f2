// The Independent Active Runtime System Security Manager — the paper's
// first microarchitectural characteristic (§V-1).
//
// It is modelled as an independent agent with private state: its event
// queue, policy engine, risk register and evidence log are NOT mapped
// on the application bus. `physically_isolated` controls the ablation
// of §V-1: when false, the SSM shares the main CPU's resources
// (TEE-style) and a kernel-level compromise can disable it and destroy
// its evidence; when true (the paper's design), attempt_compromise()
// from the application side always fails.
//
// Event flow: monitors submit() events synchronously; the SSM drains
// its queue at its polls (modelling the independent processor's scan
// rate), appends evidence, updates health state, evaluates policy and
// dispatches response actions to the executor. Polls fall on the grid
// construction cycle + k * poll_interval, and a poll is made only when
// events are queued: an empty poll would observe nothing.
//
// The evidence log is the SSM's only history: each fired rule appends a
// "decision" record stamped with the poll cycle that dispatched it, and
// each executed action an "action" record.
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/event.h"
#include "core/policy/policy.h"
#include "core/ssm/evidence.h"
#include "core/ssm/risk.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/postmortem.h"
#include "obs/siem.h"
#include "obs/span.h"
#include "sim/simulator.h"

namespace cres::core {

/// Health states map onto the CSF functions: Detect moves Healthy ->
/// Suspicious/Compromised, Respond moves into Responding, Recover
/// moves through Recovering back to Healthy or Degraded.
enum class HealthState : std::uint8_t {
    kHealthy,
    kSuspicious,
    kCompromised,
    kResponding,
    kRecovering,
    kDegraded,
};

std::string health_state_name(HealthState state);

/// Implemented by the Active Response Manager.
class ResponseExecutor {
public:
    virtual ~ResponseExecutor() = default;
    /// Executes one action for the triggering event; returns a
    /// human-readable outcome for the evidence log.
    virtual std::string execute(ResponseAction action,
                                const MonitorEvent& trigger) = 0;
};

struct SsmConfig {
    bool physically_isolated = true;
    sim::Cycle poll_interval = 10;
    Bytes seal_key;  ///< Evidence-sealing key (required).
    std::string device_name = "node";  ///< Identity stamped into bundles.
};

class SystemSecurityManager : public EventSink, public sim::Tickable {
public:
    SystemSecurityManager(const sim::Simulator& sim, SsmConfig config);

    // --- Wiring ---------------------------------------------------------
    void set_policy(PolicyEngine policy) { policy_ = std::move(policy); }
    void set_response_executor(ResponseExecutor* executor) {
        executor_ = executor;
    }

    /// Attaches the node's metrics registry: per-poll queue depth,
    /// per-event detection latency and the CSF incident span tracer
    /// (detect/respond/contain/recover latency histograms). Unbound
    /// SSMs skip all metric work.
    void bind_metrics(obs::MetricsRegistry& registry);

    /// Attaches the device flight recorder: health transitions, policy
    /// decisions and response actions land in the black-box ring, and
    /// each poll records the queue depth it found, then 0 once drained,
    /// as a counter track.
    /// Also enables postmortem capture — on incident span open the SSM
    /// snapshots the pre-incident ring window, and on close it seals
    /// the full bundle (requires bind_metrics for the span tracer).
    void bind_recorder(obs::FlightRecorder& recorder);

    /// Attaches the device SIEM staging buffer: every processed event,
    /// health transition and incident open/close is framed as one
    /// severity-classified record for the fleet export stream. The
    /// buffer is bounded — overflow is counted, never blocking.
    void bind_siem(obs::SiemBuffer& buffer) { siem_ = &buffer; }

    // --- EventSink (called synchronously by monitors) --------------------
    void submit(const MonitorEvent& event) override;

    // --- Tickable ---------------------------------------------------------
    void tick(sim::Cycle now) override;

    /// Quiescence: the next poll cycle on the grid while events are
    /// queued; kIdleForever with an empty queue or once disabled, as
    /// no poll is made then.
    [[nodiscard]] sim::Cycle next_activity(sim::Cycle now) override;

    // --- Recovery signalling (called by the response manager) -----------
    void notify_recovery_started(sim::Cycle at);
    void notify_recovery_complete(sim::Cycle at, bool degraded);
    /// Degraded services restored (operator action / roll-forward).
    void notify_full_service(sim::Cycle at);
    /// Containment action finished (isolate/kill/zeroise/rate-limit/
    /// partition) — marks the contain span of the open incident.
    void notify_contained(sim::Cycle at);

    // --- State ------------------------------------------------------------
    [[nodiscard]] HealthState health() const noexcept { return health_; }
    [[nodiscard]] bool disabled() const noexcept { return disabled_; }
    [[nodiscard]] EvidenceLog& evidence() noexcept { return evidence_; }
    [[nodiscard]] const EvidenceLog& evidence() const noexcept {
        return evidence_;
    }
    [[nodiscard]] RiskRegister& risks() noexcept { return risks_; }
    [[nodiscard]] std::uint64_t events_processed() const noexcept {
        return events_processed_;
    }
    [[nodiscard]] std::size_t queue_depth() const noexcept {
        return queue_.size();
    }
    /// CSF span tracer (nullptr until bind_metrics).
    [[nodiscard]] const obs::SpanTracer* spans() const noexcept {
        return spans_.get();
    }

    /// Completed incident postmortem bundles, oldest first (empty until
    /// an incident closes; requires bind_metrics).
    [[nodiscard]] const std::vector<obs::PostmortemBundle>& postmortems()
        const noexcept {
        return postmortems_;
    }

    /// Renders bundle `index` as the sealed, offline-verifiable JSON
    /// artefact (sealed under the evidence seal key). Throws Error on
    /// out-of-range indices.
    [[nodiscard]] std::string sealed_postmortem(std::size_t index) const;

    // --- Attack surface ----------------------------------------------------
    /// An attacker with kernel privilege on the main CPU attempts to
    /// kill the security manager and destroy its evidence. Succeeds
    /// only when the SSM is NOT physically isolated (the §V-1 ablation).
    bool attempt_compromise(const std::string& method);

    /// A health report a verifier can check (signed with the seal key).
    struct HealthReport {
        HealthState state = HealthState::kHealthy;
        std::uint64_t events_processed = 0;
        EvidenceSeal evidence_seal;
        crypto::Hash256 tag{};
    };
    [[nodiscard]] HealthReport health_report() const;
    [[nodiscard]] static bool verify_health_report(const HealthReport& report,
                                                   BytesView seal_key);

private:
    void transition(HealthState next, sim::Cycle at, const std::string& why);
    void process_event(const MonitorEvent& event, sim::Cycle now);

    const sim::Simulator& sim_;
    SsmConfig config_;
    PolicyEngine policy_;
    ResponseExecutor* executor_ = nullptr;

    std::vector<MonitorEvent> queue_;  ///< FIFO: drained from the front.
    EvidenceLog evidence_;
    /// Keyed once on the seal key: health-report tags reuse the cached
    /// ipad/opad midstates instead of re-deriving them per report.
    crypto::HmacSha256 report_hmac_;
    RiskRegister risks_;
    HealthState health_ = HealthState::kHealthy;
    bool disabled_ = false;
    std::uint64_t events_processed_ = 0;
    sim::Cycle poll_origin_;  ///< Construction cycle: the poll grid's origin.

    void open_postmortem(std::uint64_t incident_id, sim::Cycle opened_at);
    void close_postmortem(sim::Cycle at);

    // --- Observability (null/empty until bind_metrics) -------------------
    std::unique_ptr<obs::SpanTracer> spans_;
    std::optional<std::uint64_t> incident_;  ///< Open incident span id.
    obs::MetricsRegistry* registry_ = nullptr;
    obs::FlightRecorder* recorder_ = nullptr;
    obs::SiemBuffer* siem_ = nullptr;
    std::uint16_t rec_source_ = 0;   ///< Interned "ssm".
    std::uint16_t rec_state_ = 0;    ///< Interned kinds.
    std::uint16_t rec_decision_ = 0;
    std::uint16_t rec_action_ = 0;
    std::uint16_t rec_queue_ = 0;
    /// Bundle under construction for the open incident (pre-window
    /// snapshot taken at open, completed and sealed at close).
    std::optional<obs::PostmortemBundle> pending_postmortem_;
    std::uint64_t pending_seq_ = 0;  ///< Recorder watermark at open.
    std::vector<obs::PostmortemBundle> postmortems_;
    obs::Counter* m_events_ = nullptr;
    obs::Counter* m_dispatches_ = nullptr;
    obs::Counter* m_transitions_ = nullptr;
    obs::Gauge* m_queue_depth_ = nullptr;
    obs::Histogram* m_queue_depth_per_poll_ = nullptr;
    obs::Histogram* m_detection_latency_ = nullptr;
};

}  // namespace cres::core
