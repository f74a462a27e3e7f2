#include "core/ssm/ssm.h"

#include "obs/syslog.h"
#include "util/error.h"
#include "util/serial.h"

namespace cres::core {

namespace {

/// Pre-incident flight-recorder cycles captured into a postmortem
/// bundle (the window before the triggering event's emit cycle).
constexpr sim::Cycle kPostmortemPreWindow = 5000;

/// SSM-lifecycle SIEM record skeleton (state transitions, incident
/// open/close): kSystem vocabulary, source "ssm".
obs::SiemEvent siem_lifecycle(sim::Cycle at, obs::SiemKind kind,
                              std::uint8_t severity) {
    obs::SiemEvent record;
    record.at = at;
    record.kind = kind;
    record.severity = severity;
    record.facility = syslog_facility(EventCategory::kSystem);
    record.category = std::string(category_name(EventCategory::kSystem));
    record.source = "ssm";
    return record;
}

}  // namespace

std::string health_state_name(HealthState state) {
    switch (state) {
        case HealthState::kHealthy: return "healthy";
        case HealthState::kSuspicious: return "suspicious";
        case HealthState::kCompromised: return "compromised";
        case HealthState::kResponding: return "responding";
        case HealthState::kRecovering: return "recovering";
        case HealthState::kDegraded: return "degraded";
    }
    return "?";
}

SystemSecurityManager::SystemSecurityManager(const sim::Simulator& sim,
                                             SsmConfig config)
    : sim_(sim),
      config_(std::move(config)),
      evidence_(config_.seal_key),
      report_hmac_(config_.seal_key),
      poll_origin_(sim.now()) {
    if (config_.poll_interval == 0) {
        throw Error("SystemSecurityManager: zero poll interval");
    }
    evidence_.append(sim_.now(), "state",
                     "ssm online, isolation=" +
                         std::string(config_.physically_isolated ? "physical"
                                                                 : "shared"));
}

void SystemSecurityManager::submit(const MonitorEvent& event) {
    if (disabled_) return;  // A dead SSM hears nothing.
    queue_.push_back(event);
    if (m_queue_depth_ != nullptr) {
        m_queue_depth_->set(static_cast<std::int64_t>(queue_.size()));
    }
}

void SystemSecurityManager::bind_metrics(obs::MetricsRegistry& registry) {
    registry_ = &registry;
    m_events_ = &registry.counter("cres_ssm_events_processed_total");
    m_dispatches_ = &registry.counter("cres_ssm_dispatches_total");
    m_transitions_ = &registry.counter("cres_ssm_health_transitions_total");
    m_queue_depth_ = &registry.gauge("cres_ssm_queue_depth");
    m_queue_depth_per_poll_ =
        &registry.histogram("cres_ssm_queue_depth_per_poll");
    m_detection_latency_ =
        &registry.histogram("cres_ssm_detection_latency_cycles");
    spans_ = std::make_unique<obs::SpanTracer>(registry);
}

void SystemSecurityManager::bind_recorder(obs::FlightRecorder& recorder) {
    recorder_ = &recorder;
    rec_source_ = recorder.intern("ssm");
    rec_state_ = recorder.intern("state");
    rec_decision_ = recorder.intern("decision");
    rec_action_ = recorder.intern("action");
    rec_queue_ = recorder.intern("queue_depth");
}

void SystemSecurityManager::transition(HealthState next, sim::Cycle at,
                                       const std::string& why) {
    if (health_ == next) return;
    evidence_.append(at, "state",
                     health_state_name(health_) + " -> " +
                         health_state_name(next) + ": " + why);
    if (recorder_ != nullptr) {
        recorder_->record(at, rec_source_, rec_state_, 0,
                          obs::FlightRecordType::kInstant,
                          static_cast<std::uint64_t>(health_),
                          static_cast<std::uint64_t>(next),
                          health_state_name(next));
    }
    if (siem_ != nullptr && siem_->enabled()) {
        obs::SiemEvent record = siem_lifecycle(at, obs::SiemKind::kState,
                                               obs::rfc5424::kNotice);
        record.resource = "health";
        record.detail = health_state_name(health_) + " -> " +
                        health_state_name(next) + ": " + why;
        record.a = static_cast<std::uint64_t>(health_);
        record.b = static_cast<std::uint64_t>(next);
        siem_->push(std::move(record));
    }
    health_ = next;
    if (m_transitions_ != nullptr) m_transitions_->inc();
}

void SystemSecurityManager::process_event(const MonitorEvent& event,
                                          sim::Cycle now) {
    ++events_processed_;
    if (m_events_ != nullptr) {
        m_events_->inc();
        // Detection latency: emit cycle -> the poll that processed it.
        m_detection_latency_->record(now - event.at);
    }

    // Evidence first — even events we take no action on form the
    // continuous data stream.
    BinaryWriter payload;
    payload.u64(event.a);
    payload.u64(event.b);
    const std::string_view category = category_name(event.category);
    const std::string_view severity = severity_name(event.severity);
    std::string detail;
    detail.reserve(event.monitor.size() + category.size() + severity.size() +
                   event.resource.size() + event.detail.size() + 5);
    detail.append(event.monitor)
        .append("/")
        .append(category)
        .append("/")
        .append(severity)
        .append(" ")
        .append(event.resource)
        .append(": ")
        .append(event.detail);
    evidence_.append(event.at, "event", std::move(detail), payload.take());

    if (siem_ != nullptr && siem_->enabled()) {
        obs::SiemEvent record;
        record.at = event.at;
        record.kind = event.severity >= EventSeverity::kAlert
                          ? obs::SiemKind::kAlert
                          : obs::SiemKind::kEvent;
        record.severity = syslog_severity(event.severity);
        record.facility = syslog_facility(event.category);
        record.category = std::string(category);
        record.source = event.monitor;
        record.resource = event.resource;
        record.detail = event.detail;
        record.a = event.a;
        record.b = event.b;
        if (event.trace) {
            record.traced = true;
            record.trace_origin = event.trace->origin_device;
            record.trace_hop = event.trace->hop;
            record.trace_span = event.trace->span_id;
            record.trace_parent = event.trace->parent_span_id;
        }
        siem_->push(std::move(record));
    }

    if (event.severity >= EventSeverity::kAdvisory) {
        risks_.record_incident(event.resource);
    }

    // Detection: health degrades with severity. Leaving kHealthy opens
    // one CSF incident span, anchored at the triggering event's emit
    // cycle and marked detected at processing time.
    const auto open_incident = [this, &event, now] {
        if (spans_ == nullptr || incident_.has_value()) return;
        incident_ = spans_->open(event.at);
        spans_->mark(*incident_, obs::CsfPhase::kDetect, now);
        open_postmortem(*incident_, event.at);
        if (siem_ != nullptr && siem_->enabled()) {
            obs::SiemEvent record = siem_lifecycle(
                event.at, obs::SiemKind::kIncidentOpen,
                obs::rfc5424::kCritical);
            record.resource = event.resource;
            record.detail = event.detail;
            record.a = *incident_;
            siem_->push(std::move(record));
        }
    };
    if (event.severity == EventSeverity::kAlert &&
        health_ == HealthState::kHealthy) {
        open_incident();
        transition(HealthState::kSuspicious, now, event.detail);
    } else if (event.severity == EventSeverity::kCritical &&
               health_ != HealthState::kResponding &&
               health_ != HealthState::kRecovering) {
        open_incident();
        transition(HealthState::kCompromised, now, event.detail);
    }

    // Policy evaluation and response dispatch.
    const auto fired = policy_.evaluate(event);
    for (const PolicyRule* rule : fired) {
        if (m_dispatches_ != nullptr) m_dispatches_->inc();

        evidence_.append(now, "decision",
                         "rule '" + rule->name + "' fired for " +
                             event.resource);
        if (recorder_ != nullptr) {
            recorder_->record(now, rec_source_, rec_decision_,
                              static_cast<std::uint8_t>(event.severity),
                              obs::FlightRecordType::kInstant, event.a,
                              event.b, rule->name);
        }

        if (executor_ != nullptr && !rule->actions.empty()) {
            transition(HealthState::kResponding, now, "rule " + rule->name);
            if (spans_ != nullptr && incident_.has_value()) {
                spans_->mark(*incident_, obs::CsfPhase::kRespond, now);
            }
            for (ResponseAction action : rule->actions) {
                const std::string outcome = executor_->execute(action, event);
                evidence_.append(now, "action",
                                 action_name(action) + ": " + outcome);
                if (recorder_ != nullptr) {
                    recorder_->record(now, rec_source_, rec_action_,
                                      static_cast<std::uint8_t>(
                                          event.severity),
                                      obs::FlightRecordType::kInstant,
                                      static_cast<std::uint64_t>(action), 0,
                                      action_name(action));
                }
            }
        }
    }
}

void SystemSecurityManager::tick(sim::Cycle now) {
    if (next_activity(now) != now) return;

    if (m_queue_depth_per_poll_ != nullptr) {
        m_queue_depth_per_poll_->record(queue_.size());
    }
    if (recorder_ != nullptr) {
        recorder_->record(now, rec_source_, rec_queue_, 0,
                          obs::FlightRecordType::kCounter,
                          static_cast<std::uint64_t>(queue_.size()), 0, {});
    }

    // Drain everything that arrived up to now, and what the responses
    // submit while it drains, in arrival order.
    while (!queue_.empty()) {
        const MonitorEvent event = std::move(queue_.front());
        queue_.erase(queue_.begin());
        process_event(event, now);
    }
    if (m_queue_depth_ != nullptr) m_queue_depth_->set(0);
    if (recorder_ != nullptr) {
        recorder_->record(now, rec_source_, rec_queue_, 0,
                          obs::FlightRecordType::kCounter, 0, 0, {});
    }
}

sim::Cycle SystemSecurityManager::next_activity(sim::Cycle now) {
    if (disabled_ || queue_.empty()) return kIdleForever;
    return sim::next_on_grid(now, poll_origin_, config_.poll_interval);
}

void SystemSecurityManager::notify_recovery_started(sim::Cycle at) {
    transition(HealthState::kRecovering, at, "recovery initiated");
}

void SystemSecurityManager::notify_contained(sim::Cycle at) {
    if (spans_ != nullptr && incident_.has_value()) {
        spans_->mark(*incident_, obs::CsfPhase::kContain, at);
    }
}

void SystemSecurityManager::notify_recovery_complete(sim::Cycle at,
                                                     bool degraded) {
    transition(degraded ? HealthState::kDegraded : HealthState::kHealthy, at,
               degraded ? "recovered with degraded service"
                        : "recovered to full service");
    if (spans_ != nullptr && incident_.has_value()) {
        close_postmortem(at);  // Marks are read before close() drops them.
        spans_->close(*incident_, at);
        if (siem_ != nullptr && siem_->enabled()) {
            obs::SiemEvent record = siem_lifecycle(
                at, obs::SiemKind::kIncidentClose, obs::rfc5424::kNotice);
            record.resource = "incident";
            record.detail = degraded ? "recovered with degraded service"
                                     : "recovered to full service";
            record.a = *incident_;
            siem_->push(std::move(record));
        }
        incident_.reset();
    }
}

void SystemSecurityManager::open_postmortem(std::uint64_t incident_id,
                                            sim::Cycle opened_at) {
    if (recorder_ == nullptr) return;
    obs::PostmortemBundle bundle;
    bundle.device = config_.device_name;
    bundle.incident_id = incident_id;
    bundle.opened_at = opened_at;
    bundle.window_begin =
        opened_at > kPostmortemPreWindow ? opened_at - kPostmortemPreWindow : 0;
    // Pre-incident window, captured now before the ring rolls past it.
    bundle.telemetry = recorder_->snapshot_since(bundle.window_begin);
    pending_seq_ = recorder_->total_emitted();
    pending_postmortem_ = std::move(bundle);
}

void SystemSecurityManager::close_postmortem(sim::Cycle at) {
    if (!pending_postmortem_.has_value() || recorder_ == nullptr) return;
    obs::PostmortemBundle bundle = std::move(*pending_postmortem_);
    pending_postmortem_.reset();
    bundle.closed_at = at;

    if (spans_ != nullptr && incident_.has_value()) {
        if (const auto marks = spans_->marks(*incident_)) {
            bundle.marked = marks->marked;
            bundle.phase_at = marks->at;
        }
    }
    // close() is about to mark recover at `at`; reflect that here.
    constexpr std::uint8_t kRecoverBit =
        1U << static_cast<std::size_t>(obs::CsfPhase::kRecover);
    if ((bundle.marked & kRecoverBit) == 0U) {
        bundle.marked |= kRecoverBit;
        bundle.phase_at[static_cast<std::size_t>(obs::CsfPhase::kRecover)] =
            at;
    }

    // Everything emitted after open, deduplicated against the pre-window
    // snapshot by the recorder's global sequence watermark.
    auto tail = recorder_->snapshot_emitted_since(pending_seq_);
    bundle.telemetry.insert(bundle.telemetry.end(), tail.begin(), tail.end());
    bundle.names = recorder_->names();

    bundle.metrics_json = registry_ != nullptr ? registry_->json() : "";
    const auto seal = evidence_.seal();
    bundle.evidence_count = seal.count;
    bundle.evidence_head_hex = to_hex(BytesView{seal.head.data(),
                                                seal.head.size()});
    postmortems_.push_back(std::move(bundle));
}

std::string SystemSecurityManager::sealed_postmortem(std::size_t index) const {
    if (index >= postmortems_.size()) {
        throw Error("SystemSecurityManager: postmortem index out of range");
    }
    return obs::seal_postmortem(postmortems_[index], report_hmac_);
}

void SystemSecurityManager::notify_full_service(sim::Cycle at) {
    transition(HealthState::kHealthy, at, "full service restored");
}

bool SystemSecurityManager::attempt_compromise(const std::string& method) {
    if (config_.physically_isolated) {
        // The attempt itself is observable: the SSM's private port saw a
        // touch that no legitimate master can generate.
        evidence_.append(sim_.now(), "event",
                         "blocked compromise attempt against ssm: " + method);
        return false;
    }
    // Shared-resource SSM (TEE-style ablation): the attacker wins —
    // security function dead, evidence gone.
    disabled_ = true;
    evidence_.wipe();
    return true;
}

SystemSecurityManager::HealthReport SystemSecurityManager::health_report()
    const {
    HealthReport report;
    report.state = health_;
    report.events_processed = events_processed_;
    report.evidence_seal = evidence_.seal();

    BinaryWriter w;
    w.u8(static_cast<std::uint8_t>(report.state));
    w.u64(report.events_processed);
    w.u64(report.evidence_seal.count);
    w.raw(report.evidence_seal.head);
    report.tag = report_hmac_.tag(w.data());
    return report;
}

bool SystemSecurityManager::verify_health_report(const HealthReport& report,
                                                 BytesView seal_key) {
    BinaryWriter w;
    w.u8(static_cast<std::uint8_t>(report.state));
    w.u64(report.events_processed);
    w.u64(report.evidence_seal.count);
    w.raw(report.evidence_seal.head);
    return crypto::hmac_verify(seal_key, w.data(), report.tag);
}

}  // namespace cres::core
