// Policy-based security modelling (after the authors' companion papers
// [25],[28],[35]): declarative rules mapping monitor-event patterns to
// response strategies, compiled from a small text DSL.
//
// DSL, one rule per line (';'/'#' comments, blank lines ignored):
//
//   rule <name>: [category=<cat>] [severity>=<sev>] [resource=<prefix*>]
//                [count=<n>] [window=<cycles>] [cooldown=<cycles>]
//                -> <action>[, <action>...]
//
// Example:
//   rule cfi-hijack: category=control-flow severity>=critical
//                    -> kill-task, restart-task, alert-operator
//   rule exfil: category=data-flow count=2 window=5000
//                    -> isolate-resource, zeroise-keys
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "core/action.h"
#include "core/event.h"
#include "core/window.h"

namespace cres::core {

struct PolicyRule {
    std::string name;
    std::optional<EventCategory> category;  ///< nullopt = any category.
    EventSeverity min_severity = EventSeverity::kAlert;
    std::string resource_prefix;  ///< "" = any; trailing '*' = prefix.
    std::uint32_t threshold = 1;  ///< Events needed within the window.
    sim::Cycle window = 0;        ///< 0 = no windowing (every event).
    sim::Cycle cooldown = 0;      ///< Min cycles between firings (0 = none).
    std::vector<ResponseAction> actions;

    /// Does this event satisfy the static conditions (not the count)?
    [[nodiscard]] bool matches(const MonitorEvent& event) const;
};

class PolicyEngine {
public:
    /// Adds a rule. Throws PolicyError for rules without actions.
    void add_rule(PolicyRule rule);

    /// Compiles DSL text. Throws PolicyError with line context.
    static PolicyEngine parse(const std::string& text);

    /// Feeds one event through the rule set; returns the rules whose
    /// threshold fired on this event (stateful windowed counting).
    std::vector<const PolicyRule*> evaluate(const MonitorEvent& event);

    [[nodiscard]] const std::vector<PolicyRule>& rules() const noexcept {
        return rules_;
    }
    [[nodiscard]] std::size_t size() const noexcept { return rules_.size(); }

private:
    std::vector<PolicyRule> rules_;
    // Per-rule matching events (for windowed thresholds).
    std::vector<SlidingWindow> history_;
    // Per-rule time of last firing (for cooldowns).
    std::vector<std::optional<sim::Cycle>> last_fired_;
};

/// Parses severity names ("info", "advisory", "alert", "critical").
std::optional<EventSeverity> severity_from_name(const std::string& name);
/// Parses category names ("control-flow", "bus-violation", ...).
std::optional<EventCategory> category_from_name(const std::string& name);

}  // namespace cres::core
