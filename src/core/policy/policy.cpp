#include "core/policy/policy.h"

#include <sstream>

#include "util/error.h"

namespace cres::core {

std::optional<EventSeverity> severity_from_name(const std::string& name) {
    if (name == "info") return EventSeverity::kInfo;
    if (name == "advisory") return EventSeverity::kAdvisory;
    if (name == "alert") return EventSeverity::kAlert;
    if (name == "critical") return EventSeverity::kCritical;
    return std::nullopt;
}

std::optional<EventCategory> category_from_name(const std::string& name) {
    static const std::pair<const char*, EventCategory> table[] = {
        {"bus-violation", EventCategory::kBusViolation},
        {"control-flow", EventCategory::kControlFlow},
        {"memory", EventCategory::kMemory},
        {"data-flow", EventCategory::kDataFlow},
        {"peripheral", EventCategory::kPeripheral},
        {"timing", EventCategory::kTiming},
        {"network", EventCategory::kNetwork},
        {"environment", EventCategory::kEnvironment},
        {"boot", EventCategory::kBoot},
        {"system", EventCategory::kSystem},
    };
    for (const auto& [n, c] : table) {
        if (name == n) return c;
    }
    return std::nullopt;
}

bool PolicyRule::matches(const MonitorEvent& event) const {
    if (category.has_value() && event.category != *category) return false;
    if (event.severity < min_severity) return false;
    if (!resource_prefix.empty()) {
        if (resource_prefix.back() == '*') {
            const std::string prefix =
                resource_prefix.substr(0, resource_prefix.size() - 1);
            if (event.resource.compare(0, prefix.size(), prefix) != 0) {
                return false;
            }
        } else if (event.resource != resource_prefix) {
            return false;
        }
    }
    return true;
}

void PolicyEngine::add_rule(PolicyRule rule) {
    if (rule.actions.empty()) {
        throw PolicyError("policy rule '" + rule.name + "' has no actions");
    }
    if (rule.threshold == 0) {
        throw PolicyError("policy rule '" + rule.name + "' has threshold 0");
    }
    rules_.push_back(std::move(rule));
    history_.emplace_back();
    last_fired_.emplace_back();
}

std::vector<const PolicyRule*> PolicyEngine::evaluate(
    const MonitorEvent& event) {
    std::vector<const PolicyRule*> fired;
    for (std::size_t i = 0; i < rules_.size(); ++i) {
        const PolicyRule& rule = rules_[i];
        if (!rule.matches(event)) continue;

        const bool cooling =
            rule.cooldown > 0 && last_fired_[i].has_value() &&
            event.at < *last_fired_[i] + rule.cooldown;

        if (rule.threshold <= 1) {
            if (!cooling) {
                fired.push_back(&rule);
                last_fired_[i] = event.at;
            }
            continue;
        }
        const sim::Cycle window =
            rule.window > 0 ? rule.window : SlidingWindow::kNoExpiry;
        if (history_[i].add(event.at, window) >= rule.threshold &&
            !cooling) {
            fired.push_back(&rule);
            last_fired_[i] = event.at;
            history_[i].clear();
        }
    }
    return fired;
}

namespace {

[[noreturn]] void fail(std::size_t line_no, const std::string& message) {
    throw PolicyError("policy line " + std::to_string(line_no) + ": " +
                      message);
}

std::vector<std::string> split_ws(const std::string& text) {
    std::vector<std::string> out;
    std::istringstream in(text);
    std::string token;
    while (in >> token) out.push_back(token);
    return out;
}

}  // namespace

PolicyEngine PolicyEngine::parse(const std::string& text) {
    PolicyEngine engine;
    std::istringstream in(text);
    std::string line;
    std::size_t line_no = 0;

    while (std::getline(in, line)) {
        ++line_no;
        const std::size_t comment = line.find_first_of(";#");
        if (comment != std::string::npos) line.resize(comment);
        if (line.find_first_not_of(" \t\r") == std::string::npos) continue;

        const std::size_t arrow = line.find("->");
        if (arrow == std::string::npos) {
            fail(line_no, "missing '->'");
        }
        const std::string head = line.substr(0, arrow);
        const std::string tail = line.substr(arrow + 2);

        PolicyRule rule;

        // Head: "rule <name>: cond cond cond".
        std::vector<std::string> tokens = split_ws(head);
        if (tokens.size() < 2 || tokens[0] != "rule") {
            fail(line_no, "expected 'rule <name>: ...'");
        }
        rule.name = tokens[1];
        if (!rule.name.empty() && rule.name.back() == ':') {
            rule.name.pop_back();
        } else if (tokens.size() > 2 && tokens[2] == ":") {
            // Allow a detached colon.
        } else {
            fail(line_no, "expected ':' after rule name");
        }

        for (std::size_t i = 2; i < tokens.size(); ++i) {
            const std::string& t = tokens[i];
            if (t == ":") continue;
            if (t.rfind("category=", 0) == 0) {
                const auto c = category_from_name(t.substr(9));
                if (!c) fail(line_no, "unknown category in '" + t + "'");
                rule.category = c;
            } else if (t.rfind("severity>=", 0) == 0) {
                const auto s = severity_from_name(t.substr(10));
                if (!s) fail(line_no, "unknown severity in '" + t + "'");
                rule.min_severity = *s;
            } else if (t.rfind("resource=", 0) == 0) {
                rule.resource_prefix = t.substr(9);
            } else if (t.rfind("count=", 0) == 0) {
                try {
                    rule.threshold =
                        static_cast<std::uint32_t>(std::stoul(t.substr(6)));
                } catch (const std::exception&) {
                    fail(line_no, "bad number in '" + t + "'");
                }
            } else if (t.rfind("window=", 0) == 0) {
                try {
                    rule.window = std::stoull(t.substr(7));
                } catch (const std::exception&) {
                    fail(line_no, "bad number in '" + t + "'");
                }
            } else if (t.rfind("cooldown=", 0) == 0) {
                try {
                    rule.cooldown = std::stoull(t.substr(9));
                } catch (const std::exception&) {
                    fail(line_no, "bad number in '" + t + "'");
                }
            } else {
                fail(line_no, "unknown condition '" + t + "'");
            }
        }

        // Tail: comma-separated actions.
        std::string actions_text = tail;
        for (char& c : actions_text) {
            if (c == ',') c = ' ';
        }
        for (const std::string& a : split_ws(actions_text)) {
            const auto action = action_from_name(a);
            if (!action) fail(line_no, "unknown action '" + a + "'");
            rule.actions.push_back(*action);
        }
        if (rule.actions.empty()) fail(line_no, "no actions");

        engine.add_rule(std::move(rule));
    }
    return engine;
}

}  // namespace cres::core
