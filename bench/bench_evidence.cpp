// E6 — Continuity of data stream / evidence for cyber forensics: the
// paper's headline gap ("no existing mechanism provides continuity of
// data stream or security once trust has broken"). We breach both
// platforms, then play the forensic analyst: how many records from the
// attack window survive, do they cover the attack era, and can their
// integrity be proven to a third party?
#include "attack/attacks.h"
#include "bench_util.h"
#include "platform/scenario.h"

namespace {

using namespace cres;

struct Forensics {
    std::size_t total_records = 0;
    std::size_t attack_window_records = 0;
    bool pre_attack_history = false;
    bool chain_verifies = false;
    bool seal_verifies = false;
    bool tamper_detectable = false;
};

Forensics investigate(bool resilient, bool reboot_happens,
                      std::uint64_t seed) {
    platform::ScenarioConfig config;
    config.node.name = resilient ? "res" : "pas";
    config.node.resilient = resilient;
    config.warmup = 20000;
    config.horizon = 140000;
    config.seed = seed;

    platform::Scenario scenario(config);
    // A hang forces the passive platform through its watchdog reboot
    // (wiping volatile telemetry); a smash provides the breach story.
    attack::StackSmashAttack smash;
    attack::TaskHangAttack hang;
    if (reboot_happens) {
        hang.launch(scenario.node(), 80000);
    }
    (void)scenario.run(&smash, 30000);

    Forensics f;
    auto& node = scenario.node();
    if (node.ssm) {
        const auto& log = node.ssm->evidence();
        f.total_records = log.size();
        for (const auto& r : log.records()) {
            if (r.at >= 30000) ++f.attack_window_records;
            if (r.at < 30000) f.pre_attack_history = true;
        }
        f.chain_verifies = log.verify_chain();
        // The signed health report binds the evidence head to the SSM's
        // sealing identity; SsmFixture tests verify it cryptographically.
        f.seal_verifies = f.chain_verifies;
        // The forensic property that matters: tampering must be visible.
        core::EvidenceLog copy = log;
        if (copy.size() > 2) {
            copy.tamper_detail(1, "scrubbed by malware");
            f.tamper_detectable = !copy.verify_chain();
        }
    } else {
        f.total_records = node.recorder.size();
        node.recorder.for_each([&f](const obs::FlightRecord& r) {
            if (r.at >= 30000) ++f.attack_window_records;
            if (r.at < 30000) f.pre_attack_history = true;
        });
        f.chain_verifies = false;   // No integrity structure at all.
        f.seal_verifies = false;
        f.tamper_detectable = false;  // Edits are undetectable.
    }
    return f;
}

}  // namespace

int main() {
    bench::section(
        "E6 — Evidence continuity across a breach (forensic view)");

    bench::Table table({"platform", "scenario", "records", "attack-window",
                        "pre-attack history", "chain verifies",
                        "tamper detectable"});

    const Forensics passive_quiet = investigate(false, false, 91);
    const Forensics passive_reboot = investigate(false, true, 91);
    const Forensics resilient_quiet = investigate(true, false, 91);
    const Forensics resilient_reboot = investigate(true, true, 91);

    auto add = [&table](const std::string& platform,
                        const std::string& scenario, const Forensics& f) {
        table.row(platform, scenario, f.total_records,
                  f.attack_window_records, bench::yesno(f.pre_attack_history),
                  bench::yesno(f.chain_verifies),
                  bench::yesno(f.tamper_detectable));
    };
    add("passive", "breach only", passive_quiet);
    add("passive", "breach + reboot", passive_reboot);
    add("resilient", "breach only", resilient_quiet);
    add("resilient", "breach + hang", resilient_reboot);
    table.print();

    std::cout << "\nExpected shape: the passive platform's telemetry is "
                 "volatile (a reboot erases the attack era entirely) and "
                 "carries no integrity structure, so even surviving records "
                 "prove nothing. The resilient platform's hash-chained log "
                 "covers before/during/after the breach, survives recovery, "
                 "and any tampering breaks the chain.\n";
    return 0;
}
