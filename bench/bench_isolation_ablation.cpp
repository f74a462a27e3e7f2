// E9 — Independence ablation (paper §V-1): the SSM "must be physically
// independent and isolated". We pit a kernel-level compromise against
// (a) the physically isolated SSM and (b) a shared-resource SSM
// (TEE-style, as in [32]) and compare survival of the security
// function, evidence, and subsequent detection capability.
#include "attack/attacks.h"
#include "bench_util.h"
#include "platform/scenario.h"

namespace {

using namespace cres;

struct Ablation {
    bool ssm_survived = false;
    bool evidence_survived = false;
    bool chain_ok = false;
    bool followup_detected = false;
    std::size_t records = 0;
};

Ablation run(bool isolated, std::uint64_t seed) {
    platform::ScenarioConfig config;
    config.node.name = isolated ? "isolated" : "shared";
    config.node.resilient = true;
    config.node.ssm_isolated = isolated;
    config.warmup = 20000;
    config.horizon = 140000;
    config.seed = seed;

    platform::Scenario scenario(config);
    // First the kernel compromise targets the SSM itself...
    attack::SsmKillAttack kill;
    // ...then a follow-up exfiltration tests whether anyone is watching.
    attack::StackSmashAttack smash;
    smash.launch(scenario.node(), 60000);
    (void)scenario.run(&kill, 30000);

    Ablation a;
    auto& node = scenario.node();
    a.ssm_survived = !node.ssm->disabled();
    a.records = node.ssm->evidence().size();
    a.evidence_survived = a.records > 0;
    a.chain_ok = node.ssm->evidence().verify_chain() && a.records > 0;
    for (const auto& record : node.ssm->evidence().records()) {
        if (record.kind == "decision" && record.at >= 60000) {
            a.followup_detected = true;
        }
    }
    return a;
}

}  // namespace

int main() {
    bench::section(
        "E9 — SSM independence ablation: kernel compromise at t=30k, "
        "follow-up exfil attack at t=60k");

    bench::Table table({"SSM placement", "security function survives",
                        "evidence survives", "chain verifies",
                        "follow-up attack detected", "evidence records"});

    const Ablation isolated = run(true, 33);
    const Ablation shared = run(false, 33);

    table.row("physically isolated (paper SSV-1)",
              bench::yesno(isolated.ssm_survived),
              bench::yesno(isolated.evidence_survived),
              bench::yesno(isolated.chain_ok),
              bench::yesno(isolated.followup_detected), isolated.records);
    table.row("shared with app CPU (TEE-style [32])",
              bench::yesno(shared.ssm_survived),
              bench::yesno(shared.evidence_survived),
              bench::yesno(shared.chain_ok),
              bench::yesno(shared.followup_detected), shared.records);
    table.print();

    std::cout << "\nExpected shape: the isolated SSM shrugs the compromise "
                 "off (and records the attempt), then catches the follow-up "
                 "attack; the shared SSM dies with the kernel, loses all "
                 "evidence, and the follow-up breach goes unseen — exactly "
                 "the paper's argument for physical independence.\n";
    return 0;
}
