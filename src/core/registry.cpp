#include "core/registry.h"

#include <set>

namespace cres::core {

const std::vector<Capability>& capability_registry() {
    static const std::vector<Capability> registry = {
        // IDENTIFY — managing security risks.
        {"identify", "risk assessment / asset management",
         "asset inventory with criticality x exposure x incident scoring",
         "core/ssm/risk (RiskRegister)"},
        {"identify", "threat & security modelling",
         "declarative policy rules compiled from a threat-model DSL",
         "core/policy (PolicyEngine)"},
        {"identify", "attack-surface identification",
         "bus region metadata + per-master access allowlists",
         "mem/bus (Bus::regions), core/monitor (BusMonitor)"},

        // PROTECT — protection methods / trust anchor.
        {"protect", "root of trust / secure boot",
         "ROM-verified signed images, measured boot, anti-rollback",
         "boot (BootRom, PcrBank, MonotonicCounterBank)"},
        {"protect", "cryptographic protection",
         "SHA-256, HMAC, HKDF, WOTS+/Merkle signatures",
         "crypto"},
        {"protect", "resource isolation & segregation",
         "secure/non-secure bus attributes, MPU with W^X, TEE services",
         "mem (Mpu, Bus), tee (Tee)"},
        {"protect", "authenticated M2M communication",
         "HMAC-sealed frames with replay windows",
         "net (SecureChannel)"},

        // DETECT — continuous monitoring (paper characteristic 2).
        {"detect", "interconnect monitoring",
         "transaction screening, probe detection",
         "core/monitor (BusMonitor)"},
        {"detect", "static & dynamic flow integrity",
         "shadow call stack + valid-target CFI; byte-granular DIFT",
         "core/monitor (CfiMonitor, DiftMonitor)"},
        {"detect", "memory behaviour monitoring",
         "code-write detection, canary watch, bulk-read heuristic",
         "core/monitor (MemoryMonitor)"},
        {"detect", "physical plausibility monitoring",
         "actuator range/slew/rate and sensor envelope checks",
         "core/monitor (PeripheralMonitor)"},
        {"detect", "liveness / timing monitoring",
         "per-task heartbeat deadlines with escalation",
         "core/monitor (TimingMonitor)"},
        {"detect", "network anomaly detection",
         "auth-failure streaks, replay and flood detection",
         "core/monitor (NetworkMonitor)"},
        {"detect", "environmental monitoring",
         "voltage/temperature envelope (glitch detection)",
         "core/monitor (EnvironmentMonitor)"},
        {"detect", "redundancy-based fault detection",
         "lockstep process-pair state comparison",
         "core/monitor (RedundancyMonitor)"},
        {"detect", "microarchitectural side-channel detection",
         "cross-domain cache-conflict storm detection (prime+probe)",
         "core/monitor (CacheMonitor), mem (CachedRam)"},

        // RESPOND — active countermeasures (paper characteristic 3).
        {"respond", "independent security manager",
         "physically isolated event correlation, health state machine,"
         " policy-driven dispatch",
         "core/ssm (SystemSecurityManager)"},
        {"respond", "active countermeasures",
         "bus-level resource isolation, task kill, key zeroisation,"
         " rate limiting, operator alerting",
         "core/response (ActiveResponseManager)"},
        {"respond", "graceful degradation",
         "shed non-critical services, keep critical function alive",
         "core/response (DegradationManager)"},
        {"respond", "side-channel countermeasure",
         "security-domain cache partitioning on demand",
         "core/response (kPartitionCache), mem (CachedRam)"},

        // RECOVER — restore and learn.
        {"recover", "roll-back and roll-forward",
         "A/B update slots, provisional activation, commit/rollback",
         "boot (UpdateAgent)"},
        {"recover", "state recovery",
         "CPU+RAM checkpoint/restore from SSM-private storage",
         "core/response (RecoveryManager)"},
        {"recover", "evidence collection / cyber forensics",
         "hash-chained, sealed evidence log surviving compromise",
         "core/ssm (EvidenceLog)"},
        {"recover", "communicable incident reporting",
         "rendered incident reports generated from the evidence chain",
         "core/ssm (IncidentReport)"},
        {"recover", "attestable health reporting",
         "signed health reports and PCR quotes for remote verifiers",
         "core/ssm (HealthReport), net (AttestationVerifier)"},
    };
    return registry;
}

std::vector<std::string> covered_functions() {
    std::set<std::string> seen;
    std::vector<std::string> out;
    for (const auto& cap : capability_registry()) {
        if (seen.insert(cap.csf_function).second) {
            out.push_back(cap.csf_function);
        }
    }
    return out;
}

}  // namespace cres::core
